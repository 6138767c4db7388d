//! Trajectory goldens: the exact search the solver performs on fixed inputs.
//!
//! Each case pins every search counter (`ams_sat::Stats`) and an FNV-1a
//! hash of the model (or of the failed-assumption core). The values were
//! recorded before the propagation/analysis kernel was last rewritten and
//! must stay byte-for-byte identical across any change that claims to keep
//! the search the same: one extra decision, a different watcher order or a
//! reordered learnt clause moves at least one of them. A change that
//! *means* to alter the search updates these values and says why.
//!
//! The threshold instance of seed 3 and the budgeted pigeonhole run reduce
//! the learnt database and compact the clause arena several times, so
//! clause deletion and relocation are on the pinned path too.

use ams_sat::{Lit, SolveResult, Solver, Var};

/// SplitMix64; local copy to keep ams-sat dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next()) * bound as u128) >> 64) as usize
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn model_hash(s: &Solver) -> u64 {
    fnv1a((0..s.num_vars()).map(|v| u8::from(s.value(Var::from_index(v)))))
}

fn lits_hash(lits: &[Lit]) -> u64 {
    fnv1a(lits.iter().flat_map(|l| (l.code() as u32).to_le_bytes()))
}

/// The pinned part of a run: the verdict, the counters that define the
/// search path (`[conflicts, decisions, propagations, restarts, learnts]`)
/// and a model or core hash.
type Trajectory = (SolveResult, [u64; 5], u64);

fn trajectory(s: &Solver, result: SolveResult, hash: u64) -> Trajectory {
    let st = s.stats();
    let counts = [
        st.conflicts,
        st.decisions,
        st.propagations,
        st.restarts,
        st.learnts,
    ];
    (result, counts, hash)
}

/// A literal over a uniformly drawn variable of `x`, either polarity.
fn random_lit(rng: &mut Rng, x: &[Lit]) -> Lit {
    let l = x[rng.below(x.len())];
    if rng.next() & 1 == 1 {
        l
    } else {
        !l
    }
}

/// Uniform random 3-SAT with distinct variables per clause.
fn random_3sat(s: &mut Solver, rng: &mut Rng, vars: usize, clauses: usize) -> Vec<Lit> {
    let lits: Vec<Lit> = (0..vars).map(|_| s.new_var().positive()).collect();
    for _ in 0..clauses {
        let mut c: Vec<Lit> = Vec::with_capacity(3);
        while c.len() < 3 {
            let v = lits[rng.below(vars)];
            if c.iter().all(|l| l.var() != v.var()) {
                c.push(if rng.next() & 1 == 1 { v } else { !v });
            }
        }
        s.add_clause(&c);
    }
    lits
}

/// `n` pigeons into `n - 1` holes.
fn pigeonhole(s: &mut Solver, n: usize) {
    let x: Vec<Vec<Lit>> = (0..n)
        .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &x {
        s.add_clause(row);
    }
    for i1 in 0..n {
        for i2 in (i1 + 1)..n {
            for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                s.add_clause(&[!a, !b]);
            }
        }
    }
}

#[test]
fn random_3sat_at_the_threshold() {
    let mut got = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut s = Solver::new();
        random_3sat(&mut s, &mut Rng(seed), 150, 639);
        let r = s.solve();
        let hash = if r == SolveResult::Sat {
            model_hash(&s)
        } else {
            0
        };
        got.push(trajectory(&s, r, hash));
    }
    let want = [
        (
            SolveResult::Sat,
            [245, 334, 7838, 0, 245],
            7115566185586409635,
        ),
        (
            SolveResult::Sat,
            [454, 590, 15396, 1, 454],
            1808590091716122126,
        ),
        (SolveResult::Unsat, [2826, 3329, 85940, 6, 181], 0),
    ];
    assert_eq!(got, want);
}

#[test]
fn pigeonhole_7_into_6() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 7);
    let r = s.solve();
    let want = (SolveResult::Unsat, [768, 901, 9735, 2, 16], 0);
    assert_eq!(trajectory(&s, r, 0), want);
}

/// Several solves on one solver, with clauses added in between and
/// assumptions that end in a failed-assumption core.
#[test]
fn incremental_solves_under_assumptions_end_in_a_core() {
    let mut s = Solver::new();
    let mut rng = Rng(7);
    let x = random_3sat(&mut s, &mut rng, 120, 420);
    let mut steps = Vec::new();
    for round in 0..6 {
        let assumptions: Vec<Lit> = (0..2 + round).map(|_| random_lit(&mut rng, &x)).collect();
        let r = s.solve_with(&assumptions);
        let hash = match r {
            SolveResult::Sat => model_hash(&s),
            _ => lits_hash(s.failed_assumptions()),
        };
        steps.push(trajectory(&s, r, hash));
        random_3sat_more(&mut s, &mut rng, &x, 30);
    }
    let want = [
        (
            SolveResult::Sat,
            [266, 343, 7542, 1, 266],
            5136929143746895613,
        ),
        (
            SolveResult::Sat,
            [357, 461, 10053, 1, 357],
            353931361819923273,
        ),
        (
            SolveResult::Sat,
            [608, 764, 17116, 1, 608],
            9907980284972167555,
        ),
        (
            SolveResult::Unsat,
            [710, 890, 19551, 1, 710],
            10815525160924366992,
        ),
        (
            SolveResult::Unsat,
            [740, 919, 20340, 1, 740],
            9033640689912361725,
        ),
        (
            SolveResult::Unsat,
            [754, 938, 20688, 1, 754],
            1060552774178889966,
        ),
    ];
    assert_eq!(steps, want);
    assert!(
        !s.failed_assumptions().is_empty(),
        "the last solve must fail on its assumptions, not on the formula"
    );
    assert!(s.is_ok());
}

fn random_3sat_more(s: &mut Solver, rng: &mut Rng, x: &[Lit], clauses: usize) {
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..3).map(|_| random_lit(rng, x)).collect();
        s.add_clause(&c);
    }
}

#[test]
fn conflict_budget_ends_in_unknown() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 9);
    s.set_conflict_budget(Some(3_000));
    let r = s.solve();
    let want = (SolveResult::Unknown, [3000, 3647, 37735, 7, 957], 0);
    assert_eq!(trajectory(&s, r, 0), want);
}
