//! Placement-level trajectory golden: three corpus scenarios placed at one
//! thread under the quick profile with a small round budget. Each pins the
//! SAT conflicts, the HPWL of every Algorithm 1 round and a hash of the
//! placed cell rectangles. The values were recorded before the SAT kernel
//! was last rewritten; a kernel change that keeps the search the same keeps
//! all of them (the SAT-level twin is `crates/sat/tests/trajectory.rs`).

use ams_place::scenario::scenario;
use ams_place::{Placer, PlacerConfig};

/// FNV-1a over the cells' `(x, y, w, h)` words.
fn cells_hash(p: &ams_place::Placement) -> u64 {
    p.cells
        .iter()
        .flat_map(|r| [r.x, r.y, r.w, r.h])
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn run(index: u32) -> (u64, Vec<u64>, u64) {
    let s = scenario(index);
    let mut config = s.config(PlacerConfig::fast());
    config.optimize.k_iter = 1;
    config.optimize.conflict_budget = Some(2_000);
    let placement = Placer::builder(&s.design)
        .config(config)
        .threads(1)
        .build()
        .expect("encode")
        .place()
        .expect("place");
    (
        placement.stats.conflicts,
        placement.stats.hpwl_trace.clone(),
        cells_hash(&placement),
    )
}

#[test]
fn corpus_scenarios_keep_their_search() {
    let got: Vec<_> = [200, 431, 1291].into_iter().map(run).collect();
    let want = vec![
        (950, vec![46, 38], 2698302621434090219),
        (2897, vec![225], 1574795740887640539),
        (2949, vec![265], 5625023821635574919),
    ];
    assert_eq!(got, want);
}
