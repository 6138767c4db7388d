//! Clause storage arena.
//!
//! Clauses live in one contiguous `Vec<u32>`; a [`ClauseRef`] is an offset
//! into it. Each clause is laid out as
//!
//! ```text
//! [header][len][lit0][lit1]...[litN-1]([activity])
//! ```
//!
//! where the trailing activity word exists only for learnt clauses. Deleted
//! clauses are tombstoned and reclaimed by [`ClauseDb::collect`], which
//! returns a [`Relocation`] so the solver can patch watcher lists and
//! reason references.

use crate::lit::Lit;

/// Reference to a clause inside a [`ClauseDb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }
}

const LEARNT_BIT: u32 = 1 << 31;
const DELETED_BIT: u32 = 1 << 30;
const LBD_MASK: u32 = DELETED_BIT - 1;

/// Arena of clauses with tombstone deletion and compacting collection.
#[derive(Debug, Default, Clone)]
pub struct ClauseDb {
    data: Vec<u32>,
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty arena.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Number of 32-bit words currently wasted by tombstoned clauses.
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total number of 32-bit words in the arena.
    pub fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Allocates a clause; `lits` must contain at least two literals
    /// (unit and empty clauses are handled by the solver directly).
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let at = self.data.len();
        let header = if learnt { LEARNT_BIT } else { 0 };
        self.data.push(header);
        self.data.push(lits.len() as u32);
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            self.data.push(1.0f32.to_bits());
        }
        ClauseRef(at as u32)
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.data[cref.offset()]
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.data[cref.offset() + 1] as usize
    }

    /// Whether the arena contains no clauses.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The literals of the clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let len = self.len(cref);
        let start = cref.offset() + 2;
        // SAFETY: `Lit` is `repr(transparent)` over `u32`, and these words
        // were written by `alloc` from `Lit::code()` values.
        unsafe {
            std::slice::from_raw_parts(self.data[start..start + len].as_ptr() as *const Lit, len)
        }
    }

    /// Mutable access to the literals of the clause.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let len = self.len(cref);
        let start = cref.offset() + 2;
        // SAFETY: see `lits`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.data[start..start + len].as_mut_ptr() as *mut Lit,
                len,
            )
        }
    }

    /// A single literal of the clause.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[cref.offset() + 2 + i] as usize)
    }

    /// Whether the clause was learnt during search.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    /// Whether the clause has been tombstoned.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// Literal-block distance recorded for a learnt clause.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.header(cref) & LBD_MASK
    }

    /// Records the literal-block distance of a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let h = self.header(cref);
        self.data[cref.offset()] = (h & !LBD_MASK) | (lbd & LBD_MASK);
    }

    /// Activity of a learnt clause.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(cref));
        let len = self.len(cref);
        f32::from_bits(self.data[cref.offset() + 2 + len])
    }

    /// Sets the activity of a learnt clause.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, act: f32) {
        debug_assert!(self.is_learnt(cref));
        let len = self.len(cref);
        self.data[cref.offset() + 2 + len] = act.to_bits();
    }

    /// Tombstones the clause; its storage is reclaimed by [`Self::collect`].
    pub fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        let words = self.clause_words(cref);
        self.data[cref.offset()] |= DELETED_BIT;
        self.wasted += words;
    }

    fn clause_words(&self, cref: ClauseRef) -> usize {
        2 + self.len(cref) + usize::from(self.is_learnt(cref))
    }

    /// Compacts the arena, dropping tombstoned clauses. Returns the
    /// relocation mapping old references to new ones.
    pub fn collect(&mut self) -> Relocation {
        let mut new_data = Vec::with_capacity(self.data.len() - self.wasted);
        let mut at = 0usize;
        while at < self.data.len() {
            let cref = ClauseRef(at as u32);
            let words = self.clause_words(cref);
            // The old header word becomes the forwarding address: the old
            // arena outlives the copy as the relocation table.
            if self.is_deleted(cref) {
                self.data[at] = GONE;
            } else {
                let new_at = new_data.len() as u32;
                new_data.extend_from_slice(&self.data[at..at + words]);
                self.data[at] = new_at;
            }
            at += words;
        }
        self.wasted = 0;
        Relocation {
            forward: std::mem::replace(&mut self.data, new_data),
        }
    }

    /// Iterates over all live clause references.
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { db: self, at: 0 }
    }
}

/// Forwarding marker of a clause dropped by [`ClauseDb::collect`]. Never a
/// real offset: a clause there would have no `u32`-addressable words left.
const GONE: u32 = u32::MAX;

/// Old-to-new reference map returned by [`ClauseDb::collect`]: the
/// pre-compaction arena with every clause header replaced by the clause's
/// new offset, so a lookup is one load and no side table is built.
#[derive(Debug)]
pub struct Relocation {
    forward: Vec<u32>,
}

impl Relocation {
    /// Where the clause at `old` lives now; `None` if it was deleted.
    /// `old` must have been a clause reference of the arena before the
    /// collection.
    #[inline]
    pub fn get(&self, old: ClauseRef) -> Option<ClauseRef> {
        let to = self.forward[old.offset()];
        (to != GONE).then_some(ClauseRef(to))
    }

    /// Like [`Relocation::get`] for a reference known to be live.
    ///
    /// # Panics
    ///
    /// Panics if the clause was deleted.
    #[inline]
    pub fn live(&self, old: ClauseRef) -> ClauseRef {
        self.get(old).expect("live clause survives collection")
    }
}

/// Iterator over live clauses in a [`ClauseDb`].
#[derive(Debug)]
pub struct ClauseIter<'a> {
    db: &'a ClauseDb,
    at: usize,
}

impl Iterator for ClauseIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.at < self.db.data.len() {
            let cref = ClauseRef(self.at as u32);
            self.at += self.db.clause_words(cref);
            if !self.db.is_deleted(cref) {
                return Some(cref);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(idx: &[(usize, bool)]) -> Vec<Lit> {
        idx.iter()
            .map(|&(v, p)| Lit::new(Var::from_index(v), p))
            .collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c = lits(&[(0, true), (1, false), (2, true)]);
        let cref = db.alloc(&c, false);
        assert_eq!(db.len(cref), 3);
        assert_eq!(db.lits(cref), &c[..]);
        assert!(!db.is_learnt(cref));
        assert!(!db.is_deleted(cref));
    }

    #[test]
    fn learnt_activity_roundtrip() {
        let mut db = ClauseDb::new();
        let cref = db.alloc(&lits(&[(0, true), (1, true)]), true);
        assert!(db.is_learnt(cref));
        db.set_activity(cref, 3.5);
        assert_eq!(db.activity(cref), 3.5);
        db.set_lbd(cref, 7);
        assert_eq!(db.lbd(cref), 7);
        assert!(db.is_learnt(cref));
        assert!(!db.is_deleted(cref));
    }

    #[test]
    fn delete_and_collect_relocates() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[(0, true), (1, true)]), false);
        let b = db.alloc(&lits(&[(2, true), (3, true), (4, false)]), true);
        let c = db.alloc(&lits(&[(5, false), (6, true)]), false);
        db.delete(a);
        let reloc = db.collect();
        assert_eq!(reloc.get(a), None);
        let nb = reloc.live(b);
        let nc = reloc.live(c);
        assert_eq!(db.lits(nb), &lits(&[(2, true), (3, true), (4, false)])[..]);
        assert_eq!(db.lits(nc), &lits(&[(5, false), (6, true)])[..]);
        assert!(db.is_learnt(nb));
        assert_eq!(db.wasted(), 0);
    }

    #[test]
    fn iter_skips_deleted() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[(0, true), (1, true)]), false);
        let b = db.alloc(&lits(&[(2, true), (3, true)]), false);
        db.delete(a);
        let live: Vec<_> = db.iter().collect();
        assert_eq!(live, vec![b]);
    }
}
