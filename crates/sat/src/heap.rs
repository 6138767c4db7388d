//! Indexed binary max-heap ordering variables by activity (VSIDS).

use crate::lit::Var;

/// Max-heap over variables keyed by an external activity array.
///
/// Supports `O(log n)` insert/remove-max and, crucially for VSIDS,
/// `O(log n)` priority increase of an arbitrary contained variable.
///
/// The position table is sized once per variable by [`VarHeap::grow_to`],
/// so the hot paths (the solver reinserts every unassigned variable on
/// backjump) index it directly.
#[derive(Debug, Default, Clone)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// `positions[v] == ABSENT` when `v` is not in the heap.
    positions: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> VarHeap {
        VarHeap::default()
    }

    /// Ensures the position table covers variables up to `n - 1`.
    pub fn grow_to(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, ABSENT);
        }
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of variables currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether `v` is currently in the heap.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.positions.get(v.index()).is_some_and(|&p| p != ABSENT)
    }

    /// The variable stored at heap slot `i` (arbitrary order beyond the
    /// root); used for random-branching diversification.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Var> {
        self.heap.get(i).copied()
    }

    /// Inserts `v` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not covered by an earlier [`VarHeap::grow_to`].
    #[inline]
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.positions[v.index()] != ABSENT {
            return;
        }
        let pos = self.heap.len();
        self.heap.push(v);
        self.sift_up(pos, activity);
    }

    /// Restores heap order after `v`'s activity increased.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not covered by an earlier [`VarHeap::grow_to`].
    #[inline]
    pub fn increased(&mut self, v: Var, activity: &[f64]) {
        let pos = self.positions[v.index()];
        if pos != ABSENT {
            self.sift_up(pos as usize, activity);
        }
    }

    /// Removes and returns the maximum-activity variable.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.positions[top.index()] = ABSENT;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        let act = activity[v.index()];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let pv = self.heap[parent];
            if activity[pv.index()] >= act {
                break;
            }
            self.heap[pos] = pv;
            self.positions[pv.index()] = pos as u32;
            pos = parent;
        }
        self.heap[pos] = v;
        self.positions[v.index()] = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        let v = self.heap[pos];
        let act = activity[v.index()];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            // The larger child; the left one on a tie.
            let (mut best, mut best_act) = (left, activity[self.heap[left].index()]);
            let right = left + 1;
            if right < len {
                let right_act = activity[self.heap[right].index()];
                if right_act > best_act {
                    (best, best_act) = (right, right_act);
                }
            }
            if best_act <= act {
                break;
            }
            let bv = self.heap[best];
            self.heap[pos] = bv;
            self.positions[bv.index()] = pos as u32;
            pos = best;
        }
        self.heap[pos] = v;
        self.positions[v.index()] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: usize) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut heap = VarHeap::new();
        heap.grow_to(5);
        for i in 0..5 {
            heap.insert(var(i), &activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop_max(&activity))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
        assert!(heap.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut heap = VarHeap::new();
        heap.grow_to(2);
        heap.insert(var(0), &activity);
        heap.insert(var(0), &activity);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn increased_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = VarHeap::new();
        heap.grow_to(3);
        for i in 0..3 {
            heap.insert(var(i), &activity);
        }
        activity[0] = 10.0;
        heap.increased(var(0), &activity);
        assert_eq!(heap.pop_max(&activity), Some(var(0)));
    }
}
