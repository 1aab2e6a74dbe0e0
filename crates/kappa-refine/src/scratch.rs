//! Pooled scratch buffers for the refinement hot path.
//!
//! Every 2-way FM search used to allocate three `O(n)` vectors (`in_band`,
//! `gains`, `moved`) and every band BFS one more (`dist`) — per pair, per
//! local iteration, so refinement *allocation* scaled with total graph size
//! even when the searchable band was tiny. [`FmScratch`] keeps those buffers
//! alive between searches: the two node-indexed arrays (`pos`, `dist`) are
//! grown once to `n` and reset only at the `O(|band|)` entries a search
//! touched; the remaining buffers are indexed by *band position* and merely
//! cleared (capacity retained). On out-of-core graphs the scratch also lends
//! its band memo to the pair search, so the memo's node-indexed slot map is
//! pooled the same way. [`ScratchPool`] hands the buffers out to the
//! scheduler's concurrent pair workers, so a refinement call performs at most
//! `min(#workers, #pairs)` full-size allocations no matter how many pair
//! searches run.

use std::sync::Mutex;

use kappa_graph::{NodeId, INVALID_NODE};

use crate::memo::BandMemo;

/// Reusable buffers for one 2-way FM search plus its band BFS.
///
/// Obtain one from a [`ScratchPool`] (or [`FmScratch::new`] for one-off
/// calls) and pass it to
/// [`two_way_fm_in`](crate::fm::two_way_fm_in). All buffers are
/// reset by the search itself before it returns, so a scratch can be reused
/// for any later search on any graph.
#[derive(Debug, Default)]
pub struct FmScratch {
    /// Node → position in the current band (`INVALID_NODE` when outside).
    /// Node-indexed; reset entry-by-entry after each search.
    pub(crate) pos: Vec<NodeId>,
    /// Gain of each band node, indexed by band position.
    pub(crate) gains: Vec<i64>,
    /// Moved flag of each band node, indexed by band position.
    pub(crate) moved: Vec<bool>,
    /// BFS distance scratch for the band extraction, node-indexed
    /// (`u32::MAX` = unseen); reset entry-by-entry by the BFS.
    pub(crate) dist: Vec<u32>,
    /// The band of the current swept search in BFS order (see
    /// `band::sweep_band`), kept for its capacity.
    pub(crate) band: Vec<NodeId>,
    /// Adjacency memo of one pair search on an out-of-core graph (see
    /// `memo.rs`); lent to the search's `MemoGraph` and handed back cleared.
    pub(crate) memo: BandMemo,
}

impl FmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FmScratch::default()
    }

    /// Grows the node-indexed `pos` map to cover `n` nodes and clears the
    /// band-indexed buffers. Called by the FM search on entry.
    pub(crate) fn prepare(&mut self, n: usize, band_len: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, INVALID_NODE);
        }
        debug_assert!(
            self.pos.iter().all(|&p| p == INVALID_NODE),
            "dirty band-position scratch"
        );
        self.gains.clear();
        self.gains.resize(band_len, 0);
        self.moved.clear();
        self.moved.resize(band_len, false);
    }

    /// The BFS distance scratch, for
    /// [`band_around_boundary_in`](kappa_graph::band_around_boundary_in).
    pub fn bfs_dist(&mut self) -> &mut Vec<u32> {
        &mut self.dist
    }
}

/// A shared pool of [`FmScratch`] buffers for concurrent pair workers.
///
/// Workers [`take`](ScratchPool::take) a scratch at the start of a pair
/// search and [`put`](ScratchPool::put) it back afterwards; the pool grows to
/// at most the peak number of concurrent searches and all later searches
/// reuse those buffers. The mutex is touched twice per *pair* (not per FM
/// iteration), so contention is negligible next to the search itself.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<FmScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Pops a free scratch, or creates a fresh one when all are in use.
    pub fn take(&self) -> FmScratch {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch to the pool for reuse.
    pub fn put(&self, scratch: FmScratch) {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of scratches currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut s = pool.take();
        s.prepare(100, 10);
        // Simulate the search's reset contract.
        for p in s.pos.iter_mut() {
            *p = INVALID_NODE;
        }
        let capacity = s.pos.capacity();
        pool.put(s);
        assert_eq!(pool.idle(), 1);
        let s2 = pool.take();
        assert_eq!(s2.pos.capacity(), capacity, "buffer was not reused");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn prepare_clears_band_buffers() {
        let mut s = FmScratch::new();
        s.prepare(8, 4);
        s.gains[2] = 7;
        s.moved[3] = true;
        s.prepare(8, 6);
        assert!(s.gains.iter().all(|&g| g == 0));
        assert!(s.moved.iter().all(|&m| !m));
        assert_eq!(s.gains.len(), 6);
    }
}
