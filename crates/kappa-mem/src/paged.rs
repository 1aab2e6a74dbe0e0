//! `PagedGraph` — the out-of-core storage level.
//!
//! The Θ(m) part of the graph (the per-node edge segments, same encoding as
//! [`CompactCsr`](crate::CompactCsr)) lives in a file; RAM holds only the
//! Θ(n) per-node scalars — byte offsets, degrees, node weights — plus a
//! **fixed-budget direct-mapped page cache**. Every segment read goes through
//! `seek` + `read_exact` on cache miss; there is no `mmap` and no `unsafe`,
//! so behaviour (and peak RSS) is fully deterministic: the cache never holds
//! more than `page_size × cache_pages` bytes regardless of graph size.
//!
//! Direct mapping (slot = `page mod slots`) instead of LRU is deliberate: a
//! predictable eviction rule keeps the replacement behaviour identical run
//! to run, and the pipeline reads paged levels in ascending node order.
//! Matching and contraction sweep the nodes sequentially, missing once per
//! page. Refinement does not read the paged level directly: the graph
//! reports [`GraphAccess::is_out_of_core`], so each pair search copies its
//! band's adjacency into a RAM memo once (kappa-refine's `MemoGraph`), one
//! sorted sweep per BFS layer, and runs the BFS and FM on that copy. Read
//! directly, in BFS and move order and three to four times per local
//! iteration, the bands of an rgg 2^16 call missed ~367 k pages of a
//! 35-page edge file through a 7-slot cache; through the memo, ~27 k.
//!
//! Coordinates are dropped by design: they are only consulted by the
//! geometric pre-partition of the parallel matcher, which the tiered
//! pipeline does not use (see `kappa-core::tiered`).

use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use kappa_graph::{Adjacency, CsrGraph, EdgeWeight, GraphAccess, NodeId, NodeWeight};

use crate::segment::{decode_segment, encode_segment, SegmentIter};

const MAGIC: [u8; 8] = *b"KMEMPGv1";
const HEADER_LEN: u64 = 64;
const FLAG_WEIGHTED: u32 = 1;
const FLAG_HAS_VWGT: u32 = 2;

/// Page-cache geometry. The RAM ceiling of a paged graph's edge storage is
/// `page_size * cache_pages` (default 64 MiB) — independent of graph size.
#[derive(Clone, Copy, Debug)]
pub struct PageCacheConfig {
    /// Bytes per page (default 64 KiB).
    pub page_size: usize,
    /// Number of direct-mapped cache slots (default 1024).
    pub cache_pages: usize,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig {
            page_size: 64 << 10,
            cache_pages: 1024,
        }
    }
}

/// Hit/miss counters of the page cache (monotonic since open/reset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page lookups served from a resident slot.
    pub hits: u64,
    /// Page lookups that had to read from disk.
    pub misses: u64,
}

struct CacheSlot {
    /// Page id resident in this slot; `u64::MAX` = empty.
    page: u64,
    data: Vec<u8>,
}

struct PageCache {
    file: File,
    /// Byte length of the edge region (starts at `HEADER_LEN` in the file).
    region_len: u64,
    page_size: usize,
    slots: Vec<CacheSlot>,
    stats: CacheStats,
}

impl PageCache {
    fn new(file: File, region_len: u64, config: PageCacheConfig) -> Self {
        let slots = (0..config.cache_pages.max(1))
            .map(|_| CacheSlot {
                page: u64::MAX,
                data: Vec::new(),
            })
            .collect();
        PageCache {
            file,
            region_len,
            page_size: config.page_size.max(512),
            slots,
            stats: CacheStats::default(),
        }
    }

    /// Appends the edge-region bytes `[lo, hi)` to `out`.
    fn copy_range(&mut self, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        debug_assert!(hi <= self.region_len);
        let ps = self.page_size as u64;
        let mut pos = lo;
        while pos < hi {
            let page = pos / ps;
            let slot_idx = (page % self.slots.len() as u64) as usize;
            if self.slots[slot_idx].page != page {
                self.stats.misses += 1;
                let page_start = page * ps;
                let len = (self.region_len - page_start).min(ps) as usize;
                let slot = &mut self.slots[slot_idx];
                slot.data.resize(len, 0);
                self.file.seek(SeekFrom::Start(HEADER_LEN + page_start))?;
                self.file.read_exact(&mut slot.data[..len])?;
                slot.page = page;
            } else {
                self.stats.hits += 1;
            }
            let in_page = (pos - page * ps) as usize;
            let take = ((hi - pos) as usize).min(self.page_size - in_page);
            out.extend_from_slice(&self.slots[slot_idx].data[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(())
    }
}

/// A frozen graph whose edge segments live on disk behind a page cache.
pub struct PagedGraph {
    path: PathBuf,
    delete_on_drop: bool,
    /// Edge-region byte offsets, length `n + 1`.
    offsets: Vec<u64>,
    /// Node degrees, kept in RAM so `degree_of` never touches disk.
    degrees: Vec<u32>,
    /// Node weights; `None` ⇒ unit.
    vwgt: Option<Vec<NodeWeight>>,
    weighted: bool,
    num_half_edges: usize,
    total_node_weight: NodeWeight,
    max_node_weight: NodeWeight,
    cache: Mutex<PageCache>,
}

thread_local! {
    /// Per-thread byte scratch for segment reads. `Cell` + take/set instead
    /// of `RefCell` so a re-entrant read (callback reads the graph again)
    /// degrades to a fresh allocation rather than a borrow panic.
    static SEGMENT_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl PagedGraph {
    /// Opens a graph file written by [`PagedWriter`].
    ///
    /// The header is checked against the file length before anything is
    /// allocated, and the index against the header after it is read, so a
    /// truncated or corrupted file is an [`io::ErrorKind::InvalidData`]
    /// error rather than an allocation failure or a later panic.
    pub fn open(path: &Path, config: PageCacheConfig) -> io::Result<PagedGraph> {
        let invalid = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what}", path.display()),
            )
        };
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(invalid("not a kappa-mem paged graph"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(invalid("not a kappa-mem paged graph"));
        }
        let field = |at: usize| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&header[at..at + 8]);
            u64::from_le_bytes(bytes)
        };
        let mut flag_bytes = [0u8; 4];
        flag_bytes.copy_from_slice(&header[8..12]);
        let flags = u32::from_le_bytes(flag_bytes);
        let (num_nodes, num_half_edges) = (field(16), field(24));
        let (total_node_weight, max_node_weight) = (field(32), field(40));
        let region_len = field(48);

        if flags & !(FLAG_WEIGHTED | FLAG_HAS_VWGT) != 0 {
            return Err(invalid("unknown header flags"));
        }
        // Node ids are `u32` below the `INVALID_NODE` sentinel, and every
        // segment holds at least one byte per node (its degree) and one per
        // half-edge.
        if num_nodes >= u64::from(NodeId::MAX) {
            return Err(invalid("node count out of range"));
        }
        if num_nodes
            .checked_add(num_half_edges)
            .is_none_or(|min| min > region_len)
        {
            return Err(invalid("edge region too short for the header's counts"));
        }
        // Index: n + 1 offsets (u64), n degrees (u32), optionally n weights
        // (u64). `num_nodes < 2^32` keeps this far from overflow.
        let vwgt_len = if flags & FLAG_HAS_VWGT != 0 {
            8 * num_nodes
        } else {
            0
        };
        let index_len = 8 * (num_nodes + 1) + 4 * num_nodes + vwgt_len;
        if HEADER_LEN
            .checked_add(region_len)
            .and_then(|len| len.checked_add(index_len))
            != Some(file_len)
        {
            return Err(invalid("file length does not match the header"));
        }
        let num_nodes = num_nodes as usize;

        file.seek(SeekFrom::Start(HEADER_LEN + region_len))?;
        let mut reader = io::BufReader::new(file);
        let offsets = read_u64_vec(&mut reader, num_nodes + 1)?;
        let degrees = read_u32_vec(&mut reader, num_nodes)?;
        let vwgt = if flags & FLAG_HAS_VWGT != 0 {
            Some(read_u64_vec(&mut reader, num_nodes)?)
        } else {
            None
        };
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[num_nodes] != region_len
        {
            return Err(invalid("segment offsets do not cover the edge region"));
        }
        if degrees.iter().map(|&d| u64::from(d)).sum::<u64>() != num_half_edges {
            return Err(invalid("degrees do not sum to the half-edge count"));
        }
        let file = reader.into_inner();
        Ok(PagedGraph {
            path: path.to_path_buf(),
            delete_on_drop: false,
            offsets,
            degrees,
            vwgt,
            weighted: flags & FLAG_WEIGHTED != 0,
            num_half_edges: num_half_edges as usize,
            total_node_weight,
            max_node_weight,
            cache: Mutex::new(PageCache::new(file, region_len, config)),
        })
    }

    /// Writes `graph` to `path` in paged form and opens it. Convenience for
    /// tests and for spilling an in-RAM graph; large graphs should stream
    /// through [`build::paged_from_source`](crate::build::paged_from_source)
    /// instead of materialising the CSR first.
    pub fn from_graph(
        graph: &CsrGraph,
        path: &Path,
        config: PageCacheConfig,
    ) -> io::Result<PagedGraph> {
        let weighted = !graph.adjwgt().iter().all(|&w| w == 1);
        let mut writer = PagedWriter::create(path, graph.num_nodes(), weighted)?;
        let mut scratch: Vec<(NodeId, EdgeWeight)> = Vec::new();
        for v in graph.nodes() {
            scratch.clear();
            scratch.extend(graph.edges_of(v));
            writer.push_node(&scratch)?;
        }
        let vwgt = if graph.vwgt().iter().all(|&c| c == 1) {
            None
        } else {
            Some(graph.vwgt().to_vec())
        };
        writer.finish(vwgt, config)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// When set, the backing file is removed when the graph is dropped —
    /// used for hierarchy spill files in temp directories.
    pub fn set_delete_on_drop(&mut self, delete: bool) {
        self.delete_on_drop = delete;
    }

    /// Snapshot of the page-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("page cache poisoned").stats
    }

    /// Resets the hit/miss counters to zero.
    pub fn reset_cache_stats(&self) {
        self.cache.lock().expect("page cache poisoned").stats = CacheStats::default();
    }

    /// RAM resident bytes of the per-node index (offsets + degrees + vwgt);
    /// the page cache adds at most `page_size * cache_pages` on top.
    pub fn index_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.degrees.len() * 4
            + self.vwgt.as_ref().map_or(0, |v| v.len() * 8)
    }

    /// Reads the encoded segment of `v` into `out` (replacing its contents).
    ///
    /// # Panics
    /// Panics on I/O failure: the partitioning pipeline cannot continue
    /// without its graph, so disk errors are fatal by design.
    fn read_segment_into(&self, v: NodeId, out: &mut Vec<u8>) {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        out.clear();
        let mut cache = self.cache.lock().expect("page cache poisoned");
        cache
            .copy_range(lo, hi, out)
            .unwrap_or_else(|e| panic!("paged graph read failed ({}): {e}", self.path.display()));
    }
}

impl Drop for PagedGraph {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = fs::remove_file(&self.path);
        }
    }
}

impl Adjacency for PagedGraph {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        self.degrees[v as usize] as usize
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        match &self.vwgt {
            Some(c) => c[v as usize],
            None => 1,
        }
    }

    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
        SEGMENT_SCRATCH.with(|cell| {
            let mut buf = cell.take();
            self.read_segment_into(v, &mut buf);
            decode_segment(&buf, self.weighted, f);
            cell.set(buf);
        });
    }
}

impl GraphAccess for PagedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        PagedGraph::num_nodes(self)
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        self.num_half_edges
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        self.max_node_weight
    }

    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        // The iterator must own its data (the cache slot can be evicted),
        // so decode the segment eagerly into a small Vec.
        let mut edges: Vec<(NodeId, EdgeWeight)> = Vec::with_capacity(self.degree_of(v));
        SEGMENT_SCRATCH.with(|cell| {
            let mut buf = cell.take();
            self.read_segment_into(v, &mut buf);
            for pair in SegmentIter::new(&buf, self.weighted) {
                edges.push(pair);
            }
            cell.set(buf);
        });
        edges.into_iter()
    }

    fn is_out_of_core(&self) -> bool {
        true
    }
}

/// Streaming writer: nodes pushed in ascending id order with final merged,
/// sorted incidence lists; edge segments go straight to disk through a
/// `BufWriter`, only the Θ(n) offset/degree tables stay in RAM.
pub struct PagedWriter {
    path: PathBuf,
    out: BufWriter<File>,
    offsets: Vec<u64>,
    degrees: Vec<u32>,
    weighted: bool,
    num_half_edges: usize,
    buf: Vec<u8>,
}

impl PagedWriter {
    /// Creates (truncates) `path` and positions the writer at the edge region.
    pub fn create(path: &Path, nodes_hint: usize, weighted: bool) -> io::Result<PagedWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // Header is back-filled in `finish`; reserve its bytes now.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        let mut offsets = Vec::with_capacity(nodes_hint + 1);
        offsets.push(0);
        Ok(PagedWriter {
            path: path.to_path_buf(),
            out: BufWriter::with_capacity(1 << 20, file),
            offsets,
            degrees: Vec::with_capacity(nodes_hint),
            weighted,
            num_half_edges: 0,
            buf: Vec::new(),
        })
    }

    /// Appends the next node's incidence list (sorted, merged).
    pub fn push_node(&mut self, edges: &[(NodeId, EdgeWeight)]) -> io::Result<()> {
        self.buf.clear();
        encode_segment(&mut self.buf, edges, self.weighted);
        self.out.write_all(&self.buf)?;
        let last = *self.offsets.last().expect("offsets start non-empty");
        self.offsets.push(last + self.buf.len() as u64);
        self.degrees.push(edges.len() as u32);
        self.num_half_edges += edges.len();
        Ok(())
    }

    /// Number of nodes pushed so far.
    pub fn nodes_pushed(&self) -> usize {
        self.degrees.len()
    }

    /// Writes index + header and opens the finished graph.
    pub fn finish(
        mut self,
        vwgt: Option<Vec<NodeWeight>>,
        config: PageCacheConfig,
    ) -> io::Result<PagedGraph> {
        let n = self.degrees.len();
        if let Some(c) = &vwgt {
            assert_eq!(c.len(), n, "vwgt length mismatch");
        }
        let region_len = *self.offsets.last().expect("offsets non-empty");
        // Index regions after the edge region.
        for &o in &self.offsets {
            self.out.write_all(&o.to_le_bytes())?;
        }
        for &d in &self.degrees {
            self.out.write_all(&d.to_le_bytes())?;
        }
        if let Some(c) = &vwgt {
            for &w in c {
                self.out.write_all(&w.to_le_bytes())?;
            }
        }
        let (total, max) = match &vwgt {
            Some(c) => (c.iter().sum(), c.iter().copied().max().unwrap_or(0)),
            None => (n as NodeWeight, if n == 0 { 0 } else { 1 }),
        };
        let mut flags = 0u32;
        if self.weighted {
            flags |= FLAG_WEIGHTED;
        }
        if vwgt.is_some() {
            flags |= FLAG_HAS_VWGT;
        }
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&flags.to_le_bytes());
        header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(self.num_half_edges as u64).to_le_bytes());
        header[32..40].copy_from_slice(&total.to_le_bytes());
        header[40..48].copy_from_slice(&max.to_le_bytes());
        header[48..56].copy_from_slice(&region_len.to_le_bytes());
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(0))?;
        Ok(PagedGraph {
            path: self.path,
            delete_on_drop: false,
            offsets: self.offsets,
            degrees: self.degrees,
            vwgt,
            weighted: self.weighted,
            num_half_edges: self.num_half_edges,
            total_node_weight: total,
            max_node_weight: max,
            cache: Mutex::new(PageCache::new(file, region_len, config)),
        })
    }
}

fn read_u64_vec<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u64>> {
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(u64::from_le_bytes(b));
    }
    Ok(out)
}

fn read_u32_vec<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u32>> {
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(u32::from_le_bytes(b));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::graph_from_edges;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kappa-mem-test-{}-{name}.kpg", std::process::id()));
        p
    }

    fn tiny_cache() -> PageCacheConfig {
        PageCacheConfig {
            page_size: 512,
            cache_pages: 2,
        }
    }

    #[test]
    fn round_trip_matches_source_graph() {
        let g = graph_from_edges(
            5,
            vec![
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (0, 4, 6),
                (1, 3, 7),
            ],
        );
        let path = tmp("roundtrip");
        let mut p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
        p.set_delete_on_drop(true);
        assert_eq!(GraphAccess::num_nodes(&p), g.num_nodes());
        assert_eq!(GraphAccess::num_half_edges(&p), g.num_half_edges());
        assert_eq!(GraphAccess::total_node_weight(&p), g.total_node_weight());
        assert!(GraphAccess::coords(&p).is_none());
        for v in g.nodes() {
            let a: Vec<_> = g.edges_of(v).collect();
            let b: Vec<_> = GraphAccess::edges_of(&p, v).collect();
            assert_eq!(a, b, "node {v}");
            assert_eq!(p.degree_of(v), g.degree(v));
            let mut c = Vec::new();
            p.for_each_edge(v, |t, w| c.push((t, w)));
            assert_eq!(a, c, "for_each_edge node {v}");
        }
    }

    #[test]
    fn reopen_from_disk_sees_identical_graph() {
        let g = kappa_gen::rgg::random_geometric_graph(512, 7);
        let path = tmp("reopen");
        {
            let p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
            assert_eq!(GraphAccess::num_half_edges(&p), g.num_half_edges());
        }
        let mut p = PagedGraph::open(&path, PageCacheConfig::default()).unwrap();
        p.set_delete_on_drop(true);
        for v in g.nodes() {
            let a: Vec<_> = g.edges_of(v).collect();
            let b: Vec<_> = GraphAccess::edges_of(&p, v).collect();
            assert_eq!(a, b, "node {v}");
        }
        assert_eq!(GraphAccess::max_node_weight(&p), g.max_node_weight());
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let g = kappa_gen::grid::grid2d(32, 32);
        let path = tmp("stats");
        let mut p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
        p.set_delete_on_drop(true);
        // Sequential sweep: mostly hits after the first touch of each page.
        for v in g.nodes() {
            p.for_each_edge(v, |_, _| {});
        }
        let s = p.cache_stats();
        assert!(s.hits > s.misses, "sweep should be cache-friendly: {s:?}");
        p.reset_cache_stats();
        assert_eq!(p.cache_stats(), CacheStats::default());
        // Ping-pong between distant nodes with a 2-slot cache: mostly misses.
        for _ in 0..64 {
            p.for_each_edge(0, |_, _| {});
            p.for_each_edge((g.num_nodes() - 1) as NodeId, |_, _| {});
        }
        let s = p.cache_stats();
        assert!(s.misses > 0);
    }

    #[test]
    fn delete_on_drop_removes_file() {
        let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let path = tmp("dropdel");
        {
            let mut p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
            p.set_delete_on_drop(true);
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    /// Writes a small paged graph, lets `corrupt` edit the file bytes, and
    /// returns what `open` makes of the result.
    fn open_corrupted(name: &str, corrupt: impl FnOnce(&mut Vec<u8>)) -> io::Result<PagedGraph> {
        let g = kappa_gen::grid::grid2d(8, 8);
        let path = tmp(name);
        drop(PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        corrupt(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let opened = PagedGraph::open(&path, tiny_cache());
        std::fs::remove_file(&path).unwrap();
        opened
    }

    /// `open` must reject the corrupted file with `InvalidData`.
    fn assert_invalid(name: &str, corrupt: impl FnOnce(&mut Vec<u8>)) {
        match open_corrupted(name, corrupt) {
            Ok(_) => panic!("{name}: the corrupted file opened"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name}: {e}"),
        }
    }

    #[test]
    fn untouched_file_opens() {
        let g = open_corrupted("untouched", |_| {}).unwrap();
        assert_eq!(GraphAccess::num_nodes(&g), 64);
    }

    #[test]
    fn truncated_file_is_invalid_data() {
        for cut in [1usize, 8, 300] {
            assert_invalid(&format!("truncated-{cut}"), |b| b.truncate(b.len() - cut));
        }
        assert_invalid("header-only", |b| b.truncate(40));
    }

    #[test]
    fn inflated_node_counts_are_invalid_data_not_an_abort() {
        for n in [65u64, 64_000, 1 << 40, u64::MAX] {
            assert_invalid(&format!("nodes-{n}"), |b| {
                b[16..24].copy_from_slice(&n.to_le_bytes())
            });
        }
    }

    #[test]
    fn inconsistent_counts_and_flags_are_invalid_data() {
        assert_invalid("flags", |b| b[8] |= 0x80);
        assert_invalid("half-edges", |b| b[24] ^= 1);
        assert_invalid("region", |b| b[48] ^= 4);
        assert_invalid("offset", |b| {
            // The first segment offset, right after the edge region.
            let mut region = [0u8; 8];
            region.copy_from_slice(&b[48..56]);
            b[64 + u64::from_le_bytes(region) as usize] = 1;
        });
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a graph").unwrap();
        assert!(PagedGraph::open(&path, PageCacheConfig::default()).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
