//! The four workloads: how each input is built from the seed and how one
//! partition call runs through the production driver.

use std::io;
use std::path::{Path, PathBuf};

use kappa_coarsen::SpillConfig;
use kappa_core::{partition_tiered, KappaConfig, KappaPartitioner, PhaseTimings};
use kappa_dist::{partition_distributed, DistConfig, DistRunResult};
use kappa_gen::rgg::random_geometric_graph;
use kappa_gen::rmat::rmat_graph;
use kappa_gen::RggSource;
use kappa_graph::{CsrGraph, GraphAccess, Partition};
use kappa_mem::{paged_from_source, BuildOptions, PageCacheConfig, PagedGraph, TierGraph};

use crate::trace::Stopwatch;

/// Blocks per partition.
pub const K: u32 = 16;
/// Imbalance tolerance ε.
pub const EPSILON: f64 = 0.03;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// rgg 2^18, classic in-RAM driver, 2 threads.
    RamRgg,
    /// R-MAT scale 14, classic in-RAM driver, 2 threads.
    RamRmat,
    /// rgg 2^16 streamed to the paged tier, tiered driver, 1 thread.
    PagedRgg,
    /// rgg 2^17, distributed driver, 2 ranks on the local transport.
    DistRgg,
}

/// Instance size: the benchmark proper or a seconds-long miniature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small inputs with the same shape, for the benchmark's own tests.
    Mini,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::RamRgg,
        Workload::RamRmat,
        Workload::PagedRgg,
        Workload::DistRgg,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RamRgg => "ram-rgg",
            Workload::RamRmat => "ram-rmat",
            Workload::PagedRgg => "paged-rgg",
            Workload::DistRgg => "dist-rgg",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the shared-memory drivers (0 for dist-rgg).
    pub fn threads(self) -> usize {
        match self {
            Workload::RamRgg | Workload::RamRmat => 2,
            Workload::PagedRgg => 1,
            Workload::DistRgg => 0,
        }
    }

    /// Ranks of the distributed driver (0 for the shared-memory ones).
    pub fn ranks(self) -> usize {
        match self {
            Workload::DistRgg => 2,
            _ => 0,
        }
    }

    /// log2 of the node count (the R-MAT scale for ram-rmat).
    pub fn log2_nodes(self, scale: Scale) -> u32 {
        match (self, scale) {
            (Workload::RamRgg, Scale::Full) => 18,
            (Workload::RamRmat, Scale::Full) => 14,
            (Workload::PagedRgg, Scale::Full) => 16,
            (Workload::DistRgg, Scale::Full) => 17,
            (Workload::RamRmat, Scale::Mini) => 9,
            (_, Scale::Mini) => 12,
        }
    }

    /// Distinct inputs per run. Call `j` partitions input `j mod I`, so a
    /// run's figures do not rest on one generated graph.
    pub fn instances(self) -> usize {
        match self {
            Workload::RamRmat | Workload::DistRgg => 3,
            Workload::RamRgg | Workload::PagedRgg => 4,
        }
    }

    /// Builds of each input per run. `setup_s` is the mean CPU time per
    /// build; small inputs are built more often so that the 10 ms tick of
    /// the CPU clock stays small against the total.
    pub fn builds_per_instance(self) -> usize {
        match self {
            Workload::RamRmat => 4,
            Workload::PagedRgg => 2,
            Workload::RamRgg | Workload::DistRgg => 1,
        }
    }

    /// Calls every run completes, whatever `--seconds` says: a multiple of
    /// [`instances`](Self::instances), sized to about 60 % of a 25-second
    /// run. The seed-determined metrics (`cut`, `imbalance`, the counters)
    /// cover exactly these first calls, so they repeat exactly for the same
    /// workload seed, while `partition_cpu_s` takes every call that fits
    /// the run's time.
    pub fn fixed_calls(self) -> usize {
        match self {
            Workload::RamRgg | Workload::PagedRgg => 8,
            Workload::RamRmat => 6,
            Workload::DistRgg => 9,
        }
    }

    /// The partitioner configuration for partition seed `seed`.
    pub fn config(self, seed: u64) -> KappaConfig {
        KappaConfig::fast(K)
            .with_epsilon(EPSILON)
            .with_threads(self.threads())
            .with_seed(seed)
    }

    /// Page-cache geometry of the paged tier: 7 × 64 KiB against the
    /// 2.2 MB finest edge file, the same ~1/5 cache-to-file ratio as the
    /// default 64 MiB cache against rgg 2^22 (the miniature uses 4 KiB
    /// pages).
    pub fn page_cache(self, scale: Scale) -> PageCacheConfig {
        match scale {
            Scale::Full => PageCacheConfig {
                page_size: 64 << 10,
                cache_pages: 7,
            },
            Scale::Mini => PageCacheConfig {
                page_size: 4 << 10,
                cache_pages: 4,
            },
        }
    }
}

/// Where one input lives once it is built.
pub enum Input {
    /// A plain CSR graph in RAM.
    Ram(CsrGraph),
    /// A paged graph file; every call opens its own handle (cold cache).
    Paged {
        /// The graph file.
        path: PathBuf,
        /// Page-cache geometry each handle opens with.
        cache: PageCacheConfig,
    },
}

/// One built input.
pub struct Instance {
    /// The seed it was generated from.
    pub seed: u64,
    /// The graph.
    pub input: Input,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub m: usize,
}

impl Instance {
    fn build(workload: Workload, scale: Scale, seed: u64, path: PathBuf) -> io::Result<Input> {
        let log2 = workload.log2_nodes(scale);
        Ok(match workload {
            Workload::RamRgg | Workload::DistRgg => {
                Input::Ram(random_geometric_graph(1 << log2, seed))
            }
            Workload::RamRmat => Input::Ram(rmat_graph(log2, 8, seed)),
            Workload::PagedRgg => {
                let cache = workload.page_cache(scale);
                let source = RggSource::new(1 << log2, seed);
                paged_from_source(&source, &path, BuildOptions::default(), cache)?;
                Input::Paged { path, cache }
            }
        })
    }

    /// The in-RAM graph (ram-rgg, ram-rmat, dist-rgg).
    pub fn ram(&self) -> Option<&CsrGraph> {
        match &self.input {
            Input::Ram(g) => Some(g),
            Input::Paged { .. } => None,
        }
    }

    /// A fresh handle on the paged graph, with a cold cache.
    pub fn open_paged(&self) -> io::Result<PagedGraph> {
        match &self.input {
            Input::Paged { path, cache } => PagedGraph::open(path, *cache),
            Input::Ram(_) => Err(io::Error::other("not a paged workload")),
        }
    }

    /// Size of the paged graph file in bytes (0 in RAM).
    pub fn edge_file_bytes(&self) -> u64 {
        match &self.input {
            Input::Paged { path, .. } => std::fs::metadata(path).map_or(0, |m| m.len()),
            Input::Ram(_) => 0,
        }
    }

    /// Page-cache capacity in bytes (0 in RAM).
    pub fn cache_bytes(&self) -> u64 {
        match &self.input {
            Input::Paged { cache, .. } => (cache.page_size * cache.cache_pages) as u64,
            Input::Ram(_) => 0,
        }
    }
}

/// A run's inputs plus what building them cost.
pub struct Inputs {
    /// The inputs, input `i` generated from `seeds(i)`.
    pub instances: Vec<Instance>,
    /// Wall time of every build, in order.
    pub setup_wall_s: Vec<f64>,
    /// CPU time of every build, in order.
    pub setup_cpu_s: Vec<f64>,
    /// Peak resident set once the inputs are built, in MiB.
    pub peak_rss_mib: f64,
}

impl Inputs {
    /// Builds `workload`'s inputs, input `i` from `seed_of(i)`, each
    /// `builds_per_instance` times (keeping the last build). Paged files
    /// go to `work_dir`.
    pub fn build(
        workload: Workload,
        scale: Scale,
        seed_of: impl Fn(usize) -> u64,
        work_dir: &Path,
    ) -> io::Result<Inputs> {
        let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
        let mut instances = Vec::new();
        for i in 0..workload.instances() {
            let seed = seed_of(i);
            let path = work_dir.join(format!("input-{i}.kpg"));
            let mut input = None;
            for _ in 0..workload.builds_per_instance() {
                drop(input.take()); // free the previous build before timing the next
                let clock = Stopwatch::start();
                input = Some(Instance::build(workload, scale, seed, path.clone())?);
                setup_wall_s.push(clock.wall_s());
                setup_cpu_s.push(clock.cpu_s());
            }
            let input = input.expect("at least one build per input");
            let (n, m) = match &input {
                Input::Ram(g) => (g.num_nodes(), g.num_edges()),
                Input::Paged { path, cache } => {
                    let g = PagedGraph::open(path, *cache)?;
                    (GraphAccess::num_nodes(&g), GraphAccess::num_edges(&g))
                }
            };
            instances.push(Instance { seed, input, n, m });
        }
        Ok(Inputs {
            instances,
            setup_wall_s,
            setup_cpu_s,
            peak_rss_mib: crate::sysinfo::peak_rss_mib().unwrap_or(f64::NAN),
        })
    }
}

/// A one-thread pool, the pinning of the paged workload.
pub fn single_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("failed to build a one-thread pool")
}

/// What one production call returned.
pub struct Outcome {
    /// The partition of the input graph.
    pub partition: Partition,
    /// The cut the driver reported.
    pub reported_cut: u64,
    /// Wall time of the call.
    pub wall_s: f64,
    /// CPU time of the call, all threads summed.
    pub cpu_s: f64,
    /// The shared-memory driver's own phase timings.
    pub phases: Option<PhaseTimings>,
    /// The distributed driver's full result (dist-rgg only).
    pub dist: Option<DistRunResult>,
}

/// Partitions the instance once through the workload's production driver.
/// The clock covers the driver call only; the input is already built.
pub fn run_production(
    workload: Workload,
    inst: &Instance,
    config: &KappaConfig,
    spill: &SpillConfig,
) -> Result<Outcome, String> {
    match workload {
        Workload::RamRgg | Workload::RamRmat => {
            let graph = inst.ram().ok_or("ram workload without a ram graph")?;
            let clock = Stopwatch::start();
            let r = KappaPartitioner::new(*config).partition(graph);
            Ok(Outcome {
                wall_s: clock.wall_s(),
                cpu_s: clock.cpu_s(),
                reported_cut: r.metrics.edge_cut,
                partition: r.partition,
                phases: Some(r.timings),
                dist: None,
            })
        }
        Workload::PagedRgg => {
            let finest = TierGraph::Paged(inst.open_paged().map_err(|e| e.to_string())?);
            let (r, wall_s, cpu_s) = single_thread_pool().install(|| {
                let clock = Stopwatch::start();
                let r = partition_tiered(finest, config, spill);
                (r, clock.wall_s(), clock.cpu_s())
            });
            let r = r.map_err(|e| format!("partition_tiered: {e}"))?.result;
            Ok(Outcome {
                reported_cut: r.metrics.edge_cut,
                partition: r.partition,
                wall_s,
                cpu_s,
                phases: Some(r.timings),
                dist: None,
            })
        }
        Workload::DistRgg => {
            let graph = inst.ram().ok_or("dist workload without a ram graph")?;
            let dconfig = DistConfig::new(*config, workload.ranks());
            let clock = Stopwatch::start();
            let r = partition_distributed(graph, &dconfig);
            let (wall_s, cpu_s) = (clock.wall_s(), clock.cpu_s());
            let r = r.map_err(|e| format!("partition_distributed: {e}"))?;
            Ok(Outcome {
                reported_cut: r.edge_cut,
                partition: r.partition.clone(),
                wall_s,
                cpu_s,
                phases: None,
                dist: Some(r),
            })
        }
    }
}
