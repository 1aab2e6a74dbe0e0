//! One benchmark run: build the input, partition it for the given number of
//! seconds, check every output, and turn what was measured into metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use kappa_coarsen::SpillConfig;
use kappa_dist::DistRunResult;
use kappa_graph::{BlockId, Partition};
use kappa_mem::{PagedGraph, TierGraph};

use crate::check::{check, Checked};
use crate::json::{int, num, obj, text, Value};
use crate::replay::{self, Counters};
use crate::sysinfo;
use crate::trace::{self, now, Stopwatch, Tracer};
use crate::workload::{
    run_production, single_thread_pool, Inputs, Instance, Scale, Workload, EPSILON, K,
};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("partition_cpu_s", "s"),
    ("cut", "edges"),
    ("imbalance", "ratio"),
    ("valid_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers a workload does
/// not run report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("matching.s", "s"),
    ("matching.prepartition.s", "s"),
    ("matching.matched_frac", "ratio"),
    ("contract.s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_nodes", "count"),
    ("initial.s", "s"),
    ("state.build.s", "s"),
    ("project.s", "s"),
    ("state.full_builds", "count"),
    ("refine.s", "s"),
    ("refine.pair_searches", "count"),
    ("refine.nodes_moved", "count"),
    ("refine.global_iterations", "count"),
    ("refine.gain", "edges"),
    ("refine.moved_per_search", "ratio"),
    ("pagecache.coarsen.hits", "count"),
    ("pagecache.coarsen.misses", "count"),
    ("pagecache.refine.hits", "count"),
    ("pagecache.refine.misses", "count"),
    ("pagecache.miss_ratio", "ratio"),
    ("tier.edge_file_bytes", "bytes"),
    ("tier.cache_bytes", "bytes"),
    ("comm.coarsen.frames", "count"),
    ("comm.coarsen.collectives", "count"),
    ("comm.initial.frames", "count"),
    ("comm.initial.collectives", "count"),
    ("comm.refine.frames", "count"),
    ("comm.refine.collectives", "count"),
    ("comm.project.frames", "count"),
    ("comm.project.collectives", "count"),
    ("comm.finish.frames", "count"),
    ("comm.finish.collectives", "count"),
    ("comm.frames_skew", "ratio"),
    ("dist.refine.pair_searches", "count"),
    ("driver.self.s", "s"),
    ("trace.overhead_s", "s"),
];

/// Span name → the per-layer time metric its self time feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("prepartition", "matching.prepartition.s"),
    ("matching", "matching.s"),
    ("coarsen", "contract.s"),
    ("initial", "initial.s"),
    ("state.build", "state.build.s"),
    ("project", "project.s"),
    ("refine", "refine.s"),
    ("partition", "driver.self.s"),
];

/// The phases whose traffic the distributed driver labels, with the
/// metrics of their frames and collectives.
const COMM_PHASES: [(&str, &str, &str); 5] = [
    ("coarsen", "comm.coarsen.frames", "comm.coarsen.collectives"),
    ("initial", "comm.initial.frames", "comm.initial.collectives"),
    ("refine", "comm.refine.frames", "comm.refine.collectives"),
    ("project", "comm.project.frames", "comm.project.collectives"),
    ("finish", "comm.finish.frames", "comm.finish.collectives"),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; instance and partition seeds derive from it.
    pub seed: u64,
    /// Measuring time; the workload's fixed calls always complete.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Instance size.
    pub scale: Scale,
    /// Where results, spans and scratch files go.
    pub out_dir: PathBuf,
}

/// The outcome of a run.
pub struct RunOutput {
    /// Partition outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check (or calls that returned an error).
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else the run knows: seeds, sizes, host, per-call data.
    pub record: Value,
    /// One message per failure.
    pub failures: Vec<String>,
}

impl RunOutput {
    /// True if every output passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![("value", num(value)), ("unit", text(unit))]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// SplitMix64 of `seed` on stream `stream`.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `values` (0 if empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A scratch directory that is removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checked view of the input: the RAM graph, or a separate handle on
/// the paged file so the gate scans disk pages itself.
enum CheckView<'a> {
    Ram(&'a kappa_graph::CsrGraph),
    Paged(PagedGraph),
}

impl CheckView<'_> {
    fn check(&self, partition: &Partition, reported_cut: u64) -> Result<Checked, String> {
        match self {
            CheckView::Ram(g) => check(*g, partition, K, EPSILON, reported_cut),
            CheckView::Paged(g) => check(g, partition, K, EPSILON, reported_cut),
        }
    }
}

/// The seed input `i` of a run with workload seed `seed` is generated from.
fn instance_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, 2 * i as u64)
}

/// The partition seed of call `j` of a run with workload seed `seed`.
fn partition_seed(seed: u64, j: usize) -> u64 {
    derive_seed(seed, 2 * j as u64 + 1)
}

/// What the outputs of one call index showed.
#[derive(Default)]
struct CallResult {
    /// The first output's assignment, until the iteration ends.
    assignment: Option<Vec<BlockId>>,
    cut: Option<u64>,
    imbalance: Option<f64>,
    counters: Option<Counters>,
    dist: Option<DistRunResult>,
}

/// Everything a run accumulates.
#[derive(Default)]
struct Log {
    attempted: u64,
    failures: Vec<String>,
    /// One entry per call index; the fixed calls' once the run ends.
    results: Vec<CallResult>,
    /// Wall seconds of every driver call that passed.
    walls: Vec<f64>,
    /// CPU seconds of the same calls.
    cpus: Vec<f64>,
    /// CPU seconds of every traced replica call that passed.
    traced_cpus: Vec<f64>,
    calls: Vec<Value>,
}

impl Log {
    /// Gates one output and files it under call index `j`.
    fn file(
        &mut self,
        view: &CheckView<'_>,
        j: usize,
        label: &str,
        partition: &Partition,
        reported_cut: u64,
    ) -> bool {
        self.attempted += 1;
        let checked = view.check(partition, reported_cut).and_then(|c| {
            let first = self.results[j]
                .assignment
                .get_or_insert_with(|| partition.assignment().to_vec());
            if first.as_slice() == partition.assignment() {
                Ok(c)
            } else {
                Err("assignment differs from the driver's".to_string())
            }
        });
        match checked {
            Ok(c) => {
                self.results[j].cut = Some(c.cut);
                self.results[j].imbalance = Some(c.imbalance);
                true
            }
            Err(e) => {
                self.failures.push(format!("{label}, call #{j}: {e}"));
                false
            }
        }
    }
}

/// Runs one benchmark run.
///
/// Returns `Err` only if the input cannot be built; failed partition calls
/// are counted in the output instead.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let w = opts.workload;
    // One scratch directory per run, also when runs share a process.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let work = WorkDir(
        opts.out_dir
            .join(format!("work-{}-{run_id}", std::process::id())),
    );
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let inputs = Inputs::build(w, opts.scale, |i| instance_seed(opts.seed, i), &work.0)
        .map_err(|e| format!("building the {} inputs: {e}", w.name()))?;
    let mut spill = SpillConfig::new(work.0.join("spill"));
    spill.cache = w.page_cache(opts.scale);
    let views = inputs
        .instances
        .iter()
        .map(|inst| match inst.ram() {
            Some(g) => Ok(CheckView::Ram(g)),
            None => inst.open_paged().map(CheckView::Paged),
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;

    let mut log = Log::default();
    let mut tracer = Tracer::new();
    let start = now();
    let mut slowest_iteration = 0.0f64;
    let fixed = w.fixed_calls();
    // dist-rgg has no replica: its traced calls are one span each.
    let replicate = opts.trace && w != Workload::DistRgg;
    while log.results.len() < fixed
        || start.elapsed().as_secs_f64() + slowest_iteration <= opts.seconds
    {
        let j = log.results.len();
        log.results.push(CallResult::default());
        let (inst, view) = (&inputs.instances[j % views.len()], &views[j % views.len()]);
        let seed = partition_seed(opts.seed, j);
        let config = w.config(seed);
        let iteration = now();
        // Alternate which of the pair goes first so neither always runs on
        // a warm allocator.
        let replica_first = j % 2 == 0;
        if replicate && replica_first {
            replay_once(w, inst, view, &config, &spill, &mut tracer, &mut log, j);
        }
        let production = if opts.trace && !replicate {
            let root = tracer.enter("partition", None);
            let out = run_production(w, inst, &config, &spill);
            tracer.exit(root);
            out
        } else {
            run_production(w, inst, &config, &spill)
        };
        match production {
            Ok(out) => {
                if log.file(view, j, "driver", &out.partition, out.reported_cut) {
                    log.walls.push(out.wall_s);
                    log.cpus.push(out.cpu_s);
                    log.calls.push(obj(vec![
                        ("input_seed", int(inst.seed)),
                        ("partition_seed", int(seed)),
                        ("wall_s", num(out.wall_s)),
                        ("cpu_s", num(out.cpu_s)),
                        ("cut", int(out.reported_cut)),
                        (
                            "driver_phases_s",
                            out.phases.map_or(Value::Null, |p| {
                                obj(vec![
                                    ("coarsening", num(p.coarsening.as_secs_f64())),
                                    ("initial", num(p.initial_partitioning.as_secs_f64())),
                                    ("refinement", num(p.refinement.as_secs_f64())),
                                ])
                            }),
                        ),
                    ]));
                    log.results[j].dist = out.dist;
                }
            }
            Err(e) => {
                log.attempted += 1;
                log.failures.push(format!("driver, call #{j}: {e}"));
            }
        }
        if replicate && !replica_first {
            replay_once(w, inst, view, &config, &spill, &mut tracer, &mut log, j);
        }
        log.results[j].assignment = None;
        slowest_iteration = slowest_iteration.max(iteration.elapsed().as_secs_f64());
    }
    log.results.truncate(fixed);

    let metrics = if opts.trace {
        per_layer_metrics(&log, &tracer, &inputs)
    } else {
        end_to_end_metrics(&log, &inputs)?
    };
    if opts.trace {
        let spans = opts
            .out_dir
            .join(format!("{}-seed{}-spans.jsonl", w.name(), opts.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    let shares = if opts.trace {
        phase_shares(&tracer)
    } else {
        Value::Null
    };
    let record = record(opts, &inputs, &log, shares);
    Ok(RunOutput {
        attempted: log.attempted,
        failed: log.failures.len() as u64,
        metrics,
        record,
        failures: log.failures,
    })
}

/// One traced replica call for call index `j`. The gate holds it to the
/// driver's output for the same call, which runs just before or after.
#[allow(clippy::too_many_arguments)]
fn replay_once(
    w: Workload,
    inst: &Instance,
    view: &CheckView<'_>,
    config: &kappa_core::KappaConfig,
    spill: &SpillConfig,
    tracer: &mut Tracer,
    log: &mut Log,
    j: usize,
) {
    // As for the driver, the clock starts once the input is open.
    let replayed = match (w, inst.ram()) {
        (Workload::PagedRgg, _) => inst.open_paged().and_then(|g| {
            single_thread_pool().install(|| {
                let clock = Stopwatch::start();
                let r = replay::tiered(TierGraph::Paged(g), config, spill, tracer);
                r.map(|r| (r, clock.cpu_s()))
            })
        }),
        (_, Some(g)) => {
            let clock = Stopwatch::start();
            let r = replay::classic(g, config, tracer);
            Ok((r, clock.cpu_s()))
        }
        (_, None) => Err(std::io::Error::other("ram workload without a ram graph")),
    };
    match replayed {
        Ok((r, cpu_s)) => {
            if log.file(view, j, "replica", &r.partition, r.reported_cut) {
                log.traced_cpus.push(cpu_s);
                log.results[j].counters = Some(r.counters);
            }
        }
        Err(e) => {
            log.attempted += 1;
            log.failures.push(format!("replica, call #{j}: {e}"));
        }
    }
}

fn end_to_end_metrics(
    log: &Log,
    inputs: &Inputs,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cut = mean(log.results.iter().filter_map(|s| s.cut).map(|c| c as f64));
    let imbalance = log
        .results
        .iter()
        .filter_map(|s| s.imbalance)
        .fold(0.0, f64::max);
    let valid = log.attempted - log.failures.len() as u64;
    let rss = sysinfo::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        median(&log.cpus),
        cut,
        imbalance,
        valid as f64 / log.attempted.max(1) as f64,
        rss,
        mean(inputs.setup_cpu_s.iter().copied()),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect())
}

/// Self time of `span` in one call's per-name totals (0 if it did not run).
fn self_time(call: &BTreeMap<&str, f64>, span: &str) -> f64 {
    call.get(span).copied().unwrap_or(0.0)
}

/// The median share of a traced call spent in each driver phase: hierarchy
/// build, initial partitioning, uncoarsening (state build, refinement,
/// projection) and the driver's own code.
fn phase_shares(tracer: &Tracer) -> Value {
    let per_call = trace::self_time_by_name(tracer.spans());
    let durations = trace::call_durations(tracer.spans());
    let share = |spans: &[&str]| {
        let shares: Vec<f64> = per_call
            .iter()
            .zip(&durations)
            .map(|(c, d)| spans.iter().map(|s| self_time(c, s)).sum::<f64>() / d)
            .collect();
        num(median(&shares))
    };
    obj(vec![
        ("coarsen", share(&["prepartition", "matching", "coarsen"])),
        ("initial", share(&["initial"])),
        ("uncoarsen", share(&["state.build", "refine", "project"])),
        ("driver", share(&["partition"])),
    ])
}

fn per_layer_metrics(
    log: &Log,
    tracer: &Tracer,
    inputs: &Inputs,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Times: the median over traced calls of each layer's self time.
    let per_call = trace::self_time_by_name(tracer.spans());
    for &(span, metric) in SPAN_METRICS {
        let times: Vec<f64> = per_call.iter().map(|c| self_time(c, span)).collect();
        m.insert(metric, median(&times));
    }
    if !log.traced_cpus.is_empty() {
        m.insert(
            "trace.overhead_s",
            median(&log.traced_cpus) - median(&log.cpus),
        );
    }

    // Counters: the mean over the fixed calls.
    let counters: Vec<&Counters> = log
        .results
        .iter()
        .filter_map(|s| s.counters.as_ref())
        .collect();
    if !counters.is_empty() {
        let avg = |f: &dyn Fn(&Counters) -> f64| mean(counters.iter().map(|c| f(c)));
        let sum = |f: &dyn Fn(&Counters) -> u64| counters.iter().map(|c| f(c)).sum::<u64>() as f64;
        m.insert(
            "matching.matched_frac",
            sum(&|c| c.matched_nodes) / sum(&|c| c.offered_nodes).max(1.0),
        );
        m.insert("coarsen.levels", avg(&|c| c.levels as f64));
        m.insert("coarsen.coarsest_nodes", avg(&|c| c.coarsest_nodes as f64));
        m.insert("state.full_builds", avg(&|c| c.full_builds as f64));
        m.insert(
            "refine.pair_searches",
            avg(&|c| c.refine.pair_searches as f64),
        );
        m.insert("refine.nodes_moved", avg(&|c| c.refine.nodes_moved as f64));
        m.insert(
            "refine.global_iterations",
            avg(&|c| c.refine.global_iterations as f64),
        );
        m.insert("refine.gain", avg(&|c| c.refine.total_gain as f64));
        m.insert(
            "refine.moved_per_search",
            sum(&|c| c.refine.nodes_moved as u64)
                / sum(&|c| c.refine.pair_searches as u64).max(1.0),
        );
        m.insert(
            "pagecache.coarsen.hits",
            avg(&|c| c.cache_coarsen.hits as f64),
        );
        m.insert(
            "pagecache.coarsen.misses",
            avg(&|c| c.cache_coarsen.misses as f64),
        );
        m.insert(
            "pagecache.refine.hits",
            avg(&|c| c.cache_refine.hits as f64),
        );
        m.insert(
            "pagecache.refine.misses",
            avg(&|c| c.cache_refine.misses as f64),
        );
        let misses = sum(&|c| c.cache_coarsen.misses + c.cache_refine.misses);
        let lookups = misses + sum(&|c| c.cache_coarsen.hits + c.cache_refine.hits);
        m.insert("pagecache.miss_ratio", misses / lookups.max(1.0));
    }
    let per_input = |f: fn(&Instance) -> u64| mean(inputs.instances.iter().map(|i| f(i) as f64));
    m.insert("tier.edge_file_bytes", per_input(Instance::edge_file_bytes));
    m.insert("tier.cache_bytes", per_input(Instance::cache_bytes));

    // Communication: per call the maximum over ranks, then the mean over
    // the fixed calls.
    let dist: Vec<&DistRunResult> = log.results.iter().filter_map(|s| s.dist.as_ref()).collect();
    if !dist.is_empty() {
        for (phase, frames_metric, collectives_metric) in COMM_PHASES {
            let per_rank_max = |r: &DistRunResult, frames: bool| {
                r.comm_per_rank
                    .iter()
                    .filter_map(|c| c.phases.iter().find(|(p, _)| p == phase))
                    .map(|(_, s)| if frames { s.frames } else { s.collectives })
                    .max()
                    .unwrap_or(0) as f64
            };
            let frames = mean(dist.iter().map(|r| per_rank_max(r, true)));
            let collectives = mean(dist.iter().map(|r| per_rank_max(r, false)));
            m.insert(frames_metric, frames);
            m.insert(collectives_metric, collectives);
        }
        let skew = mean(dist.iter().map(|r| {
            let frames = r.comm_per_rank.iter().map(|c| c.total.frames);
            let (lo, hi) = frames.fold((u64::MAX, 0), |(lo, hi), f| (lo.min(f), hi.max(f)));
            hi as f64 / lo.max(1) as f64
        }));
        m.insert("comm.frames_skew", skew);
        m.insert(
            "dist.refine.pair_searches",
            mean(dist.iter().map(|r| r.refinement.pair_searches as f64)),
        );
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn record(opts: &Options, inputs: &Inputs, log: &Log, phase_shares: Value) -> Value {
    let w = opts.workload;
    let instances = inputs
        .instances
        .iter()
        .map(|inst| {
            let (edge_file, cache) = (inst.edge_file_bytes(), inst.cache_bytes());
            let ratio = if cache > 0 {
                num(edge_file as f64 / cache as f64)
            } else {
                Value::Null
            };
            obj(vec![
                ("seed", int(inst.seed)),
                ("n", int(inst.n as u64)),
                ("m", int(inst.m as u64)),
                ("edge_file_bytes", int(edge_file)),
                ("cache_bytes", int(cache)),
                ("edge_file_to_cache_ratio", ratio),
            ])
        })
        .collect();
    let slowest = log.walls.iter().copied().fold(0.0, f64::max);
    obj(vec![
        ("workload", text(w.name())),
        ("trace", Value::Bool(opts.trace)),
        ("seed", int(opts.seed)),
        ("fixed_calls", int(w.fixed_calls() as u64)),
        ("inputs", Value::Array(instances)),
        ("k", int(K as u64)),
        ("epsilon", num(EPSILON)),
        ("threads", int(w.threads() as u64)),
        ("ranks", int(w.ranks() as u64)),
        ("host", sysinfo::host()),
        (
            "page_misses_are",
            text("pread calls served by the OS page cache, not disk I/O"),
        ),
        (
            "setup_wall_s",
            Value::Array(inputs.setup_wall_s.iter().map(|&s| num(s)).collect()),
        ),
        (
            "setup_cpu_s",
            Value::Array(inputs.setup_cpu_s.iter().map(|&s| num(s)).collect()),
        ),
        ("peak_rss_mib_after_setup", num(inputs.peak_rss_mib)),
        ("partition_calls", int(log.walls.len() as u64)),
        ("partition_wall_s", num(median(&log.walls))),
        ("partition_wall_s_max", num(slowest)),
        ("phase_shares", phase_shares),
        ("calls", Value::Array(log.calls.clone())),
        (
            "failures",
            Value::Array(log.failures.iter().map(|f| text(f.as_str())).collect()),
        ),
    ])
}

/// Writes the result and the record next to the spans, as
/// `<workload>-seed<seed>-trace<0|1>.json`.
pub fn write_record(out_dir: &Path, opts: &Options, out: &RunOutput) -> std::io::Result<()> {
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let both = obj(vec![
        ("result", out.result_line()),
        ("record", out.record.clone()),
    ]);
    std::fs::write(path, format!("{both}\n"))
}
