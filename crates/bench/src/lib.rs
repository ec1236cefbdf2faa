//! # hira-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper (see `src/bin/`), each of
//! which declares its experiment space as a [`hira_engine::Sweep`] and runs
//! it through the engine's deterministic multi-threaded [`Executor`]. Every
//! binary prints the same rows/series the paper reports; absolute values
//! come from our simulator/model, the *shape* (orderings, trends,
//! crossovers) is the reproduction target.
//!
//! Scale knobs (all binaries):
//!
//! * `HIRA_MIXES` — number of 8-core workload mixes (default 6; paper: 125),
//! * `HIRA_INSTS` — measured instructions per core (default 60 000;
//!   paper: 200 M),
//! * `HIRA_ROWS` — characterization rows per region (default 48;
//!   paper: 2 048),
//! * `HIRA_THREADS` — engine worker threads (default: available
//!   parallelism); results are bit-identical for any value,
//! * `HIRA_BENCH_DIR` — when set, every binary additionally writes its
//!   machine-readable `BENCH_<sweep>.json` result set there.
//!
//! Every sweep runs through one call, [`run`], whose [`RunOpts`] pick the
//! [`Task`], probes, cache and observability; crossing a grid with the mix
//! suite is the explicit [`with_mix_axis`].
//!
//! ## Shared flags of the matrix binaries
//!
//! `policy_matrix`, `workload_matrix`, `device_matrix`, `rh_matrix` and
//! `perf_kernel` are [`Preset`]s: a [`GridSpec`] with default axes, a sweep
//! name and their own report tables. They accept the flags below, plus
//! their own as listed in each binary's docs; any other argument is
//! rejected with the accepted list.
//!
//! * `--policy=` / `--workload=` / `--device=` / `--plugin=`
//!   `<name>[,<name>...]` (repeatable; only the binary's own axes) — select
//!   an axis's values by registry name, dynamic forms included (`hira<N>`;
//!   `mix<N>`, `zipf<N>`, `rw<N>`, `open<N>`, `trace:<path>`;
//!   `ddr4-2400@<Gb>`; `none`, `oracle:<tRH>`, `para:<p>`,
//!   `graphene:<tRH>:<k>`). An unknown name fails before anything runs.
//!   Where `--plugin=` is opt-in, the axis exists only when the flag is
//!   passed, so the default sweep keys never change.
//! * `--list` — print the registry behind each of the binary's flags and
//!   exit.
//! * `--cache=<dir>` / `--no-cache` / `--cache-stats` — the sweep cache
//!   ([`CacheSpec`]): replay previously computed points from a
//!   `hira-store` directory and simulate only the misses.
//! * `--trace[=<path>]` / `--metrics[=<path>]` / `--progress` /
//!   `--log-level=<level>` — observability ([`ObsSpec`]): JSONL span log,
//!   Prometheus dump, live progress on stderr and the slow-point report.
//!   Canonical output is byte-identical with or without it.
//!
//! The binaries that simulate each point once also take:
//!
//! * `--kernel=dense|event` — simulation kernel (default `event`; results
//!   are bit-identical, `dense` is the reference escape hatch),
//! * `--probe=<form>` / `--cmdtrace=<prefix>` / `--stats-epoch=<cycles>` —
//!   observers on every point ([`ProbeSpec`]; results stay bit-identical,
//!   output paths are suffixed per point),
//! * `--telemetry` — print the per-point run telemetry table,
//! * `--check-determinism` — re-run the sweep single-threaded and uncached
//!   and assert the canonical result sets are byte-identical.
//!
//! Each writes `BENCH_<sweep>.json` into `HIRA_BENCH_DIR` (or the working
//! directory when unset).

use hira_engine::{
    metric, sanitize_key, suffix_path, Executor, Metric, PointRun, PointTelemetry, RunRecord,
    Scenario, ScenarioKey, Sweep,
};
use hira_obs::{field, Level, MetricsRegistry, Progress, TraceSink};
use hira_sim::builder::SystemBuilder;
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::device::{DeviceHandle, DeviceRegistry};
use hira_sim::plugin::{PluginHandle, PluginRegistry};
use hira_sim::policy::{self, PolicyHandle, PolicyRegistry};
use hira_sim::probe::ProbeRegistry;
use hira_sim::system::System;
use hira_sim::ProbeHandle;
use hira_store::{CacheExecutorExt, PointOutcome, SweepPlan, SweepStore};
use hira_workload::{mix, WorkloadHandle, WorkloadRegistry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

pub mod grid;
pub mod serve;

pub use grid::{AxisKind, Cli, Defaults, GridSpec, Preset, SIM_FLAGS, SWEEP_FLAGS};
pub use hira_engine::RunSet;
pub use hira_store::CacheStats;

/// Experiment scale options, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of multiprogrammed mixes per data point.
    pub mixes: usize,
    /// Measured instructions per core.
    pub insts: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Characterization rows per region.
    pub rows: u32,
}

impl Scale {
    /// Reads `HIRA_MIXES` / `HIRA_INSTS` / `HIRA_ROWS` with defaults.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        let insts = get("HIRA_INSTS", 60_000);
        Scale {
            mixes: get("HIRA_MIXES", 6) as usize,
            insts,
            warmup: insts / 5,
            rows: get("HIRA_ROWS", 48) as u32,
        }
    }
}

/// Alone-IPC cache key: workload *instance* name (for a mix, the member
/// benchmark a core runs), device, channels, ranks, and the Scale
/// dimensions the simulation depends on (measured + warmup instructions)
/// — so runs at different scales or on different devices in one process
/// never share stale values.
type AloneKey = (String, String, usize, usize, u64, u64);

fn alone_key(
    name: &str,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> AloneKey {
    (
        name.to_owned(),
        device.name().to_owned(),
        channels,
        ranks,
        scale.insts,
        scale.warmup,
    )
}

/// Global cache of alone-IPC values, keyed by instance name and geometry.
static ALONE_IPC: Mutex<Option<HashMap<AloneKey, f64>>> = Mutex::new(None);

fn cached_alone_ipc(key: &AloneKey) -> Option<f64> {
    ALONE_IPC
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|m| m.get(key).copied())
}

fn store_alone_ipc(key: AloneKey, ipc: f64) {
    ALONE_IPC
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(key, ipc);
}

/// The (pure, deterministic) computation behind [`alone_ipc`]: the
/// workload instance alone on a single core of an ideal (no-refresh,
/// no-PARA) 8 Gb system of the given device and geometry.
fn compute_alone_ipc(
    handle: &WorkloadHandle,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> f64 {
    let mut cfg = SystemBuilder::new()
        .device(device.clone())
        .chip_gbit(8.0)
        .policy(policy::noref())
        .geometry(channels, ranks)
        .insts(scale.insts, scale.warmup)
        .workload(handle.clone())
        .build()
        .expect("alone-IPC reference system must be valid");
    cfg.cores = 1;
    System::new(cfg).run().ipc[0]
}

/// IPC of the workload instance `name` running alone on an ideal
/// (no-refresh, no-PARA) system of the given device and geometry — the
/// denominator of weighted speedup. The device matters: a speedup on
/// `lpddr4-3200` is normalized by an `lpddr4-3200` alone run, so the
/// metric isolates refresh interference, not inter-device raw speed.
/// Memoized; the value is a pure function of its arguments, so concurrent
/// computation of the same key is merely redundant, never divergent.
///
/// # Panics
///
/// Panics when `name` does not resolve against the standard workload
/// registry: weighted-speedup sweeps require registry-resolvable instance
/// names (custom unregistered workloads can still be simulated directly,
/// just not normalized by [`run`]).
pub fn alone_ipc(
    name: &str,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> f64 {
    let key = alone_key(name, device, channels, ranks, scale);
    if let Some(v) = cached_alone_ipc(&key) {
        return v;
    }
    let ipc = compute_alone_ipc(
        &hira_workload::workload(name),
        device,
        channels,
        ranks,
        scale,
    );
    store_alone_ipc(key, ipc);
    ipc
}

/// Pre-computes every alone-IPC value the given configurations will need —
/// one engine task per distinct `(instance name, geometry)` pair — so the
/// main sweep's tasks only ever hit the in-process memo. Instance names
/// come from each configuration's workload handle (building an instance is
/// cheap and does not simulate). The cached run path passes only its *miss*
/// configurations here, so a fully warm sweep performs zero simulations.
fn warm_alone_cache<'a>(
    ex: &Executor,
    configs: impl IntoIterator<Item = &'a SystemConfig>,
    base_seed: u64,
    scale: Scale,
) {
    let mut points = Vec::new();
    let mut seen: Vec<AloneKey> = Vec::new();
    for cfg in configs {
        for name in cfg.workload.instance_names(cfg.cores, cfg.seed) {
            let key = alone_key(&name, &cfg.device, cfg.channels, cfg.ranks, scale);
            if cached_alone_ipc(&key).is_some() || seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let sc_key = ScenarioKey::root()
                .with("wl", &name)
                .with("dev", cfg.device.name())
                .with("ch", cfg.channels.to_string())
                .with("rk", cfg.ranks.to_string());
            points.push((sc_key, (name, cfg.device.clone(), cfg.channels, cfg.ranks)));
        }
    }
    let warm = Sweep::from_points("alone_ipc", base_seed, points);
    let ipcs = ex.map(&warm, |sc| {
        let (name, dev, ch, rk) = sc.params;
        compute_alone_ipc(&hira_workload::workload(name), dev, *ch, *rk, scale)
    });
    for ((_, (name, dev, ch, rk)), ipc) in warm.points().iter().zip(ipcs) {
        store_alone_ipc(alone_key(name, dev, *ch, *rk, scale), ipc);
    }
}

/// A weighted-speedup table: the raw per-mix [`RunSet`] plus the per-config
/// means (the numbers every figure plots).
#[derive(Debug, Clone)]
pub struct WsTable {
    /// Per-`(config, mix)` records (`ws` metric), for emission/inspection.
    pub run: RunSet,
    /// The cache accounting when the run went through an active cache.
    pub stats: Option<CacheStats>,
    means: Vec<(ScenarioKey, f64)>,
}

impl WsTable {
    /// Mean weighted speedup of the first config point matching `filters`.
    ///
    /// # Panics
    ///
    /// Panics if no config point matches — a missing point in a figure
    /// binary is a programming error.
    pub fn mean(&self, filters: &[(&str, &str)]) -> f64 {
        self.try_mean(filters)
            .unwrap_or_else(|| panic!("no ws point matches {filters:?}"))
    }

    /// [`WsTable::mean`], but `None` when no point matches — for grids
    /// with legitimately absent cells (e.g. a HiRA policy on a HiRA-inert
    /// device, skipped at build time).
    pub fn try_mean(&self, filters: &[(&str, &str)]) -> Option<f64> {
        self.means
            .iter()
            .find(|(k, _)| k.matches(filters))
            .map(|(_, v)| *v)
    }

    /// All per-config means, in sweep order.
    pub fn means(&self) -> &[(ScenarioKey, f64)] {
        &self.means
    }

    /// Writes `BENCH_<sweep>.json` when `HIRA_BENCH_DIR` is set.
    pub fn emit(&self) {
        self.run.emit_if_requested();
    }
}

/// What [`run`] measures at every point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Weighted speedup (`ws`), normalized by alone-IPC runs.
    Ws,
    /// `ws` plus the channel metrics: `read_lat` / `write_lat` (average
    /// demand latencies in memory cycles), `dbus` (mean per-channel
    /// data-bus busy fraction) and the quantiles `read_p50` / `read_p99` /
    /// `write_p50` / `write_p99`.
    WsStats,
    /// The kernel A/B: every point timed under the dense and the event
    /// kernel (`wall_dense_ms`, `wall_event_ms`, `speedup`), asserting
    /// both results are identical. Needs no alone-IPC warmup.
    PerfKernel,
}

impl Task {
    /// The task tag in the cache key ([`ws_canonical`]).
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Task::Ws => "ws",
            Task::WsStats => "ws+stats",
            Task::PerfKernel => "perf_kernel",
        }
    }
}

/// The options of one [`run`].
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Instruction budgets (and mix count, for [`with_mix_axis`]).
    pub scale: Scale,
    /// What every point measures.
    pub task: Task,
    /// Probes attached to every point.
    pub probes: ProbeSpec,
    /// The sweep cache.
    pub cache: CacheSpec,
    /// Tracing, metrics and progress.
    pub obs: ObsSpec,
}

impl RunOpts {
    /// `task` at `scale`: no probes, no cache, no observation.
    pub fn new(scale: Scale, task: Task) -> Self {
        RunOpts {
            scale,
            task,
            probes: ProbeSpec::default(),
            cache: CacheSpec::disabled(),
            obs: ObsSpec::disabled(),
        }
    }
}

/// Crosses every configuration of `sweep` with the standard mix suite: a
/// `mix` axis `0..scale.mixes`, each point running `mix(id)` at the
/// scale's instruction budgets. [`run`] averages the axis away.
///
/// # Panics
///
/// Panics if `scale.mixes` is zero.
pub fn with_mix_axis(sweep: Sweep<SystemConfig>, scale: Scale) -> Sweep<SystemConfig> {
    assert!(
        scale.mixes >= 1,
        "HIRA_MIXES must be >= 1 (a data point needs at least one mix)"
    );
    sweep.expand("mix", |_, cfg| {
        (0..scale.mixes)
            .map(|id| {
                let cfg = cfg
                    .clone()
                    .with_insts(scale.insts, scale.warmup)
                    .with_workload(mix(id));
                (id.to_string(), cfg)
            })
            .collect()
    })
}

/// Runs a sweep of system configurations as configured — every point
/// keeps its workload; cross with [`with_mix_axis`] first for the mix
/// suite — at `opts.scale`'s instruction budgets, measuring `opts.task`.
///
/// Probes attach to every point. With an active cache, hits replay from
/// the store and only misses are simulated (including their alone-IPC
/// warmup), bit-identically to an uncached run. Observation rides beside
/// the results: the table is byte-identical with or without it. All
/// parallelism goes through the engine; results are bit-identical for any
/// `HIRA_THREADS`. The `mix` axis, when present, is averaged away in the
/// table's means.
///
/// # Panics
///
/// Panics if `sweep` is empty, if a point's workload yields instance
/// names the standard registry cannot resolve (see [`alone_ipc`]), if the
/// two kernels diverge under [`Task::PerfKernel`], or if the cache store
/// cannot be opened or written.
pub fn run(ex: &Executor, sweep: Sweep<SystemConfig>, opts: &RunOpts) -> WsTable {
    let (scale, task) = (opts.scale, opts.task);
    let full = opts
        .probes
        .attach(sweep.map(|_, cfg| cfg.with_insts(scale.insts, scale.warmup)));
    assert!(!full.is_empty(), "sweep `{}` has no points", full.name());
    let warm_alone = task != Task::PerfKernel;
    let watch = opts.obs.begin(full.name(), full.len(), ex.threads());
    let point = |sc: Scenario<'_, SystemConfig>| {
        let key = watch.as_ref().map(|_| sc.key.clone());
        let (ms, t, phases) = match task {
            Task::PerfKernel => perf_kernel_task(sc),
            _ => ws_point_task(sc, scale, task == Task::WsStats),
        };
        if let (Some(w), Some(key)) = (&watch, key) {
            w.record_phases(&key, phases);
        }
        (ms, t)
    };
    let (run, stats) = if let Some(mut store) = opts.cache.open_for(&full) {
        let plan = SweepPlan::compute(&store, &full, cache_salt(), |sc| {
            ws_canonical(task.tag(), sc.params)
        });
        if warm_alone {
            let misses = plan.miss_indices().map(|i| &full.points()[i].1);
            warm_alone_cache(ex, misses, full.base_seed(), scale);
        }
        let on_point = |o: PointOutcome<'_>| {
            if let Some(w) = &watch {
                w.point_done(
                    &full.points()[o.index].0,
                    o.cached,
                    o.queue_wait_ms,
                    o.point.wall_ms,
                );
            }
        };
        let (run, stats) = ex
            .run_cached(&mut store, &full, &plan, point, Some(&on_point))
            .unwrap_or_else(|e| {
                panic!(
                    "cache: cannot persist results at {}: {e}",
                    store.dir().display()
                )
            });
        opts.cache.report(&stats);
        (run, Some(stats))
    } else {
        if warm_alone {
            let configs = full.points().iter().map(|(_, c)| c);
            warm_alone_cache(ex, configs, full.base_seed(), scale);
        }
        let observer = |p: &PointRun<'_>| {
            if let Some(w) = &watch {
                w.point_done(p.key, false, p.queue_wait_ms, p.wall_ms);
            }
        };
        let (_, run) = ex.run_observed(
            &full,
            |sc| {
                let (ms, t) = point(sc);
                ((), ms, t)
            },
            Some(&observer),
        );
        (run, None)
    };
    if let Some(w) = watch {
        w.finish(&run, stats.as_ref());
    }
    opts.obs.report_slow(&run);
    let means = run.mean_over("mix", "ws");
    WsTable { run, stats, means }
}

/// One weighted-speedup point: simulate, normalize each core by its
/// workload's alone-IPC, optionally add the channel-level metrics
/// ([`Task::WsStats`]). Also reports the phase split `(warmup_ms,
/// measure_ms)`: measure is the simulation proper, warmup the alone-IPC
/// normalization work (≈0 when the memo is already warm). The remainder of
/// the point's wall — metric assembly, result hand-off — is the serialize
/// phase, computed by the observer as `wall - warmup - measure`.
pub(crate) fn ws_point_task(
    sc: Scenario<'_, SystemConfig>,
    scale: Scale,
    channel_stats: bool,
) -> (Vec<Metric>, Option<PointTelemetry>, (f64, f64)) {
    let cfg = sc.params;
    let t_measure = Instant::now();
    let (r, telemetry) = System::new(cfg.clone()).run_telemetered();
    let measure_ms = t_measure.elapsed().as_secs_f64() * 1e3;
    let t_warmup = Instant::now();
    let alone: Vec<f64> = r
        .workloads
        .iter()
        .map(|name| alone_ipc(name, &cfg.device, cfg.channels, cfg.ranks, scale))
        .collect();
    let warmup_ms = t_warmup.elapsed().as_secs_f64() * 1e3;
    let mut ms = vec![metric("ws", r.weighted_speedup(&alone))];
    if channel_stats {
        ms.push(metric("read_lat", r.avg_read_latency()));
        ms.push(metric("write_lat", r.avg_write_latency()));
        let util = r.data_bus_utilization();
        let mean_util = util.iter().sum::<f64>() / util.len().max(1) as f64;
        ms.push(metric("dbus", mean_util));
        // Histogram quantiles (memory cycles); 0 on empty histograms,
        // matching the documented empty-run convention of the means.
        let q = |v: Option<u64>| v.map_or(0.0, |x| x as f64);
        ms.push(metric("read_p50", q(r.read_latency_quantile(0.50))));
        ms.push(metric("read_p99", q(r.read_latency_quantile(0.99))));
        ms.push(metric("write_p50", q(r.write_latency_quantile(0.50))));
        ms.push(metric("write_p99", q(r.write_latency_quantile(0.99))));
    }
    // Points with controller plugins attached additionally report the
    // defense counters — the victim-exposure surface `rh_matrix` plots.
    // Plugin-free points are unchanged (keeps the committed matrix
    // baselines' record sets stable).
    if !r.plugin_stats.is_empty() {
        let totals = r.plugin_totals();
        ms.push(metric("plugin_acts", totals.acts_observed as f64));
        ms.push(metric("plugin_injected", totals.injected as f64));
        ms.push(metric("victim_max_exposure", totals.max_exposure as f64));
        ms.push(metric("victim_mean_exposure", totals.mean_exposure()));
        ms.push(metric(
            "rows_over_threshold",
            totals.rows_over_threshold as f64,
        ));
    }
    let t = PointTelemetry {
        events: telemetry.events,
        peak_queue: telemetry.peak_queue,
    };
    (ms, Some(t), (warmup_ms, measure_ms))
}

/// The kernel A/B task over one point: time the dense and event kernels
/// on the same configuration, assert their results are identical (the
/// `next_wake` contract, enforced at every computed point), and return
/// the wall-clock pair plus their ratio as metrics. Both kernel runs are
/// the measure phase; there is no warmup.
fn perf_kernel_task(
    sc: Scenario<'_, SystemConfig>,
) -> (Vec<Metric>, Option<PointTelemetry>, (f64, f64)) {
    let base = sc.params;
    let timed = |kernel: KernelMode| {
        let cfg = base.clone().with_kernel(kernel);
        let start = Instant::now();
        let result = System::new(cfg).run();
        (result, start.elapsed().as_secs_f64() * 1e3)
    };
    let (dense, wall_dense) = timed(KernelMode::Dense);
    let (event, wall_event) = timed(KernelMode::Event);
    assert_eq!(
        dense, event,
        "kernel divergence at {}: the next_wake contract is violated somewhere",
        sc.key
    );
    (
        vec![
            metric("wall_dense_ms", wall_dense),
            metric("wall_event_ms", wall_event),
            metric("speedup", wall_dense / wall_event),
        ],
        None,
        (0.0, wall_dense + wall_event),
    )
}

/// The canonical configuration string of one weighted-speedup point under
/// task `tag` — the content the sweep cache keys by, besides the point's
/// seed and the process's [`cache_salt`]. The tag keeps tasks that measure
/// different metric sets over identical configurations (`ws`, `ws+stats`,
/// `perf_kernel`) from colliding in the store.
pub fn ws_canonical(tag: &str, cfg: &SystemConfig) -> String {
    format!("task={tag};{}", cfg.cache_descriptor())
}

/// The process's code-version salt for the sweep cache: the store schema
/// version plus the fingerprints of every registry a cached result depends
/// on (policies, workloads, devices, probe forms, plugin forms). Any
/// registry change — a handle added, removed or renamed — moves the salt
/// and conservatively invalidates existing stores.
pub fn cache_salt() -> u64 {
    let owned = |v: Vec<&str>| v.into_iter().map(str::to_owned).collect::<Vec<_>>();
    let forms = |v: Vec<(&str, &str)>| {
        v.into_iter()
            .map(|(form, _)| form.to_owned())
            .collect::<Vec<_>>()
    };
    hira_store::code_version_salt([
        ("policy", owned(PolicyRegistry::standard().names())),
        ("workload", owned(WorkloadRegistry::standard().names())),
        ("device", owned(DeviceRegistry::standard().names())),
        ("probe", forms(ProbeRegistry::standard().forms())),
        ("plugin", forms(PluginRegistry::standard().forms())),
    ])
}

/// The sweep-cache selection of a matrix binary: `--cache=<dir>` enables
/// the content-addressed result store at `<dir>` (created on first use),
/// `--no-cache` overrides it off, and `--cache-stats` prints the hit/miss
/// accounting after each cached sweep.
///
/// Probes are the one interaction the cache refuses to shortcut: replaying
/// a hit would skip the simulation the probe's output files come from, so
/// a sweep with probes attached runs uncached (with a note on stderr).
#[derive(Debug, Clone, Default)]
pub struct CacheSpec {
    dir: Option<PathBuf>,
    stats: bool,
}

impl CacheSpec {
    /// Parses the cache flags from an argument vector.
    ///
    /// # Errors
    ///
    /// When `--cache=` names an empty path or is passed twice with
    /// different directories.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut dir: Option<PathBuf> = None;
        for d in args.iter().filter_map(|a| a.strip_prefix("--cache=")) {
            if d.is_empty() {
                return Err("--cache needs a directory: --cache=<dir>".into());
            }
            if dir.as_ref().is_some_and(|prev| prev != Path::new(d)) {
                return Err("--cache passed twice with different directories".into());
            }
            dir = Some(PathBuf::from(d));
        }
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Ok(CacheSpec {
            dir: dir.filter(|_| !has("--no-cache")),
            stats: has("--cache-stats"),
        })
    }

    /// The inactive spec: every run simulates (the library default).
    pub fn disabled() -> Self {
        CacheSpec::default()
    }

    /// A spec caching at `dir`, for tests and embedding (`hira serve`).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CacheSpec {
            dir: Some(dir.into()),
            stats: false,
        }
    }

    /// True when a cache directory is selected.
    pub fn is_active(&self) -> bool {
        self.dir.is_some()
    }

    /// The selected cache directory, when active.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Opens the store for one sweep — `None` when the spec is inactive or
    /// the sweep has probes attached (their output files require the
    /// simulations to actually run; noted on stderr).
    ///
    /// # Panics
    ///
    /// Panics when the store directory cannot be opened or is corrupt
    /// before its tail — an explicitly requested cache that cannot work is
    /// an error, not a silent slow path.
    fn open_for(&self, sweep: &Sweep<SystemConfig>) -> Option<SweepStore> {
        let dir = self.dir.as_ref()?;
        if sweep.points().iter().any(|(_, c)| c.probe.is_some()) {
            eprintln!(
                "cache: probes attached to sweep `{}`; running uncached so probe \
                 outputs are written (drop --probe or --cache to silence)",
                sweep.name()
            );
            return None;
        }
        Some(
            SweepStore::open(dir)
                .unwrap_or_else(|e| panic!("--cache: cannot open store at {}: {e}", dir.display())),
        )
    }

    /// Prints one accounting line when `--cache-stats` was passed.
    pub fn report(&self, stats: &CacheStats) {
        if self.stats {
            println!(
                "cache: {} points, {} hits, {} misses, {} appended ({})",
                stats.points,
                stats.hits,
                stats.misses,
                stats.appended,
                self.dir
                    .as_ref()
                    .map_or("inactive".to_string(), |d| d.display().to_string()),
            );
        }
    }
}

/// The observability selection of a bench binary, from the shared flags:
///
/// * `--trace[=<path>]` — write one append-only JSONL span/event log per
///   sweep. A bare `--trace` (or a directory path) derives the file name
///   from the sweep via the engine's path sanitizer
///   (`<dir>/<sweep>.trace.jsonl`); a path ending in `.jsonl` is used
///   verbatim. The bare form writes under `HIRA_BENCH_DIR` (or `.`).
/// * `--metrics[=<path>]` — dump the run's Prometheus text exposition
///   after the sweep. A bare `--metrics` (or a directory path) writes
///   `<dir>/<sweep>.prom`; a path with an extension is used verbatim.
/// * `--progress` — stream live `done/total, points/sec, ETA` lines to
///   stderr as points complete.
/// * `--log-level=<error|warn|info|debug|trace>` — trace verbosity
///   (default from `HIRA_LOG`, else `info`).
///
/// Any active flag also appends the slow-point outlier report (points
/// slower than 3× the sweep's median wall) to the run summary.
/// Observation rides beside the results: canonical output is byte-
/// identical with or without it, for any thread count and cache state.
#[derive(Debug, Clone)]
pub struct ObsSpec {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    progress: bool,
    level: Level,
}

impl Default for ObsSpec {
    fn default() -> Self {
        ObsSpec {
            trace: None,
            metrics: None,
            progress: false,
            level: Level::Info,
        }
    }
}

/// The multiplier of [`ObsSpec::report_slow`]: a point is an outlier when
/// its wall exceeds this many times the sweep's median point wall.
pub const SLOW_POINT_FACTOR: f64 = 3.0;

impl ObsSpec {
    /// Parses the observability flags from an argument vector.
    ///
    /// # Errors
    ///
    /// When `--log-level=` does not name a level, or when
    /// `--trace=`/`--metrics=` name an empty path.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let default_dir = || {
            std::env::var("HIRA_BENCH_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("."))
        };
        let mut spec = ObsSpec::default();
        let mut level = None;
        for a in args {
            let path = |flag: &str, p: &str| match p {
                "" => Err(format!("{flag} needs a path: {flag}=<path>")),
                p => Ok(Some(PathBuf::from(p))),
            };
            match a.split_once('=') {
                None if a == "--trace" => spec.trace = Some(default_dir()),
                None if a == "--metrics" => spec.metrics = Some(default_dir()),
                None if a == "--progress" => spec.progress = true,
                Some(("--trace", p)) => spec.trace = path("--trace", p)?,
                Some(("--metrics", p)) => spec.metrics = path("--metrics", p)?,
                Some(("--log-level", l)) => level = Some(l.parse()?),
                _ => {}
            }
        }
        spec.level = level.unwrap_or_else(Level::from_env);
        Ok(spec)
    }

    /// The inactive spec: no tracing, no metrics, no progress (the
    /// library default).
    pub fn disabled() -> Self {
        ObsSpec::default()
    }

    /// True when any observability flag was passed.
    pub fn is_active(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.progress
    }

    /// Starts observing one sweep: opens the trace sink, creates the
    /// metrics registry and the progress ticker. `None` when the spec is
    /// inactive — the unobserved path pays nothing.
    ///
    /// # Panics
    ///
    /// Panics when the trace log cannot be opened — an explicitly
    /// requested trace that cannot work is an error, not a silent no-op.
    pub fn begin(&self, sweep: &str, points: usize, threads: usize) -> Option<ObsRun> {
        if !self.is_active() {
            return None;
        }
        let sink = self.sink(sweep);
        if let Some(s) = &sink {
            s.event(
                Level::Info,
                "sweep_start",
                &[
                    field("sweep", sweep),
                    field("points", points),
                    field("threads", threads),
                ],
            );
        }
        let registry = MetricsRegistry::new();
        let meters = Meters::new(&registry);
        Some(ObsRun {
            sink,
            registry,
            meters,
            progress: Progress::new(points),
            show_progress: self.progress,
            metrics_file: self.metrics_file(sweep),
            phases: Mutex::new(Vec::new()),
            sweep: sweep.to_owned(),
        })
    }

    /// Opens the trace sink `--trace` asked for (`None` without the
    /// flag), deriving the file name from `name` when the flag named a
    /// directory. Used by [`ObsSpec::begin`] and by services that manage
    /// their own observation (`hira serve`).
    ///
    /// # Panics
    ///
    /// Panics when the log cannot be opened — an explicitly requested
    /// trace that cannot work is an error, not a silent no-op.
    pub fn sink(&self, name: &str) -> Option<TraceSink> {
        self.trace.as_ref().map(|p| {
            let sink = if p.extension().is_some_and(|e| e == "jsonl") {
                TraceSink::to_path(p, self.level)
            } else {
                TraceSink::for_sweep(p, name, self.level)
            };
            sink.unwrap_or_else(|e| panic!("--trace: cannot open log under {}: {e}", p.display()))
        })
    }

    /// Where the Prometheus dump of sweep `sweep` would go, when
    /// `--metrics` is active.
    fn metrics_file(&self, sweep: &str) -> Option<PathBuf> {
        let p = self.metrics.as_ref()?;
        Some(if p.extension().is_some() {
            p.clone()
        } else {
            p.join(format!("{}.prom", hira_engine::sanitize_component(sweep)))
        })
    }

    /// Appends the slow-point outlier report to the run summary (stdout)
    /// when any observability flag is active: every point slower than
    /// [`SLOW_POINT_FACTOR`] × the sweep's median point wall, or one line
    /// saying none were.
    pub fn report_slow(&self, run: &RunSet) {
        if !self.is_active() {
            return;
        }
        let (median, slow) = slow_points(run, SLOW_POINT_FACTOR);
        if slow.is_empty() {
            println!(
                "slow points: none above {SLOW_POINT_FACTOR:.1}x the median point wall \
                 ({median:.1} ms)"
            );
        } else {
            println!("slow points (> {SLOW_POINT_FACTOR:.1}x median {median:.1} ms):");
            for (key, wall) in slow {
                println!(
                    "  {:<42} {wall:>9.1} ms ({:.1}x)",
                    key.to_string(),
                    wall / median
                );
            }
        }
    }
}

/// The first record of every point of `run`, in point order — a point's
/// records (one per metric) share one simulation, wall and telemetry.
fn point_records(run: &RunSet) -> Vec<&RunRecord> {
    let mut points: Vec<&RunRecord> = Vec::new();
    for r in &run.records {
        if !points.iter().any(|p| p.key == r.key) {
            points.push(r);
        }
    }
    points
}

/// Total kernel iterations of `run`, each point's telemetry counted once.
pub(crate) fn kernel_events(run: &RunSet) -> u64 {
    let telemetry = point_records(run).into_iter().filter_map(|r| r.telemetry);
    telemetry.map(|t| t.events).sum()
}

/// The per-point walls of `run` that exceed `k` × the median point wall:
/// `(median, outliers in point order)`, each point counted once.
pub fn slow_points(run: &RunSet, k: f64) -> (f64, Vec<(ScenarioKey, f64)>) {
    let walls: Vec<(ScenarioKey, f64)> = point_records(run)
        .into_iter()
        .map(|r| (r.key.clone(), r.wall_ms))
        .collect();
    let mut sorted: Vec<f64> = walls.iter().map(|(_, w)| *w).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n == 0 {
        0.0
    } else {
        (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
    };
    let slow = walls
        .into_iter()
        .filter(|(_, w)| median > 0.0 && *w > k * median)
        .collect();
    (median, slow)
}

/// The standard engine/cache instruments, registered against one
/// [`MetricsRegistry`] — the shared name catalogue every observed bench
/// run and `hira serve` exposes (see the README's Observability section).
pub(crate) struct Meters {
    pub computed: hira_obs::Counter,
    pub replayed: hira_obs::Counter,
    pub cache_hits: hira_obs::Counter,
    pub cache_misses: hira_obs::Counter,
    pub cache_appended: hira_obs::Counter,
    pub sweeps: hira_obs::Counter,
    pub wall_us: hira_obs::Histogram,
    pub queue_wait_us: hira_obs::Histogram,
    pub kernel_events: hira_obs::Counter,
    pub sweep_wall_ms: hira_obs::Gauge,
}

impl Meters {
    pub(crate) fn new(reg: &MetricsRegistry) -> Meters {
        let points = "sweep points finished";
        Meters {
            computed: reg.counter_with("hira_points_total", points, &[("result", "computed")]),
            replayed: reg.counter_with("hira_points_total", points, &[("result", "replayed")]),
            cache_hits: reg.counter(
                "hira_cache_hits_total",
                "points replayed from the sweep store",
            ),
            cache_misses: reg.counter(
                "hira_cache_misses_total",
                "points computed because the store missed",
            ),
            cache_appended: reg.counter(
                "hira_cache_appended_total",
                "points newly persisted to the sweep store",
            ),
            sweeps: reg.counter("hira_sweeps_total", "sweeps completed"),
            wall_us: reg.histogram("hira_point_wall_us", "per-point wall time in microseconds"),
            queue_wait_us: reg.histogram(
                "hira_point_queue_wait_us",
                "per-point queue wait in microseconds",
            ),
            kernel_events: reg.counter(
                "hira_kernel_events_total",
                "kernel iterations across finished points",
            ),
            sweep_wall_ms: reg.gauge(
                "hira_sweep_wall_ms",
                "last sweep's summed per-point wall in milliseconds",
            ),
        }
    }

    /// Folds one finished point into the counters and histograms.
    pub(crate) fn point(&self, cached: bool, queue_wait_ms: f64, wall_ms: f64) {
        if cached {
            self.replayed.inc();
        } else {
            self.computed.inc();
        }
        self.wall_us.observe(wall_ms * 1e3);
        self.queue_wait_us.observe(queue_wait_ms * 1e3);
    }
}

/// One sweep under observation (see [`ObsSpec::begin`]): the trace sink,
/// metrics, progress ticker and the phase side-channel the task wrappers
/// feed. All methods are callable from worker threads.
pub struct ObsRun {
    sink: Option<TraceSink>,
    registry: MetricsRegistry,
    meters: Meters,
    progress: Progress,
    show_progress: bool,
    metrics_file: Option<PathBuf>,
    phases: Mutex<Vec<(ScenarioKey, (f64, f64))>>,
    sweep: String,
}

impl ObsRun {
    /// Records one point's `(warmup_ms, measure_ms)` phase split, keyed by
    /// scenario key — called by the task wrapper, consumed by
    /// [`ObsRun::point_done`] on the same point.
    pub fn record_phases(&self, key: &ScenarioKey, phases: (f64, f64)) {
        self.phases
            .lock()
            .expect("phase side-channel")
            .push((key.clone(), phases));
    }

    /// Folds one finished point into the trace, metrics and progress.
    /// Replayed points carry zero phase timings — nothing ran.
    pub fn point_done(&self, key: &ScenarioKey, cached: bool, queue_wait_ms: f64, wall_ms: f64) {
        let phases = {
            let mut v = self.phases.lock().expect("phase side-channel");
            v.iter()
                .position(|(k, _)| k == key)
                .map(|i| v.swap_remove(i).1)
        };
        let (warmup_ms, measure_ms) = phases.unwrap_or((0.0, 0.0));
        let serialize_ms = if cached {
            0.0
        } else {
            (wall_ms - warmup_ms - measure_ms).max(0.0)
        };
        self.meters.point(cached, queue_wait_ms, wall_ms);
        if let Some(s) = &self.sink {
            s.event(
                Level::Info,
                "point",
                &[
                    field("point", key.to_string()),
                    field("cached", cached),
                    field("queue_wait_ms", queue_wait_ms),
                    field("warmup_ms", warmup_ms),
                    field("measure_ms", measure_ms),
                    field("serialize_ms", serialize_ms),
                    field("wall_ms", wall_ms),
                ],
            );
        }
        let snap = self.progress.point_done(cached);
        if self.show_progress {
            eprintln!("progress[{}]: {}", self.sweep, snap.render());
        }
    }

    /// Closes the observation: folds the run-level aggregates (kernel
    /// events, sweep wall, cache accounting) into the metrics, writes the
    /// `sweep_done` trace event and the Prometheus dump.
    ///
    /// # Panics
    ///
    /// Panics when the `--metrics` dump cannot be written.
    pub fn finish(&self, run: &RunSet, stats: Option<&CacheStats>) {
        let kernel_events = kernel_events(run);
        self.meters.kernel_events.add(kernel_events);
        self.meters.sweep_wall_ms.set(run.wall_ms);
        self.meters.sweeps.inc();
        if let Some(s) = stats {
            self.meters.cache_hits.add(s.hits as u64);
            self.meters.cache_misses.add(s.misses as u64);
            self.meters.cache_appended.add(s.appended as u64);
        }
        if let Some(sink) = &self.sink {
            let mut fields = vec![
                field("sweep", self.sweep.as_str()),
                field("threads", run.threads),
                field("wall_ms", run.wall_ms),
                field("kernel_events", kernel_events),
            ];
            if let Some(s) = stats {
                fields.push(field("hits", s.hits));
                fields.push(field("misses", s.misses));
                fields.push(field("appended", s.appended));
            }
            sink.event(Level::Info, "sweep_done", &fields);
            sink.flush();
        }
        if let Some(path) = &self.metrics_file {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            std::fs::write(path, self.registry.render())
                .unwrap_or_else(|e| panic!("--metrics: cannot write {}: {e}", path.display()));
        }
        if self.show_progress {
            let snap = self.progress.snapshot();
            eprintln!(
                "progress[{}]: {} in {:.0} ms",
                self.sweep,
                snap.render(),
                snap.elapsed_ms
            );
        }
    }
}

/// The periodic-refresh policies of Fig. 9 (display label, registry
/// handle). The HiRA variants can be ablated through
/// [`periodic_schemes_ablated`].
pub fn periodic_schemes() -> Vec<(&'static str, PolicyHandle)> {
    periodic_schemes_ablated(false)
}

/// [`periodic_schemes`] with refresh-access pairing optionally disabled on
/// every HiRA point (the `--no-refresh-access` ablation of Fig. 9).
pub fn periodic_schemes_ablated(no_refresh_access: bool) -> Vec<(&'static str, PolicyHandle)> {
    let hira = |n: u32| {
        if no_refresh_access {
            policy::hira_custom(
                format!("hira{n}-noRA"),
                hira_core::config::HiraConfig::hira_n(n).without_refresh_access(),
            )
        } else {
            policy::hira(n)
        }
    };
    vec![
        ("Baseline", policy::baseline()),
        ("HiRA-0", hira(0)),
        ("HiRA-2", hira(2)),
        ("HiRA-4", hira(4)),
        ("HiRA-8", hira(8)),
    ]
}

/// The preventive-refresh arrangements of Fig. 12 (PARA ± HiRA), layered
/// over Baseline periodic refresh. `p_th` is resolved per arrangement from
/// the §9.1 analysis (slack-aware).
pub fn preventive_schemes(nrh: u32) -> Vec<(&'static str, PolicyHandle)> {
    let base = policy::baseline();
    vec![
        ("PARA", base.clone().with_para_immediate(pth_for(nrh, 0))),
        ("HiRA-0", base.clone().with_para_hira(pth_for(nrh, 0), 0)),
        ("HiRA-2", base.clone().with_para_hira(pth_for(nrh, 2), 2)),
        ("HiRA-4", base.clone().with_para_hira(pth_for(nrh, 4), 4)),
        ("HiRA-8", base.with_para_hira(pth_for(nrh, 8), 8)),
    ]
}

/// The three-arrangement subset of [`preventive_schemes`] the geometry
/// sweeps plot (Figs. 15/16: PARA, HiRA-2, HiRA-4).
pub fn preventive_schemes_geometry(nrh: u32) -> Vec<(&'static str, PolicyHandle)> {
    preventive_schemes(nrh)
        .into_iter()
        .filter(|(name, _)| matches!(*name, "PARA" | "HiRA-2" | "HiRA-4"))
        .collect()
}

/// The probe selection of a sweep binary: every `--probe=<form>` argument
/// (repeatable; see [`hira_sim::ProbeRegistry`] for the grammar) plus the
/// shorthands `--cmdtrace=<prefix>` and `--stats-epoch=<cycles>`. Probes
/// are read-only observers — results are bit-identical with or without
/// them — so any sweep binary can carry the same flags through one shared
/// parsing path.
#[derive(Debug, Clone, Default)]
pub struct ProbeSpec {
    specs: Vec<String>,
}

impl ProbeSpec {
    /// Parses the probe flags from an argument vector.
    ///
    /// # Errors
    ///
    /// Names the first spec that does not resolve (with the accepted
    /// forms) — before any simulation runs.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut specs = grid::flag_values(args, "probe");
        for (flag, kind) in [("cmdtrace", "cmdtrace"), ("stats-epoch", "epochs")] {
            let values = grid::flag_values(args, flag);
            specs.extend(values.into_iter().map(|v| format!("{kind}:{v}")));
        }
        let registry = ProbeRegistry::standard();
        if let Some(bad) = specs.iter().find(|s| registry.lookup(s).is_none()) {
            let forms: Vec<&str> = registry.forms().into_iter().map(|(f, _)| f).collect();
            return Err(format!(
                "unknown probe spec `{bad}` (accepted forms: {})",
                forms.join(", ")
            ));
        }
        Ok(ProbeSpec { specs })
    }

    /// True when any probe flag was passed.
    pub fn is_active(&self) -> bool {
        !self.specs.is_empty()
    }

    /// The selected specs, as normalized registry forms.
    pub fn specs(&self) -> &[String] {
        &self.specs
    }

    /// Attaches the selected probes to every point of `sweep`. Each
    /// point's output paths get the point's sanitized scenario key spliced
    /// in (before the extension), so concurrently-running points never
    /// write to the same file. A no-op when no probe flag was passed.
    pub fn attach(&self, sweep: Sweep<SystemConfig>) -> Sweep<SystemConfig> {
        if self.specs.is_empty() {
            return sweep;
        }
        sweep.map(|key, cfg| cfg.with_probe(self.handle_for(key)))
    }

    /// The (possibly multi-) probe handle for one scenario key.
    fn handle_for(&self, key: &ScenarioKey) -> ProbeHandle {
        assert!(self.is_active(), "handle_for needs at least one probe");
        let tag = sanitize_key(key);
        let mut handles: Vec<ProbeHandle> = self
            .specs
            .iter()
            .map(|s| hira_sim::probe::probe(&per_point_spec(s, &tag)))
            .collect();
        if handles.len() == 1 {
            handles.pop().expect("one handle")
        } else {
            ProbeHandle::multi(handles)
        }
    }
}

/// Splices `tag` into a probe spec's output path (via the engine's shared
/// [`suffix_path`] helper — the same one the sweep store names its shards
/// with) so every sweep point writes distinct files. Specs without a path
/// component (or an empty tag) pass through unchanged.
fn per_point_spec(spec: &str, tag: &str) -> String {
    if tag.is_empty() {
        return spec.to_owned();
    }
    let Some((kind, rest)) = spec.split_once(':') else {
        return spec.to_owned();
    };
    match kind {
        "cmdtrace" | "latency" | "act-exposure" => format!("{kind}:{}", suffix_path(rest, tag)),
        "epochs" => match rest.split_once(':') {
            Some((every, path)) if !path.is_empty() => {
                format!("epochs:{every}:{}", suffix_path(path, tag))
            }
            _ => format!("epochs:{rest}:{}", suffix_path("epochs.jsonl", tag)),
        },
        _ => spec.to_owned(),
    }
}

/// Expands `sweep` with a `plugin` scenario-key axis when `plugins` is
/// non-empty (each point's config gains the entry's handle; the `none` /
/// `None` entry leaves it untouched), and passes the sweep through
/// unchanged otherwise.
pub fn with_plugin_axis(
    sweep: Sweep<SystemConfig>,
    plugins: &[(String, Option<PluginHandle>)],
) -> Sweep<SystemConfig> {
    if plugins.is_empty() {
        return sweep;
    }
    sweep.axis("plugin", plugins.to_vec(), |cfg, p| match p {
        Some(h) => cfg.clone().with_plugin(h.clone()),
        None => cfg.clone(),
    })
}

/// `p_th` for a RowHammer threshold under the §9.1 analysis, with the slack
/// of the given HiRA-N (0 for plain PARA).
pub fn pth_for(nrh: u32, slack_acts: u32) -> f64 {
    let params = hira_core::security::SecurityParams::paper_defaults(slack_acts);
    hira_core::security::solve_pth(&params, nrh)
}

/// Mean of `metric` over the records of `run` matching `filters` — `None`
/// when no record matches (a skipped or metric-free cell).
pub fn mean_of(run: &RunSet, metric: &str, filters: &[(&str, &str)]) -> Option<f64> {
    let vals: Vec<f64> = run
        .records
        .iter()
        .filter(|r| r.metric == metric && r.key.matches(filters))
        .map(|r| r.value)
        .collect();
    (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
}

/// One table cell: the value, or `-` for an absent cell (never a silent
/// zero).
pub fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| format!("{:>8}", "-"), |v| format!("{v:>8.4}"))
}

/// A column of [`print_means`]: header, metric, width, precision.
pub type Column = (&'static str, &'static str, usize, usize);

/// Prints a table of metric means: one row per `(label, filters)`, one
/// cell per column — [`mean_of`] over the matching records, `-` when
/// absent.
pub fn print_means(run: &RunSet, rows: &[(&str, Vec<(&str, &str)>)], cols: &[Column]) {
    let header: Vec<String> = cols.iter().map(|(h, _, w, _)| format!("{h:>w$}")).collect();
    println!("{:<18} {}", "", header.join(" "));
    for (label, filters) in rows {
        let cells: Vec<String> = cols
            .iter()
            .map(|&(_, m, w, p)| match mean_of(run, m, filters) {
                Some(v) => format!("{v:>w$.p$}"),
                None => format!("{:>w$}", "-"),
            })
            .collect();
        println!("{label:<18} {}", cells.join(" "));
    }
}

/// Formats one numeric series row for the harness output.
pub fn print_series(label: &str, xs: &[f64]) {
    let body: Vec<String> = xs.iter().map(|v| format!("{v:>8.4}")).collect();
    println!("{label:<12} {}", body.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_are_sane() {
        let s = Scale::from_env();
        assert!(s.mixes >= 1);
        assert!(s.insts >= 1_000);
        assert!(s.warmup < s.insts);
    }

    #[test]
    fn scheme_lists_cover_the_paper_configs() {
        assert_eq!(periodic_schemes().len(), 5);
        assert_eq!(preventive_schemes(512).len(), 5);
    }

    #[test]
    fn pth_is_monotone_in_nrh() {
        assert!(pth_for(64, 0) > pth_for(1024, 0));
    }

    fn tiny_scale() -> Scale {
        Scale {
            mixes: 2,
            insts: 2_000,
            warmup: 400,
            rows: 16,
        }
    }

    #[test]
    fn run_ws_means_match_engine_records() {
        let sweep = Sweep::new("ws_smoke").axis(
            "scheme",
            [
                ("NoRefresh", policy::noref()),
                ("Baseline", policy::baseline()),
            ],
            |_, s| SystemConfig::table3(8.0, s.clone()),
        );
        let t = run(
            &Executor::with_threads(2),
            with_mix_axis(sweep, tiny_scale()),
            &RunOpts::new(tiny_scale(), Task::Ws),
        );
        assert_eq!(t.means().len(), 2);
        // The mean over the mix axis really is the average of the records.
        let per_mix: Vec<f64> = t
            .run
            .records
            .iter()
            .filter(|r| r.metric == "ws" && r.key.matches(&[("scheme", "NoRefresh")]))
            .map(|r| r.value)
            .collect();
        assert_eq!(per_mix.len(), 2);
        let mean = per_mix.iter().sum::<f64>() / per_mix.len() as f64;
        assert!((t.mean(&[("scheme", "NoRefresh")]) - mean).abs() < 1e-12);
        // Refresh can only cost performance relative to the ideal system.
        assert!(t.mean(&[("scheme", "Baseline")]) <= t.mean(&[("scheme", "NoRefresh")]));
    }

    #[test]
    fn run_ws_with_stats_emits_channel_metrics() {
        let devices = [
            ("ddr4-2400", hira_sim::device::ddr4_2400()),
            ("lpddr4-3200", hira_sim::device::lpddr4_3200()),
        ];
        let sweep = Sweep::new("stats_smoke").axis("dev", devices, |_, d| {
            SystemBuilder::new()
                .device(d.clone())
                .policy(policy::baseline())
                .workload(hira_workload::stream())
                .build()
                .unwrap()
        });
        let t = run(
            &Executor::with_threads(2),
            sweep,
            &RunOpts::new(tiny_scale(), Task::WsStats),
        );
        for m in ["ws", "read_lat", "write_lat", "dbus"] {
            assert!(
                t.run.records.iter().any(|r| r.metric == m),
                "{m} missing from the record set"
            );
        }
        // The grid is addressable per device; absent cells answer None.
        assert!(t.try_mean(&[("dev", "ddr4-2400")]).is_some());
        assert!(t.try_mean(&[("dev", "nope")]).is_none());
        // Streaming traffic keeps the bus meaningfully busy on both parts.
        for r in t.run.records.iter().filter(|r| r.metric == "dbus") {
            assert!(r.value > 0.0 && r.value <= 1.0, "dbus {}", r.value);
        }
    }

    #[test]
    fn policy_handles_carry_their_pth_in_the_identity() {
        let a = preventive_schemes(64);
        let b = preventive_schemes(1024);
        // Same label, different p_th: the handles must not compare equal,
        // or a sweep would silently collapse distinct configurations.
        assert_ne!(a[0].1, b[0].1);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn ablated_schemes_rename_their_hira_points() {
        let plain = periodic_schemes();
        let ablated = periodic_schemes_ablated(true);
        assert_eq!(plain[1].1.name(), "hira0");
        assert_eq!(ablated[1].1.name(), "hira0-noRA");
        assert_eq!(plain[0].1, ablated[0].1, "Baseline is not ablatable");
    }

    #[test]
    fn run_ws_records_carry_run_telemetry() {
        let mut sweep = Sweep::from_points("tel_smoke", hira_engine::DEFAULT_BASE_SEED, Vec::new());
        sweep.push(
            ScenarioKey::root(),
            SystemConfig::table3(8.0, policy::baseline()),
        );
        let scale = tiny_scale();
        let t = run(
            &Executor::with_threads(1),
            with_mix_axis(sweep, scale),
            &RunOpts::new(scale, Task::Ws),
        );
        for r in &t.run.records {
            let tel = r.telemetry.expect("every ws record carries telemetry");
            assert!(tel.events > 0);
            assert!(tel.peak_queue > 0);
        }
        assert!(!t.run.telemetry_table().is_empty());
    }

    #[test]
    fn per_point_specs_splice_the_key_tag_into_paths() {
        assert_eq!(
            suffix_path("out/epochs.jsonl", "mix-0"),
            "out/epochs.mix-0.jsonl"
        );
        assert_eq!(suffix_path("trace", "mix-0"), "trace.mix-0");
        assert_eq!(suffix_path("dir.d/file", "t"), "dir.d/file.t");
        assert_eq!(
            per_point_spec("cmdtrace:out/t", "policy-hira4"),
            "cmdtrace:out/t.policy-hira4"
        );
        assert_eq!(
            per_point_spec("epochs:5000", "mix-1"),
            "epochs:5000:epochs.mix-1.jsonl"
        );
        assert_eq!(
            per_point_spec("epochs:5000:e.jsonl", "mix-1"),
            "epochs:5000:e.mix-1.jsonl"
        );
        assert_eq!(
            per_point_spec("latency:lat.jsonl", ""),
            "latency:lat.jsonl",
            "an empty tag (root key) leaves the spec untouched"
        );
        let key = ScenarioKey::root().with("policy", "hira4").with("cap", "8");
        assert_eq!(sanitize_key(&key), "policy-hira4_cap-8");
        assert_eq!(sanitize_key(&ScenarioKey::root()), "");
        let odd = ScenarioKey::root().with("wl", "trace:/tmp/a.trace");
        assert_eq!(sanitize_key(&odd), "wl-trace--tmp-a.trace");
    }

    #[test]
    fn probe_spec_attaches_distinct_handles_per_point() {
        let spec = ProbeSpec {
            specs: vec!["latency:lat.jsonl".into(), "epochs:5000".into()],
        };
        assert!(spec.is_active());
        let sweep = Sweep::new("probe_attach").axis(
            "policy",
            [("noref", policy::noref()), ("baseline", policy::baseline())],
            |_, p| SystemConfig::table3(8.0, p.clone()),
        );
        let attached = spec.attach(sweep);
        let probes: Vec<_> = attached
            .points()
            .iter()
            .map(|(_, cfg)| cfg.probe.clone().expect("probe attached"))
            .collect();
        assert_eq!(probes.len(), 2);
        assert_ne!(probes[0], probes[1], "points must not share output files");
        assert!(probes[0].name().contains("latency:lat.policy-noref.jsonl"));
        assert!(probes[0].name().contains('+'), "multi-probe handle");
        // An inactive spec leaves configs untouched.
        let plain = ProbeSpec::default().attach(Sweep::from_points(
            "noop",
            0,
            vec![(
                ScenarioKey::root(),
                SystemConfig::table3(8.0, policy::noref()),
            )],
        ));
        assert!(plain.points()[0].1.probe.is_none());
    }

    #[test]
    fn ws_canonical_separates_tasks_and_configs() {
        let a = SystemConfig::table3(8.0, policy::baseline());
        let b = SystemConfig::table3(64.0, policy::baseline());
        assert_eq!(ws_canonical("ws", &a), ws_canonical("ws", &a));
        assert_ne!(
            ws_canonical("ws", &a),
            ws_canonical("ws+stats", &a),
            "tasks measuring different metric sets must not share keys"
        );
        assert_ne!(ws_canonical("ws", &a), ws_canonical("ws", &b));
    }

    #[test]
    fn cache_salt_is_stable_within_a_process() {
        assert_eq!(cache_salt(), cache_salt());
    }

    #[test]
    fn cache_spec_selection_rules() {
        assert!(!CacheSpec::disabled().is_active());
        let spec = CacheSpec::at("/tmp/somewhere");
        assert!(spec.is_active());
        assert_eq!(spec.dir().unwrap(), Path::new("/tmp/somewhere"));
        // Probe-attached sweeps refuse the cache (their output files need
        // the simulations to actually run).
        let probed = ProbeSpec {
            specs: vec!["epochs:5000".into()],
        }
        .attach(Sweep::from_points(
            "probed",
            0,
            vec![(
                ScenarioKey::root(),
                SystemConfig::table3(8.0, policy::noref()),
            )],
        ));
        assert!(spec.open_for(&probed).is_none());
    }

    #[test]
    fn cached_run_ws_replays_bench_json_byte_identically() {
        let dir = std::env::temp_dir().join(format!("hira-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = tiny_scale();
        let mk = || {
            Sweep::new("cache_smoke").axis(
                "policy",
                [("noref", policy::noref()), ("baseline", policy::baseline())],
                |_, p| SystemConfig::table3(8.0, p.clone()),
            )
        };
        let ws = |threads: usize, cache: CacheSpec| {
            let opts = RunOpts {
                cache,
                ..RunOpts::new(scale, Task::Ws)
            };
            run(
                &Executor::with_threads(threads),
                with_mix_axis(mk(), scale),
                &opts,
            )
        };
        let uncached = ws(2, CacheSpec::disabled());
        let cold = ws(2, CacheSpec::at(&dir));
        let warm = ws(2, CacheSpec::at(&dir));
        // A different worker count on a warm store must not matter either:
        // nothing runs, so only the reported thread width can change.
        let warm_serial = ws(1, CacheSpec::at(&dir));
        assert_eq!(warm.stats.map(|s| s.hits), Some(4), "a warm pass replays");
        assert_eq!(
            uncached.run.canonical_json(),
            cold.run.canonical_json(),
            "caching must not change results"
        );
        assert_eq!(
            cold.run.bench_json(),
            warm.run.bench_json(),
            "a warm replay must be byte-identical, wall times included"
        );
        assert_eq!(cold.run.canonical_json(), warm_serial.run.canonical_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
