//! The repository benchmark. Run from the root of a checkout:
//!
//! ```text
//! bash perfbench/run.sh --workload <paper_sweep|rh_writes|serve_session> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric of `BENCHMARK.json`, measured
//! untraced; `--trace 1` prints every per-layer metric, from a run that
//! wraps the simulator's policy, plugin and workload layers and times the
//! store and serve layers from this program. The last stdout line is the
//! JSON result. `--bless` rewrites `perfbench/expected.txt` instead.
//!
//! Every host time is a best-of-K estimate (see [`report`]). Correctness:
//! every pass must reproduce pass 1 exactly, every in-process result must
//! match its committed digest, every served value its committed value, and
//! the traced run must equal the untraced one and the dense kernel the
//! event kernel on sampled points.

mod report;
mod serve;
mod traced;
mod workloads;

use hira_core::finder::McStats;
use hira_dram::rng::Stream;
use hira_engine::{Executor, PointRun, Sweep};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::controller::ChannelStats;
use hira_sim::metrics::{LatencyHistogram, SimResult};
use hira_sim::System;
use report::{percentile, ratio, Best, Metrics};
use serve::{Pass, PointSample, Replay, Request};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use traced::{LayerCounts, Sink};
use workloads::{Expected, Workload};

/// Fewest interleaved passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// A timing this much above its item's best counts as a slow sample.
const SLOW_FACTOR: f64 = 1.25;
/// Points the traced run re-runs under the dense kernel.
const DENSE_SAMPLES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn main() {
    let outcome = parse_args().and_then(|a| if a.bless { bless() } else { run(&a) });
    match outcome {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Removes the run's scratch stores on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(a: &Args) -> Result<Option<String>, String> {
    let wl = workloads::find(&a.workload).ok_or(format!(
        "unknown workload `{}` (paper_sweep, rh_writes, serve_session)",
        a.workload
    ))?;
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the checkout root: BENCHMARK.json: {e}"))?;
    let declared = report::declared(&bench, if a.trace { "per_layer" } else { "end_to_end" })?;
    let expected = Expected::load(Path::new(workloads::EXPECTED_PATH))?;
    let target = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    let bin = target.join("release").join("serve");
    if !bin.is_file() {
        return Err(format!(
            "{} is missing: build it first (see run.sh)",
            bin.display()
        ));
    }
    let scratch = Scratch(target.join("perfbench-tmp").join(format!(
        "{}-{}",
        std::process::id(),
        wl.name
    )));
    serve::fresh_dir(&scratch.0)?;

    let mut bench = Bench {
        wl,
        seed: a.seed,
        expected,
        bin,
        dir: scratch.0.clone(),
        sweep: wl.sim.as_ref().map(|g| g.sweep(wl.name, a.seed)),
        reqs: serve::session(&wl.serve, a.seed),
        template: None,
        sim: SimStage::default(),
        serve: ServeStage::default(),
        replays: Vec::new(),
        traced_replays: Vec::new(),
        run_wall_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    if wl.serve.warm {
        let t = bench.dir.join("template");
        bench.failed += serve::fill(&bench.bin, &t, wl, &bench.expected)? as u64;
        bench.attempted += 1;
        bench.template = Some(t);
    }
    let seconds = Duration::from_secs(a.seconds);
    let metrics = if a.trace {
        bench.measure(seconds / 2)?;
        bench.trace(seconds / 2)?;
        bench.per_layer()
    } else {
        bench.measure(seconds)?;
        bench.end_to_end()
    };
    bench.check_digests();
    let failed = bench.failed + bench.sim.failed + bench.serve.failed;
    let attempted = bench.attempted + bench.sim.attempted + bench.serve.attempted;
    let line = report::result_line(&declared, &metrics, failed == 0, attempted, failed)?;
    Ok(Some(line))
}

/// One run's state: inputs, and what every stage measured.
struct Bench {
    wl: &'static Workload,
    seed: u64,
    expected: Expected,
    bin: PathBuf,
    dir: PathBuf,
    sweep: Option<Sweep<SystemConfig>>,
    reqs: Vec<Request>,
    /// The filled store warm sessions start from.
    template: Option<PathBuf>,
    sim: SimStage,
    serve: ServeStage,
    replays: Vec<Replay>,
    traced_replays: Vec<Replay>,
    run_wall_s: f64,
    attempted: u64,
    failed: u64,
}

/// The simulator side: per-point timings over passes, checked against the
/// first pass.
#[derive(Default)]
struct SimStage {
    /// Pass 1, which every later pass must reproduce.
    reference: Vec<PointSample>,
    new: Best,
    run: Best,
    wall: Best,
    queue: Best,
    traced_run: Best,
    traced_wall: Best,
    /// `[pass][point]` layer counts of the traced passes.
    traced_layers: Vec<Vec<LayerCounts>>,
    attempted: u64,
    failed: u64,
}

impl SimStage {
    fn add(&mut self, pass: Vec<PointSample>, traced: bool) {
        if self.reference.is_empty() {
            self.reference = pass.clone();
        }
        self.attempted += pass.len() as u64;
        for (s, r) in pass.iter().zip(&self.reference) {
            if s.result != r.result {
                self.failed += 1;
            }
        }
        if pass.len() != self.reference.len() {
            self.failed += pass.len() as u64;
            return;
        }
        let col = |f: fn(&PointSample) -> f64| pass.iter().map(f).collect::<Vec<_>>();
        if traced {
            // Call counts repeat exactly; only the self times may differ.
            if let Some(first) = self.traced_layers.first() {
                let same = pass
                    .iter()
                    .zip(first)
                    .all(|(s, f)| s.layers.counts_only() == f.counts_only());
                if !same {
                    eprintln!("perfbench: traced layer call counts differ between passes");
                    self.failed += 1;
                }
            }
            self.traced_run.add(&col(|s| s.sim_s));
            self.traced_wall.add(&col(|s| s.wall_s));
            self.traced_layers
                .push(pass.iter().map(|s| s.layers).collect());
        } else {
            self.new.add(&col(|s| s.new_s));
            self.run.add(&col(|s| s.sim_s));
            self.wall.add(&col(|s| s.wall_s));
            self.queue.add(&col(|s| s.queue_s));
        }
    }

    /// Each point's layer counts from the traced pass that ran it fastest.
    fn best_layers(&self) -> Vec<LayerCounts> {
        self.traced_run
            .argmin()
            .iter()
            .enumerate()
            .map(|(i, &p)| self.traced_layers[p][i])
            .collect()
    }
}

/// The `serve` side: per-request latencies over passes.
#[derive(Default)]
struct ServeStage {
    ready: Vec<f64>,
    accepted: Best,
    first: Best,
    done: Best,
    miss_wall: BTreeMap<String, f64>,
    rss: Vec<f64>,
    /// Pass 1's records, which every replay must reproduce.
    records: Option<Vec<String>>,
    attempted: u64,
    failed: u64,
}

impl ServeStage {
    fn add(&mut self, p: Pass) {
        self.attempted += p.done_s.len() as u64;
        self.failed += p.failed as u64;
        match &self.records {
            None => self.records = Some(p.records),
            Some(r) if *r != p.records => self.failed += 1,
            Some(_) => {}
        }
        self.ready.push(p.ready_s);
        self.accepted.add(&p.accepted_s);
        self.first.add(&p.first_s);
        self.done.add(&p.done_s);
        for (k, w) in p.miss_wall_s {
            let e = self.miss_wall.entry(k).or_insert(f64::INFINITY);
            *e = e.min(w);
        }
        self.rss.push(p.peak_rss_mb);
    }
}

/// Runs one in-process pass over `sweep` on a single worker, timing
/// `System::new` and `System::run_telemetered` inside the executor task
/// and the point wall and queue wait through its observer.
fn sim_pass(sweep: &Sweep<SystemConfig>, sinks: Option<&[Sink]>) -> Vec<PointSample> {
    let n = sweep.len();
    let timing = Mutex::new(vec![(0.0, 0.0); n]);
    let observer = |p: &PointRun<'_>| {
        timing.lock().expect("timing")[p.index] = (p.wall_ms * 1e-3, p.queue_wait_ms * 1e-3);
    };
    let params: Vec<_> = sweep
        .points()
        .iter()
        .enumerate()
        .map(|(i, (k, cfg))| (k.clone(), (cfg.clone(), sinks.map(|s| s[i].clone()))))
        .collect();
    let run = Sweep::from_points(sweep.name(), sweep.base_seed(), params);
    let (outs, _) = Executor::with_threads(1).run_observed(
        &run,
        |sc| {
            let (cfg, sink) = sc.params;
            (serve::simulate(cfg, sink.as_ref()), Vec::new(), None)
        },
        Some(&observer),
    );
    let timing = timing.into_inner().expect("timing");
    outs.into_iter()
        .zip(timing)
        .map(|(mut s, (wall, queue))| {
            s.wall_s = wall;
            s.queue_s = queue;
            s
        })
        .collect()
}

impl Bench {
    /// A fresh store for one session: empty, or a copy of the warm one.
    fn store(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.dir.join(name);
        match &self.template {
            Some(t) => serve::copy_store(t, &d)?,
            None => serve::fresh_dir(&d)?,
        }
        Ok(d)
    }

    fn serve_pass(&mut self, k: usize) -> Result<(), String> {
        let d = self.store(&format!("pass{k}"))?;
        let pass = serve::run_pass(&self.bin, &d, self.wl, &self.reqs, &self.expected)?;
        let _ = std::fs::remove_dir_all(&d);
        self.serve.add(pass);
        Ok(())
    }

    /// Untraced interleaved passes until `budget` is spent (and at least
    /// [`MIN_PASSES`]): the in-process sweep, then the serve session.
    fn measure(&mut self, budget: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        let mut k = 0;
        while k < MIN_PASSES || t0.elapsed() < budget {
            if let Some(sweep) = &self.sweep {
                let pass = sim_pass(sweep, None);
                self.sim.add(pass, false);
            }
            self.serve_pass(k)?;
            k += 1;
        }
        self.run_wall_s += t0.elapsed().as_secs_f64();
        Ok(())
    }

    fn replay(&mut self, k: usize, traced: bool) -> Result<(), String> {
        let d = self.store(&format!("replay{k}-{traced}"))?;
        let sink = Sink::default();
        let r = serve::replay(self.wl, &self.reqs, &d, traced.then_some(&sink))?;
        let _ = std::fs::remove_dir_all(&d);
        self.attempted += r.requests as u64;
        self.failed += r.errors as u64;
        if Some(&r.records) != self.serve.records.as_ref() {
            eprintln!("perfbench: in-process replay differs from the server's records");
            self.failed += 1;
        }
        // The serve-only workload's simulator side is its computed points.
        if self.sweep.is_none() {
            self.sim.add(r.computed.clone(), traced);
        }
        if traced {
            self.traced_replays.push(r);
        } else {
            self.replays.push(r);
        }
        Ok(())
    }

    /// The traced run: traced in-process sweep passes and in-process
    /// session replays (traced and not), then the dense-kernel samples.
    fn trace(&mut self, budget: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        let mut k = 0;
        while k < MIN_PASSES || t0.elapsed() < budget {
            if let Some(sweep) = &self.sweep {
                let sinks: Vec<Sink> = (0..sweep.len()).map(|_| Sink::default()).collect();
                let pass = sim_pass(sweep, Some(&sinks));
                self.sim.add(pass, true);
            } else {
                self.replay(k, true)?;
            }
            self.replay(k, false)?;
            k += 1;
        }
        self.run_wall_s += t0.elapsed().as_secs_f64();
        self.dense_check();
        Ok(())
    }

    /// Re-runs sampled points under the dense kernel; results must equal
    /// the event kernel's.
    fn dense_check(&mut self) {
        let configs: Vec<SystemConfig> = match &self.sweep {
            Some(s) => s.points().iter().map(|(_, c)| c.clone()).collect(),
            None => {
                let r = serve::full_request(&self.wl.serve);
                let spec = match hira_bench::serve::parse_op(&r.line) {
                    Ok(hira_bench::serve::Op::Sweep(spec)) => spec,
                    _ => {
                        self.failed += 1;
                        return;
                    }
                };
                match spec.build(serve::scale(&self.wl.serve)) {
                    Ok((sweep, _)) => sweep.points().iter().map(|(_, c)| c.clone()).collect(),
                    Err(_) => {
                        self.failed += 1;
                        return;
                    }
                }
            }
        };
        let mut rng = Stream::from_words(&[self.seed, 0xde5e]);
        for _ in 0..DENSE_SAMPLES {
            let cfg = &configs[rng.next_below(configs.len() as u64) as usize];
            let event = System::new(cfg.clone().with_kernel(KernelMode::Event)).run();
            let dense = System::new(cfg.clone().with_kernel(KernelMode::Dense)).run();
            self.attempted += 1;
            if event != dense {
                eprintln!("perfbench: dense and event kernels disagree");
                self.failed += 1;
            }
        }
    }

    /// In-process points must match their committed digests.
    fn check_digests(&mut self) {
        let Some(sweep) = &self.sweep else { return };
        for ((key, _), r) in sweep.points().iter().zip(&self.sim.reference) {
            let k = (self.wl.name.to_string(), workloads::key_token(key));
            if self.expected.digests.get(&k) != Some(&workloads::digest(&r.result)) {
                eprintln!(
                    "perfbench: {} {}: result differs from its committed digest",
                    k.0, k.1
                );
                self.failed += 1;
            }
        }
    }

    /// Simulated work behind `sweep_s`: (instructions, memory cycles, host
    /// seconds). The serve-only workload counts the points its server
    /// computed, timed by the server.
    fn sim_work(&self) -> (f64, f64, f64) {
        match &self.sweep {
            Some(sweep) => {
                let insts: u64 = sweep
                    .points()
                    .iter()
                    .map(|(_, c)| (c.insts_per_core + c.warmup_insts) * c.cores as u64)
                    .sum();
                let mem: u64 = self.sim.reference.iter().map(|r| r.result.mem_cycles).sum();
                (insts as f64, mem as f64, self.sim.wall.sum())
            }
            None => {
                let (mut insts, mut mem, mut secs) = (0.0, 0.0, 0.0);
                for (k, w) in &self.serve.miss_wall {
                    let work = self
                        .expected
                        .work
                        .get(&(self.wl.name.to_string(), k.clone()));
                    let (i, m) = work.copied().unwrap_or((0, 0));
                    insts += i as f64;
                    mem += m as f64;
                    secs += w;
                }
                (insts, mem, secs)
            }
        }
    }

    fn end_to_end(&self) -> Metrics {
        let s = &self.serve;
        let ms = |b: &Best, q: f64| percentile(&b.minima(), q) * 1e3;
        let (insts, mem, sim_s) = self.sim_work();
        let mut m = Metrics::new();
        match &self.sweep {
            Some(_) => {
                m.insert("setup_s", self.sim.new.sum());
                m.insert("sweep_s", self.sim.wall.sum());
                m.insert("peak_rss_mb", report::vm_hwm_mb("/proc/self/status"));
            }
            None => {
                m.insert(
                    "setup_s",
                    s.ready.iter().copied().fold(f64::INFINITY, f64::min),
                );
                m.insert("sweep_s", s.done.sum());
                // The allocator's arena choice moves the server's peak by
                // megabytes between identical passes; keep the smallest.
                m.insert(
                    "peak_rss_mb",
                    s.rss.iter().copied().fold(f64::INFINITY, f64::min),
                );
            }
        }
        m.insert("sim_minsts_per_s", insts / sim_s / 1e6);
        m.insert("sim_mem_mcycles_per_s", mem / sim_s / 1e6);
        m.insert("serve_accepted_p50_ms", ms(&s.accepted, 0.50));
        m.insert("serve_accepted_p99_ms", ms(&s.accepted, 0.99));
        m.insert("serve_first_record_p50_ms", ms(&s.first, 0.50));
        m.insert("serve_first_record_p99_ms", ms(&s.first, 0.99));
        m.insert("serve_done_p50_ms", ms(&s.done, 0.50));
        m.insert("serve_done_p99_ms", ms(&s.done, 0.99));
        m
    }

    fn per_layer(&self) -> Metrics {
        let mut m = Metrics::new();
        let sim = &self.sim;
        let events: u64 = sim.reference.iter().map(|c| c.telemetry.events).sum();
        let mem_cycles: u64 = sim.reference.iter().map(|c| c.result.mem_cycles).sum();
        let layers = sim.best_layers();
        let mut l = LayerCounts::default();
        for x in &layers {
            l.add(x);
        }
        let traced_run = sim.traced_run.sum();
        let self_s: f64 = layers.iter().map(LayerCounts::self_s).sum();
        let ev = events as f64;
        m.insert("sim.system.events", ev);
        m.insert("sim.system.cycles_per_event", ratio(mem_cycles as f64, ev));
        m.insert("sim.system.ns_per_event", ratio(sim.run.sum() * 1e9, ev));
        m.insert("sim.system.new_s", sim.new.sum());
        m.insert("sim.system.residual_s", traced_run - self_s);
        m.insert("sim.policy.calls.tick", l.policy_tick as f64);
        m.insert("sim.policy.calls.next_wake", l.policy_next_wake as f64);
        m.insert("sim.policy.calls.next_action", l.policy_next_action as f64);
        m.insert(
            "sim.policy.calls.on_demand_act",
            l.policy_on_demand_act as f64,
        );
        m.insert(
            "sim.policy.calls.on_act_executed",
            l.policy_on_act_executed as f64,
        );
        m.insert("sim.policy.self_s", l.policy_ns as f64 * 1e-9);
        m.insert(
            "sim.policy.self_share",
            ratio(l.policy_ns as f64 * 1e-9, sim.traced_wall.sum()),
        );
        m.insert(
            "sim.policy.action_yield",
            ratio(l.policy_actions as f64, l.policy_next_action as f64),
        );
        m.insert("sim.plugin.calls.on_act", l.plugin_on_act as f64);
        m.insert("sim.plugin.calls.next_action", l.plugin_next_action as f64);
        m.insert("sim.plugin.calls.next_wake", l.plugin_next_wake as f64);
        m.insert("sim.plugin.self_s", l.plugin_ns as f64 * 1e-9);
        m.insert("sim.plugin.injected", l.plugin_injected as f64);
        m.insert(
            "sim.plugin.inject_share",
            ratio(l.plugin_injected as f64, l.plugin_next_action as f64),
        );
        m.insert("workload.calls", l.workload_calls as f64);
        m.insert("workload.self_s", l.workload_ns as f64 * 1e-9);
        m.insert(
            "workload.ns_per_call",
            ratio(l.workload_ns as f64, l.workload_calls as f64),
        );
        controller_metrics(&mut m, &sim.reference);
        m.insert("engine.points", sim.reference.len() as f64);
        let overhead: f64 = (0..sim.reference.len())
            .map(|i| sim.wall.minima()[i] - sim.new.minima()[i] - sim.run.minima()[i])
            .sum();
        m.insert("engine.point_overhead_s", overhead.max(0.0));
        m.insert("engine.queue_wait_s", sim.queue.sum());

        let best = |f: fn(&Replay) -> f64| self.replays.iter().map(f).fold(f64::INFINITY, f64::min);
        let r0 = self
            .replays
            .first()
            .expect("the traced run replays the session");
        m.insert("store.plan_s", best(|r| r.plan_s));
        m.insert("store.hits", r0.hits as f64);
        m.insert("store.misses", r0.misses as f64);
        m.insert("store.appended", r0.appended as f64);
        m.insert(
            "store.hit_share",
            ratio(r0.hits as f64, (r0.hits + r0.misses) as f64),
        );
        m.insert(
            "store.replay_ms_per_hit",
            ratio(best(|r| r.replay_s) * 1e3, r0.replay_hits as f64),
        );
        m.insert("serve.parse_s", best(|r| r.parse_s));
        m.insert("serve.build_s", best(|r| r.build_s));
        m.insert("serve.requests", r0.requests as f64);
        m.insert("serve.errors", r0.errors as f64);

        let overhead_ratio = match &self.sweep {
            Some(_) => ratio(sim.traced_wall.sum(), sim.wall.sum()),
            None => {
                let traced = self
                    .traced_replays
                    .iter()
                    .map(|r| r.wall_s)
                    .fold(f64::INFINITY, f64::min);
                ratio(traced, best(|r| r.wall_s))
            }
        };
        m.insert("trace.overhead_ratio", overhead_ratio);
        m.insert("host.run_wall_s", self.run_wall_s);
        let (mut slow, mut all) = (0, 0);
        for b in [&sim.wall, &self.serve.done] {
            let (s, a) = b.slow(SLOW_FACTOR);
            slow += s;
            all += a;
        }
        m.insert("host.slow_pass_share", ratio(slow as f64, all as f64));
        m
    }
}

/// The simulated controller and HiRA-MC statistics, summed over points.
fn controller_metrics(m: &mut Metrics, points: &[PointSample]) {
    let results: Vec<&SimResult> = points.iter().map(|c| &c.result).collect();
    let ch = |f: fn(&ChannelStats) -> u64| -> f64 {
        results
            .iter()
            .flat_map(|r| &r.channel_stats)
            .map(f)
            .sum::<u64>() as f64
    };
    let mc = |f: fn(&McStats) -> u64| -> f64 {
        results.iter().flat_map(|r| &r.mc_stats).map(f).sum::<u64>() as f64
    };
    let reads = ch(|c| c.reads_done);
    let writes = ch(|c| c.writes_done);
    m.insert("sim.controller.reads", reads);
    m.insert("sim.controller.writes", writes);
    m.insert(
        "sim.controller.row_hit_rate",
        ratio(ch(|c| c.row_hits), reads + writes),
    );
    m.insert("sim.controller.demand_acts", ch(|c| c.demand_acts));
    m.insert("sim.controller.refresh_acts", ch(|c| c.refresh_acts));
    m.insert("sim.controller.ref_commands", ch(|c| c.ref_commands));
    m.insert("sim.controller.refpb_commands", ch(|c| c.refpb_commands));
    m.insert("sim.controller.hira_access_ops", ch(|c| c.hira_access_ops));
    let bank_cycles: f64 = points
        .iter()
        .map(|c| c.result.mem_cycles as f64 * c.banks as f64)
        .sum();
    m.insert(
        "sim.controller.refresh_busy_share",
        ratio(ch(|c| c.refresh_busy), bank_cycles),
    );
    let mut hist = LatencyHistogram::default();
    for r in &results {
        hist.merge(&r.read_latency_histogram());
    }
    m.insert(
        "sim.controller.read_latency_p50_cycles",
        hist.quantile(0.5).unwrap_or(0) as f64,
    );
    let peak = points
        .iter()
        .map(|c| c.telemetry.peak_queue)
        .max()
        .unwrap_or(0);
    m.insert("sim.controller.peak_queue", peak as f64);
    let access = mc(|s| s.refresh_access);
    let pairs = mc(|s| s.refresh_refresh);
    let singles = mc(|s| s.singles);
    m.insert(
        "core.hira_mc.periodic_generated",
        mc(|s| s.periodic_generated),
    );
    m.insert("core.hira_mc.refresh_access", access);
    m.insert("core.hira_mc.refresh_refresh", pairs);
    m.insert("core.hira_mc.singles", singles);
    m.insert(
        "core.hira_mc.hidden_share",
        ratio(access + pairs, access + pairs + singles),
    );
}

/// Rewrites the committed expected results: the digest of every point any
/// seed can draw in process, and every value `serve` streams for every
/// served point.
fn bless() -> Result<Option<String>, String> {
    let mut lines = vec![
        "# Expected results of every input the benchmark can generate.".to_string(),
        "# Regenerate with: bash perfbench/run.sh --bless".to_string(),
    ];
    for wl in workloads::WORKLOADS {
        if let Some(g) = &wl.sim {
            let universe = g.universe(wl.name);
            let ex = Executor::with_threads(1);
            let digests = ex.map(&universe, |sc| {
                workloads::digest(&System::new(sc.params.clone()).run())
            });
            for ((key, _), d) in universe.points().iter().zip(digests) {
                lines.push(format!(
                    "digest {} {} {d}",
                    wl.name,
                    workloads::key_token(key)
                ));
            }
        }
        lines.extend(serve::bless(wl));
        eprintln!("perfbench: blessed {}", wl.name);
    }
    lines.push(String::new());
    std::fs::write(workloads::EXPECTED_PATH, lines.join("\n"))
        .map_err(|e| format!("cannot write {}: {e}", workloads::EXPECTED_PATH))?;
    Ok(None)
}
