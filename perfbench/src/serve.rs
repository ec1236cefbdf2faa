//! The `serve` stage: a closed-loop client driving the `serve` binary over
//! stdio, and an in-process replay of the same session through the public
//! API the server is built from (the traced run's store and serve layers).

use crate::traced::{self, LayerCounts, Sink};
use crate::workloads::{key_json, Expected, ServeGrid, Workload, SESSION_REQUESTS};
use hira_bench::serve::{parse_op, Op};
use hira_bench::{alone_ipc, cache_salt, ws_canonical, Scale};
use hira_dram::rng::Stream;
use hira_engine::{flabel, json, metric, Executor, Metric, PointTelemetry, ScenarioKey};
use hira_sim::config::SystemConfig;
use hira_sim::metrics::SimResult;
use hira_sim::system::RunTelemetry;
use hira_sim::System;
use hira_store::{CacheExecutorExt, PointOutcome, SweepPlan, SweepStore};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// One generated sweep request and what the server must answer.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub line: String,
    /// Rendered keys of the request's points, in sweep order.
    pub keys: Vec<String>,
    pub hits: usize,
    pub misses: usize,
}

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| {
            let mut o = String::new();
            json::write_str(&mut o, s);
            o
        })
        .collect();
    format!("[{}]", quoted.join(","))
}

/// `k` distinct values of `axis`, in axis order.
fn pick<'a>(rng: &mut Stream, axis: &[&'a str], k: usize) -> Vec<&'a str> {
    let mut idx: Vec<usize> = (0..axis.len()).collect();
    shuffle(rng, &mut idx);
    idx.truncate(k);
    idx.sort_unstable();
    idx.into_iter().map(|i| axis[i]).collect()
}

fn shuffle<T>(rng: &mut Stream, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

fn grid_request(
    id: &str,
    g: &ServeGrid,
    policies: &[&str],
    workloads: &[&str],
    caps: &[&str],
    plugins: &[&str],
) -> (String, Vec<String>) {
    let mut line = format!(
        "{{\"op\":\"sweep\",\"id\":\"{id}\",\"policies\":{},\"workloads\":{},\"caps\":[{}]",
        json_list(policies),
        json_list(workloads),
        caps.join(",")
    );
    if !plugins.is_empty() {
        line.push_str(&format!(",\"plugins\":{}", json_list(plugins)));
    }
    line.push_str(&format!(",\"insts\":{}}}", g.insts));
    let plugin_axis: Vec<Option<&str>> = if plugins.is_empty() {
        vec![None]
    } else {
        plugins.iter().map(|p| Some(*p)).collect()
    };
    let mut keys = Vec::new();
    for p in policies {
        for w in workloads {
            for c in caps {
                let cap: f64 = c.parse().expect("grid caps are numbers");
                for g in &plugin_axis {
                    let mut k = ScenarioKey::root()
                        .with("policy", *p)
                        .with("wl", *w)
                        .with("cap", flabel(cap));
                    if let Some(g) = g {
                        k = k.with("plugin", *g);
                    }
                    keys.push(key_json(&k));
                }
            }
        }
    }
    (line, keys)
}

/// The whole grid as one request (the warm-store fill and `--bless`).
pub fn full_request(g: &ServeGrid) -> Request {
    let (line, keys) = grid_request("fill", g, g.policies, g.workloads, g.caps, g.plugins);
    let misses = keys.len();
    Request {
        id: "fill".into(),
        line,
        keys,
        hits: 0,
        misses,
    }
}

/// Every this-many-th request asks for the whole grid. These 40 larger
/// requests hold each warm session's p99, so it measures a real tail (big
/// replays) rather than whichever small request the host slowed down.
const WHOLE_GRID_EVERY: usize = 25;

/// The seeded session: [`SESSION_REQUESTS`] overlapping sub-grids of one
/// fixed shape, with the whole grid every [`WHOLE_GRID_EVERY`]-th, each
/// with the hit and miss counts a correct server reports for it. A cold
/// session opens by discovering the universe in disjoint requests, in grid
/// order, so every seed simulates the same points in the same requests;
/// the seed draws the overlapping requests that follow.
pub fn session(g: &ServeGrid, seed: u64) -> Vec<Request> {
    let mut rng = Stream::from_words(&[seed, 0x5e55]);
    let mut seen: BTreeSet<String> = if g.warm {
        full_request(g).keys.into_iter().collect()
    } else {
        BTreeSet::new()
    };
    let mut grids: Vec<[Vec<&str>; 4]> = Vec::new();
    if !g.warm {
        let plugins: Vec<Vec<&str>> = if g.plugins.is_empty() {
            vec![Vec::new()]
        } else {
            g.plugins.iter().map(|p| vec![*p]).collect()
        };
        for w in g.workloads {
            for c in g.caps {
                for p in &plugins {
                    for chunk in g.policies.chunks(g.shape[0]) {
                        grids.push([chunk.to_vec(), vec![*w], vec![*c], p.clone()]);
                    }
                }
            }
        }
    }
    while grids.len() < SESSION_REQUESTS {
        if grids.len() % WHOLE_GRID_EVERY == WHOLE_GRID_EVERY - 1 {
            grids.push([
                g.policies.to_vec(),
                g.workloads.to_vec(),
                g.caps.to_vec(),
                g.plugins.to_vec(),
            ]);
            continue;
        }
        grids.push([
            pick(&mut rng, g.policies, g.shape[0]),
            pick(&mut rng, g.workloads, g.shape[1]),
            pick(&mut rng, g.caps, g.shape[2]),
            pick(&mut rng, g.plugins, g.shape[3]),
        ]);
    }
    grids
        .into_iter()
        .enumerate()
        .map(|(i, [policies, workloads, caps, plugins])| {
            let id = format!("r{i}");
            let (line, keys) = grid_request(&id, g, &policies, &workloads, &caps, &plugins);
            let hits = keys.iter().filter(|k| seen.contains(*k)).count();
            seen.extend(keys.iter().cloned());
            Request {
                misses: keys.len() - hits,
                id,
                line,
                keys,
                hits,
            }
        })
        .collect()
}

/// The scale a request's `insts` selects on the server.
pub fn scale(g: &ServeGrid) -> Scale {
    Scale {
        mixes: 1,
        insts: g.insts,
        warmup: g.insts / 5,
        rows: 48,
    }
}

/// What the server computes for one point of a `ws` sweep: the weighted
/// speedup, plus the defense counters on plugin-bearing points.
pub fn ws_task(
    cfg: &SystemConfig,
    scale: Scale,
    sink: Option<&Sink>,
) -> (Vec<Metric>, PointSample) {
    let c = simulate(cfg, sink);
    let r = &c.result;
    let alone: Vec<f64> = r
        .workloads
        .iter()
        .map(|n| alone_ipc(n, &cfg.device, cfg.channels, cfg.ranks, scale))
        .collect();
    let mut ms = vec![metric("ws", r.weighted_speedup(&alone))];
    if !r.plugin_stats.is_empty() {
        let t = r.plugin_totals();
        ms.push(metric("plugin_acts", t.acts_observed as f64));
        ms.push(metric("plugin_injected", t.injected as f64));
        ms.push(metric("victim_max_exposure", t.max_exposure as f64));
        ms.push(metric("victim_mean_exposure", t.mean_exposure()));
        ms.push(metric("rows_over_threshold", t.rows_over_threshold as f64));
    }
    (ms, c)
}

/// Simulates `cfg` (its layers wrapped when `sink` is given), timing
/// `System::new` and `System::run_telemetered` apart.
pub fn simulate(cfg: &SystemConfig, sink: Option<&Sink>) -> PointSample {
    let run_cfg = sink.map_or_else(|| cfg.clone(), |s| traced::traced(cfg, s));
    let t = Instant::now();
    let system = System::new(run_cfg);
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (result, telemetry) = system.run_telemetered();
    let sim_s = t.elapsed().as_secs_f64();
    PointSample {
        result,
        telemetry,
        banks: (cfg.banks as usize * cfg.ranks * cfg.channels) as u64,
        new_s,
        sim_s,
        wall_s: 0.0,
        queue_s: 0.0,
        layers: sink.map(traced::drain).unwrap_or_default(),
    }
}

fn render_f64(v: f64) -> String {
    let mut s = String::new();
    json::write_f64(&mut s, v);
    s
}

/// A record event reduced to what both the server and the replay must
/// agree on byte for byte: `id cached key metric value`.
fn record_line(id: &str, cached: bool, key: &str, m: &str, v: &str) -> String {
    format!("{id} {cached} {key} {m} {v}")
}

// ---------------------------------------------------------------------------
// Driving the `serve` binary.

/// One session against a fresh server process.
#[derive(Debug, Default)]
pub struct Pass {
    /// Spawn to the `ready` line on stderr.
    pub ready_s: f64,
    /// Per request: send to `accepted`, to first `record`, to `done`.
    pub accepted_s: Vec<f64>,
    pub first_s: Vec<f64>,
    pub done_s: Vec<f64>,
    /// Server-measured simulation wall of every computed point, by key.
    pub miss_wall_s: HashMap<String, f64>,
    pub records: Vec<String>,
    /// The server's `VmHWM` just before shutdown.
    pub peak_rss_mb: f64,
    /// Requests whose answer was wrong or an `error`.
    pub failed: usize,
}

struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl ServerProc {
    fn spawn(bin: &Path, cache: &Path) -> Result<(ServerProc, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg(format!("--cache={}", cache.display()))
            .env_clear()
            .env("HIRA_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut err = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut proc = ServerProc {
            child,
            stdin,
            out,
            stderr: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = err.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("serve exited before it was ready".into());
            }
            if line.starts_with("serve: ready") {
                break;
            }
        }
        let ready_s = t0.elapsed().as_secs_f64();
        proc.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut err, &mut rest);
            rest
        }));
        Ok((proc, ready_s))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("serve stopped reading: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.out.read_line(&mut line) {
            Ok(0) => Err("serve closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::report::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown`, waits for `bye` and for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.send("{\"op\":\"shutdown\"}")?;
        let bye = self.recv()?;
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let stderr = self.stderr.take().map(|h| h.join().unwrap_or_default());
        if !bye.contains("\"bye\"") || !status.success() {
            return Err(format!(
                "serve did not shut down cleanly ({status}): {bye} {}",
                stderr.unwrap_or_default()
            ));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn field<'a>(v: &'a json::Value, k: &str) -> Option<&'a json::Value> {
    v.get(k)
}

fn count(v: &json::Value, k: &str) -> Option<u64> {
    field(v, k).and_then(json::Value::as_u64)
}

/// Runs `reqs` as one closed-loop session against a fresh server with its
/// store at `cache`, checking every answer against `expected`.
pub fn run_pass(
    bin: &Path,
    cache: &Path,
    wl: &Workload,
    reqs: &[Request],
    expected: &Expected,
) -> Result<Pass, String> {
    let (mut server, ready_s) = ServerProc::spawn(bin, cache)?;
    let mut pass = Pass {
        ready_s,
        ..Pass::default()
    };
    let mut totals = (0usize, 0usize, 0usize);
    for req in reqs {
        let t0 = Instant::now();
        server.send(&req.line)?;
        let (mut accepted, mut first) = (f64::NAN, f64::NAN);
        let mut lines = Vec::new();
        let done = loop {
            let line = server.recv()?;
            let t = t0.elapsed().as_secs_f64();
            if line.starts_with("{\"event\":\"accepted\"") {
                accepted = t;
            } else if line.starts_with("{\"event\":\"record\"") {
                if first.is_nan() {
                    first = t;
                }
                lines.push(line);
            } else if line.starts_with("{\"event\":\"done\"") {
                lines.push(line);
                break Some(t);
            } else if line.starts_with("{\"event\":\"error\"") {
                eprintln!("perfbench: {}: request {} failed: {line}", wl.name, req.id);
                break None;
            }
        };
        let ok = done.is_some()
            && check_answer(wl, req, &lines, expected, &mut pass)
            && !accepted.is_nan()
            && !first.is_nan();
        if !ok {
            pass.failed += 1;
        }
        totals.0 += req.keys.len();
        totals.1 += req.hits;
        totals.2 += req.misses;
        pass.accepted_s.push(accepted);
        pass.first_s.push(first);
        pass.done_s.push(done.unwrap_or(f64::NAN));
    }
    server.send("{\"op\":\"stats\"}")?;
    let stats = json::parse(&server.recv()?).map_err(|e| e.to_string())?;
    let want = (totals.0 as u64, totals.1 as u64, totals.2 as u64);
    let got = (
        count(&stats, "points").unwrap_or(u64::MAX),
        count(&stats, "hits").unwrap_or(u64::MAX),
        count(&stats, "misses").unwrap_or(u64::MAX),
    );
    if got != want {
        eprintln!(
            "perfbench: {}: session totals {got:?}, expected {want:?}",
            wl.name
        );
        pass.failed += 1;
    }
    pass.peak_rss_mb = server.peak_rss_mb();
    server.shutdown()?;
    Ok(pass)
}

/// Checks one request's `record` and `done` lines; records what the
/// session needs from them.
fn check_answer(
    wl: &Workload,
    req: &Request,
    lines: &[String],
    expected: &Expected,
    pass: &mut Pass,
) -> bool {
    let mut ok = true;
    let mut per_key: HashMap<&str, usize> = HashMap::new();
    for line in lines {
        let Ok(v) = json::parse(line) else {
            eprintln!("perfbench: {}: unparsable event {line}", wl.name);
            return false;
        };
        match field(&v, "event").and_then(json::Value::as_str) {
            Some("record") => {
                let key = field(&v, "key").map(render_value).unwrap_or_default();
                let m = field(&v, "metric")
                    .and_then(json::Value::as_str)
                    .unwrap_or("");
                let val = field(&v, "value").map(render_value).unwrap_or_default();
                let cached = field(&v, "cached").map(render_value).unwrap_or_default();
                let want = expected
                    .records
                    .get(&(wl.name.to_string(), key.clone(), m.to_string()));
                if want != Some(&val) {
                    eprintln!(
                        "perfbench: {}: {} {key} {m} = {val}, expected {want:?}",
                        wl.name, req.id
                    );
                    ok = false;
                }
                if cached == "false" && m == "ws" {
                    let wall = field(&v, "wall_ms").and_then(json::Value::as_f64);
                    pass.miss_wall_s
                        .insert(key.clone(), wall.unwrap_or(f64::NAN) * 1e-3);
                }
                pass.records
                    .push(record_line(&req.id, cached == "true", &key, m, &val));
                if let Some(k) = req.keys.iter().find(|k| **k == key) {
                    *per_key.entry(k.as_str()).or_default() += 1;
                }
            }
            Some("done") => {
                let got = (count(&v, "points"), count(&v, "hits"), count(&v, "misses"));
                let want = (
                    Some(req.keys.len() as u64),
                    Some(req.hits as u64),
                    Some(req.misses as u64),
                );
                if got != want {
                    eprintln!(
                        "perfbench: {}: {} done {got:?}, expected {want:?}",
                        wl.name, req.id
                    );
                    ok = false;
                }
            }
            _ => {}
        }
    }
    // Every point of the request streamed, and nothing else did.
    let metrics_per_point = if wl.serve.plugins.is_empty() { 1 } else { 6 };
    if per_key.len() != req.keys.len() || per_key.values().any(|&n| n != metrics_per_point) {
        eprintln!(
            "perfbench: {}: {} streamed the wrong points",
            wl.name, req.id
        );
        ok = false;
    }
    ok
}

/// A parsed JSON value rendered back the way the server writes it.
fn render_value(v: &json::Value) -> String {
    match v {
        json::Value::Str(s) => {
            let mut o = String::new();
            json::write_str(&mut o, s);
            o
        }
        json::Value::Num(n) => render_f64(*n),
        json::Value::Bool(b) => b.to_string(),
        json::Value::Obj(entries) => {
            let mut o = String::new();
            json::write_object(
                &mut o,
                entries.iter().map(|(k, v)| (k.as_str(), render_value(v))),
            );
            o
        }
        other => format!("{other:?}"),
    }
}

/// A fresh, empty store directory (any leftover removed first).
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// A fresh store directory holding a copy of `template`'s shards.
pub fn copy_store(template: &Path, dir: &Path) -> Result<(), String> {
    fresh_dir(dir)?;
    let entries = std::fs::read_dir(template)
        .map_err(|e| format!("cannot read {}: {e}", template.display()))?;
    for e in entries {
        let p = e.map_err(|e| e.to_string())?.path();
        let to = dir.join(p.file_name().expect("shard file name"));
        std::fs::copy(&p, &to).map_err(|e| format!("cannot copy {}: {e}", p.display()))?;
    }
    Ok(())
}

/// Fills `dir` with the whole grid by asking a server for it once;
/// returns the number of failed requests (0 or 1).
pub fn fill(bin: &Path, dir: &Path, wl: &Workload, expected: &Expected) -> Result<usize, String> {
    fresh_dir(dir)?;
    Ok(run_pass(bin, dir, wl, &[full_request(&wl.serve)], expected)?.failed)
}

// ---------------------------------------------------------------------------
// In-process replay.

/// Host times and counts of one in-process replay of a session.
#[derive(Debug, Default)]
pub struct Replay {
    pub records: Vec<String>,
    pub wall_s: f64,
    pub parse_s: f64,
    pub build_s: f64,
    pub plan_s: f64,
    /// `run_cached` time of requests that were all hits, and their hits.
    pub replay_s: f64,
    pub replay_hits: usize,
    pub requests: usize,
    pub errors: usize,
    pub hits: usize,
    pub misses: usize,
    pub appended: usize,
    /// Points the executor computed: simulation, point wall, queue wait.
    pub computed: Vec<PointSample>,
}

/// One simulated point: its result and where its host time went.
#[derive(Debug, Clone)]
pub struct PointSample {
    pub result: SimResult,
    pub telemetry: RunTelemetry,
    /// Banks in the simulated system (the refresh-busy denominator).
    pub banks: u64,
    pub new_s: f64,
    /// `System::run_telemetered` seconds.
    pub sim_s: f64,
    pub wall_s: f64,
    pub queue_s: f64,
    pub layers: LayerCounts,
}

/// Replays `reqs` in process against a store at `dir` the way the server
/// handles them (`parse_op`, `SweepSpec::build`, `SweepPlan::compute`,
/// `run_cached`), timing each layer; `sink` wraps the simulated layers.
pub fn replay(
    wl: &Workload,
    reqs: &[Request],
    dir: &Path,
    sink: Option<&Sink>,
) -> Result<Replay, String> {
    let ex = Executor::with_threads(1);
    let scale = scale(&wl.serve);
    let mut store = SweepStore::open(dir).map_err(|e| e.to_string())?;
    let salt = cache_salt();
    let mut out = Replay::default();
    let t_all = Instant::now();
    for req in reqs {
        out.requests += 1;
        let t = Instant::now();
        let op = parse_op(&req.line);
        out.parse_s += t.elapsed().as_secs_f64();
        let Ok(Op::Sweep(spec)) = op else {
            out.errors += 1;
            continue;
        };
        let t = Instant::now();
        let built = spec.build(scale);
        out.build_s += t.elapsed().as_secs_f64();
        let Ok((sweep, _skipped)) = built else {
            out.errors += 1;
            continue;
        };
        let t = Instant::now();
        let plan = SweepPlan::compute(&store, &sweep, salt, |sc| ws_canonical("ws", sc.params));
        out.plan_s += t.elapsed().as_secs_f64();
        let records = Mutex::new(Vec::new());
        let computed: Mutex<Vec<PointSample>> = Mutex::new(Vec::new());
        let on_point = |o: PointOutcome<'_>| {
            let key = key_json(&sweep.points()[o.index].0);
            let mut rs = records.lock().expect("records");
            for m in &o.point.metrics {
                rs.push(record_line(
                    &req.id,
                    o.cached,
                    &key,
                    &m.name,
                    &render_f64(m.value),
                ));
            }
            if !o.cached {
                let mut c = computed.lock().expect("computed");
                if let Some(last) = c.last_mut() {
                    last.wall_s = o.point.wall_ms * 1e-3;
                    last.queue_s = o.queue_wait_ms * 1e-3;
                }
            }
        };
        let task = |sc: hira_engine::Scenario<'_, SystemConfig>| {
            let (ms, c) = ws_task(sc.params, scale, sink);
            let t = PointTelemetry {
                events: c.telemetry.events,
                peak_queue: c.telemetry.peak_queue,
            };
            computed.lock().expect("computed").push(c);
            (ms, Some(t))
        };
        let all_hits = plan.misses() == 0;
        let t = Instant::now();
        let (_, stats) = ex
            .run_cached(&mut store, &sweep, &plan, task, Some(&on_point))
            .map_err(|e| format!("replay store: {e}"))?;
        if all_hits {
            out.replay_s += t.elapsed().as_secs_f64();
            out.replay_hits += stats.hits;
        }
        out.hits += stats.hits;
        out.misses += stats.misses;
        out.appended += stats.appended;
        out.records.extend(records.into_inner().expect("records"));
        out.computed
            .extend(computed.into_inner().expect("computed"));
    }
    out.wall_s = t_all.elapsed().as_secs_f64();
    Ok(out)
}

/// `record` and `work` lines of `expected.txt` for a workload's serve grid,
/// computed in process.
pub fn bless(wl: &Workload) -> Vec<String> {
    let g = &wl.serve;
    let req = full_request(g);
    let Ok(Op::Sweep(spec)) = parse_op(&req.line) else {
        panic!("{}: the full-grid request must parse", wl.name)
    };
    let (sweep, _) = spec
        .build(scale(g))
        .unwrap_or_else(|e| panic!("{}: the serve grid must build: {e}", wl.name));
    let mut lines = Vec::new();
    for (key, cfg) in sweep.points() {
        let k = key_json(key);
        let (ms, c) = ws_task(cfg, scale(g), None);
        for m in ms {
            lines.push(format!(
                "record {} {k} {} {}",
                wl.name,
                m.name,
                render_f64(m.value)
            ));
        }
        let insts = (cfg.insts_per_core + cfg.warmup_insts) * cfg.cores as u64;
        lines.push(format!(
            "work {} {k} {insts} {}",
            wl.name, c.result.mem_cycles
        ));
    }
    lines
}
