//! Kernel A/B harness: times the event-driven kernel against the dense
//! reference over the headline policy sweep (every registered refresh
//! policy × the Table 3 capacity × the standard mix suite) and — point by
//! point — asserts the two kernels' [`hira_sim::SimResult`]s are
//! **identical**. This is the executable form of the
//! [`hira_sim::policy::RefreshPolicy::next_wake`] contract: any policy
//! whose wake declaration is too eager shows up here as a result mismatch,
//! not as a silently wrong BENCH baseline.
//!
//! Timing is single-threaded (`Executor::with_threads(1)`) so the
//! wall-clock comparison measures the kernels, not the executor. Always
//! writes `BENCH_perf_kernel.json` (into `HIRA_BENCH_DIR`, or the working
//! directory when unset) with per-point `wall_dense_ms` / `wall_event_ms`
//! / `speedup` records plus the aggregate `speedup_total`. The wall-clock
//! figures naturally vary run to run — unlike the matrix baselines, this
//! file is a snapshot, not a byte-reproducible artifact — *except* under
//! a warm `--cache`, which replays the stored walls verbatim (the
//! kernel-identity assertion ran when each point was first computed).
//!
//! Flags: the shared matrix flags without the kernel, probe, telemetry and
//! determinism ones (see the `hira_bench` crate docs) over the
//! [`hira_bench::grid::PERF_KERNEL`] preset's axes — `--policy=` (default:
//! the full standard registry) and the opt-in `--plugin=`, under which the
//! dense-vs-event identity assertion runs with each plugin attached —
//! plus its own:
//!
//! * `--check-baseline=<path>` — after the sweep, compare `speedup_total`
//!   against the one recorded in the `BENCH_perf_kernel.json` at `<path>`
//!   and fail when it regressed by more than the tolerance — the CI guard
//!   that the no-probe notification sites stay free,
//! * `--baseline-tolerance=<frac>` — allowed fractional regression for
//!   `--check-baseline` (default 0.35; wall-clock ratios are noisy on
//!   shared runners).
//!
//! Scale: `HIRA_MIXES` × `HIRA_INSTS` as everywhere else.

use hira_bench::grid::PERF_KERNEL;
use hira_bench::{print_series, with_mix_axis, with_plugin_axis, AxisKind};
use hira_engine::json::{self, Value};
use hira_engine::{Executor, RunRecord, ScenarioKey};

/// The `speedup_total` record's value in a `BENCH_perf_kernel.json` body.
fn speedup_total(body: &str) -> Option<f64> {
    let doc = json::parse(body).ok()?;
    let records = doc.get("records")?.as_arr()?;
    records
        .iter()
        .find(|r| r.get("metric").and_then(Value::as_str) == Some("speedup_total"))?
        .get("value")?
        .as_f64()
}

fn main() {
    let mut cli = PERF_KERNEL.cli();
    let scale = cli.opts.scale;
    // Read the baseline before the sweep so a bad path fails fast.
    let baseline = cli.value("check-baseline").map(|path| {
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check-baseline: cannot read {path}: {e}"));
        let total = speedup_total(&body)
            .unwrap_or_else(|| panic!("--check-baseline: no speedup_total record in {path}"));
        (path.to_owned(), total)
    });
    let tolerance: f64 = cli
        .value("baseline-tolerance")
        .map(|v| v.parse().expect("--baseline-tolerance"))
        .unwrap_or(0.35);
    let policies = cli.grid.labels(AxisKind::Policy);
    // The plugin axis crosses after the mix axis: `policy, mix, plugin`.
    let plugins = cli.grid.take_plugins();
    let grid = cli.build();
    if !plugins.is_empty() {
        let plugin_names: Vec<&str> = plugins.iter().map(|(n, _)| n.as_str()).collect();
        println!(
            "plugins: {} (per-policy walls sum over the plugin axis)",
            plugin_names.join(", ")
        );
    }

    let sweep = with_plugin_axis(with_mix_axis(grid, scale), &plugins);
    let t = cli.run(&Executor::with_threads(1), sweep);
    // Replayed points skipped both kernel runs; their identity was
    // asserted when they were first computed into the store.
    let note = if t.stats.map_or(0, |s| s.hits) == 0 {
        "results identical"
    } else {
        "identity verified at first computation for replayed points"
    };
    let mut run = t.run;
    let sum_for = |name: &str, metric: &str| -> f64 {
        run.records
            .iter()
            .filter(|r| r.metric == metric && r.key.matches(&[("policy", name)]))
            .map(|r| r.value)
            .sum()
    };
    let mut total_dense = 0.0;
    let mut total_event = 0.0;
    let mut speedups = Vec::new();
    for name in &policies {
        let policy_dense = sum_for(name, "wall_dense_ms");
        let policy_event = sum_for(name, "wall_event_ms");
        total_dense += policy_dense;
        total_event += policy_event;
        speedups.push(policy_dense / policy_event);
        println!(
            "{name:<12} dense {policy_dense:>9.1} ms   event {policy_event:>9.1} ms   \
             speedup {:>5.2}x   ({note})",
            policy_dense / policy_event
        );
    }

    let total = total_dense / total_event;
    println!("\n-- speedup per policy --");
    print_series("speedup", &speedups);
    println!(
        "\ntotal: dense {total_dense:.1} ms, event {total_event:.1} ms -> {total:.2}x \
         over the headline sweep"
    );
    run.records.push(RunRecord {
        key: ScenarioKey::root(),
        metric: "speedup_total".to_owned(),
        value: total,
        wall_ms: total_dense + total_event,
        telemetry: None,
    });

    if let Some((path, expected)) = baseline {
        let floor = expected * (1.0 - tolerance);
        println!(
            "baseline check: speedup_total {total:.2}x vs {expected:.2}x in {path} \
             (floor {floor:.2}x at tolerance {tolerance})"
        );
        assert!(
            total >= floor,
            "event-kernel speedup regressed: {total:.2}x < {floor:.2}x \
             ({expected:.2}x in {path} minus {tolerance} tolerance) — \
             did the no-probe path grow overhead?"
        );
    }

    cli.finish(&run);
}
