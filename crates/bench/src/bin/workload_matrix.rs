//! Workload matrix: workload × refresh policy, through one engine
//! weighted-speedup sweep — the comparison surface the open
//! [`hira_workload`] frontend exists for. Where `policy_matrix` holds the
//! workload fixed and sweeps policies, this grid crosses both axes: how
//! much each refresh arrangement costs under streaming, random, pointer-
//! chasing, skewed, write-heavy, open-loop and multiprogrammed-mix
//! traffic, side by side.
//!
//! Always writes `BENCH_workload_matrix.json` (into `HIRA_BENCH_DIR`, or
//! the working directory when unset): the tracked perf baseline for the
//! workload comparison surface.
//!
//! Flags: the shared matrix flags (see the `hira_bench` crate docs) over
//! the [`hira_bench::grid::WORKLOAD_MATRIX`] preset's axes —
//! `--workload=` (default: a representative point per family),
//! `--policy=` (default: the full standard registry) and the opt-in
//! `--plugin=`.

use hira_bench::grid::WORKLOAD_MATRIX;
use hira_bench::{print_series, AxisKind};
use hira_engine::Executor;

fn main() {
    let cli = WORKLOAD_MATRIX.cli();
    let wl_names = cli.grid.labels(AxisKind::Workload);
    let pol_names = cli.grid.labels(AxisKind::Policy);
    let t = cli.run(&Executor::from_env(), cli.build());

    println!("\n-- weighted speedup, rows = workloads, columns = policies --");
    let header: Vec<String> = pol_names.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<12} {}", "", header.join(" "));
    for wl in &wl_names {
        let row: Vec<f64> = pol_names
            .iter()
            .map(|p| t.mean(&[("wl", wl), ("policy", p)]))
            .collect();
        print_series(wl, &row);
    }
    if let Some(ideal) = pol_names.iter().find(|n| *n == "noref") {
        println!("\n-- normalized to noref (refresh-interference cost per workload) --");
        for wl in &wl_names {
            let bound = t.mean(&[("wl", wl), ("policy", ideal)]);
            let row: Vec<f64> = pol_names
                .iter()
                .map(|p| t.mean(&[("wl", wl), ("policy", p)]) / bound)
                .collect();
            print_series(wl, &row);
        }
    }
    cli.finish(&t.run);
}
