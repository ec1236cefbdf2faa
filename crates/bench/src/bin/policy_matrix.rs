//! Policy matrix: every registered refresh policy × chip capacity, through
//! one engine weighted-speedup sweep — the comparison surface the open
//! [`hira_sim::policy`] API exists for. Where Fig. 9 compares the paper's
//! three arrangements, this matrix spans the whole registry: `noref`,
//! `baseline`, `refpb`, `raidr` and the `hira<N>` family side by side (and
//! any `--policy=` subset of them).
//!
//! Always writes `BENCH_policy_matrix.json` (into `HIRA_BENCH_DIR`, or the
//! working directory when unset): the tracked perf baseline for the policy
//! comparison surface.
//!
//! Flags: the shared matrix flags (see the `hira_bench` crate docs) over
//! the [`hira_bench::grid::POLICY_MATRIX`] preset's axes — `--policy=`
//! (default: the full standard registry) and the opt-in `--plugin=`.

use hira_bench::grid::POLICY_MATRIX;
use hira_bench::{print_series, with_mix_axis, AxisKind};
use hira_engine::Executor;

fn main() {
    let cli = POLICY_MATRIX.cli();
    let scale = cli.opts.scale;
    let names = cli.grid.labels(AxisKind::Policy);
    let caps = cli.grid.labels(AxisKind::Cap);
    let t = cli.run(&Executor::from_env(), with_mix_axis(cli.build(), scale));

    let series = |name: &str| -> Vec<f64> {
        caps.iter()
            .map(|c| t.mean(&[("policy", name), ("cap", c)]))
            .collect()
    };
    println!("\n-- weighted speedup by capacity (Gb): {caps:?} --");
    for name in &names {
        print_series(name, &series(name));
    }
    if let Some(ideal_name) = names.iter().find(|n| *n == "noref") {
        let ideal = series(ideal_name);
        println!("\n-- normalized to noref (refresh-interference cost) --");
        for name in &names {
            let norm: Vec<f64> = series(name)
                .iter()
                .zip(&ideal)
                .map(|(w, i)| w / i)
                .collect();
            print_series(name, &norm);
        }
    }
    cli.finish(&t.run);
}
