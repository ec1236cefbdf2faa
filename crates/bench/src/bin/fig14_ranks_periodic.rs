//! Fig. 14: rank-count sweep (1-8, shared command bus) for periodic refresh
//! — one engine sweep over `capacity × scheme × ranks`.

use hira_bench::{print_series, run, with_mix_axis, RunOpts, Scale, Task};
use hira_engine::{flabel, Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let ex = Executor::from_env();
    let ranks = [1usize, 2, 4, 8];
    let caps = [2.0, 8.0, 32.0];
    let schemes = [
        ("Baseline", policy::baseline()),
        ("HiRA-2", policy::hira(2)),
        ("HiRA-4", policy::hira(4)),
    ];

    let sweep = Sweep::new("fig14_ranks_periodic")
        .axis("cap", caps.map(|c| (flabel(c), c)), |_, c| *c)
        .axis("scheme", schemes.clone(), |c, s| (*c, s.clone()))
        .axis(
            "rk",
            ranks.map(|r| (r.to_string(), r)),
            |(cap, scheme), rk| SystemConfig::table3(*cap, scheme.clone()).with_geometry(1, *rk),
        );
    let opts = RunOpts::new(scale, Task::Ws);
    let t = run(&ex, with_mix_axis(sweep, scale), &opts);

    for cap in caps {
        println!(
            "== Fig. 14: {cap} Gb chips, ranks/channel {ranks:?} (normalized to Baseline 1ch/1rk) =="
        );
        let base_ref = t.mean(&[("cap", &flabel(cap)), ("scheme", "Baseline"), ("rk", "1")]);
        for (name, _) in &schemes {
            let ws: Vec<f64> = ranks
                .iter()
                .map(|&rk| {
                    t.mean(&[
                        ("cap", &flabel(cap)),
                        ("scheme", name),
                        ("rk", &rk.to_string()),
                    ]) / base_ref
                })
                .collect();
            print_series(name, &ws);
        }
        println!();
    }
    println!(
        "(paper: 1->2 ranks helps; beyond 2 the shared command bus erodes gains; HiRA stays ahead)"
    );
    t.emit();
}
