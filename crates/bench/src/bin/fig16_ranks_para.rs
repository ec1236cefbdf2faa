//! Fig. 16: rank-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × ranks` plus one no-defense baseline point.

use hira_bench::{
    preventive_schemes_geometry, print_series, run, with_mix_axis, RunOpts, Scale, Task,
};
use hira_engine::{Executor, ScenarioKey, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let ex = Executor::from_env();
    let ranks = [1usize, 2, 4, 8];
    let nrhs = [1024u32, 256, 64];
    let names = ["PARA", "HiRA-2", "HiRA-4"];

    let mut sweep = Sweep::new("fig16_ranks_para")
        .axis("nrh", nrhs.map(|n| (n.to_string(), n)), |_, n| *n)
        .expand("scheme", |_, &nrh| {
            preventive_schemes_geometry(nrh)
                .into_iter()
                .map(|(n, handle)| (n.to_string(), handle))
                .collect()
        })
        .axis("rk", ranks.map(|r| (r.to_string(), r)), |handle, rk| {
            SystemConfig::table3(8.0, handle.clone()).with_geometry(1, *rk)
        });
    sweep.push(
        ScenarioKey::root().with("scheme", "no-defense"),
        SystemConfig::table3(8.0, policy::baseline()),
    );
    let opts = RunOpts::new(scale, Task::Ws);
    let t = run(&ex, with_mix_axis(sweep, scale), &opts);
    let base = t.mean(&[("scheme", "no-defense")]);

    for nrh in nrhs {
        println!("== Fig. 16: NRH = {nrh}, ranks/channel {ranks:?} (normalized to no-defense 1ch/1rk) ==");
        for name in names {
            let ws: Vec<f64> = ranks
                .iter()
                .map(|&rk| {
                    t.mean(&[
                        ("nrh", &nrh.to_string()),
                        ("scheme", name),
                        ("rk", &rk.to_string()),
                    ]) / base
                })
                .collect();
            print_series(name, &ws);
        }
        println!();
    }
    println!("(paper: HiRA-2/4 improve over PARA by 30.5 %/42.9 % even at 8 ranks, NRH=64)");
    t.emit();
}
