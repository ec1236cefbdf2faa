//! Fig. 15: channel-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × channels`, where each scheme's `p_th` depends
//! on the NRH axis (point-dependent expansion), plus one no-defense
//! baseline point.

use hira_bench::{
    preventive_schemes_geometry, print_series, run, with_mix_axis, RunOpts, Scale, Task,
};
use hira_engine::{Executor, ScenarioKey, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let ex = Executor::from_env();
    let channels = [1usize, 2, 4, 8];
    let nrhs = [1024u32, 256, 64];
    let names = ["PARA", "HiRA-2", "HiRA-4"];

    let mut sweep = Sweep::new("fig15_channels_para")
        .axis("nrh", nrhs.map(|n| (n.to_string(), n)), |_, n| *n)
        .expand("scheme", |_, &nrh| {
            preventive_schemes_geometry(nrh)
                .into_iter()
                .map(|(n, handle)| (n.to_string(), handle))
                .collect()
        })
        .axis("ch", channels.map(|c| (c.to_string(), c)), |handle, ch| {
            SystemConfig::table3(8.0, handle.clone()).with_geometry(*ch, 1)
        });
    sweep.push(
        ScenarioKey::root().with("scheme", "no-defense"),
        SystemConfig::table3(8.0, policy::baseline()),
    );
    let opts = RunOpts::new(scale, Task::Ws);
    let t = run(&ex, with_mix_axis(sweep, scale), &opts);
    let base = t.mean(&[("scheme", "no-defense")]);

    for nrh in nrhs {
        println!(
            "== Fig. 15: NRH = {nrh}, channels {channels:?} (normalized to no-defense 1ch/1rk) =="
        );
        for name in names {
            let ws: Vec<f64> = channels
                .iter()
                .map(|&ch| {
                    t.mean(&[
                        ("nrh", &nrh.to_string()),
                        ("scheme", name),
                        ("ch", &ch.to_string()),
                    ]) / base
                })
                .collect();
            print_series(name, &ws);
        }
        println!();
    }
    println!("(paper: more channels help; HiRA beats PARA at every channel count and gap widens at low NRH)");
    t.emit();
}
