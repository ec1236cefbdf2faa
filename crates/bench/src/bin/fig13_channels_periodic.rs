//! Fig. 13: channel-count sweep (1-8) for periodic refresh at 2/8/32 Gb —
//! one engine sweep over `capacity × scheme × channels`.

use hira_bench::{print_series, run, with_mix_axis, RunOpts, Scale, Task};
use hira_engine::{flabel, Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let ex = Executor::from_env();
    let channels = [1usize, 2, 4, 8];
    let caps = [2.0, 8.0, 32.0];
    let schemes = [
        ("Baseline", policy::baseline()),
        ("HiRA-2", policy::hira(2)),
        ("HiRA-4", policy::hira(4)),
    ];

    let sweep = Sweep::new("fig13_channels_periodic")
        .axis("cap", caps.map(|c| (flabel(c), c)), |_, c| *c)
        .axis("scheme", schemes.clone(), |c, s| (*c, s.clone()))
        .axis(
            "ch",
            channels.map(|c| (c.to_string(), c)),
            |(cap, scheme), ch| SystemConfig::table3(*cap, scheme.clone()).with_geometry(*ch, 1),
        );
    let opts = RunOpts::new(scale, Task::Ws);
    let t = run(&ex, with_mix_axis(sweep, scale), &opts);

    for cap in caps {
        println!(
            "== Fig. 13: {cap} Gb chips, channels {channels:?} (normalized to Baseline 1ch/1rk) =="
        );
        let base_ref = t.mean(&[("cap", &flabel(cap)), ("scheme", "Baseline"), ("ch", "1")]);
        for (name, _) in &schemes {
            let ws: Vec<f64> = channels
                .iter()
                .map(|&ch| {
                    t.mean(&[
                        ("cap", &flabel(cap)),
                        ("scheme", name),
                        ("ch", &ch.to_string()),
                    ]) / base_ref
                })
                .collect();
            print_series(name, &ws);
        }
        println!();
    }
    println!("(paper: performance rises with channels; HiRA > Baseline at every channel count)");
    t.emit();
}
