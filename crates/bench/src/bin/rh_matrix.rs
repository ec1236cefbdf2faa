//! RowHammer-defense matrix: controller plugin × refresh policy × device,
//! through one engine weighted-speedup sweep — the comparison surface the
//! open [`hira_sim::plugin`] API exists for. Every cell runs the same
//! row-reuse-heavy workload under a different (defense, refresh
//! arrangement, DRAM part) triple, so the grid answers the paper's §9
//! question end-to-end: what does each preventive-refresh defense cost on
//! top of each refresh arrangement — and how much victim exposure does it
//! leave behind?
//!
//! Besides `ws` (and the per-point defense counters `plugin_acts`,
//! `plugin_injected`, `victim_max_exposure`, `victim_mean_exposure`,
//! `rows_over_threshold` on every plugin-bearing point), the result store
//! carries derived `ws_vs_none` records: each defended cell's weighted
//! speedup relative to the undefended `none` cell of the same (policy,
//! device, workload) — the defense's performance overhead, isolated from
//! everything else.
//!
//! Combos the builder refuses with
//! [`hira_sim::builder::BuildError::DeviceLacksHira`] (a HiRA policy on a
//! HiRA-inert part) or
//! [`hira_sim::builder::BuildError::DeviceLacksVrr`] (a directed-refresh
//! plugin on a part that drops vendor directed-refresh commands) are
//! skipped and reported explicitly — absent cells print as `-`, never as
//! silent zeros.
//!
//! Always writes `BENCH_rh_matrix.json` (into `HIRA_BENCH_DIR`, or the
//! working directory when unset): the tracked perf baseline for the
//! defense comparison surface.
//!
//! Flags: the shared matrix flags (see the `hira_bench` crate docs) over
//! the [`hira_bench::grid::RH_MATRIX`] preset's axes — `--plugin=`
//! (default: `none` plus one working point per shipped defense),
//! `--policy=` (default: the all-bank baseline, per-bank refresh and
//! HiRA-4), `--device=` (default: the DDR4-2400 and LPDDR4-3200 presets)
//! and `--workload=` (default: the row-reuse-heavy `hotspot` generator).

use hira_bench::grid::RH_MATRIX;
use hira_bench::{cell, mean_of, print_means, AxisKind, WsTable};
use hira_engine::{Executor, RunRecord};

/// Appends the derived `ws_vs_none` records: every defended cell's `ws`
/// divided by the undefended `none` cell of the same (policy, device,
/// workload). Cells whose `none` counterpart is absent are left out.
fn push_overhead_records(t: &mut WsTable) {
    let derived: Vec<RunRecord> = t
        .run
        .records
        .iter()
        .filter(|r| r.metric == "ws" && r.key.get("plugin").is_some_and(|g| g != "none"))
        .filter_map(|r| {
            // Same cell, plugin swapped for `none`.
            let undefended: Vec<(&str, &str)> = r
                .key
                .axes()
                .map(|(a, v)| (a, if a == "plugin" { "none" } else { v }))
                .collect();
            Some(RunRecord {
                key: r.key.clone(),
                metric: "ws_vs_none".to_owned(),
                value: r.value / t.run.get(&undefended, "ws")?,
                wall_ms: 0.0,
                telemetry: None,
            })
        })
        .collect();
    t.run.records.extend(derived);
}

fn main() {
    let cli = RH_MATRIX.cli();
    let plug_names = cli.grid.labels(AxisKind::Plugin);
    let pol_names = cli.grid.labels(AxisKind::Policy);
    let mut t = cli.run(&Executor::from_env(), cli.build());
    push_overhead_records(&mut t);

    println!("\n-- weighted speedup, rows = plugin, columns = policy (mean over devices) --");
    let header: Vec<String> = pol_names.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<18} {}", "", header.join(" "));
    for g in &plug_names {
        let row: Vec<String> = pol_names
            .iter()
            .map(|p| cell(t.try_mean(&[("plugin", g), ("policy", p)])))
            .collect();
        println!("{g:<18} {}", row.join(" "));
    }

    if plug_names.iter().any(|g| g == "none") {
        println!("\n-- defense overhead: ws relative to `none` (1.0 = free) --");
        println!("{:<18} {}", "", header.join(" "));
        for g in plug_names.iter().filter(|g| *g != "none") {
            let row: Vec<String> = pol_names
                .iter()
                .map(|p| {
                    cell(mean_of(
                        &t.run,
                        "ws_vs_none",
                        &[("plugin", g), ("policy", p)],
                    ))
                })
                .collect();
            println!("{g:<18} {}", row.join(" "));
        }
    }

    // The `none` row tracks nothing: its cells print as `-`, not zeros.
    println!("\n-- victim exposure per plugin (mean over the grid) --");
    let rows: Vec<(&str, Vec<(&str, &str)>)> = plug_names
        .iter()
        .map(|g| (g.as_str(), vec![("plugin", g.as_str())]))
        .collect();
    print_means(
        &t.run,
        &rows,
        &[
            ("acts", "plugin_acts", 12, 0),
            ("injected", "plugin_injected", 12, 0),
            ("max_exposure", "victim_max_exposure", 14, 0),
            ("mean_exposure", "victim_mean_exposure", 15, 2),
            ("rows>tRH", "rows_over_threshold", 10, 0),
        ],
    );

    cli.finish(&t.run);
}
