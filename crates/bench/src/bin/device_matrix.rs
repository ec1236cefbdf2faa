//! Device matrix: device × refresh policy × workload, through one engine
//! weighted-speedup sweep — the comparison surface the open
//! [`hira_sim::device`] API exists for. Where `policy_matrix` holds the
//! device fixed and sweeps policies, and `workload_matrix` crosses
//! workloads with policies, this grid adds the third axis: how each
//! refresh arrangement costs on each DRAM part, under each traffic shape.
//! Weighted speedup is normalized per device (each cell's alone-IPC
//! denominators run on that cell's device), so the numbers isolate
//! refresh interference rather than raw inter-device speed.
//!
//! Besides `ws`, every record set carries the channel metrics: `read_lat`
//! / `write_lat` (average demand latencies, memory cycles) and `dbus`
//! (mean per-channel data-bus busy fraction).
//!
//! Combos the builder refuses with
//! [`hira_sim::builder::BuildError::DeviceLacksHira`] (a HiRA policy on a
//! HiRA-inert part) or
//! [`hira_sim::builder::BuildError::DeviceLacksVrr`] (a directed-refresh
//! plugin on a part that drops vendor directed-refresh commands) are
//! skipped and reported explicitly — absent cells print as `-`, never as
//! silent zeros.
//!
//! Always writes `BENCH_device_matrix.json` (into `HIRA_BENCH_DIR`, or
//! the working directory when unset): the tracked perf baseline for the
//! device comparison surface.
//!
//! Flags: the shared matrix flags (see the `hira_bench` crate docs) over
//! the [`hira_bench::grid::DEVICE_MATRIX`] preset's axes — `--device=`
//! (default: the HiRA-capable presets plus a pinned 32 Gb part),
//! `--policy=` (default: a representative arrangement per family),
//! `--workload=` (default: a mix, a streaming, a random and a write-heavy
//! generator) and the opt-in `--plugin=`, whose combos are validated
//! through the builder so VRR-less parts skip directed-refresh plugins.

use hira_bench::grid::DEVICE_MATRIX;
use hira_bench::{cell, print_means, AxisKind, WsTable};
use hira_engine::Executor;

fn print_grid(t: &WsTable, devices: &[String], policies: &[String], workloads: &[String]) {
    println!("\n-- weighted speedup, rows = device x policy, columns = workloads --");
    let header: Vec<String> = workloads.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<30} {}", "", header.join(" "));
    for d in devices {
        for p in policies {
            let row: Vec<String> = workloads
                .iter()
                .map(|w| cell(t.try_mean(&[("dev", d), ("policy", p), ("wl", w)])))
                .collect();
            println!("{:<30} {}", format!("{d} / {p}"), row.join(" "));
        }
    }
}

fn main() {
    let cli = DEVICE_MATRIX.cli();
    let dev_names = cli.grid.labels(AxisKind::Device);
    let pol_names = cli.grid.labels(AxisKind::Policy);
    let wl_names = cli.grid.labels(AxisKind::Workload);
    let t = cli.run(&Executor::from_env(), cli.build());

    print_grid(&t, &dev_names, &pol_names, &wl_names);

    // Channel metrics under one representative policy: `baseline` when it
    // is on the axis, the first selected policy otherwise.
    let metrics_policy = pol_names
        .iter()
        .find(|n| *n == "baseline")
        .unwrap_or(&pol_names[0]);
    println!("\n-- channel metrics per device ({metrics_policy} policy, mean over workloads) --");
    // A skipped device x policy combo has no records: its cells print `-`.
    let rows: Vec<(&str, Vec<(&str, &str)>)> = dev_names
        .iter()
        .map(|d| {
            (
                d.as_str(),
                vec![("dev", d.as_str()), ("policy", metrics_policy)],
            )
        })
        .collect();
    print_means(
        &t.run,
        &rows,
        &[
            ("read_lat", "read_lat", 10, 2),
            ("write_lat", "write_lat", 10, 2),
            ("dbus", "dbus", 8, 4),
            ("read_p50", "read_p50", 9, 1),
            ("read_p99", "read_p99", 9, 1),
            ("write_p99", "write_p99", 9, 1),
        ],
    );

    cli.finish(&t.run);
}
