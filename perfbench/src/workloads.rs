//! The benchmark's workloads: what each simulates in-process, what it
//! sends to `serve`, and the committed expected results both are checked
//! against.
//!
//! Every input comes from `--seed` through [`Stream`]s, and every possible
//! input point lies in a small fixed universe, so `expected.txt` can hold
//! the expected result of every point any seed can draw (`--bless`
//! regenerates it).

use hira_dram::rng::Stream;
use hira_engine::{json, ScenarioKey, Sweep, DEFAULT_BASE_SEED};
use hira_sim::builder::SystemBuilder;
use hira_sim::config::SystemConfig;
use hira_sim::metrics::SimResult;
use std::collections::HashMap;
use std::path::Path;

/// Where the committed expected results live, relative to the checkout.
pub const EXPECTED_PATH: &str = "perfbench/expected.txt";

/// Workload-RNG seed variants a point can be drawn with: each point's
/// `SystemConfig::seed` is `STREAM_SEED_BASE + s` for an `s` below this.
pub const STREAM_SEEDS: u64 = 16;
const STREAM_SEED_BASE: u64 = 0x5157_0000;

/// An in-process sweep: the grid every point is drawn from.
pub struct SimGrid {
    pub policies: &'static [&'static str],
    pub workloads: &'static [&'static str],
    pub plugins: &'static [&'static str],
    pub cap_gbit: f64,
    /// LLC capacity override (bytes, 16 ways); `None` keeps Table 3's.
    pub llc_bytes: Option<usize>,
    pub insts: u64,
}

/// A grid `serve` is asked for, as the wire protocol spells it.
pub struct ServeGrid {
    pub policies: &'static [&'static str],
    pub workloads: &'static [&'static str],
    pub caps: &'static [&'static str],
    pub plugins: &'static [&'static str],
    pub insts: u64,
    /// Values per request of each axis (policies, workloads, caps,
    /// plugins): every request has this one shape, so per-request work
    /// does not vary with the seed.
    pub shape: [usize; 4],
    /// The store starts holding the whole grid (hits only) instead of empty.
    pub warm: bool,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// `None` for the serve-only workload.
    pub sim: Option<SimGrid>,
    pub serve: ServeGrid,
}

/// Sweep requests per serve session: at least 1000, so each p99 has at
/// least ten samples beyond it.
pub const SESSION_REQUESTS: usize = 1000;

pub const WORKLOADS: &[Workload] = &[
    // Fig. 9-style periodic refresh at 128 Gb, where tRFC and the HiRA-MC
    // refresh load peak: policy, controller, core and LLC do the work.
    Workload {
        name: "paper_sweep",
        sim: Some(SimGrid {
            policies: &["baseline", "refpb", "hira2", "hira4"],
            workloads: &["mix0", "mix1", "mix2", "mix3"],
            plugins: &[],
            cap_gbit: 128.0,
            llc_bytes: None,
            insts: 40_000,
        }),
        serve: ServeGrid {
            policies: &["baseline", "refpb", "hira2", "hira4"],
            workloads: &["mix0", "mix1", "mix2", "mix3"],
            caps: &["128"],
            plugins: &[],
            insts: 40_000,
            shape: [2, 2, 1, 0],
            warm: true,
        },
    },
    // RowHammer defenses (arXiv 2502.11745): plugin `on_act` on every ACT,
    // write draining beside reads, generator workloads; refresh is light.
    Workload {
        name: "rh_writes",
        sim: Some(SimGrid {
            policies: &["baseline", "hira4"],
            workloads: &["rw50", "hotspot"],
            plugins: &["oracle:4", "para:0.05", "graphene:2:64"],
            cap_gbit: 32.0,
            // Small enough that dirty lines are evicted within the run, so
            // the controller drains writes beside reads.
            llc_bytes: Some(256 << 10),
            insts: 24_000,
        }),
        serve: ServeGrid {
            policies: &["baseline", "hira4"],
            workloads: &["rw50", "hotspot"],
            caps: &["32"],
            plugins: &["oracle:4", "para:0.05", "graphene:2:64"],
            insts: 24_000,
            shape: [1, 2, 1, 2],
            warm: true,
        },
    },
    // A cold-cache session over a small universe at low insts: store
    // planning and replay, JSON and the protocol do most of the work.
    Workload {
        name: "serve_session",
        sim: None,
        serve: ServeGrid {
            policies: &["baseline", "refpb", "hira2", "hira4"],
            workloads: &["mix0", "mix1", "rw50", "hotspot"],
            caps: &["8", "32"],
            plugins: &[],
            insts: 1_500,
            shape: [2, 2, 1, 0],
            warm: false,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A key as one whitespace-free token: `policy=baseline,wl=mix0,...`.
pub fn key_token(key: &ScenarioKey) -> String {
    key.axes()
        .map(|(a, v)| format!("{a}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl SimGrid {
    /// Every `(policy, workload, plugin)` cell, in sweep order.
    fn cells(&self) -> Vec<(&'static str, &'static str, Option<&'static str>)> {
        let plugins: Vec<Option<&'static str>> = if self.plugins.is_empty() {
            vec![None]
        } else {
            self.plugins.iter().map(|p| Some(*p)).collect()
        };
        let mut out = Vec::new();
        for &p in self.policies {
            for &w in self.workloads {
                for &g in &plugins {
                    out.push((p, w, g));
                }
            }
        }
        out
    }

    fn point(
        &self,
        (p, w, g): (&str, &str, Option<&str>),
        stream: u64,
    ) -> (ScenarioKey, SystemConfig) {
        let mut key = ScenarioKey::root().with("policy", p).with("wl", w);
        let mut b = SystemBuilder::new()
            .device_name("ddr4-2400")
            .chip_gbit(self.cap_gbit)
            .policy_name(p)
            .workload_name(w)
            .insts(self.insts, self.insts / 5)
            .seed(STREAM_SEED_BASE + stream);
        if let Some(g) = g {
            key = key.with("plugin", g);
            b = b.plugin_name(g);
        }
        if let Some(bytes) = self.llc_bytes {
            b = b.llc(bytes, 16);
        }
        let cfg = b
            .build()
            .unwrap_or_else(|e| panic!("benchmark point {key} must build: {e}"));
        (key.with("stream", stream.to_string()), cfg)
    }

    /// The seeded sweep: every cell once, each with its own drawn stream
    /// seed, so inputs vary with `seed` while the work per pass stays
    /// nearly constant.
    pub fn sweep(&self, name: &str, seed: u64) -> Sweep<SystemConfig> {
        let mut rng = Stream::from_words(&[seed, 0x5157]);
        let points = self
            .cells()
            .into_iter()
            .map(|c| self.point(c, rng.next_below(STREAM_SEEDS)))
            .collect();
        Sweep::from_points(name, DEFAULT_BASE_SEED, points)
    }

    /// Every point any seed can draw.
    pub fn universe(&self, name: &str) -> Sweep<SystemConfig> {
        let mut points = Vec::new();
        for c in self.cells() {
            for s in 0..STREAM_SEEDS {
                points.push(self.point(c, s));
            }
        }
        Sweep::from_points(name, DEFAULT_BASE_SEED, points)
    }
}

/// The canonical rendering of a result that the committed digest covers:
/// the simulated statistics by name, with floats as exact bit patterns.
pub fn canonical(r: &SimResult) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(s, "cycles={};mem_cycles={};ipc=", r.cycles, r.mem_cycles);
    for v in &r.ipc {
        let _ = write!(s, "{:016x},", v.to_bits());
    }
    let _ = write!(s, ";workloads={}", r.workloads.join(","));
    for c in &r.channel_stats {
        let _ = write!(
            s,
            ";ch={},{},{},{},{},{},{},{},{},{},{},{},{:?},{:?}",
            c.reads_done,
            c.writes_done,
            c.row_hits,
            c.demand_acts,
            c.refresh_acts,
            c.ref_commands,
            c.refpb_commands,
            c.hira_access_ops,
            c.read_latency_sum,
            c.write_latency_sum,
            c.data_bus_busy,
            c.refresh_busy,
            c.read_lat_hist.buckets,
            c.write_lat_hist.buckets,
        );
    }
    for m in &r.mc_stats {
        let _ = write!(
            s,
            ";mc={},{},{},{},{},{},{:016x},{},{}",
            m.periodic_generated,
            m.preventive_generated,
            m.refresh_access,
            m.refresh_refresh,
            m.singles,
            m.overflows,
            m.max_lateness_ns.to_bits(),
            m.windows_completed,
            m.worst_window_deficit,
        );
    }
    for p in &r.policy_stats {
        let _ = write!(
            s,
            ";pol={},{},{},{},{}",
            p.rank_refs, p.bank_refs, p.rows_refreshed, p.rows_skipped, p.preventive_queued
        );
    }
    for g in &r.plugin_stats {
        let _ = write!(
            s,
            ";plug={},{},{},{},{},{},{}",
            g.acts_observed,
            g.injected,
            g.neighbor_increments,
            g.max_exposure,
            g.exposure_sum,
            g.exposure_rows,
            g.rows_over_threshold,
        );
    }
    s
}

pub fn digest(r: &SimResult) -> String {
    hira_store::sha256_hex(canonical(r).as_bytes())
}

/// Expected results, as committed in [`EXPECTED_PATH`]. Lines:
///
/// * `digest <workload> <key> <sha256>` — an in-process point's
///   [`canonical`] result;
/// * `record <workload> <key-json> <metric> <value>` — a value `serve`
///   streams for a point;
/// * `work <workload> <key-json> <insts> <mem_cycles>` — the simulated
///   instructions and memory cycles behind a served point.
#[derive(Debug, Default)]
pub struct Expected {
    pub digests: HashMap<(String, String), String>,
    pub records: HashMap<(String, String, String), String>,
    pub work: HashMap<(String, String), (u64, u64)>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut x = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("{}:{}: malformed line", path.display(), n + 1);
            match f.as_slice() {
                [] => {}
                [c, ..] if c.starts_with('#') => {}
                ["digest", w, k, d] => {
                    x.digests
                        .insert((w.to_string(), k.to_string()), d.to_string());
                }
                ["record", w, k, m, v] => {
                    x.records
                        .insert((w.to_string(), k.to_string(), m.to_string()), v.to_string());
                }
                ["work", w, k, i, c] => {
                    let i = i.parse().map_err(|_| bad())?;
                    let c = c.parse().map_err(|_| bad())?;
                    x.work.insert((w.to_string(), k.to_string()), (i, c));
                }
                _ => return Err(bad()),
            }
        }
        Ok(x)
    }
}

/// A key as `serve` renders it on `record` events.
pub fn key_json(key: &ScenarioKey) -> String {
    let mut out = String::new();
    json::write_object(
        &mut out,
        key.axes().map(|(a, v)| {
            let mut s = String::new();
            json::write_str(&mut s, v);
            (a, s)
        }),
    );
    out
}
