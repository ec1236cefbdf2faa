//! The one sweep front-end: a [`GridSpec`] is a grid written down as data —
//! named axes in scenario-key order, plus the kernel and instruction
//! budget — parsed either from a matrix binary's CLI flags (through its
//! [`Preset`]) or from a `hira serve` sweep request, resolved once against
//! the standard registries and built through [`SystemBuilder`].
//!
//! A [`Preset`] is a matrix binary as data: its sweep name, task, axes
//! (with their defaults) and the flags it accepts. [`Preset::cli`] parses
//! the process arguments into a [`Cli`], which carries the shared
//! `--list`, `--check-determinism` and BENCH-writer behaviour every
//! preset binary exposes.

use crate::{run, CacheSpec, ObsSpec, ProbeSpec, RunOpts, Scale, Task, WsTable};
use hira_engine::{Executor, RunSet, ScenarioKey, Sweep, DEFAULT_BASE_SEED};
use hira_sim::builder::{BuildError, SystemBuilder};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::device::{DeviceHandle, DeviceRegistry};
use hira_sim::handle::{Handle, Registry};
use hira_sim::plugin::{PluginHandle, PluginRegistry};
use hira_sim::policy::{PolicyHandle, PolicyRegistry};
use hira_sim::probe::ProbeRegistry;
use hira_workload::{WorkloadHandle, WorkloadRegistry};
use std::path::Path;
use AxisKind::{Cap, Device, Plugin, Policy, Workload};

/// One open axis a [`GridSpec`] can cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisKind {
    /// Refresh policy (registry names, including `hira<N>`).
    Policy,
    /// Workload (registry names, including the dynamic forms).
    Workload,
    /// DRAM device (registry names, including `ddr4-2400@<Gb>`).
    Device,
    /// Chip capacity in Gb (no CLI flag; presets and serve only).
    Cap,
    /// Controller plugin (`none` or a plugin form; keyed canonically).
    Plugin,
}

impl AxisKind {
    /// The axis's scenario-key name.
    pub fn key(self) -> &'static str {
        match self {
            AxisKind::Policy => "policy",
            AxisKind::Workload => "wl",
            AxisKind::Device => "dev",
            AxisKind::Cap => "cap",
            AxisKind::Plugin => "plugin",
        }
    }

    /// The CLI flag (`--<flag>=`) selecting the axis, when it has one.
    fn flag(self) -> Option<&'static str> {
        match self {
            AxisKind::Policy => Some("policy"),
            AxisKind::Workload => Some("workload"),
            AxisKind::Device => Some("device"),
            AxisKind::Cap => None,
            AxisKind::Plugin => Some("plugin"),
        }
    }

    /// Resolves `names` into `(key label, value)` pairs — the one place a
    /// sweep axis meets the registries.
    fn resolve(self, names: &[String]) -> Result<Vec<(String, AxisValue)>, String> {
        let noun = match self {
            AxisKind::Policy => "policy",
            AxisKind::Workload => "workload",
            AxisKind::Device => "device",
            AxisKind::Cap => "capacity",
            AxisKind::Plugin => "plugin",
        };
        let each = |f: &dyn Fn(&str) -> Option<(String, AxisValue)>| {
            names
                .iter()
                .map(|n| f(n).ok_or_else(|| format!("unknown {noun} `{n}`")))
                .collect::<Result<Vec<_>, String>>()
        };
        let label = |n: &str| n.to_owned();
        match self {
            AxisKind::Policy => {
                let r = PolicyRegistry::standard();
                each(&|n| Some((label(n), AxisValue::Policy(r.lookup(n)?))))
            }
            AxisKind::Workload => {
                let r = WorkloadRegistry::standard();
                each(&|n| Some((label(n), AxisValue::Workload(r.lookup(n)?))))
            }
            AxisKind::Device => {
                let r = DeviceRegistry::standard();
                each(&|n| Some((label(n), AxisValue::Device(r.lookup(n)?))))
            }
            AxisKind::Cap => each(&|n| Some((label(n), AxisValue::Cap(n.parse().ok()?)))),
            AxisKind::Plugin => {
                let r = PluginRegistry::standard();
                each(&|n| {
                    if n == "none" {
                        return Some((label(n), AxisValue::Plugin(None)));
                    }
                    // Key by the canonical name: `oracle:01024` and
                    // `oracle:1024` must land on one key / cache entry.
                    let h = r.lookup(n)?;
                    Some((h.name().to_owned(), AxisValue::Plugin(Some(h))))
                })
            }
        }
    }
}

/// One resolved axis value.
#[derive(Debug, Clone)]
enum AxisValue {
    Policy(PolicyHandle),
    Workload(WorkloadHandle),
    Device(DeviceHandle),
    Cap(f64),
    Plugin(Option<PluginHandle>),
}

impl AxisValue {
    fn apply(&self, b: SystemBuilder) -> SystemBuilder {
        match self {
            AxisValue::Policy(h) => b.policy(h.clone()),
            AxisValue::Workload(h) => b.workload(h.clone()),
            AxisValue::Device(h) => b.device(h.clone()),
            AxisValue::Cap(c) => b.chip_gbit(*c),
            AxisValue::Plugin(Some(h)) => b.plugin(h.clone()),
            AxisValue::Plugin(None) => b,
        }
    }
}

/// Grid cells the builder rejects as capability mismatches —
/// [`BuildError::DeviceLacksHira`] or [`BuildError::DeviceLacksVrr`] —
/// keyed by the scenario key they would have had.
pub(crate) type Skipped = Vec<(ScenarioKey, BuildError)>;

/// A sweep grid as data: resolved axes in scenario-key order (first axis
/// outermost), the simulation kernel and the instruction budget.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Sweep (store shard, BENCH file) name.
    pub name: String,
    axes: Vec<(AxisKind, Vec<(String, AxisValue)>)>,
    /// Simulation kernel of every point.
    pub kernel: KernelMode,
    /// Measured instructions per core (`None`: the build's [`Scale`]).
    pub insts: Option<u64>,
}

impl GridSpec {
    /// Resolves every axis name once against the standard registries.
    ///
    /// # Errors
    ///
    /// ``unknown <axis> `<name>` `` for the first name that does not resolve.
    pub(crate) fn new(
        name: impl Into<String>,
        axes: &[(AxisKind, Vec<String>)],
    ) -> Result<Self, String> {
        Ok(GridSpec {
            name: name.into(),
            axes: axes
                .iter()
                .map(|(kind, names)| Ok((*kind, kind.resolve(names)?)))
                .collect::<Result<_, String>>()?,
            kernel: KernelMode::default(),
            insts: None,
        })
    }

    /// The key labels of axis `kind`, in axis order (empty when absent).
    pub fn labels(&self, kind: AxisKind) -> Vec<String> {
        self.axes
            .iter()
            .filter(|(k, _)| *k == kind)
            .flat_map(|(_, values)| values.iter().map(|(label, _)| label.clone()))
            .collect()
    }

    /// Removes the plugin axis and returns it in [`crate::with_plugin_axis`]
    /// form — for grids that cross plugins after the mix axis.
    pub fn take_plugins(&mut self) -> Vec<(String, Option<PluginHandle>)> {
        let mut out = Vec::new();
        self.axes.retain(|(kind, values)| {
            if *kind != AxisKind::Plugin {
                return true;
            }
            for (label, v) in values {
                if let AxisValue::Plugin(h) = v {
                    out.push((label.clone(), h.clone()));
                }
            }
            false
        });
        out
    }

    /// Builds the cartesian grid through [`SystemBuilder`]. Cells the
    /// builder rejects as device-capability mismatches are left out and
    /// returned; every point's seed derives from its key alone.
    ///
    /// # Errors
    ///
    /// `cannot build <key>: <error>` on any other build failure.
    pub(crate) fn build(&self, scale: Scale) -> Result<(Sweep<SystemConfig>, Skipped), String> {
        let insts = self.insts.unwrap_or(scale.insts);
        let base = SystemBuilder::new()
            .kernel(self.kernel)
            .insts(insts, insts / 5);
        let mut cells = Sweep::new(self.name.as_str()).map(|_, ()| base.clone());
        for (kind, values) in &self.axes {
            cells = cells.expand(kind.key(), |_, b| {
                values
                    .iter()
                    .map(|(label, v)| (label.clone(), v.apply(b.clone())))
                    .collect()
            });
        }
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for (key, b) in cells.points() {
            match b.clone().build() {
                Ok(cfg) => points.push((key.clone(), cfg)),
                Err(
                    e @ (BuildError::DeviceLacksHira { .. } | BuildError::DeviceLacksVrr { .. }),
                ) => skipped.push((key.clone(), e)),
                Err(e) => return Err(format!("cannot build {key}: {e}")),
            }
        }
        Ok((
            Sweep::from_points(self.name.as_str(), DEFAULT_BASE_SEED, points),
            skipped,
        ))
    }
}

/// What a preset axis sweeps when its flag is not passed.
#[derive(Debug, Clone, Copy)]
pub enum Defaults {
    /// Every registered refresh policy.
    AllPolicies,
    /// These names, comma-separated as on the command line.
    Names(&'static str),
    /// No axis at all: only the flag adds it, so default keys stay put.
    OptIn,
}

/// The flags every preset accepts: `--list`, the cache axis
/// ([`CacheSpec`]) and the observability axis ([`ObsSpec`]). Flags ending
/// in `=` take a value.
pub const SWEEP_FLAGS: &str = "--list --cache= --no-cache --cache-stats --trace --trace= \
                               --metrics --metrics= --progress --log-level=";

/// The flags of presets that simulate each point once: the kernel, the
/// probes ([`ProbeSpec`]), `--telemetry` and `--check-determinism`.
pub const SIM_FLAGS: &str =
    "--kernel= --probe= --cmdtrace= --stats-epoch= --telemetry --check-determinism";

/// A matrix binary as data (see the crate docs for the shared flags).
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Sweep (and `BENCH_<name>.json`) name.
    pub name: &'static str,
    /// What every point measures.
    pub task: Task,
    /// The axes, in scenario-key order, with their defaults.
    pub axes: &'static [(AxisKind, Defaults)],
    /// Flags beyond the axis flags and [`SWEEP_FLAGS`], space-separated:
    /// [`SIM_FLAGS`], or the binary's own.
    pub flags: &'static str,
}

/// The comma-separated values of every `--<flag>=` argument.
pub(crate) fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let prefix = format!("--{flag}=");
    args.iter()
        .filter_map(|a| a.strip_prefix(&prefix))
        .flat_map(|list| list.split(',').map(str::trim).filter(|s| !s.is_empty()))
        .map(str::to_owned)
        .collect()
}

impl Preset {
    /// Parses the process arguments: prints the registries and exits on
    /// `--list`, exits with status 2 and a message on a bad argument.
    pub fn cli(&self) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--list") {
            self.print_list();
            std::process::exit(0);
        }
        self.parse(&args, Scale::from_env())
            .unwrap_or_else(|e| fail(self.name, &e))
    }

    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Names the first argument the preset does not accept (with the
    /// accepted list), an unknown axis name or a malformed flag value.
    pub(crate) fn parse(&self, args: &[String], scale: Scale) -> Result<Cli, String> {
        let axis_flags = self.axes.iter().filter_map(|(k, _)| k.flag());
        let accepted: Vec<String> = axis_flags
            .map(|f| format!("--{f}="))
            .chain(
                [SWEEP_FLAGS, self.flags]
                    .iter()
                    .flat_map(|f| f.split_whitespace().map(str::to_owned)),
            )
            .collect();
        let ok = |a: &String| {
            accepted.iter().any(|f| match f.strip_suffix('=') {
                Some(_) => a.starts_with(f.as_str()),
                None => a == f,
            })
        };
        if let Some(bad) = args.iter().find(|a| !ok(a)) {
            return Err(format!(
                "unknown argument `{bad}`; accepted flags: {}",
                accepted.join(" ")
            ));
        }
        let mut axes = Vec::new();
        for &(kind, defaults) in self.axes {
            let mut names = kind.flag().map_or_else(Vec::new, |f| flag_values(args, f));
            if names.is_empty() {
                names = match defaults {
                    Defaults::AllPolicies => {
                        let registry = PolicyRegistry::standard();
                        registry.names().into_iter().map(str::to_owned).collect()
                    }
                    Defaults::Names(n) => n.split(',').map(str::to_owned).collect(),
                    Defaults::OptIn => continue,
                };
            }
            axes.push((kind, names));
        }
        let mut grid = GridSpec::new(self.name, &axes)?;
        match flag_values(args, "kernel").as_slice() {
            [] => {}
            [k] => grid.kernel = k.parse()?,
            many => {
                return Err(format!(
                    "--kernel selects the run's single kernel mode, not an axis: got {many:?} \
                     (use the perf_kernel binary to A/B both kernels)"
                ))
            }
        }
        Ok(Cli {
            grid,
            opts: RunOpts {
                scale,
                task: self.task,
                probes: ProbeSpec::parse(args)?,
                cache: CacheSpec::parse(args)?,
                obs: ObsSpec::parse(args)?,
            },
            args: args.to_vec(),
        })
    }

    /// The `--list` output: the registry behind each flagged axis, then
    /// the probe forms and kernel modes when the preset takes them.
    fn print_list(&self) {
        // Entries are `<name> <what>` lines; the name column is padded.
        let pair = |(name, what): (&str, &str)| format!("{name} {what}");
        let mut sections: Vec<(&str, Vec<String>)> = Vec::new();
        for (kind, _) in self.axes {
            let Some(flag) = kind.flag() else { continue };
            let (mut entries, forms) = match kind {
                AxisKind::Policy => {
                    let r = PolicyRegistry::standard();
                    (roster(&r), r.forms())
                }
                AxisKind::Device => {
                    let r = DeviceRegistry::standard();
                    (roster(&r), r.forms())
                }
                AxisKind::Workload => {
                    let r = WorkloadRegistry::standard();
                    let entry = |h: &WorkloadHandle| {
                        format!("{} [{}] {}", h.name(), h.family(), h.summary())
                    };
                    (r.handles().map(entry).collect(), r.forms())
                }
                _ => (
                    vec!["none no plugin attached (the undefended baseline)".into()],
                    PluginRegistry::standard().forms(),
                ),
            };
            let dynamic = |(form, what)| format!("{form} (dynamic) {what}");
            entries.extend(forms.into_iter().map(dynamic));
            sections.push((flag, entries));
        }
        if self.flags.contains("--probe=") {
            let mut forms: Vec<String> = ProbeRegistry::standard()
                .forms()
                .into_iter()
                .map(pair)
                .collect();
            forms.extend([
                "--cmdtrace=<prefix> shorthand for --probe=cmdtrace:<prefix>".into(),
                "--stats-epoch=<cycles> shorthand for --probe=epochs:<cycles>".into(),
                "--telemetry print the per-point run telemetry table".into(),
            ]);
            sections.push(("probe", forms));
        }
        if self.flags.contains("--kernel=") {
            let modes = [
                "event event-driven time-skipping kernel (default)",
                "dense cycle-by-cycle reference kernel (bit-identical)",
            ];
            sections.push(("kernel", modes.map(String::from).to_vec()));
        }
        for (i, (flag, entries)) in sections.iter().enumerate() {
            if i > 0 {
                println!();
            }
            println!("--{flag}=<name>[,<name>...]:");
            let split =
                |e: &'_ String| e.split_once(' ').map(|(n, w)| (n.to_owned(), w.to_owned()));
            let rows: Vec<(String, String)> = entries.iter().filter_map(split).collect();
            let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, what) in rows {
                println!("  {name:<width$} {what}");
            }
        }
    }
}

/// The `<name> <summary>` `--list` entries of a registry, in order.
fn roster<P: ?Sized>(registry: &Registry<P>) -> Vec<String> {
    let entry = |h: &Handle<P>| format!("{} {}", h.name(), h.summary());
    registry.handles().map(entry).collect()
}

/// Prints `msg` as a usage error of binary `name` and exits with status 2.
fn fail(name: &str, msg: &str) -> ! {
    eprintln!("{name}: {msg}");
    std::process::exit(2)
}

/// One parsed preset invocation: the grid plus the run options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The grid the flags selected.
    pub grid: GridSpec,
    /// Scale, task, probes, cache and observability of the run.
    pub opts: RunOpts,
    args: Vec<String>,
}

impl Cli {
    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value of one of the preset's own `--<flag>=` arguments.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let prefix = format!("--{flag}=");
        self.args.iter().find_map(|a| a.strip_prefix(&prefix))
    }

    /// Builds the grid and prints its shape, each axis and the skipped combos;
    /// exits with a message when a cell fails to build or none is left.
    pub fn build(&self) -> Sweep<SystemConfig> {
        let name = self.grid.name.as_str();
        let sizes: Vec<String> = self
            .grid
            .axes
            .iter()
            .map(|(k, v)| format!("{} {}", v.len(), k.key()))
            .collect();
        println!(
            "== {name}: {}, {} insts ==",
            sizes.join(" x "),
            self.opts.scale.insts
        );
        for (kind, values) in &self.grid.axes {
            let labels: Vec<&str> = values.iter().map(|(l, _)| l.as_str()).collect();
            println!("{:<9} {}", format!("{}:", kind.key()), labels.join(", "));
        }
        let (sweep, skipped) = self
            .grid
            .build(self.opts.scale)
            .unwrap_or_else(|e| fail(name, &e));
        let mut reported: Vec<String> = Vec::new();
        for (_, e) in skipped {
            let msg = match e {
                BuildError::DeviceLacksHira { device, policy } => {
                    format!("{device} x {policy} (HiRA-inert device)")
                }
                BuildError::DeviceLacksVrr { device, plugin } => {
                    format!("{device} x {plugin} (device drops directed refresh)")
                }
                other => other.to_string(),
            };
            if !reported.contains(&msg) {
                println!("skipping {msg}");
                reported.push(msg);
            }
        }
        if sweep.is_empty() {
            fail(name, "every grid combo was skipped");
        }
        sweep
    }

    /// Runs `sweep` with the parsed options. With `--check-determinism`,
    /// re-runs it single-threaded, uncached and unobserved, and asserts
    /// the canonical result sets are byte-identical — re-simulating also
    /// proves any cache replays were bit-identical to fresh simulation.
    ///
    /// # Panics
    ///
    /// Panics when the determinism check fails.
    pub fn run(&self, ex: &Executor, sweep: Sweep<SystemConfig>) -> WsTable {
        let serial = self.has("--check-determinism").then(|| sweep.clone());
        let t = run(ex, sweep, &self.opts);
        if let Some(sweep) = serial {
            let opts = RunOpts {
                cache: CacheSpec::disabled(),
                obs: ObsSpec::disabled(),
                ..self.opts.clone()
            };
            let serial = run(&Executor::with_threads(1), sweep, &opts);
            assert_eq!(
                t.run.canonical_json(),
                serial.run.canonical_json(),
                "{} results must be independent of HIRA_THREADS",
                self.grid.name
            );
            println!("determinism check: canonical result sets byte-identical at 1 thread");
        }
        t
    }

    /// The shared tail of every preset binary: the `--telemetry` table,
    /// the attached-probe note, and `BENCH_<sweep>.json` into
    /// `HIRA_BENCH_DIR` (or the working directory).
    pub fn finish(&self, run: &RunSet) {
        if self.has("--telemetry") {
            let table = run.telemetry_table();
            if table.is_empty() {
                println!("\n(no run telemetry recorded)");
            } else {
                println!("\n-- run telemetry: wall time, kernel events, peak queue per point --");
                print!("{table}");
            }
        }
        if self.opts.probes.is_active() {
            println!("\nprobes attached: {}", self.opts.probes.specs().join(", "));
        }
        let dir = std::env::var("HIRA_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        match run.write_bench_json(Path::new(&dir)) {
            Ok(path) => println!("(result store written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_{}.json: {e}", run.sweep),
        }
    }
}

/// Every registered refresh policy × chip capacity (× opt-in plugins),
/// crossed with the mix suite: `policy, cap, [plugin], mix`.
pub const POLICY_MATRIX: Preset = Preset {
    name: "policy_matrix",
    task: Task::Ws,
    axes: &[
        (Policy, Defaults::AllPolicies),
        (Cap, Defaults::Names("8,64")),
        (Plugin, Defaults::OptIn),
    ],
    flags: SIM_FLAGS,
};

/// Workload × every registered policy (× opt-in plugins) at 8 Gb, each
/// point as configured: `wl, policy, [plugin]`.
pub const WORKLOAD_MATRIX: Preset = Preset {
    name: "workload_matrix",
    task: Task::Ws,
    axes: &[
        // One representative point per family: two roster benchmarks and
        // a mix (synthetic), the pattern generators, and the embedded
        // trace replay.
        (
            Workload,
            Defaults::Names(
                "mix0,mcf,libquantum,stream,random,chase,hotspot,zipf80,rw50,open25,demo-trace",
            ),
        ),
        (Policy, Defaults::AllPolicies),
        (Plugin, Defaults::OptIn),
    ],
    flags: SIM_FLAGS,
};

/// Device × policy × workload (× opt-in plugins) with the channel
/// metrics: `dev, policy, wl, [plugin]`.
pub const DEVICE_MATRIX: Preset = Preset {
    name: "device_matrix",
    task: Task::WsStats,
    axes: &[
        // The HiRA-capable presets plus the dynamic capacity form's 32 Gb
        // point.
        (
            Device,
            Defaults::Names("ddr4-2400,ddr4-3200,lpddr4-3200,ddr4-2400@32"),
        ),
        // One representative refresh arrangement per family: the ideal
        // bound, the all-bank baseline, per-bank parallelism, and HiRA.
        (Policy, Defaults::Names("noref,baseline,refpb,hira4")),
        // A multiprogrammed mix, a streaming, a random and a write-heavy
        // generator (the last keeps `write_lat` a live column).
        (Workload, Defaults::Names("mix0,stream,random,rw50")),
        (Plugin, Defaults::OptIn),
    ],
    flags: SIM_FLAGS,
};

/// Controller plugin × policy × device × workload:
/// `plugin, policy, dev, wl`.
pub const RH_MATRIX: Preset = Preset {
    name: "rh_matrix",
    task: Task::Ws,
    axes: &[
        // The undefended baseline plus one working point per shipped
        // defense. Thresholds are scaled far below the paper's
        // `tRH = 1024` on purpose: benign bench-scale traffic never
        // hammers any row that hard, and the grid must exercise the
        // injection paths, not just the tracking ones (oracle fires on
        // *victim* exposure, graphene on *aggressor* count — roughly half
        // the exposure — hence the different working points).
        (
            Plugin,
            Defaults::Names("none,oracle:4,para:0.05,graphene:2:64"),
        ),
        // The all-bank baseline, per-bank refresh and HiRA-4 — one
        // refresh arrangement per family the defenses ride on.
        (Policy, Defaults::Names("baseline,refpb,hira4")),
        // Two parts with different geometries and refresh timings.
        (Device, Defaults::Names("ddr4-2400,lpddr4-3200")),
        // Concentrated row reuse: the traffic shape that actually
        // exercises aggressor tracking and preventive refresh injection.
        (Workload, Defaults::Names("hotspot")),
    ],
    flags: SIM_FLAGS,
};

/// Every registered policy timed under both kernels over the mix suite
/// (× opt-in plugins, crossed after the mix): `policy, mix, [plugin]`.
pub const PERF_KERNEL: Preset = Preset {
    name: "perf_kernel",
    task: Task::PerfKernel,
    axes: &[(Policy, Defaults::AllPolicies), (Plugin, Defaults::OptIn)],
    flags: "--check-baseline= --baseline-tolerance=",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{parse_op, Op};

    /// The serve request's axis order, as a preset.
    const SERVE_ORDER: Preset = Preset {
        name: "serve",
        task: Task::Ws,
        axes: &[
            (Policy, Defaults::Names("baseline")),
            (Workload, Defaults::Names("mix0")),
            (Device, Defaults::OptIn),
            (Cap, Defaults::OptIn),
            (Plugin, Defaults::OptIn),
        ],
        flags: SIM_FLAGS,
    };

    fn scale() -> Scale {
        Scale {
            mixes: 1,
            insts: 2_000,
            warmup: 400,
            rows: 16,
        }
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn grid(p: &Preset, a: &[&str]) -> (Sweep<SystemConfig>, Skipped) {
        p.parse(&args(a), scale())
            .unwrap()
            .grid
            .build(scale())
            .unwrap()
    }

    #[test]
    fn cli_flags_and_serve_json_build_identical_sweeps() {
        // (CLI arguments, serve request fields, skipped cells)
        let cases: &[(&[&str], &str, usize)] = &[
            (&[], "", 0),
            (
                &["--policy=noref,hira4", "--workload=stream,rw50"],
                r#""policies":["noref","hira4"],"workloads":["stream","rw50"]"#,
                0,
            ),
            (
                &[
                    "--policy=hira4,baseline",
                    "--device=samsung-ddr4-2400,ddr4-2400",
                ],
                r#""policies":["hira4","baseline"],"devices":["samsung-ddr4-2400","ddr4-2400"]"#,
                1,
            ),
            (
                &[
                    "--device=samsung-ddr4-2400",
                    "--plugin=none,oracle:4,para:0.05",
                ],
                r#""devices":["samsung-ddr4-2400"],"plugins":["none","oracle:4","para:0.05"]"#,
                1,
            ),
            (
                &["--plugin=oracle:01024"],
                r#""plugins":["oracle:1024"]"#,
                0,
            ),
        ];
        for (cli_args, fields, skips) in cases {
            let sep = if fields.is_empty() { "" } else { "," };
            let line = format!(r#"{{"op":"sweep","id":"t"{sep}{fields}}}"#);
            let Ok(Op::Sweep(spec)) = parse_op(&line) else {
                panic!("{line} is not a sweep request");
            };
            let (a, a_skipped) = grid(&SERVE_ORDER, cli_args);
            let (b, b_skipped) = GridSpec::new(&spec.name, &spec.axes)
                .unwrap()
                .build(scale())
                .unwrap();
            assert_eq!((a.name(), a.len()), (b.name(), b.len()), "{cli_args:?}");
            for i in 0..a.len() {
                let (x, y) = (a.scenario(i), b.scenario(i));
                assert_eq!((x.key, x.seed), (y.key, y.seed), "{cli_args:?}");
                assert_eq!(x.params.cache_descriptor(), y.params.cache_descriptor());
            }
            let keys = |s: &Skipped| s.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
            assert_eq!(keys(&a_skipped), keys(&b_skipped), "{cli_args:?}");
            assert_eq!(
                (a_skipped.len(), spec.build(scale()).unwrap().1),
                (*skips, *skips)
            );
        }
        // The two capability skips are the builder's own verdicts.
        let (_, s) = grid(
            &SERVE_ORDER,
            &["--policy=hira4", "--device=samsung-ddr4-2400"],
        );
        assert!(matches!(s[..], [(_, BuildError::DeviceLacksHira { .. })]));
        let (_, s) = grid(
            &SERVE_ORDER,
            &["--plugin=oracle:4", "--device=samsung-ddr4-2400"],
        );
        assert!(matches!(s[..], [(_, BuildError::DeviceLacksVrr { .. })]));
    }

    #[test]
    fn presets_reject_flags_they_do_not_accept() {
        let parse = |p: &Preset, a: &[&str]| p.parse(&args(a), scale()).map(|_| ());
        let err = parse(&POLICY_MATRIX, &["--polices=hira4"]).unwrap_err();
        assert!(
            err.contains("`--polices=hira4`") && err.contains("--policy="),
            "{err}"
        );
        let err = parse(&PERF_KERNEL, &["--kernel=dense"]).unwrap_err();
        assert!(
            err.contains("`--kernel=dense`") && !err.contains("--device="),
            "{err}"
        );
        assert!(parse(&POLICY_MATRIX, &["--device=ddr4-2400"]).is_err());
        assert!(parse(&POLICY_MATRIX, &["stray"]).is_err());
        // Each binary keeps its own flags.
        let own = args(&[
            "--check-baseline=b.json",
            "--baseline-tolerance=0.4",
            "--policy=hira4",
        ]);
        let cli = PERF_KERNEL.parse(&own, scale()).unwrap();
        assert_eq!(cli.value("check-baseline"), Some("b.json"));
        assert_eq!(cli.value("baseline-tolerance"), Some("0.4"));
        assert_eq!(cli.grid.labels(Policy), ["hira4"]);
        // Accepted flags still validate their values.
        let bad = |a: &[&str]| parse(&POLICY_MATRIX, a).unwrap_err();
        assert_eq!(bad(&["--policy=nope"]), "unknown policy `nope`");
        for a in ["--probe=bogus", "--cache=", "--log-level=loud", "--trace="] {
            bad(&[a]);
        }
        bad(&["--kernel=dense", "--kernel=event"]);
        let ok = "--policy=baseline,hira4 --cmdtrace=out/cmds --stats-epoch=50000:out/e.jsonl \
                  --telemetry --check-determinism --cache=c --cache-stats --trace --metrics=m \
                  --progress --kernel=dense --probe=latency:l.jsonl --no-cache --log-level=warn";
        assert_eq!(
            parse(&POLICY_MATRIX, &ok.split_whitespace().collect::<Vec<_>>()),
            Ok(())
        );
    }

    #[test]
    fn presets_keep_their_key_order() {
        let first = |p: &Preset, a: &[&str]| grid(p, a).0.points()[0].0.to_string();
        let plug = &["--plugin=none"][..];
        assert_eq!(first(&POLICY_MATRIX, &[]), "policy=noref cap=8");
        assert_eq!(
            first(&POLICY_MATRIX, plug),
            "policy=noref cap=8 plugin=none"
        );
        assert_eq!(
            first(&WORKLOAD_MATRIX, plug),
            "wl=mix0 policy=noref plugin=none"
        );
        assert_eq!(
            first(&DEVICE_MATRIX, &[]),
            "dev=ddr4-2400 policy=noref wl=mix0"
        );
        assert_eq!(
            first(&DEVICE_MATRIX, plug),
            "dev=ddr4-2400 policy=noref wl=mix0 plugin=none"
        );
        assert_eq!(
            first(&RH_MATRIX, &[]),
            "plugin=none policy=baseline dev=ddr4-2400 wl=hotspot"
        );
        // perf_kernel crosses its plugins after the mix axis.
        let mut cli = PERF_KERNEL.parse(&args(plug), scale()).unwrap();
        assert_eq!(cli.grid.take_plugins().len(), 1);
        assert!(cli.grid.labels(Plugin).is_empty());
        assert_eq!(first(&PERF_KERNEL, &[]), "policy=noref");
    }
}
