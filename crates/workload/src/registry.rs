//! The string-keyed workload registry: the bridge between CLI/sweep axes
//! (`--workload=zipf80`) and [`WorkloadHandle`]s.

use crate::generators::{chase, hotspot, open_loop, random, rw, stream, zipf};
use crate::spec::{mix, spec_handle, BENCHMARKS};
use crate::trace::{demo_trace, trace_file};
use crate::WorkloadHandle;

/// An ordered, string-keyed collection of workloads. Order is preserved so
/// sweeps and the `workload_matrix` figure present workloads in
/// registration order, not alphabetically.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRegistry {
    entries: Vec<WorkloadHandle>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WorkloadRegistry::default()
    }

    /// The registry every binary starts from — all three families:
    ///
    /// * the first multiprogrammed mixes plus every roster benchmark
    ///   (synthetic),
    /// * the parametric generators (`stream`, `random`, `chase`,
    ///   `hotspot`, `zipf80`, `rw50`, `open25`),
    /// * the embedded `demo-trace` replay.
    pub fn standard() -> Self {
        let mut r = WorkloadRegistry::new();
        r.register(mix(0));
        r.register(mix(1));
        for h in [
            stream(),
            random(),
            chase(),
            hotspot(),
            zipf(80),
            rw(50),
            open_loop(25),
        ] {
            r.register(h);
        }
        r.register(demo_trace().into_handle("demo-trace"));
        for b in BENCHMARKS {
            r.register(spec_handle(b));
        }
        r
    }

    /// Registers (or replaces, by name) a workload.
    pub fn register(&mut self, handle: WorkloadHandle) {
        if let Some(existing) = self.entries.iter_mut().find(|h| h.name() == handle.name()) {
            *existing = handle;
        } else {
            self.entries.push(handle);
        }
    }

    /// Resolves a name. Exact registered names win; these parameterized
    /// forms resolve dynamically for any parameter value:
    ///
    /// * `mix<N>` — multiprogrammed mix `N` of the standard suite,
    /// * `zipf<N>` — zipfian with θ = N/100,
    /// * `rw<N>` — uniform-random with N % stores (N ≤ 100),
    /// * `open<N>` — open-loop at N accesses per kilo-instruction (N a
    ///   divisor of 1000, so the name states the exact simulated rate),
    /// * `trace:<path>` — replay of the trace file at `path` (`None` when
    ///   the file is missing or malformed; use [`crate::trace_file`]
    ///   directly for the typed [`crate::ParseError`]).
    pub fn lookup(&self, name: &str) -> Option<WorkloadHandle> {
        if let Some(h) = self.entries.iter().find(|h| h.name() == name) {
            return Some(h.clone());
        }
        if let Some(n) = dyn_param(name, "mix") {
            return Some(mix(n as usize));
        }
        if let Some(n) = dyn_param(name, "zipf") {
            return u32::try_from(n).ok().map(zipf);
        }
        if let Some(n) = dyn_param(name, "rw") {
            return (n <= 100).then(|| rw(n as u32));
        }
        if let Some(n) = dyn_param(name, "open") {
            return ((1..=1000).contains(&n) && 1000 % n == 0).then(|| open_loop(n as u32));
        }
        if let Some(path) = name.strip_prefix("trace:") {
            return trace_file(path).ok();
        }
        None
    }

    /// The dynamic `--workload=` forms [`lookup`](Self::lookup) accepts
    /// beyond the registered names, with one-line descriptions.
    pub fn forms(&self) -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "mix<N>",
                "multiprogrammed roster mix N of the standard suite",
            ),
            ("zipf<N>", "zipfian generator with theta = N/100"),
            (
                "rw<N>",
                "uniform-random generator with N% stores (N <= 100)",
            ),
            (
                "open<N>",
                "open-loop generator at N accesses per kinst (N >= 1)",
            ),
            ("trace:<path>", "replay of the .trace file at <path>"),
        ]
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(WorkloadHandle::name).collect()
    }

    /// Registered handles, in registration order.
    pub fn handles(&self) -> impl Iterator<Item = &WorkloadHandle> {
        self.entries.iter()
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Parses the numeric suffix of a dynamic form, rejecting non-canonical
/// spellings (`rw050`, `rw+50`): the suffix must render back identically,
/// or the returned handle's name would differ from the requested key and
/// name-keyed caches/lookups would silently disagree with the axis label.
fn dyn_param(name: &str, prefix: &str) -> Option<u64> {
    let suffix = name.strip_prefix(prefix)?;
    let n: u64 = suffix.parse().ok()?;
    (n.to_string() == suffix).then_some(n)
}

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics when `name` does not resolve — a typo'd `--workload=` axis is a
/// usage error, not a recoverable state. A `trace:` form that fails to
/// load panics with the typed parse error's message.
pub fn workload(name: &str) -> WorkloadHandle {
    if let Some(path) = name.strip_prefix("trace:") {
        return trace_file(path).unwrap_or_else(|e| panic!("--workload={name}: {e}"));
    }
    let registry = WorkloadRegistry::standard();
    registry.lookup(name).unwrap_or_else(|| {
        panic!(
            "unknown workload `{name}`; registered: {} (plus mix<N>, zipf<N>, rw<N>, open<N>, trace:<path>)",
            registry.names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Family;

    #[test]
    fn standard_registry_covers_all_three_families() {
        let r = WorkloadRegistry::standard();
        let family_of = |name: &str| r.lookup(name).map(|h| h.family());
        assert_eq!(family_of("mix0"), Some(Family::Synthetic));
        assert_eq!(family_of("mcf"), Some(Family::Synthetic));
        assert_eq!(family_of("stream"), Some(Family::Generator));
        assert_eq!(family_of("demo-trace"), Some(Family::Trace));
        // Every roster benchmark is individually addressable.
        for b in BENCHMARKS {
            assert!(r.lookup(b.name).is_some(), "{} missing", b.name);
        }
        assert!(r.len() >= 30);
        assert_eq!(r.names()[0], "mix0");
    }

    #[test]
    fn parameterized_names_resolve_dynamically() {
        let r = WorkloadRegistry::standard();
        assert_eq!(r.lookup("mix37").unwrap().name(), "mix37");
        assert_eq!(r.lookup("zipf123").unwrap().name(), "zipf123");
        assert_eq!(r.lookup("rw99").unwrap().name(), "rw99");
        assert_eq!(r.lookup("open4").unwrap().name(), "open4");
        // Out-of-domain parameters and unknown names do not resolve.
        assert!(r.lookup("rw101").is_none());
        assert!(r.lookup("open0").is_none());
        assert!(r.lookup("open600").is_none(), "600 does not divide 1000");
        assert!(r.lookup("mixX").is_none());
        // Non-canonical numerals must not resolve to a differently-named
        // handle (axis label vs identity mismatch).
        assert!(r.lookup("rw050").is_none());
        assert!(r.lookup("zipf+80").is_none());
        assert!(r.lookup("nope").is_none());
        assert!(r.lookup("trace:/no/such/file").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = WorkloadRegistry::new();
        r.register(crate::generators::rw(50));
        r.register(crate::generators::rw(50));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn every_registered_workload_has_a_summary() {
        for h in WorkloadRegistry::standard().handles() {
            assert!(!h.summary().is_empty(), "{} lacks a summary", h.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics_with_the_known_list() {
        let _ = workload("definitely-not-a-workload");
    }
}
