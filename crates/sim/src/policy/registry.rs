//! The string-keyed policy registry: the bridge between CLI/sweep axes
//! (`--policy=hira4`) and [`PolicyHandle`]s.

use super::{baseline, hira, noref, raidr, refpb, PolicyFactory, PolicyHandle};
use crate::handle::Registry;

/// The ordered policy registry. Order is preserved so sweeps and the
/// `policy_matrix` figure present policies in registration order.
pub type PolicyRegistry = Registry<PolicyFactory>;

impl PolicyRegistry {
    /// The registry every binary starts from: the paper's three
    /// arrangements plus the related-work policies the open API enables.
    pub fn standard() -> Self {
        let mut r = PolicyRegistry::default();
        r.register(noref());
        r.register(baseline());
        r.register(refpb());
        r.register(raidr());
        for n in [0, 2, 4, 8] {
            r.register(hira(n));
        }
        r
    }

    /// Resolves a name. Exact registered names win; `hira<N>` is resolved
    /// for any canonical `N` even when that slack point is not
    /// pre-registered. Non-canonical spellings (`hira04`, `hira+4`) do not
    /// resolve: the handle's name must render back identical to the
    /// requested key, or name-keyed caches would disagree with the axis
    /// label.
    pub fn lookup(&self, name: &str) -> Option<PolicyHandle> {
        self.get(name).or_else(|| {
            let suffix = name.strip_prefix("hira")?;
            let n: u32 = suffix.parse().ok()?;
            (n.to_string() == suffix).then(|| hira(n))
        })
    }

    /// The dynamic `--policy=` forms [`lookup`](Self::lookup) accepts
    /// beyond the registered names, with one-line descriptions.
    pub fn forms(&self) -> Vec<(&'static str, &'static str)> {
        vec![("hira<N>", "any slack point: tRefSlack = N*tRC")]
    }
}

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics with the list of known names when `name` does not resolve — a
/// typo'd `--policy=` axis is a usage error, not a recoverable state.
pub fn policy(name: &str) -> PolicyHandle {
    let registry = PolicyRegistry::standard();
    registry.lookup(name).unwrap_or_else(|| {
        panic!(
            "unknown refresh policy `{name}`; registered: {} (plus hira<N> for any N)",
            registry.names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_the_matrix_policies() {
        let r = PolicyRegistry::standard();
        for name in [
            "noref", "baseline", "refpb", "raidr", "hira0", "hira2", "hira4", "hira8",
        ] {
            assert!(r.lookup(name).is_some(), "{name} missing");
        }
        assert!(r.len() >= 5, "policy_matrix needs at least 5 policies");
        // Registration order is preserved (noref leads, as the bound).
        assert_eq!(r.names()[0], "noref");
    }

    #[test]
    fn hira_n_resolves_dynamically() {
        let r = PolicyRegistry::standard();
        assert_eq!(r.lookup("hira3").unwrap().name(), "hira3");
        assert!(r.lookup("hiraX").is_none());
        assert!(r.lookup("nope").is_none());
    }

    #[test]
    fn hira_n_rejects_non_canonical_spellings() {
        let r = PolicyRegistry::standard();
        for bad in ["hira04", "hira+4", "hira"] {
            assert!(r.lookup(bad).is_none(), "accepted {bad:?}");
        }
        assert_eq!(r.lookup("hira3").unwrap().name(), "hira3");
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = PolicyRegistry::default();
        r.register(PolicyHandle::new("x", |_| {
            Box::new(super::super::NoRefresh)
        }));
        r.register(PolicyHandle::new("x", |_| {
            Box::new(super::super::NoRefresh)
        }));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown refresh policy")]
    fn unknown_policy_panics_with_the_known_list() {
        let _ = policy("definitely-not-a-policy");
    }
}
