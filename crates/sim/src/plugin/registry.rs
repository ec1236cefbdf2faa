//! The string-keyed plugin registry behind `--plugin=` axes: the three
//! shipped defenses as dynamic parameterized forms, plus user-registered
//! handles (checked first, by exact name).

use super::{graphene, oracle, para, PluginFactory, PluginHandle};
use crate::handle::Registry;

/// The ordered plugin registry. Like [`crate::probe::ProbeRegistry`], the
/// built-in roster is a grammar of dynamic forms rather than a fixed name
/// list; custom handles registered with [`Registry::register`] shadow the
/// grammar and resolve first.
pub type PluginRegistry = Registry<PluginFactory>;

impl PluginRegistry {
    /// The standard registry: the three shipped defense forms.
    pub fn standard() -> Self {
        PluginRegistry::default()
    }

    /// The accepted `--plugin=` forms with one-line descriptions.
    pub fn forms(&self) -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "oracle:<tRH>",
                "exact per-row exposure counters, victim refresh at tRH (lower bound; needs VRR)",
            ),
            (
                "para:<p>",
                "probabilistic adjacent-row refresh, trigger probability p per activation",
            ),
            (
                "graphene:<tRH>:<k>",
                "Misra-Gries aggressor tracking, k counters/bank, neighbor refresh at tRH (needs VRR)",
            ),
        ]
    }

    /// Resolves a `--plugin=` spec: custom handles by exact name first,
    /// then the dynamic built-in forms. Returns the handle under its
    /// *canonical* name (`oracle:1024`, `para:0.01`, `graphene:1024:64` —
    /// parameter rendering is normalized so `oracle:01024` and
    /// `oracle:1024` key one cache entry).
    pub fn lookup(&self, spec: &str) -> Option<PluginHandle> {
        self.get(spec).or_else(|| {
            let (kind, rest) = spec.split_once(':')?;
            match kind {
                "oracle" => {
                    let t_rh: u64 = rest.parse().ok().filter(|&t| t > 0)?;
                    Some(oracle(t_rh))
                }
                "para" => {
                    let p: f64 = rest.parse().ok().filter(|p| (0.0..=1.0).contains(p))?;
                    Some(para(p))
                }
                "graphene" => {
                    let (t_rh, k) = rest.split_once(':')?;
                    let t_rh: u64 = t_rh.parse().ok().filter(|&t| t > 0)?;
                    let k: usize = k.parse().ok().filter(|&k| k > 0)?;
                    Some(graphene(t_rh, k))
                }
                _ => None,
            }
        })
    }

    /// One representative instance of every shipped defense — the roster
    /// the registry-wide determinism and kernel-equivalence tests sweep.
    /// Parameters are picked low enough that short test runs actually
    /// exercise the injection paths.
    pub fn samples(&self) -> Vec<PluginHandle> {
        vec![oracle(64), para(0.05), graphene(64, 16)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::PluginEnv;

    fn env() -> PluginEnv {
        PluginEnv {
            channel: 0,
            rank: 0,
            banks: 16,
            rows_per_bank: 1024,
            seed: 1,
            ordinal: 0,
        }
    }

    #[test]
    fn lookup_parses_the_dynamic_forms() {
        let r = PluginRegistry::standard();
        assert_eq!(r.lookup("oracle:1024").unwrap().name(), "oracle:1024");
        assert_eq!(r.lookup("para:0.01").unwrap().name(), "para:0.01");
        assert_eq!(
            r.lookup("graphene:1024:64").unwrap().name(),
            "graphene:1024:64"
        );
        // Canonicalization: leading zeros normalize away.
        assert_eq!(r.lookup("oracle:01024").unwrap().name(), "oracle:1024");
        assert_eq!(r.lookup("para:.5").unwrap().name(), "para:0.5");
    }

    #[test]
    fn lookup_rejects_malformed_and_out_of_range_specs() {
        let r = PluginRegistry::standard();
        for bad in [
            "oracle",
            "oracle:",
            "oracle:0",
            "oracle:-3",
            "para:1.5",
            "para:-0.1",
            "para:x",
            "graphene:1024",
            "graphene:0:64",
            "graphene:1024:0",
            "blink:7",
        ] {
            assert!(r.lookup(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn custom_handles_shadow_the_builtin_grammar() {
        let mut r = PluginRegistry::standard();
        r.register(
            PluginHandle::new("oracle:1024", |env: &PluginEnv| {
                Box::new(crate::plugin::OracleRh::new(9, env.rows_per_bank))
            })
            .with_summary("impostor"),
        );
        let h = r.lookup("oracle:1024").unwrap();
        assert_eq!(h.summary(), "impostor");
    }

    #[test]
    fn samples_build_and_carry_canonical_names() {
        let r = PluginRegistry::standard();
        for h in r.samples() {
            assert_eq!(r.lookup(h.name()).unwrap(), h, "{} round-trips", h.name());
            let p = h.build(&env());
            assert_eq!(p.name(), h.name());
        }
    }
}
