//! The string-keyed device registry: the bridge between CLI/sweep axes
//! (`--device=lpddr4-3200`) and [`DeviceHandle`]s.

use super::{
    ddr4_2400, ddr4_2400_at, ddr4_3200, lpddr4_3200, samsung_ddr4_2400, DeviceHandle, DeviceModel,
};
use crate::handle::Registry;

/// The ordered device registry. Order is preserved so sweeps and the
/// `device_matrix` grid present devices in registration order.
pub type DeviceRegistry = Registry<dyn DeviceModel>;

impl DeviceRegistry {
    /// The registry every binary starts from: the Table 3 part, the two
    /// 3200 MT/s standards, and the HiRA-inert comparison part.
    pub fn standard() -> Self {
        let mut r = DeviceRegistry::default();
        r.register(ddr4_2400());
        r.register(ddr4_3200());
        r.register(lpddr4_3200());
        r.register(samsung_ddr4_2400());
        r
    }

    /// Resolves a name. Exact registered names win; the parametric
    /// `ddr4-2400@<Gb>` form resolves dynamically for any canonical
    /// positive integer capacity (like `hira<N>` / `mix<N>` on the other
    /// axes).
    pub fn lookup(&self, name: &str) -> Option<DeviceHandle> {
        self.get(name).or_else(|| {
            let gbit: u32 = name.strip_prefix("ddr4-2400@")?.parse().ok()?;
            // Canonical spellings only (`@32`, not `@032`): the handle's
            // name must render back identical to the requested key, or
            // name-keyed caches would silently disagree with the axis label.
            (gbit > 0 && name == format!("ddr4-2400@{gbit}")).then(|| ddr4_2400_at(gbit))
        })
    }

    /// The dynamic `--device=` forms [`lookup`](Self::lookup) accepts
    /// beyond the registered names, with one-line descriptions.
    pub fn forms(&self) -> Vec<(&'static str, &'static str)> {
        vec![(
            "ddr4-2400@<Gb>",
            "DDR4-2400 part pinned at <Gb> (tRFC fixed)",
        )]
    }
}

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics with the list of known names when `name` does not resolve — a
/// typo'd `--device=` axis is a usage error, not a recoverable state.
pub fn device(name: &str) -> DeviceHandle {
    let registry = DeviceRegistry::standard();
    registry.lookup(name).unwrap_or_else(|| {
        panic!(
            "unknown device `{name}`; registered: {} (plus ddr4-2400@<Gb> for any capacity)",
            registry.names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_ships_at_least_four_presets() {
        let r = DeviceRegistry::standard();
        assert!(r.len() >= 4, "need >= 4 presets, have {}", r.len());
        for name in ["ddr4-2400", "ddr4-3200", "lpddr4-3200", "samsung-ddr4-2400"] {
            assert!(r.lookup(name).is_some(), "{name} missing");
        }
        // Registration order is preserved (the Table 3 part leads).
        assert_eq!(r.names()[0], "ddr4-2400");
    }

    #[test]
    fn capacity_form_resolves_dynamically_and_canonically() {
        let r = DeviceRegistry::standard();
        assert_eq!(r.lookup("ddr4-2400@32").unwrap().name(), "ddr4-2400@32");
        assert_eq!(r.lookup("ddr4-2400@7").unwrap().name(), "ddr4-2400@7");
        assert!(
            r.lookup("ddr4-2400@032").is_none(),
            "non-canonical spelling"
        );
        assert!(r.lookup("ddr4-2400@0").is_none());
        assert!(r.lookup("ddr4-2400@x").is_none());
        assert!(r.lookup("nope").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = DeviceRegistry::default();
        r.register(super::ddr4_2400());
        r.register(super::ddr4_2400());
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unknown_device_panics_with_the_known_list() {
        let _ = device("definitely-not-a-device");
    }
}
