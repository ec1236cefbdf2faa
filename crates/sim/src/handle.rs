//! The one home of the simulator's *name-is-identity* contract.
//!
//! Every open configuration axis — refresh policies, controller plugins,
//! devices and probes — is selected through a [`Handle`]: a registry name,
//! a one-line summary and a shared payload (a factory, or an immutable
//! model). Handles compare, hash and print by **name alone**, which is
//! what lets [`crate::SystemConfig::cache_descriptor`] key cached results
//! by handle names: parameterized handles must encode their parameters in
//! the name (`hira4`, `oracle:1024`, `ddr4-2400@32`). Each axis adds its
//! own constructor and methods as an inherent impl on its instantiation
//! ([`crate::policy::PolicyHandle`], [`crate::plugin::PluginHandle`],
//! [`crate::device::DeviceHandle`], [`crate::probe::ProbeHandle`]).
//!
//! A [`Registry`] is the ordered, string-keyed entry list behind an axis's
//! `--<axis>=` names; each axis adds its `standard()` roster and its
//! dynamic-form `lookup()` on top.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A cloneable, comparable selection on one open axis: the registry name,
/// a summary for `--list`, and the shared payload `P`. Equality, hashing
/// and `Debug` go by name; the summary is not part of the identity.
pub struct Handle<P: ?Sized> {
    name: Arc<str>,
    summary: Arc<str>,
    payload: Arc<P>,
}

impl<P: ?Sized> Handle<P> {
    /// Wraps a shared payload under a registry name, with an empty summary.
    pub(crate) fn from_arc(name: impl Into<String>, payload: Arc<P>) -> Self {
        Handle {
            name: Arc::from(name.into()),
            summary: Arc::from(""),
            payload,
        }
    }

    /// The factory or model this handle selects.
    pub(crate) fn payload(&self) -> &P {
        &self.payload
    }

    /// Attaches a one-line description (registry `--list` output). Not
    /// part of the identity: equality stays by name.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = Arc::from(summary.into());
        self
    }

    /// The registry name — the handle's identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description (empty when the registrant set none).
    pub fn summary(&self) -> &str {
        &self.summary
    }
}

// Written by hand: `#[derive(Clone)]` would demand `P: Clone`.
impl<P: ?Sized> Clone for Handle<P> {
    fn clone(&self) -> Self {
        Handle {
            name: Arc::clone(&self.name),
            summary: Arc::clone(&self.summary),
            payload: Arc::clone(&self.payload),
        }
    }
}

impl<P: ?Sized> fmt::Debug for Handle<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Handle").field(&self.name).finish()
    }
}

impl<P: ?Sized> PartialEq for Handle<P> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl<P: ?Sized> Eq for Handle<P> {}

impl<P: ?Sized> Hash for Handle<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

/// An ordered, string-keyed collection of handles. Order is preserved so
/// sweeps and `--list` present entries in registration order, not
/// alphabetically.
pub struct Registry<P: ?Sized> {
    entries: Vec<Handle<P>>,
}

impl<P: ?Sized> Registry<P> {
    /// Registers a handle, replacing any entry of the same name in place.
    pub fn register(&mut self, handle: Handle<P>) {
        match self.entries.iter_mut().find(|h| h.name == handle.name) {
            Some(existing) => *existing = handle,
            None => self.entries.push(handle),
        }
    }

    /// The registered handle named exactly `name`.
    pub fn get(&self, name: &str) -> Option<Handle<P>> {
        self.entries.iter().find(|h| h.name() == name).cloned()
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(Handle::name).collect()
    }

    /// Registered handles, in registration order.
    pub fn handles(&self) -> impl Iterator<Item = &Handle<P>> {
        self.entries.iter()
    }

    /// Number of registered handles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// Written by hand: `#[derive(Default)]` would demand `P: Default`.
impl<P: ?Sized> Default for Registry<P> {
    fn default() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn handle(name: &str, payload: u32) -> Handle<u32> {
        Handle::from_arc(name, Arc::new(payload))
    }

    #[test]
    fn handles_compare_and_hash_by_name() {
        assert_eq!(handle("a", 1), handle("a", 2));
        assert_ne!(handle("a", 1), handle("b", 1));
        let summarized = handle("a", 1).with_summary("described");
        assert_eq!(summarized, handle("a", 1));
        assert_eq!(summarized.summary(), "described");
        let set: HashSet<_> = [handle("a", 1), summarized, handle("b", 1)].into();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn register_replaces_by_name_and_keeps_order() {
        let mut r = Registry::default();
        for (name, payload) in [("x", 1), ("y", 2), ("z", 3), ("y", 4)] {
            r.register(handle(name, payload));
        }
        assert_eq!(r.names(), ["x", "y", "z"]);
        assert_eq!(r.len(), 3);
        assert_eq!(*r.get("y").unwrap().payload(), 4);
        assert!(r.get("w").is_none());
        assert!(!r.is_empty() && Registry::<u32>::default().is_empty());
    }
}
