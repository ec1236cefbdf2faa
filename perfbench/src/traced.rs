//! Timing and counting wrappers around the simulator's three extension
//! points: refresh policies, controller plugins and workload frontends.
//!
//! Each wrapper keeps the inner handle's name (the name is the identity the
//! simulator and the cache key by), forwards every trait method, and counts
//! and times the hot ones. Counters live in plain cells inside the instance
//! and are added into a shared [`Sink`] when the instance is dropped, i.e.
//! when the simulated system that owns it finishes its run. Results are
//! untouched: the traced run asserts that its `SimResult`s equal the
//! untraced ones.

use hira_core::finder::McStats;
use hira_dram::addr::{BankId, RowId};
use hira_sim::config::SystemConfig;
use hira_sim::plugin::{ControllerPlugin, PluginHandle, PluginStats};
use hira_sim::policy::{
    DemandDecision, PolicyHandle, PolicyProfile, PolicyStats, RankView, RefreshAction,
    RefreshPolicy,
};
use hira_workload::{Op, Workload, WorkloadHandle, WorkloadProfile};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Call counts and self time of one run's wrapped layers.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerCounts {
    pub policy_tick: u64,
    pub policy_next_wake: u64,
    pub policy_next_action: u64,
    /// `next_action` polls that returned an action.
    pub policy_actions: u64,
    pub policy_on_demand_act: u64,
    pub policy_on_act_executed: u64,
    pub policy_ns: u64,
    pub plugin_on_act: u64,
    pub plugin_next_action: u64,
    /// `next_action` polls that returned an injected refresh.
    pub plugin_injected: u64,
    pub plugin_next_wake: u64,
    pub plugin_ns: u64,
    pub workload_calls: u64,
    pub workload_ns: u64,
}

impl LayerCounts {
    /// Adds `o` field by field.
    pub fn add(&mut self, o: &LayerCounts) {
        self.policy_tick += o.policy_tick;
        self.policy_next_wake += o.policy_next_wake;
        self.policy_next_action += o.policy_next_action;
        self.policy_actions += o.policy_actions;
        self.policy_on_demand_act += o.policy_on_demand_act;
        self.policy_on_act_executed += o.policy_on_act_executed;
        self.policy_ns += o.policy_ns;
        self.plugin_on_act += o.plugin_on_act;
        self.plugin_next_action += o.plugin_next_action;
        self.plugin_injected += o.plugin_injected;
        self.plugin_next_wake += o.plugin_next_wake;
        self.plugin_ns += o.plugin_ns;
        self.workload_calls += o.workload_calls;
        self.workload_ns += o.workload_ns;
    }

    /// Seconds spent inside the wrapped layers.
    pub fn self_s(&self) -> f64 {
        (self.policy_ns + self.plugin_ns + self.workload_ns) as f64 * 1e-9
    }

    /// The counts alone (self times zeroed), which repeat exactly.
    pub fn counts_only(&self) -> LayerCounts {
        LayerCounts {
            policy_ns: 0,
            plugin_ns: 0,
            workload_ns: 0,
            ..*self
        }
    }
}

/// Where wrapped instances deposit their counts when dropped.
pub type Sink = Arc<Mutex<LayerCounts>>;

/// Takes (and resets) the counts deposited so far.
pub fn drain(sink: &Sink) -> LayerCounts {
    std::mem::take(&mut *sink.lock().expect("layer sink poisoned"))
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Runs `f`, adding its duration to `ns`.
fn timed<R>(ns: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    ns.set(ns.get() + t.elapsed().as_nanos() as u64);
    r
}

/// `cfg` with its policy, plugins and workload wrapped, reporting to `sink`.
pub fn traced(cfg: &SystemConfig, sink: &Sink) -> SystemConfig {
    let mut t = cfg.clone();
    t.refresh = policy(&cfg.refresh, sink);
    t.plugins = cfg.plugins.iter().map(|h| plugin(h, sink)).collect();
    t.workload = workload(&cfg.workload, sink);
    t
}

fn policy(inner: &PolicyHandle, sink: &Sink) -> PolicyHandle {
    let (h, sink) = (inner.clone(), sink.clone());
    PolicyHandle::new(inner.name(), move |env| {
        Box::new(TracedPolicy {
            inner: h.build(env),
            sink: sink.clone(),
            tick: Cell::new(0),
            next_wake: Cell::new(0),
            next_action: Cell::new(0),
            actions: Cell::new(0),
            on_demand_act: Cell::new(0),
            on_act_executed: Cell::new(0),
            ns: Cell::new(0),
        })
    })
    .with_summary(inner.summary())
}

fn plugin(inner: &PluginHandle, sink: &Sink) -> PluginHandle {
    let (h, sink) = (inner.clone(), sink.clone());
    PluginHandle::new(inner.name(), move |env| {
        Box::new(TracedPlugin {
            inner: h.build(env),
            sink: sink.clone(),
            on_act: Cell::new(0),
            next_action: Cell::new(0),
            injected: Cell::new(0),
            next_wake: Cell::new(0),
            ns: Cell::new(0),
        })
    })
    .with_summary(inner.summary())
}

fn workload(inner: &WorkloadHandle, sink: &Sink) -> WorkloadHandle {
    let (h, sink) = (inner.clone(), sink.clone());
    WorkloadHandle::new(inner.name(), inner.family(), inner.summary(), move |env| {
        Box::new(TracedWorkload {
            inner: h.build(env),
            sink: sink.clone(),
            calls: 0,
            ns: 0,
        })
    })
}

#[derive(Debug)]
struct TracedPolicy {
    inner: Box<dyn RefreshPolicy>,
    sink: Sink,
    tick: Cell<u64>,
    next_wake: Cell<u64>,
    next_action: Cell<u64>,
    actions: Cell<u64>,
    on_demand_act: Cell<u64>,
    on_act_executed: Cell<u64>,
    ns: Cell<u64>,
}

impl RefreshPolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tick(&mut self, now_ns: f64) {
        bump(&self.tick);
        timed(&self.ns, || self.inner.tick(now_ns))
    }
    fn next_wake(&self, now_ns: f64) -> f64 {
        bump(&self.next_wake);
        timed(&self.ns, || self.inner.next_wake(now_ns))
    }
    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
        bump(&self.next_action);
        let a = timed(&self.ns, || self.inner.next_action(now_ns, view));
        if a.is_some() {
            bump(&self.actions);
        }
        a
    }
    fn on_demand_act(&mut self, now_ns: f64, bank: BankId, row: RowId) -> DemandDecision {
        bump(&self.on_demand_act);
        timed(&self.ns, || self.inner.on_demand_act(now_ns, bank, row))
    }
    fn on_act_executed(&mut self, now_ns: f64, bank: BankId, row: RowId) {
        bump(&self.on_act_executed);
        timed(&self.ns, || self.inner.on_act_executed(now_ns, bank, row))
    }
    fn attach_para(&mut self, pth: f64, slack_acts: u32) -> bool {
        self.inner.attach_para(pth, slack_acts)
    }
    fn hira_lead(&self) -> Option<(f64, f64)> {
        self.inner.hira_lead()
    }
    fn inert(&self) -> bool {
        self.inner.inert()
    }
    fn performs_refresh(&self) -> bool {
        self.inner.performs_refresh()
    }
    fn profile(&self) -> PolicyProfile {
        self.inner.profile()
    }
    fn mc_stats(&self) -> Vec<McStats> {
        self.inner.mc_stats()
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.policy_tick += self.tick.get();
            s.policy_next_wake += self.next_wake.get();
            s.policy_next_action += self.next_action.get();
            s.policy_actions += self.actions.get();
            s.policy_on_demand_act += self.on_demand_act.get();
            s.policy_on_act_executed += self.on_act_executed.get();
            s.policy_ns += self.ns.get();
        }
    }
}

#[derive(Debug)]
struct TracedPlugin {
    inner: Box<dyn ControllerPlugin>,
    sink: Sink,
    on_act: Cell<u64>,
    next_action: Cell<u64>,
    injected: Cell<u64>,
    next_wake: Cell<u64>,
    ns: Cell<u64>,
}

impl ControllerPlugin for TracedPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_act(&mut self, now_ns: f64, bank: BankId, row: RowId) {
        bump(&self.on_act);
        timed(&self.ns, || self.inner.on_act(now_ns, bank, row))
    }
    fn next_action(&mut self, now_ns: f64) -> Option<RefreshAction> {
        bump(&self.next_action);
        let a = timed(&self.ns, || self.inner.next_action(now_ns));
        if a.is_some() {
            bump(&self.injected);
        }
        a
    }
    fn next_wake(&self, now_ns: f64) -> f64 {
        bump(&self.next_wake);
        timed(&self.ns, || self.inner.next_wake(now_ns))
    }
    fn requires_vrr(&self) -> bool {
        self.inner.requires_vrr()
    }
    fn stats(&self) -> PluginStats {
        self.inner.stats()
    }
}

impl Drop for TracedPlugin {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.plugin_on_act += self.on_act.get();
            s.plugin_next_action += self.next_action.get();
            s.plugin_injected += self.injected.get();
            s.plugin_next_wake += self.next_wake.get();
            s.plugin_ns += self.ns.get();
        }
    }
}

#[derive(Debug)]
struct TracedWorkload {
    inner: Box<dyn Workload>,
    sink: Sink,
    calls: u64,
    ns: u64,
}

impl Workload for TracedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_access(&mut self) -> Op {
        self.calls += 1;
        let t = Instant::now();
        let op = self.inner.next_access();
        self.ns += t.elapsed().as_nanos() as u64;
        op
    }
    fn on_roi_begin(&mut self) {
        self.inner.on_roi_begin()
    }
    fn on_roi_end(&mut self) {
        self.inner.on_roi_end()
    }
    fn profile(&self) -> WorkloadProfile {
        self.inner.profile()
    }
}

impl Drop for TracedWorkload {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.workload_calls += self.calls;
            s.workload_ns += self.ns;
        }
    }
}
