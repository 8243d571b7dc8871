//! The shared metrics registry.
//!
//! A [`Registry`] is a cheap clone handle (`Arc` inside): every clone
//! observes the same metrics, which is how one registry spans a
//! network simulator, a broadcast protocol, a storage engine and a log
//! writer in a single experiment. All mutation goes through one
//! mutex; maps are `BTreeMap`s so snapshot iteration — and therefore
//! JSON export — is deterministically ordered.
//!
//! The mutex is the by-name path's. A call site that runs per row, per
//! operation or per commit registers a [`Counter`] /
//! [`HistogramHandle`] once ([`Registry::counter_handle`],
//! [`Registry::histogram_handle`]) and bumps that instead: the mutex is
//! then taken only to register, read, snapshot and reset. A snapshot
//! folds each handle into the metric of its name, so its bytes do not
//! depend on which path recorded a value; a handle nobody bumped is
//! absent from it, and [`Registry::reset`] zeroes handles without
//! detaching them.
//!
//! A registry created with [`Registry::disabled`] turns every
//! operation into a cheap early return; the benchmark's
//! `obs.registry_overhead_ratio` uses it to measure what
//! instrumentation costs.

use crate::buckets;
use crate::handle::{Counter, CounterCells, HistCells, HistogramHandle};
use crate::hist::Histogram;
use crate::snapshot::Snapshot;
use crate::trace::{Detail, Event, TraceRing};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    /// Storage of the registered handles, folded into the maps above
    /// whenever a value is read.
    counter_cells: BTreeMap<String, Arc<CounterCells>>,
    hist_cells: BTreeMap<String, Arc<HistCells>>,
    trace: TraceRing,
}

impl State {
    /// By-name value plus whatever the name's handles hold; `None` if
    /// neither path created the counter.
    fn counter(&self, name: &str) -> Option<u64> {
        let cells = self.counter_cells.get(name).and_then(|c| c.total());
        match (self.counters.get(name), cells) {
            (None, None) => None,
            (a, b) => Some(a.copied().unwrap_or(0) + b.unwrap_or(0)),
        }
    }

    /// The by-name histogram merged with the name's handles. Bounds
    /// stored by name win over a handle registered with different ones
    /// (a naming bug, as in [`Registry::observe_with`]).
    fn histogram(&self, name: &str) -> Option<Histogram> {
        let cells = self.hist_cells.get(name).and_then(|c| c.fold());
        match (self.histograms.get(name), cells) {
            (Some(h), Some(c)) if h.bounds() == c.bounds() => Some(h.merge(&c)),
            (Some(h), _) => Some(h.clone()),
            (None, c) => c,
        }
    }
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    state: Mutex<State>,
}

/// A shared, thread-safe metrics registry. Clones share state.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: true,
                state: Mutex::new(State {
                    trace: TraceRing::default(),
                    ..State::default()
                }),
            }),
        }
    }

    /// A registry on which every operation is a no-op. Reads return
    /// zeros / empty snapshots.
    #[must_use]
    pub fn disabled() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: false,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic while holding the metrics mutex must not cascade:
        // observability state is always safe to keep using.
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Add `delta` to the counter `name` (created at 0).
    pub fn add(&self, name: &str, delta: u64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        match st.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                st.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increment the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// A handle on the counter `name`: bumping it is [`Registry::add`]
    /// without the mutex and the name lookup. Handles of one name share
    /// their storage; the counter appears in snapshots once bumped.
    #[must_use]
    pub fn counter_handle(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::default();
        }
        let mut st = self.lock();
        let cells = st.counter_cells.entry(name.to_owned()).or_default();
        Counter(Some(Arc::clone(cells)))
    }

    /// A handle on the histogram `name` over `bounds`: recording into
    /// it is [`Registry::observe_with`] without the mutex and the name
    /// lookup. Handles of one name share their storage (the bounds of
    /// the first registration win); the histogram appears in snapshots
    /// once it holds a sample.
    #[must_use]
    pub fn histogram_handle(&self, name: &str, bounds: &[u64]) -> HistogramHandle {
        if !self.inner.enabled {
            return HistogramHandle::default();
        }
        let mut st = self.lock();
        let cells = st
            .hist_cells
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(HistCells::new(bounds)));
        HistogramHandle(Some(Arc::clone(cells)))
    }

    /// Set the counter `name` to the absolute value `v`.
    ///
    /// This is the flush primitive for instrumented components that
    /// accumulate into plain local fields on their hot path and export
    /// the totals at the end of a run: re-flushing the same state is
    /// idempotent, unlike [`Registry::add`].
    pub fn counter_set(&self, name: &str, v: u64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        if let Some(c) = st.counter_cells.get(name) {
            c.clear();
        }
        st.counters.insert(name.to_owned(), v);
    }

    /// Current value of counter `name` (0 if absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        if !self.inner.enabled {
            return 0;
        }
        self.lock().counter(name).unwrap_or(0)
    }

    /// Set the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: i64) {
        if !self.inner.enabled {
            return;
        }
        self.lock().gauges.insert(name.to_owned(), v);
    }

    /// Raise the gauge `name` to `v` if `v` is larger (high-watermark).
    pub fn gauge_max(&self, name: &str, v: i64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        match st.gauges.get_mut(name) {
            Some(g) => *g = (*g).max(v),
            None => {
                st.gauges.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of gauge `name`, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        if !self.inner.enabled {
            return None;
        }
        self.lock().gauges.get(name).copied()
    }

    /// Record `value` into the histogram `name` with
    /// [`buckets::TIME_US`] bounds.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_with(name, buckets::TIME_US, value);
    }

    /// Record `value` into the histogram `name`, creating it over
    /// `bounds` on first use. Later observations reuse the stored
    /// bounds (passing different bounds for the same name is a naming
    /// bug; the stored bounds win).
    pub fn observe_with(&self, name: &str, bounds: &[u64], value: u64) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        match st.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new(bounds);
                h.record(value);
                st.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Replace the histogram `name` with a copy of `h` — the idempotent
    /// flush twin of [`Registry::counter_set`] for components that
    /// accumulate a local [`Histogram`] on their hot path.
    pub fn histogram_set(&self, name: &str, h: &Histogram) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        if let Some(c) = st.hist_cells.get(name) {
            c.clear();
        }
        st.histograms.insert(name.to_owned(), h.clone());
    }

    /// Merge a locally accumulated histogram into `name` (created as a
    /// copy of `h` on first merge): one registry operation instead of
    /// `h.count()` calls to [`Registry::observe_with`]. Bounds must
    /// match any existing histogram under the name.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if !self.inner.enabled || h.count() == 0 {
            return;
        }
        let mut st = self.lock();
        match st.histograms.get_mut(name) {
            Some(existing) => existing.merge_from(h),
            None => {
                st.histograms.insert(name.to_owned(), h.clone());
            }
        }
    }

    /// A clone of the histogram `name`, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        if !self.inner.enabled {
            return None;
        }
        self.lock().histogram(name)
    }

    /// Append an event to the trace ring. `detail` is built lazily so
    /// a disabled registry pays no formatting cost. For hot paths
    /// prefer [`Registry::trace_num`] / [`Registry::trace_pair`], which
    /// defer *all* formatting to export time.
    pub fn trace(&self, at_us: u64, name: &'static str, detail: impl FnOnce() -> String) {
        if !self.inner.enabled {
            return;
        }
        self.push_event(at_us, name, Detail::Text(detail()));
    }

    /// Append an event carrying one number (an id, a count). Nothing is
    /// formatted until the snapshot is exported.
    pub fn trace_num(&self, at_us: u64, name: &'static str, n: u64) {
        if !self.inner.enabled {
            return;
        }
        self.push_event(at_us, name, Detail::Num(n));
    }

    /// Append an event carrying a directed pair (rendered `a->b`).
    /// Nothing is formatted until the snapshot is exported.
    pub fn trace_pair(&self, at_us: u64, name: &'static str, a: u64, b: u64) {
        if !self.inner.enabled {
            return;
        }
        self.push_event(at_us, name, Detail::Pair(a, b));
    }

    fn push_event(&self, at_us: u64, name: &'static str, detail: Detail) {
        self.lock().trace.push(Event {
            at_us,
            name,
            detail,
        });
    }

    /// Resize the trace ring (default capacity 1024; 0 disables it).
    pub fn set_trace_capacity(&self, capacity: usize) {
        if !self.inner.enabled {
            return;
        }
        self.lock().trace.set_capacity(capacity);
    }

    /// A consistent point-in-time copy of every metric and the trace.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        if !self.inner.enabled {
            return Snapshot::default();
        }
        let st = self.lock();
        let mut counters = st.counters.clone();
        for name in st.counter_cells.keys() {
            if let Some(v) = st.counter(name) {
                counters.insert(name.clone(), v);
            }
        }
        let mut histograms = st.histograms.clone();
        for name in st.hist_cells.keys() {
            if let Some(h) = st.histogram(name) {
                histograms.insert(name.clone(), h);
            }
        }
        Snapshot {
            counters,
            gauges: st.gauges.clone(),
            histograms,
            events: st.trace.events().cloned().collect(),
            events_dropped: st.trace.dropped(),
        }
    }

    /// Clear every metric and the trace (capacity is kept). Handles
    /// are zeroed, not detached: a later bump records as on a fresh
    /// registry.
    pub fn reset(&self) {
        if !self.inner.enabled {
            return;
        }
        let mut st = self.lock();
        st.counters.clear();
        st.gauges.clear();
        st.histograms.clear();
        // Storage whose handles are all gone goes with the rest.
        st.counter_cells.retain(|_, c| Arc::strong_count(c) > 1);
        st.hist_cells.retain(|_, c| Arc::strong_count(c) > 1);
        st.counter_cells.values().for_each(|c| c.clear());
        st.hist_cells.values().for_each(|c| c.clear());
        st.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let r = Registry::new();
        r.inc("a.b");
        r.add("a.b", 4);
        r.gauge_set("g", -2);
        r.gauge_max("g", 7);
        r.gauge_max("g", 3);
        r.observe_with("h", &[10], 4);
        r.observe_with("h", &[10], 40);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.gauge("g"), Some(7));
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("missing"), None);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn set_and_merge_flush_primitives_are_idempotent() {
        let r = Registry::new();
        // counter_set / histogram_set: flushing twice changes nothing.
        let mut h = Histogram::new(&[10]);
        h.record(3);
        for _ in 0..2 {
            r.counter_set("c", 7);
            r.histogram_set("h", &h);
        }
        assert_eq!(r.counter("c"), 7);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        // merge_histogram accumulates across runs instead.
        r.merge_histogram("m", &h);
        r.merge_histogram("m", &h);
        assert_eq!(r.histogram("m").unwrap().count(), 2);
        // An empty local histogram merges to nothing at all.
        r.merge_histogram("empty", &Histogram::new(&[10]));
        assert!(r.histogram("empty").is_none());
    }

    #[test]
    fn numeric_traces_render_at_export() {
        let r = Registry::new();
        r.trace_num(1, "crash", 3);
        r.trace_pair(2, "cut", 0, 3);
        let s = r.snapshot();
        assert_eq!(s.events[0].detail.to_string(), "3");
        assert_eq!(s.events[1].detail.to_string(), "0->3");
        let d = Registry::disabled();
        d.trace_num(1, "crash", 3);
        assert!(d.snapshot().events.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.inc("shared");
        assert_eq!(r.counter("shared"), 1);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        r.inc("x");
        r.gauge_set("g", 1);
        r.observe("h", 1);
        let mut built = false;
        r.trace(0, "e", || {
            built = true;
            String::new()
        });
        assert!(!built, "detail closure must not run when disabled");
        assert!(!r.is_enabled());
        assert_eq!(r.counter("x"), 0);
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.events.is_empty());
    }

    #[test]
    fn snapshot_is_a_copy() {
        let r = Registry::new();
        r.inc("c");
        let s = r.snapshot();
        r.inc("c");
        assert_eq!(s.counter("c"), 1);
        assert_eq!(r.counter("c"), 2);
    }

    #[test]
    fn trace_capacity_applies() {
        let r = Registry::new();
        r.set_trace_capacity(2);
        for i in 0..3 {
            r.trace(i, "t", String::new);
        }
        let s = r.snapshot();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events_dropped, 1);
        assert_eq!(s.events[0].at_us, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.inc("c");
        r.trace(1, "t", String::new);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.events.is_empty());
    }
}
