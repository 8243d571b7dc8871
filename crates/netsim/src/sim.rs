//! The sequential simulator: store-and-forward message delivery.
//!
//! ## Transfer model
//!
//! Sending `bytes` from `src` to `dst` at time `t`:
//!
//! 1. the message queues on `src`'s uplink, which serializes sends
//!    one after another (repeated-unicast multicast, as the paper's
//!    broadcast-vector implementation does);
//! 2. serialization takes `bytes / path.bandwidth`;
//! 3. delivery happens one `path.latency` after serialization finishes.
//!
//! Receive-side contention is not modelled: the 1999 bottleneck this
//! reproduction cares about is the sender's uplink (a lecture server
//! pushing one video to many students), and the paper's own analysis
//! reasons only about that. Store-and-forward is at whole-object
//! granularity — a relay must finish receiving an object before it can
//! forward it — matching a station that spools a file to disk before
//! re-serving it.
//!
//! ## One core, three views
//!
//! The model above is implemented once, in the crate-private island
//! core. [`Network`] is the one-island case: one island plus the
//! registry its fault events are counted on. [`ParNet`] and
//! [`IslandCtx`] are the many-island views of the same core; the
//! [`NetCtx`] trait is what all three share, so a delivery handler can
//! be written once and run on either engine.
//!
//! ## Faults
//!
//! An optional [`FaultSchedule`] injects deterministic link and station
//! failures (see [`crate::fault`] for the exact semantics). Without a
//! schedule every fault check short-circuits, so a fault-free run is
//! bit-identical to the pre-fault-layer simulator.
//!
//! ## Metrics
//!
//! Every network carries an [`obs::Registry`] (shareable across
//! networks via [`Network::set_metrics`]) exposing `netsim.*` counters
//! for sends, deliveries, fault drops and fault events, a
//! delivery-latency histogram and per-uplink utilization. The hot path
//! never touches the registry: per-event totals accumulate in plain
//! fields exactly like the [`StationStats`] counters, and
//! [`Network::flush_metrics`] exports them with the registry's
//! idempotent `*_set` primitives (so flushing after every protocol run
//! *and* again before a snapshot is harmless). Only rare fault events
//! write (and trace) directly as they are applied. All values derive
//! from [`SimTime`] and event counts, so the whole `netsim.*`
//! namespace is byte-for-byte reproducible under a fixed seed (the
//! `obs` crate documents the determinism contract).
//!
//! [`ParNet`]: crate::ParNet
//! [`IslandCtx`]: crate::IslandCtx

use crate::fault::{FaultSchedule, FaultState, SendError};
use crate::island::{self, Island};
use crate::time::SimTime;
use crate::topology::{LinkSpec, StationId, StationStats, Topology};
use bytes::Bytes;
use obs::Registry;

/// A message in flight (or delivered). `P` is user payload.
#[derive(Debug, Clone)]
pub struct Message<P> {
    /// Sender.
    pub src: StationId,
    /// Receiver.
    pub dst: StationId,
    /// Size on the wire in bytes.
    pub bytes: u64,
    /// User payload describing what this message means.
    pub payload: P,
    /// Optional object body ([`Network::send_body`]). `Bytes` is
    /// reference-counted, so relaying a body to N children shares one
    /// buffer instead of deep-copying N times; cloning the `Message`
    /// only bumps a refcount. `None` for plain sends and timers.
    pub body: Option<Bytes>,
}

/// What a delivery handler may do, whichever engine runs it.
///
/// Implemented by [`Network`], by [`ParNet`] (for the main-thread
/// kick-off before a run) and by [`IslandCtx`]; each method has the
/// semantics documented on [`Network`]'s method of the same name. The
/// trait exists so that a protocol's relay logic is written once,
/// generic over `C: NetCtx<P>`, instead of once per engine.
///
/// [`ParNet`]: crate::ParNet
/// [`IslandCtx`]: crate::IslandCtx
pub trait NetCtx<P> {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// True if `id` is currently crashed.
    fn is_down(&self, id: StationId) -> bool;
    /// Time of `id`'s most recent crash, if it ever crashed.
    fn last_crash(&self, id: StationId) -> Option<SimTime>;
    /// Send `bytes` from `src` to `dst`; returns the arrival time. A
    /// crashed sender degrades to a counted drop.
    fn send(&mut self, src: StationId, dst: StationId, bytes: u64, payload: P) -> SimTime;
    /// Send an object body (wire size `body.len()`, buffer shared).
    fn send_body(&mut self, src: StationId, dst: StationId, payload: P, body: Bytes) -> SimTime;
    /// Like [`NetCtx::send`], but errs when the sender is crashed.
    ///
    /// # Errors
    /// [`SendError::SenderDown`] if `src` is down at the current time.
    fn try_send(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
    ) -> Result<SimTime, SendError>;
    /// Schedule a local timer on `station` at absolute time `at`.
    fn schedule(&mut self, station: StationId, at: SimTime, payload: P);
}

/// Implement [`NetCtx`] for a view by forwarding to its inherent
/// methods of the same names.
macro_rules! impl_net_ctx {
    ($view:ty) => {
        impl<P> $crate::sim::NetCtx<P> for $view {
            fn now(&self) -> SimTime {
                <$view>::now(self)
            }
            fn is_down(&self, id: StationId) -> bool {
                <$view>::is_down(self, id)
            }
            fn last_crash(&self, id: StationId) -> Option<SimTime> {
                <$view>::last_crash(self, id)
            }
            fn send(&mut self, src: StationId, dst: StationId, bytes: u64, payload: P) -> SimTime {
                <$view>::send(self, src, dst, bytes, payload)
            }
            fn send_body(
                &mut self,
                src: StationId,
                dst: StationId,
                payload: P,
                body: Bytes,
            ) -> SimTime {
                <$view>::send_body(self, src, dst, payload, body)
            }
            fn try_send(
                &mut self,
                src: StationId,
                dst: StationId,
                bytes: u64,
                payload: P,
            ) -> Result<SimTime, SendError> {
                <$view>::try_send(self, src, dst, bytes, payload)
            }
            fn schedule(&mut self, station: StationId, at: SimTime, payload: P) {
                <$view>::schedule(self, station, at, payload)
            }
        }
    };
}
pub(crate) use impl_net_ctx;

/// The discrete-event network simulator: one island and the registry
/// its fault events are counted on.
pub struct Network<P> {
    island: Island<P>,
    metrics: Registry,
}

impl_net_ctx!(Network<P>);

impl<P> Network<P> {
    /// Wrap a topology into a simulator at time zero.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        Network {
            island: Island::new(topo),
            metrics: Registry::new(),
        }
    }

    /// Convenience: build a uniform network of `n` stations.
    #[must_use]
    pub fn uniform(n: usize, uplink: LinkSpec) -> (Self, Vec<StationId>) {
        let mut topo = Topology::new();
        let ids = topo.add_stations(n, uplink);
        (Network::new(topo), ids)
    }

    /// The metrics registry this network records into.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Replace the registry — typically with a clone shared across
    /// several networks (or with [`Registry::disabled`] to measure
    /// instrumentation overhead). Counters already recorded stay with
    /// the old registry.
    pub fn set_metrics(&mut self, metrics: Registry) {
        self.metrics = metrics;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.island.now
    }

    /// The underlying topology (to add links mid-run, inspect paths).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.island.topo
    }

    /// Mutable topology access.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.island.topo
    }

    /// Inject a fault schedule. Events apply as simulated time reaches
    /// them; events at or before the current time apply on the next
    /// send/schedule/run step. Replaces any earlier schedule (overlays
    /// and cut history from it are discarded).
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        self.island.faults = Some(FaultState::new(schedule));
    }

    /// True if `id` is currently crashed (fault events applied so far).
    #[must_use]
    pub fn is_down(&self, id: StationId) -> bool {
        self.island.faults.as_ref().is_some_and(|f| f.is_down(id))
    }

    /// Time of `id`'s most recent crash, if it ever crashed. This is
    /// the epoch that invalidated its pre-crash state; station logic
    /// can compare it against its own timestamps to model volatile
    /// state lost in the crash.
    #[must_use]
    pub fn last_crash(&self, id: StationId) -> Option<SimTime> {
        self.island.faults.as_ref().and_then(|f| f.last_crash(id))
    }

    /// The spec a send `src → dst` would use right now: the static
    /// topology path with any degradation overlay applied, or `None`
    /// when the path is partitioned or either endpoint is down.
    #[must_use]
    pub fn effective_path(&self, src: StationId, dst: StationId) -> Option<LinkSpec> {
        let spec = self.island.topo.path(src, dst);
        match &self.island.faults {
            None => Some(spec),
            Some(f) if f.is_down(src) || f.dooms(src, dst) => None,
            Some(f) => Some(f.apply(src, dst, spec)),
        }
    }

    /// Messages dropped by fault injection so far (in-flight kills,
    /// doomed sends, and sends refused because the sender was down).
    #[must_use]
    pub fn dropped_msgs(&self) -> u64 {
        self.island.flows.dropped_msgs
    }

    /// Bytes dropped by fault injection so far.
    #[must_use]
    pub fn dropped_bytes(&self) -> u64 {
        self.island.flows.dropped_bytes
    }

    /// Send `bytes` from `src` to `dst`; the payload is delivered to the
    /// run handler at the computed arrival time. Returns that time.
    ///
    /// If the sender is currently crashed the send is silently dropped
    /// (counted in [`Network::dropped_msgs`]) and the current time is
    /// returned — use [`Network::try_send`] to observe the error.
    pub fn send(&mut self, src: StationId, dst: StationId, bytes: u64, payload: P) -> SimTime {
        self.post(src, dst, bytes, payload, None)
            .unwrap_or_else(|_| self.island.refuse(bytes))
    }

    /// Send an object body from `src` to `dst`: the wire size is
    /// `body.len()` and the delivered [`Message::body`] shares the
    /// buffer (refcounted, never copied). Sender-down degrades to a
    /// counted drop exactly like [`Network::send`].
    pub fn send_body(
        &mut self,
        src: StationId,
        dst: StationId,
        payload: P,
        body: Bytes,
    ) -> SimTime {
        let bytes = body.len() as u64;
        self.post(src, dst, bytes, payload, Some(body))
            .unwrap_or_else(|_| self.island.refuse(bytes))
    }

    /// Like [`Network::send`], but errs when the sender is crashed.
    ///
    /// # Errors
    /// [`SendError::SenderDown`] if `src` is down at the current time.
    pub fn try_send(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
    ) -> Result<SimTime, SendError> {
        self.post(src, dst, bytes, payload, None)
    }

    /// One island: every envelope joins its own queue.
    fn post(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
        body: Option<Bytes>,
    ) -> Result<SimTime, SendError> {
        let parcel = self
            .island
            .prepare_send(&self.metrics, src, dst, bytes, payload, body)?;
        Ok(self.island.enqueue(parcel))
    }

    /// Schedule a local event on `station` at absolute time `at` without
    /// consuming any network capacity (timers, lecture start/end).
    ///
    /// A timer scheduled on a crashed station — or outlived by a later
    /// crash of it — never fires, even after recovery: crashes wipe
    /// volatile state.
    pub fn schedule(&mut self, station: StationId, at: SimTime, payload: P) {
        self.island.set_timer(&self.metrics, station, at, payload);
    }

    /// Run until the event queue drains, calling `handler` for every
    /// delivered message. The handler can send further messages.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Network<P>, Message<P>)) {
        while let Some(msg) = self.island.next_delivery(&self.metrics, None) {
            handler(self, msg);
        }
    }

    /// Run until `deadline`, leaving later events queued. Returns true
    /// if events remain.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Network<P>, Message<P>),
    ) -> bool {
        while let Some(msg) = self.island.next_delivery(&self.metrics, Some(deadline)) {
            handler(self, msg);
        }
        self.island.now = self.island.now.max(deadline);
        self.island.advance_faults(deadline, &self.metrics);
        !self.island.queue.is_empty()
    }

    /// Total bytes delivered so far.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.island.flows.total_bytes
    }

    /// Total messages delivered so far.
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        self.island.flows.total_msgs
    }

    /// Time of the most recent delivery.
    #[must_use]
    pub fn last_delivery(&self) -> SimTime {
        self.island.flows.last_delivery
    }

    /// Per-station counters.
    #[must_use]
    pub fn station_stats(&self, id: StationId) -> StationStats {
        self.island.station_stats(id)
    }

    /// Export every accumulated `netsim.*` metric into the registry:
    /// send/deliver/drop/timer totals, the delivery-latency histogram,
    /// and a per-uplink `netsim.uplink.utilization_pct` histogram (each
    /// station's cumulative serialization time over the elapsed
    /// simulated time).
    ///
    /// Everything is written with the registry's `*_set` primitives, so
    /// the flush is **idempotent**: protocol runs flush on completion
    /// and callers may flush again before snapshotting without double
    /// counting. Only the rare `netsim.fault.*` counters and trace
    /// events are written as faults are applied, not here.
    pub fn flush_metrics(&self) {
        island::flush_metrics(
            &self.metrics,
            self.island.now,
            self.island.topo.stations.iter(),
            &self.island.flows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    fn mbps(m: u64) -> u64 {
        m * 1_000_000 / 8
    }

    #[test]
    fn single_send_timing() {
        // 1 MB at 1 MB/s with 10 ms latency → arrives at 1.01 s.
        let (mut net, ids) =
            Network::uniform(2, LinkSpec::new(1_000_000, SimTime::from_millis(10)));
        net.send(ids[0], ids[1], 1_000_000, "doc");
        let mut arrived = Vec::new();
        net.run(|n, m| arrived.push((n.now(), m.payload)));
        assert_eq!(arrived, vec![(SimTime::from_micros(1_010_000), "doc")]);
    }

    #[test]
    fn uplink_serializes_sends() {
        // Two 1 MB sends from the same source: second waits for the first.
        let (mut net, ids) = Network::uniform(3, LinkSpec::new(1_000_000, SimTime::ZERO));
        net.send(ids[0], ids[1], 1_000_000, 1);
        net.send(ids[0], ids[2], 1_000_000, 2);
        let mut times = Vec::new();
        net.run(|n, m| times.push((m.payload, n.now().as_micros())));
        assert_eq!(times, vec![(1, 1_000_000), (2, 2_000_000)]);
    }

    #[test]
    fn distinct_sources_send_in_parallel() {
        let (mut net, ids) = Network::uniform(4, LinkSpec::new(1_000_000, SimTime::ZERO));
        net.send(ids[0], ids[2], 1_000_000, 1);
        net.send(ids[1], ids[3], 1_000_000, 2);
        let mut times = Vec::new();
        net.run(|n, m| times.push((m.payload, n.now().as_micros())));
        assert_eq!(times.len(), 2);
        assert!(times.iter().all(|&(_, t)| t == 1_000_000));
    }

    #[test]
    fn handler_can_relay() {
        // 0 → 1 → 2, store-and-forward: total = 2 transfers + 2 latencies.
        let spec = LinkSpec::new(1_000_000, SimTime::from_millis(5));
        let (mut net, ids) = Network::uniform(3, spec);
        net.send(ids[0], ids[1], 500_000, ());
        let mut deliveries = Vec::new();
        net.run(|n, m| {
            deliveries.push((m.dst, n.now().as_micros()));
            if m.dst == StationId(1) {
                n.send(StationId(1), StationId(2), m.bytes, ());
            }
        });
        assert_eq!(
            deliveries,
            vec![(StationId(1), 505_000), (StationId(2), 1_010_000)]
        );
    }

    #[test]
    fn per_pair_override_changes_timing() {
        let (mut net, ids) = Network::uniform(2, LinkSpec::new(mbps(100), SimTime::ZERO));
        net.topology_mut()
            .set_link(ids[0], ids[1], LinkSpec::new(1_000, SimTime::ZERO));
        net.send(ids[0], ids[1], 1_000, ());
        let mut at = SimTime::ZERO;
        net.run(|n, _| at = n.now());
        assert_eq!(at, SimTime::from_secs(1));
    }

    #[test]
    fn schedule_is_free_of_bandwidth() {
        let (mut net, ids) = Network::uniform(1, LinkSpec::modem());
        net.schedule(ids[0], SimTime::from_secs(5), "timer");
        let mut fired = Vec::new();
        net.run(|n, m| fired.push((n.now(), m.payload, m.bytes)));
        assert_eq!(fired, vec![(SimTime::from_secs(5), "timer", 0)]);
        assert_eq!(net.station_stats(ids[0]).tx_bytes, 0);
    }

    #[test]
    fn stats_account_bytes() {
        let (mut net, ids) = Network::uniform(2, LinkSpec::lan());
        net.send(ids[0], ids[1], 1234, ());
        net.run(|_, _| {});
        assert_eq!(net.total_bytes(), 1234);
        assert_eq!(net.station_stats(ids[0]).tx_bytes, 1234);
        assert_eq!(net.station_stats(ids[1]).rx_bytes, 1234);
        assert_eq!(net.station_stats(ids[1]).rx_msgs, 1);
    }

    #[test]
    fn run_until_pauses() {
        let (mut net, ids) = Network::uniform(1, LinkSpec::lan());
        net.schedule(ids[0], SimTime::from_secs(1), 1);
        net.schedule(ids[0], SimTime::from_secs(10), 2);
        let mut seen = Vec::new();
        let remaining = net.run_until(SimTime::from_secs(5), |_, m| seen.push(m.payload));
        assert!(remaining);
        assert_eq!(seen, vec![1]);
        assert_eq!(net.now(), SimTime::from_secs(5));
        net.run(|_, m| seen.push(m.payload));
        assert_eq!(seen, vec![1, 2]);
    }

    // ------------------------------------------------------ fault layer

    #[test]
    fn run_until_holds_the_deadline_across_a_drop() {
        // The event at 1 s is dropped (its station crashed at 0.5 s);
        // skipping it must not deliver the 10 s event early.
        let (mut net, ids) = Network::uniform(2, LinkSpec::lan());
        net.set_faults(
            FaultSchedule::new().at(SimTime::from_millis(500), Fault::Crash { station: ids[1] }),
        );
        net.schedule(ids[1], SimTime::from_secs(1), "killed");
        net.schedule(ids[0], SimTime::from_secs(10), "later");
        let mut seen = Vec::new();
        assert!(net.run_until(SimTime::from_secs(5), |_, m| seen.push(m.payload)));
        assert!(seen.is_empty());
        assert_eq!(net.now(), SimTime::from_secs(5));
        net.run(|_, m| seen.push(m.payload));
        assert_eq!((seen, net.now()), (vec!["later"], SimTime::from_secs(10)));
    }

    #[test]
    fn crash_drops_in_flight_message() {
        // 1 MB at 1 MB/s arrives at 1 s; receiver crashes at 0.5 s.
        let (mut net, ids) = Network::uniform(2, LinkSpec::new(1_000_000, SimTime::ZERO));
        net.set_faults(
            FaultSchedule::new().at(SimTime::from_millis(500), Fault::Crash { station: ids[1] }),
        );
        net.send(ids[0], ids[1], 1_000_000, ());
        let mut delivered = 0;
        net.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(net.dropped_msgs(), 1);
        assert_eq!(net.dropped_bytes(), 1_000_000);
        // The sender still burned its uplink; the receiver got nothing.
        assert_eq!(net.station_stats(ids[0]).tx_bytes, 1_000_000);
        assert_eq!(net.station_stats(ids[1]).rx_bytes, 0);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn send_from_crashed_station_errors_out() {
        let (mut net, ids) = Network::uniform(2, LinkSpec::lan());
        net.set_faults(FaultSchedule::new().at(SimTime::ZERO, Fault::Crash { station: ids[0] }));
        assert_eq!(
            net.try_send(ids[0], ids[1], 100, ()),
            Err(SendError::SenderDown(ids[0]))
        );
        // send() degrades to a counted drop.
        net.send(ids[0], ids[1], 100, ());
        assert_eq!(net.dropped_msgs(), 1);
        let mut delivered = 0;
        net.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
    }

    #[test]
    fn recovery_allows_later_sends_only() {
        let spec = LinkSpec::new(1_000_000, SimTime::ZERO);
        let (mut net, ids) = Network::uniform(2, spec);
        net.set_faults(
            FaultSchedule::new()
                .at(SimTime::ZERO, Fault::Crash { station: ids[1] })
                .at(SimTime::from_secs(2), Fault::Recover { station: ids[1] }),
        );
        // Sent while down: doomed even though it would arrive after
        // recovery (the receiver missed the start of the transfer).
        net.send(ids[0], ids[1], 3_000_000, 1);
        let mut got = Vec::new();
        net.run(|n, m| got.push((m.payload, n.now())));
        assert!(got.is_empty());
        // A fresh send after recovery gets through.
        net.send(ids[0], ids[1], 1_000_000, 2);
        net.run(|n, m| got.push((m.payload, n.now())));
        assert_eq!(got, vec![(2, SimTime::from_secs(4))]);
        assert_eq!(net.last_crash(ids[1]), Some(SimTime::ZERO));
    }

    #[test]
    fn partition_dooms_and_heals() {
        let spec = LinkSpec::new(1_000_000, SimTime::ZERO);
        let (mut net, ids) = Network::uniform(2, spec);
        net.set_faults(
            FaultSchedule::new()
                .at(
                    SimTime::ZERO,
                    Fault::Partition {
                        src: ids[0],
                        dst: ids[1],
                    },
                )
                .at(
                    SimTime::from_secs(5),
                    Fault::Heal {
                        src: ids[0],
                        dst: ids[1],
                    },
                ),
        );
        net.send(ids[0], ids[1], 1_000_000, 1);
        let mut got = Vec::new();
        net.run(|n, m| got.push((m.payload, n.now())));
        assert!(got.is_empty());
        assert_eq!(net.effective_path(ids[0], ids[1]), None);
        // After the heal (run() drained at 1 s; advance via run_until).
        net.run_until(SimTime::from_secs(5), |_, _| {});
        assert_eq!(net.effective_path(ids[0], ids[1]), Some(spec));
        net.send(ids[0], ids[1], 1_000_000, 2);
        net.run(|n, m| got.push((m.payload, n.now())));
        assert_eq!(got, vec![(2, SimTime::from_secs(6))]);
    }

    #[test]
    fn degrade_slows_subsequent_sends() {
        let spec = LinkSpec::new(1_000_000, SimTime::ZERO);
        let (mut net, ids) = Network::uniform(2, spec);
        net.set_faults(FaultSchedule::new().at(
            SimTime::from_secs(1),
            Fault::Degrade {
                src: ids[0],
                dst: ids[1],
                bandwidth_factor: 0.5,
                latency_factor: 1.0,
            },
        ));
        // Sent before the degrade: unaffected (arrives at 1 s).
        net.send(ids[0], ids[1], 1_000_000, 1);
        let mut got = Vec::new();
        net.run(|n, m| {
            got.push((m.payload, n.now()));
            if m.payload == 1 {
                // Sent at 1 s under the overlay: 2 s transfer.
                n.send(m.dst, m.src, 0, 0); // keep handler simple
                n.send(ids[0], ids[1], 1_000_000, 2);
            }
        });
        assert!(got.contains(&(1, SimTime::from_secs(1))));
        assert!(got.contains(&(2, SimTime::from_secs(3))));
        assert_eq!(
            net.effective_path(ids[0], ids[1]),
            Some(LinkSpec::new(500_000, SimTime::ZERO))
        );
    }

    #[test]
    fn metrics_mirror_counters_and_faults() {
        let (mut net, ids) = Network::uniform(2, LinkSpec::new(1_000_000, SimTime::ZERO));
        net.set_faults(
            FaultSchedule::new().at(SimTime::from_millis(500), Fault::Crash { station: ids[1] }),
        );
        net.send(ids[0], ids[1], 1_000_000, 1); // killed in flight at 0.5 s
        net.run(|_, _| {});
        net.flush_metrics();
        let snap = net.metrics().snapshot();
        assert_eq!(snap.counter("netsim.send.msgs"), 1);
        assert_eq!(snap.counter("netsim.send.bytes"), 1_000_000);
        assert_eq!(snap.counter("netsim.deliver.msgs"), 0);
        assert_eq!(snap.counter("netsim.drop.msgs"), net.dropped_msgs());
        assert_eq!(snap.counter("netsim.drop.bytes"), net.dropped_bytes());
        assert_eq!(snap.counter("netsim.drop.in_flight"), 1);
        assert_eq!(snap.counter("netsim.fault.crash"), 1);
        // The sender serialized for the full second: busy time recorded.
        assert_eq!(snap.counter("netsim.uplink.busy_us"), 1_000_000);
        let util = snap.histogram("netsim.uplink.utilization_pct").unwrap();
        assert_eq!(util.count(), 2); // one sample per station
                                     // Fault application left a trace event.
        assert!(snap.events.iter().any(|e| e.name == "netsim.fault.crash"));
        // Flushing is idempotent: a second flush changes nothing.
        net.flush_metrics();
        assert_eq!(net.metrics().snapshot().to_json(), snap.to_json());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let (mut net, ids) = Network::uniform(2, LinkSpec::lan());
        net.set_metrics(Registry::disabled());
        net.send(ids[0], ids[1], 1234, ());
        net.run(|_, _| {});
        net.flush_metrics();
        let snap = net.metrics().snapshot();
        assert_eq!(snap.counter("netsim.send.msgs"), 0);
        assert!(snap.counters.is_empty());
        // The simulation itself is unaffected.
        assert_eq!(net.total_bytes(), 1234);
    }

    #[test]
    fn body_sends_share_one_buffer() {
        // A relayed body is the same allocation end to end: wire size
        // and byte accounting come from the body length, and no copy
        // happens at any hop.
        let (mut net, ids) = Network::uniform(3, LinkSpec::new(1_000_000, SimTime::ZERO));
        let body = Bytes::from(vec![7u8; 500_000]);
        let origin = body.as_ref().as_ptr();
        net.send_body(ids[0], ids[1], "relay", body);
        let mut seen = Vec::new();
        net.run(|n, m| {
            let b = m.body.clone().expect("body travels with the message");
            assert_eq!(b.as_ref().as_ptr(), origin, "body must not be copied");
            assert_eq!(m.bytes, 500_000);
            seen.push((m.dst, n.now().as_micros()));
            if m.dst == StationId(1) {
                n.send_body(StationId(1), StationId(2), m.payload, b);
            }
        });
        assert_eq!(
            seen,
            vec![(StationId(1), 500_000), (StationId(2), 1_000_000)]
        );
        assert_eq!(net.total_bytes(), 1_000_000);
    }

    #[test]
    fn crash_kills_pending_timers_even_after_recovery() {
        let (mut net, ids) = Network::uniform(1, LinkSpec::lan());
        net.set_faults(
            FaultSchedule::new()
                .at(SimTime::from_secs(1), Fault::Crash { station: ids[0] })
                .at(SimTime::from_secs(2), Fault::Recover { station: ids[0] }),
        );
        net.schedule(ids[0], SimTime::from_millis(500), "before-crash");
        net.schedule(ids[0], SimTime::from_secs(5), "stale-after-recovery");
        let mut fired = Vec::new();
        net.run(|_, m| fired.push(m.payload));
        // Pre-crash timer fires; the one outlived by the crash does not.
        assert_eq!(fired, vec!["before-crash"]);
        // A timer set after recovery fires normally.
        net.schedule(ids[0], SimTime::from_secs(6), "fresh");
        net.run(|_, m| fired.push(m.payload));
        assert_eq!(fired, vec!["before-crash", "fresh"]);
    }
}
