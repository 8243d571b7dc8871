//! The island core: the one implementation of uplink-timed send, timer
//! minting, pop-and-deliver and sender-down accounting.
//!
//! An [`Island`] owns the mutable state of a set of stations (uplink
//! clocks, traffic counters, per-station tie-break counters) plus its
//! own event queue, clock, fault state and traffic totals. The three
//! public types are views of it that differ only in *where a prepared
//! envelope is enqueued*:
//!
//! * [`Network`](crate::Network) is one island plus a registry — every
//!   envelope joins its own queue;
//! * [`ParNet`](crate::ParNet) is a vector of islands — a main-thread
//!   send joins the destination island's queue;
//! * [`IslandCtx`](crate::IslandCtx) borrows one island during a
//!   window — a cross-island send joins the destination's mailbox.
//!
//! Every method that advances the fault state takes the registry to
//! count and trace fault events on: `Network` passes its own, the
//! parallel engine's islands a disabled one (their fault events are
//! replayed once, in `ParNet`, against the real registry).

use crate::event::EventQueue;
use crate::fault::{FaultState, SendError};
use crate::sim::Message;
use crate::time::SimTime;
use crate::topology::{StationId, StationState, StationStats, Topology};
use bytes::Bytes;
use obs::{Histogram, Registry};

/// Queue entry: the message plus what the fault layer needs to decide,
/// at delivery time, whether the transfer survived.
pub(crate) struct Envelope<P> {
    msg: Message<P>,
    /// When the send was issued (fault cut clocks compare against it).
    sent_at: SimTime,
    /// The path was already cut (or the receiver down) at send time.
    doomed: bool,
}

/// A prepared send: arrival time and partition-independent tie-break
/// key computed, sender charged — ready for whichever queue or mailbox
/// the view routes it to.
pub(crate) struct Parcel<P> {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) env: Envelope<P>,
}

/// Everything an island accumulates as traffic flows. Plain fields, so
/// the hot path never touches the registry; every field is a sum, a max
/// or a lossless-mergeable histogram, so per-island flows merge into
/// exactly the single-island totals.
#[derive(Clone)]
pub(crate) struct Flows {
    pub(crate) total_bytes: u64,
    pub(crate) total_msgs: u64,
    pub(crate) last_delivery: SimTime,
    pub(crate) dropped_msgs: u64,
    pub(crate) dropped_bytes: u64,
    send_doomed: u64,
    drop_in_flight: u64,
    drop_sender_down: u64,
    timers: u64,
    latency: Histogram,
}

impl Flows {
    pub(crate) fn new() -> Self {
        Flows {
            total_bytes: 0,
            total_msgs: 0,
            last_delivery: SimTime::ZERO,
            dropped_msgs: 0,
            dropped_bytes: 0,
            send_doomed: 0,
            drop_in_flight: 0,
            drop_sender_down: 0,
            timers: 0,
            latency: Histogram::new(obs::buckets::TIME_US),
        }
    }

    /// Fold another island's flows into this one. Sums, maxes and
    /// histogram merges only — order-independent by construction.
    pub(crate) fn absorb(&mut self, other: &Flows) {
        self.total_bytes += other.total_bytes;
        self.total_msgs += other.total_msgs;
        self.last_delivery = self.last_delivery.max(other.last_delivery);
        self.dropped_msgs += other.dropped_msgs;
        self.dropped_bytes += other.dropped_bytes;
        self.send_doomed += other.send_doomed;
        self.drop_in_flight += other.drop_in_flight;
        self.drop_sender_down += other.drop_sender_down;
        self.timers += other.timers;
        self.latency.merge_from(&other.latency);
    }
}

/// One island: an exclusively-owned slice of the simulation.
///
/// In the parallel engine `topo` is a full clone of the network
/// topology, but an island only ever *mutates* the stations it owns
/// (sends charge the source, deliveries the destination — both
/// island-local by routing); link specs and foreign uplink specs are
/// immutable construction-time data.
pub(crate) struct Island<P> {
    pub(crate) topo: Topology,
    pub(crate) queue: EventQueue<Envelope<P>>,
    pub(crate) now: SimTime,
    pub(crate) faults: Option<FaultState>,
    pub(crate) flows: Flows,
}

impl<P> Island<P> {
    pub(crate) fn new(topo: Topology) -> Self {
        Island {
            topo,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            faults: None,
            flows: Flows::new(),
        }
    }

    /// Apply every scheduled fault up to `to`, counting on `reg`.
    pub(crate) fn advance_faults(&mut self, to: SimTime, reg: &Registry) {
        if let Some(f) = &mut self.faults {
            f.advance(to, reg);
        }
    }

    /// Uplink-timed send from an owned station at the island's clock:
    /// the message queues behind `src`'s earlier sends, serializes at
    /// the path bandwidth and arrives one path latency later. Charges
    /// the sender's counters and mints the tie-break key.
    ///
    /// Inlined into each view's `post`: left to the inliner's own
    /// judgement, the one-island flood (E22's sequential row) runs 8 %
    /// slower.
    #[inline]
    pub(crate) fn prepare_send(
        &mut self,
        reg: &Registry,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
        body: Option<Bytes>,
    ) -> Result<Parcel<P>, SendError> {
        self.advance_faults(self.now, reg);
        let (path, doomed) = match &self.faults {
            None => (self.topo.path(src, dst), false),
            Some(f) if f.is_down(src) => return Err(SendError::SenderDown(src)),
            Some(f) => (
                f.apply(src, dst, self.topo.path(src, dst)),
                f.dooms(src, dst),
            ),
        };
        let s = &mut self.topo.stations[src.0 as usize];
        let start = s.uplink_free.max(self.now);
        let serialize = SimTime::transfer(bytes, path.bandwidth);
        let done = start + serialize;
        s.uplink_free = done;
        s.busy += serialize;
        s.tx_bytes += bytes;
        s.tx_msgs += 1;
        if doomed {
            self.flows.send_doomed += 1;
        }
        let msg = Message {
            src,
            dst,
            bytes,
            payload,
            body,
        };
        Ok(Parcel {
            at: done + path.latency,
            key: mint_key(s, src),
            env: Envelope {
                msg,
                sent_at: self.now,
                doomed,
            },
        })
    }

    /// Enqueue a prepared send bound for a station this island owns;
    /// returns its arrival time. The sender's uplink serializes
    /// transfers, so per-source arrivals are (almost always)
    /// nondecreasing: the event rides the uplink's queue lane.
    pub(crate) fn enqueue(&mut self, p: Parcel<P>) -> SimTime {
        self.queue
            .push_lane_keyed(p.env.msg.src.0 as usize, p.at, p.key, p.env);
        p.at
    }

    /// Count a send refused because its sender is down; returns the
    /// island's clock, which is what a refused `send` reports.
    pub(crate) fn refuse(&mut self, bytes: u64) -> SimTime {
        self.flows.dropped_msgs += 1;
        self.flows.dropped_bytes += bytes;
        self.flows.drop_sender_down += 1;
        self.now
    }

    /// Schedule a local timer on an owned station: no bandwidth, fires
    /// no earlier than the island's clock, dead on arrival if the
    /// station is down now.
    pub(crate) fn set_timer(
        &mut self,
        reg: &Registry,
        station: StationId,
        at: SimTime,
        payload: P,
    ) {
        self.advance_faults(self.now, reg);
        let doomed = self.faults.as_ref().is_some_and(|f| f.is_down(station));
        self.flows.timers += 1;
        let key = mint_key(&mut self.topo.stations[station.0 as usize], station);
        let msg = Message {
            src: station,
            dst: station,
            bytes: 0,
            payload,
            body: None,
        };
        let env = Envelope {
            msg,
            sent_at: self.now,
            doomed,
        };
        self.queue.push_keyed(at.max(self.now), key, env);
    }

    /// Pop events — none later than `until`, when given — advancing the
    /// clock and the fault state to each, until one survives the
    /// delivery-time fault checks; charge its receiver and return it.
    /// `None` when the queue (or the window) is exhausted. Inlined into
    /// each engine's run loop for the same measured reason as
    /// [`Island::prepare_send`].
    #[inline]
    pub(crate) fn next_delivery(
        &mut self,
        reg: &Registry,
        until: Option<SimTime>,
    ) -> Option<Message<P>> {
        loop {
            if let Some(end) = until {
                if self.queue.peek_time()? > end {
                    return None;
                }
            }
            let (at, env) = self.queue.pop()?;
            self.now = at;
            self.advance_faults(at, reg);
            let msg = env.msg;
            if let Some(f) = &self.faults {
                if env.doomed || f.cut_since(msg.src, msg.dst, env.sent_at) {
                    self.flows.dropped_msgs += 1;
                    self.flows.dropped_bytes += msg.bytes;
                    self.flows.drop_in_flight += 1;
                    continue;
                }
            }
            let d = &mut self.topo.stations[msg.dst.0 as usize];
            d.rx_bytes += msg.bytes;
            d.rx_msgs += 1;
            self.flows.total_bytes += msg.bytes;
            self.flows.total_msgs += 1;
            self.flows.last_delivery = at;
            self.flows.latency.record((at - env.sent_at).as_micros());
            return Some(msg);
        }
    }

    /// Traffic counters of an owned station.
    pub(crate) fn station_stats(&self, id: StationId) -> StationStats {
        let s = &self.topo.stations[id.0 as usize];
        StationStats {
            tx_bytes: s.tx_bytes,
            rx_bytes: s.rx_bytes,
            tx_msgs: s.tx_msgs,
            rx_msgs: s.rx_msgs,
        }
    }
}

/// The event-queue tie-break key `(station << 32) | per-station
/// counter`: a pure function of the station's own history, so tie order
/// is the same whether events share one queue or are split across
/// islands.
fn mint_key(s: &mut StationState, id: StationId) -> u64 {
    let key = (u64::from(id.0) << 32) | u64::from(s.seq);
    s.seq += 1;
    key
}

/// Export accumulated `netsim.*` metrics into `m` with idempotent
/// `*_set` primitives: `stations` in global id order, `flows` merged
/// over every island.
pub(crate) fn flush_metrics<'a>(
    m: &Registry,
    now: SimTime,
    stations: impl Iterator<Item = &'a StationState>,
    flows: &Flows,
) {
    if !m.is_enabled() {
        return;
    }
    let elapsed = now.as_micros();
    let mut tx_msgs = 0u64;
    let mut tx_bytes = 0u64;
    let mut busy_us = 0u64;
    let mut util = Histogram::new(obs::buckets::PCT);
    for s in stations {
        tx_msgs += s.tx_msgs;
        tx_bytes += s.tx_bytes;
        busy_us += s.busy.as_micros();
        if let Some(pct) = (s.busy.as_micros() * 100).checked_div(elapsed) {
            util.record(pct);
        }
    }
    m.counter_set("netsim.send.msgs", tx_msgs);
    m.counter_set("netsim.send.bytes", tx_bytes);
    m.counter_set("netsim.send.doomed", flows.send_doomed);
    m.counter_set("netsim.uplink.busy_us", busy_us);
    m.counter_set("netsim.deliver.msgs", flows.total_msgs);
    m.counter_set("netsim.deliver.bytes", flows.total_bytes);
    m.counter_set("netsim.drop.msgs", flows.dropped_msgs);
    m.counter_set("netsim.drop.bytes", flows.dropped_bytes);
    m.counter_set("netsim.drop.in_flight", flows.drop_in_flight);
    m.counter_set("netsim.drop.sender_down", flows.drop_sender_down);
    m.counter_set("netsim.timer.scheduled", flows.timers);
    m.gauge_set(
        "netsim.deliver.last_us",
        flows.last_delivery.as_micros() as i64,
    );
    m.histogram_set("netsim.deliver.latency_us", &flows.latency);
    if elapsed > 0 {
        m.histogram_set("netsim.uplink.utilization_pct", &util);
    }
}
