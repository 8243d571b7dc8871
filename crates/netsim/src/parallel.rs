//! Conservative parallel discrete-event simulation: the island core
//! run many-at-once, replaying **byte-identically** to the one-island
//! [`Network`].
//!
//! ## Model
//!
//! Stations are partitioned into *islands* — the same crate-private
//! core [`Network`] wraps one of. Each island owns the mutable state of
//! its stations (uplink clock, traffic counters, the per-station
//! tie-break counter) plus its own event queue, clock, fault-state
//! replica and traffic totals, so a worker thread can process its
//! islands' events with no shared mutable state. [`ParNet`] is the
//! vector of islands plus what only a many-island run needs: the
//! station → island owner map, the per-island mailboxes that carry
//! cross-island messages between window barriers, and the fault replay.
//! [`IslandCtx`] is the handler's borrow of one island during a window.
//! Send timing, timers, delivery and drop accounting are the core's;
//! the two types here only decide *where an envelope is enqueued* (the
//! destination island's queue from the main thread; the own queue or
//! the destination's mailbox from a handler).
//!
//! ## Lookahead and the window protocol
//!
//! The engine is *conservative*: an island only processes events it can
//! prove no other island will still invalidate. The proof is the
//! topology's minimum cross-island link latency *L* (scaled down by the
//! most aggressive `Degrade` in the fault schedule): any message sent
//! at time *t* arrives no earlier than *t + L*. Each round:
//!
//! 1. every island drains its mailbox into its queue and publishes its
//!    next event time; a barrier makes all published times visible;
//! 2. every worker computes the same global minimum *W*; the window is
//!    `[W, W + L)`. Each island pops and delivers its events strictly
//!    before `W + L`, appending cross-island sends to mailboxes. A
//!    message sent in-window departs at `now ≥ W` and so arrives at
//!    `≥ W + L` — never inside the current window, which is exactly
//!    why the window is safe to process without coordination;
//! 3. a second barrier ends the round; the loop exits when every
//!    island's queue is empty.
//!
//! Optimistic engines (time warp) reach further ahead and roll back on
//! conflict; rollback would have to undo handler side effects (user
//! state, traffic totals, shared `Bytes` bodies), which is
//! incompatible with arbitrary user handlers and with the repo's
//! byte-identity discipline. Conservative windows need no rollback and
//! make determinism a *structural* property: each island processes the
//! island-restricted subsequence of the global `(time, key)` event
//! order, and every quantity the one-island engine accumulates is
//! either per-station (owned by exactly one island) or a sum/max/
//! histogram-merge of per-island totals.
//!
//! ## Determinism contract
//!
//! For any island count and thread count, a [`ParNet`] run produces the
//! same delivered bytes, the same per-station stats and — after
//! [`ParNet::flush_metrics`] — a byte-identical obs snapshot to
//! [`Network`] with the same inputs, provided the handler is a pure
//! function of `(island-local state, message)` that records nothing in
//! the shared registry itself. Fault events are applied inside each
//! island as pure functions of time (against a disabled registry), and
//! replayed against the real registry — by every main-thread send or
//! timer and when a run completes — so `netsim.fault.*` counters and
//! traces, [`ParNet::is_down`] and [`ParNet::last_crash`] match
//! [`Network`] exactly. That replay is the only fault code the
//! many-island engine has of its own.
//!
//! [`Network`]: crate::Network

use crate::fault::{Fault, FaultSchedule, FaultState, SendError};
use crate::island::{self, Flows, Island, Parcel};
use crate::sim::{impl_net_ctx, Message};
use crate::time::SimTime;
use crate::topology::{LinkSpec, StationId, StationStats, Topology};
use bytes::Bytes;
use obs::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// The island-parallel network simulator. Mirrors the [`Network`] API;
/// see the module docs for the execution model and the determinism
/// contract.
///
/// [`Network`]: crate::Network
pub struct ParNet<P> {
    /// Never empty; between runs every island's clock reads the same.
    islands: Vec<Island<P>>,
    /// Station → index of the island owning it.
    owner: Vec<u32>,
    metrics: Registry,
    /// What the islands' fault replicas count on: nothing.
    silent: Registry,
    schedule: Option<FaultSchedule>,
    /// Fault replica advanced against the *real* registry, reproducing
    /// the one-island engine's `netsim.fault.*` counters and traces.
    replay: Option<FaultState>,
}

impl_net_ctx!(ParNet<P>);

impl<P> ParNet<P> {
    /// Wrap a topology, split into `islands` contiguous id ranges of
    /// near-equal size (at most one island per station). These do not
    /// keep an m-ary relay local: a node's children are `m·k + 1 …`, so
    /// most live on a later island (10 240 stations, m = 4, 16 islands:
    /// 9 600 of a broadcast's 10 239 messages cross islands).
    ///
    /// # Panics
    /// If `islands` is zero.
    #[must_use]
    pub fn new(topo: Topology, islands: usize) -> Self {
        assert!(islands > 0, "at least one island");
        let islands = islands.min(topo.len().max(1));
        let per = topo.len().div_ceil(islands);
        ParNet {
            owner: (0..topo.len()).map(|i| (i / per) as u32).collect(),
            islands: (0..islands).map(|_| Island::new(topo.clone())).collect(),
            metrics: Registry::new(),
            silent: Registry::disabled(),
            schedule: None,
            replay: None,
        }
    }

    /// Convenience: uniform network of `n` stations over `islands`
    /// islands.
    #[must_use]
    pub fn uniform(n: usize, uplink: LinkSpec, islands: usize) -> (Self, Vec<StationId>) {
        let mut topo = Topology::new();
        let ids = topo.add_stations(n, uplink);
        (Self::new(topo, islands), ids)
    }

    /// The metrics registry this network records into.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Replace the registry (see [`Network::set_metrics`]).
    ///
    /// [`Network::set_metrics`]: crate::Network::set_metrics
    pub fn set_metrics(&mut self, metrics: Registry) {
        self.metrics = metrics;
    }

    /// Current simulated time (the global clock: max over islands).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.islands[0].now
    }

    /// Number of stations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True if the network has no stations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Number of islands.
    #[must_use]
    pub fn islands(&self) -> usize {
        self.islands.len()
    }

    fn home(&self, id: StationId) -> usize {
        self.owner[id.0 as usize] as usize
    }

    fn home_mut(&mut self, id: StationId) -> &mut Island<P> {
        let home = self.home(id);
        &mut self.islands[home]
    }

    /// Inject a fault schedule (see [`Network::set_faults`]). Every
    /// island receives a replica; events apply at identical virtual
    /// times on every replica regardless of thread count, because the
    /// fault state is a pure function of (schedule, time).
    ///
    /// [`Network::set_faults`]: crate::Network::set_faults
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        for isl in &mut self.islands {
            isl.faults = Some(FaultState::new(schedule.clone()));
        }
        self.replay = Some(FaultState::new(schedule.clone()));
        self.schedule = Some(schedule);
    }

    /// Apply to the replay replica — and count on the real registry —
    /// every fault event up to the global clock, which is how far
    /// [`Network`] has applied them at the same point.
    ///
    /// [`Network`]: crate::Network
    fn advance_replay(&mut self) {
        let now = self.now();
        if let Some(f) = &mut self.replay {
            f.advance(now, &self.metrics);
        }
    }

    /// True if `id` is currently crashed (fault events applied so far).
    #[must_use]
    pub fn is_down(&self, id: StationId) -> bool {
        self.replay.as_ref().is_some_and(|f| f.is_down(id))
    }

    /// Time of `id`'s most recent crash, if any (see
    /// [`Network::last_crash`]).
    ///
    /// [`Network::last_crash`]: crate::Network::last_crash
    #[must_use]
    pub fn last_crash(&self, id: StationId) -> Option<SimTime> {
        self.replay.as_ref().and_then(|f| f.last_crash(id))
    }

    /// Send `bytes` from `src` to `dst` at the current global time
    /// (main-thread API, identical semantics to [`Network::send`]).
    ///
    /// [`Network::send`]: crate::Network::send
    pub fn send(&mut self, src: StationId, dst: StationId, bytes: u64, payload: P) -> SimTime {
        self.post(src, dst, bytes, payload, None)
            .unwrap_or_else(|_| self.home_mut(src).refuse(bytes))
    }

    /// Send an object body (see [`Network::send_body`]).
    ///
    /// [`Network::send_body`]: crate::Network::send_body
    pub fn send_body(
        &mut self,
        src: StationId,
        dst: StationId,
        payload: P,
        body: Bytes,
    ) -> SimTime {
        let bytes = body.len() as u64;
        self.post(src, dst, bytes, payload, Some(body))
            .unwrap_or_else(|_| self.home_mut(src).refuse(bytes))
    }

    /// Like [`ParNet::send`], but errs when the sender is crashed.
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

    /// Main thread, no window open: the source's island prepares the
    /// envelope, the destination's island queues it directly.
    fn post(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
        body: Option<Bytes>,
    ) -> Result<SimTime, SendError> {
        self.advance_replay();
        let (si, di) = (self.home(src), self.home(dst));
        let parcel = self.islands[si].prepare_send(&self.silent, src, dst, bytes, payload, body)?;
        Ok(self.islands[di].enqueue(parcel))
    }

    /// Schedule a local timer (see [`Network::schedule`]).
    ///
    /// [`Network::schedule`]: crate::Network::schedule
    pub fn schedule(&mut self, station: StationId, at: SimTime, payload: P) {
        self.advance_replay();
        let home = self.home(station);
        self.islands[home].set_timer(&self.silent, station, at, payload);
    }

    /// Conservative lookahead in microseconds: the smallest latency any
    /// cross-island message can experience, accounting for the most
    /// aggressive scheduled `Degrade`. `None` with a single island
    /// (no cross-island traffic exists, the window is unbounded).
    ///
    /// # Panics
    /// If the bound is zero — zero-latency cross-island links admit no
    /// conservative window; use fewer islands or add latency.
    fn lookahead_micros(&self) -> Option<u64> {
        if self.islands.len() <= 1 {
            return None;
        }
        let topo = &self.islands[0].topo;
        let mut min_lat = u64::MAX;
        for s in &topo.stations {
            min_lat = min_lat.min(s.uplink.latency.as_micros());
        }
        for (&(src, dst), spec) in &topo.links {
            if self.home(src) != self.home(dst) {
                min_lat = min_lat.min(spec.latency.as_micros());
            }
        }
        let mut factor = 1.0f64;
        if let Some(s) = &self.schedule {
            for &(_, f) in s.events() {
                if let Fault::Degrade { latency_factor, .. } = f {
                    factor = factor.min(latency_factor);
                }
            }
        }
        let la = if min_lat == u64::MAX {
            u64::MAX
        } else {
            (min_lat as f64 * factor.clamp(0.0, 1.0)).floor() as u64
        };
        assert!(
            la > 0,
            "parallel simulation requires positive cross-island lookahead: \
             the minimum cross-island latency (after scheduled degrades) is 0"
        );
        Some(la)
    }

    /// The lookahead window the next [`ParNet::run`] would use, for
    /// diagnostics. `None` with a single island.
    #[must_use]
    pub fn lookahead(&self) -> Option<SimTime> {
        self.lookahead_micros().map(SimTime::from_micros)
    }

    /// Run until every island's queue drains, delivering each message
    /// to `handler` on the owning island's worker thread.
    ///
    /// `states` carries one user state per island (index = island id),
    /// moved into the workers and returned in island order — the
    /// parallel analogue of the `FnMut` closure state a sequential
    /// [`Network::run`] handler captures. The handler may send from and
    /// schedule on *island-local* stations only (it is invoked with the
    /// delivered message, whose destination is island-local) and must
    /// not write to the shared metrics registry — both are enforced or
    /// covered by the determinism contract in the module docs.
    ///
    /// `threads` worker threads process `islands % threads`-strided
    /// island sets; any value is clamped to `[1, islands]`. The result
    /// is byte-identical for every choice.
    ///
    /// [`Network::run`]: crate::Network::run
    pub fn run<S, H>(&mut self, threads: usize, mut states: Vec<S>, handler: H) -> Vec<S>
    where
        P: Send,
        S: Send,
        H: Fn(&mut IslandCtx<'_, P>, &mut S, Message<P>) + Sync,
    {
        let n = self.islands.len();
        assert_eq!(states.len(), n, "one handler state per island");
        let threads = threads.clamp(1, n);
        let shared = Shared {
            owner: &self.owner,
            mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            next_at: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            barrier: Barrier::new(threads),
            lookahead: self.lookahead_micros(),
            silent: &self.silent,
        };

        // Round-robin islands (with their states) across workers.
        let mut buckets: Vec<Vec<(usize, &mut Island<P>, &mut S)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (idx, (isl, st)) in self.islands.iter_mut().zip(states.iter_mut()).enumerate() {
            buckets[idx % threads].push((idx, isl, st));
        }

        std::thread::scope(|scope| {
            let (shared, handler) = (&shared, &handler);
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| scope.spawn(move || worker(bucket, shared, handler)))
                .collect();
            // Joining inside the scope surfaces worker panics directly.
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });

        // One global clock again: the one-island engine's `now` is the
        // time of the last popped event, i.e. the max island clock.
        let now = self.islands.iter().map(|i| i.now).max();
        let now = now.expect("at least one island");
        for isl in &mut self.islands {
            isl.now = now;
        }
        self.advance_replay();
        states
    }

    /// Total bytes delivered so far (all islands).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.islands.iter().map(|i| i.flows.total_bytes).sum()
    }

    /// Total messages delivered so far (all islands).
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        self.islands.iter().map(|i| i.flows.total_msgs).sum()
    }

    /// Time of the most recent delivery on any island.
    #[must_use]
    pub fn last_delivery(&self) -> SimTime {
        let last = self.islands.iter().map(|i| i.flows.last_delivery).max();
        last.unwrap_or(SimTime::ZERO)
    }

    /// Messages dropped by fault injection so far (all islands).
    #[must_use]
    pub fn dropped_msgs(&self) -> u64 {
        self.islands.iter().map(|i| i.flows.dropped_msgs).sum()
    }

    /// Bytes dropped by fault injection so far (all islands).
    #[must_use]
    pub fn dropped_bytes(&self) -> u64 {
        self.islands.iter().map(|i| i.flows.dropped_bytes).sum()
    }

    /// Per-station counters, read from the owning island's copy.
    #[must_use]
    pub fn station_stats(&self, id: StationId) -> StationStats {
        self.islands[self.home(id)].station_stats(id)
    }

    /// Export the merged `netsim.*` metrics, byte-identical to what the
    /// one-island engine would flush after the same run. Island flows
    /// fold with sums, maxes and lossless histogram merges (all
    /// order-independent); stations are read in global id order from
    /// their owning islands.
    pub fn flush_metrics(&self) {
        let mut merged = Flows::new();
        for isl in &self.islands {
            merged.absorb(&isl.flows);
        }
        let stations = self.owner.iter().enumerate();
        island::flush_metrics(
            &self.metrics,
            self.now(),
            stations.map(|(i, &o)| &self.islands[o as usize].topo.stations[i]),
            &merged,
        );
    }
}

/// What every worker (and every [`IslandCtx`]) of one run shares.
struct Shared<'a, P> {
    owner: &'a [u32],
    /// Cross-island sends waiting for the next barrier, per destination.
    mailboxes: Vec<Mutex<Vec<Parcel<P>>>>,
    /// Each island's next event time, published between the barriers.
    next_at: Vec<AtomicU64>,
    barrier: Barrier,
    lookahead: Option<u64>,
    silent: &'a Registry,
}

impl<P> Shared<'_, P> {
    fn mailbox(&self, island: usize) -> std::sync::MutexGuard<'_, Vec<Parcel<P>>> {
        self.mailboxes[island]
            .lock()
            .expect("a worker panicked; the scope is already unwinding")
    }
}

/// The per-window worker loop: inject mail, agree on a window, process
/// it. See the module docs for the protocol argument.
fn worker<P, S, H>(
    mut bucket: Vec<(usize, &mut Island<P>, &mut S)>,
    shared: &Shared<'_, P>,
    handler: &H,
) where
    H: Fn(&mut IslandCtx<'_, P>, &mut S, Message<P>),
{
    let mut outbox: Vec<Vec<Parcel<P>>> = shared.mailboxes.iter().map(|_| Vec::new()).collect();
    loop {
        // Phase 1: deliver the mail, publish next event times.
        for (idx, isl, _) in &mut bucket {
            let mut mail = std::mem::take(&mut *shared.mailbox(*idx));
            mail.sort_by_key(|p| (p.at, p.key));
            for p in mail {
                isl.queue.push_keyed(p.at, p.key, p.env);
            }
            let next = isl.queue.peek_time().map_or(u64::MAX, SimTime::as_micros);
            shared.next_at[*idx].store(next, Ordering::Relaxed);
        }
        shared.barrier.wait();

        // Every worker computes the same window start (all times are
        // published and frozen between the two barriers).
        let next_at = shared.next_at.iter().map(|a| a.load(Ordering::Relaxed));
        let w = next_at.min().unwrap_or(u64::MAX);
        if w == u64::MAX {
            break; // all queues empty everywhere — unanimous by the barrier
        }
        // Last instant strictly inside [w, w + lookahead).
        let until = shared
            .lookahead
            .map(|l| SimTime::from_micros(w.saturating_add(l) - 1));

        // Phase 2: process everything inside the window.
        for (idx, isl, state) in &mut bucket {
            while let Some(msg) = isl.next_delivery(shared.silent, until) {
                let mut ctx = IslandCtx {
                    idx: *idx,
                    island: isl,
                    shared,
                    until,
                    outbox: &mut outbox,
                };
                handler(&mut ctx, state, msg);
            }
        }
        for (di, mail) in outbox.iter_mut().enumerate().filter(|(_, m)| !m.is_empty()) {
            shared.mailbox(di).append(mail);
        }
        shared.barrier.wait();
    }
}

/// Handler-side view of one island during a window: the API a handler
/// uses to react to a delivery, mirroring the `&mut Network` the
/// sequential handler receives.
pub struct IslandCtx<'a, P> {
    idx: usize,
    island: &'a mut Island<P>,
    shared: &'a Shared<'a, P>,
    /// End of the current window (`None`: one island, unbounded).
    until: Option<SimTime>,
    /// This worker's cross-island sends of the window, per destination.
    outbox: &'a mut [Vec<Parcel<P>>],
}

impl_net_ctx!(IslandCtx<'_, P>);

impl<P> IslandCtx<'_, P> {
    /// Current simulated time on this island (the time of the delivery
    /// being handled).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.island.now
    }

    /// True if `id` is currently crashed.
    #[must_use]
    pub fn is_down(&self, id: StationId) -> bool {
        self.island.faults.as_ref().is_some_and(|f| f.is_down(id))
    }

    /// Time of `id`'s most recent crash, if any.
    #[must_use]
    pub fn last_crash(&self, id: StationId) -> Option<SimTime> {
        self.island.faults.as_ref().and_then(|f| f.last_crash(id))
    }

    /// Send from an island-local station (semantics of
    /// [`Network::send`]).
    ///
    /// # Panics
    /// If `src` is not owned by this island — a handler may only act
    /// for stations whose state its island owns.
    ///
    /// [`Network::send`]: crate::Network::send
    pub fn send(&mut self, src: StationId, dst: StationId, bytes: u64, payload: P) -> SimTime {
        self.post(src, dst, bytes, payload, None)
            .unwrap_or_else(|_| self.island.refuse(bytes))
    }

    /// Send an object body from an island-local station (semantics of
    /// [`Network::send_body`]).
    ///
    /// # Panics
    /// If `src` is not owned by this island.
    ///
    /// [`Network::send_body`]: crate::Network::send_body
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

    /// Like [`IslandCtx::send`], but errs when the sender is crashed.
    ///
    /// # Errors
    /// [`SendError::SenderDown`] if `src` is down at the current time.
    ///
    /// # Panics
    /// If `src` is not owned by this island.
    pub fn try_send(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
    ) -> Result<SimTime, SendError> {
        self.post(src, dst, bytes, payload, None)
    }

    /// Inside a window: an island-local envelope joins the own queue, a
    /// cross-island one waits in the worker's outbox, and from the end
    /// of the window in the destination's mailbox, for the next barrier.
    fn post(
        &mut self,
        src: StationId,
        dst: StationId,
        bytes: u64,
        payload: P,
        body: Option<Bytes>,
    ) -> Result<SimTime, SendError> {
        assert_eq!(
            self.shared.owner[src.0 as usize] as usize, self.idx,
            "handlers may only send from stations their island owns"
        );
        let parcel =
            self.island
                .prepare_send(self.shared.silent, src, dst, bytes, payload, body)?;
        let di = self.shared.owner[dst.0 as usize] as usize;
        if di == self.idx {
            return Ok(self.island.enqueue(parcel));
        }
        // The conservative-window safety argument in one assert:
        // nothing sent in this window may land inside it.
        assert!(
            self.until.is_some_and(|end| parcel.at > end),
            "cross-island arrival inside the current window — lookahead bound violated"
        );
        let at = parcel.at;
        self.outbox[di].push(parcel);
        Ok(at)
    }

    /// Schedule a timer on an island-local station (semantics of
    /// [`Network::schedule`]).
    ///
    /// # Panics
    /// If `station` is not owned by this island — a timer is volatile
    /// local state of its station.
    ///
    /// [`Network::schedule`]: crate::Network::schedule
    pub fn schedule(&mut self, station: StationId, at: SimTime, payload: P) {
        assert_eq!(
            self.shared.owner[station.0 as usize] as usize, self.idx,
            "handlers may only schedule on stations their island owns"
        );
        self.island
            .set_timer(self.shared.silent, station, at, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NetCtx, Network};

    type Flood = (u32, u64);

    /// What the handler itself observes, summed over islands.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Tally {
        timers_set: u64,
        timers_fired: u64,
        bodies: u64,
    }

    /// A relay flood, written once for both engines: every delivery
    /// under `hops` forwards to two pseudo-random destinations — one
    /// plain `send`, one `send_body` or `try_send` — and every third
    /// also arms a timer that continues the flood when it fires.
    /// Exercises cross-island traffic, time ties, the lane fast path
    /// and timers that a later crash of their station kills.
    fn flood<C: NetCtx<Flood>>(net: &mut C, n: u64, tally: &mut Tally, msg: Message<Flood>) {
        let (hop, salt) = msg.payload;
        let here = msg.dst;
        assert!(!net.is_down(here), "nothing is delivered at a down station");
        tally.timers_fired += u64::from(msg.bytes == 0);
        tally.bodies += u64::from(msg.body.is_some());
        if hop == 0 {
            return;
        }
        let pick = |k: u64| {
            let mixed = salt.wrapping_mul(2 + k).wrapping_add(u64::from(hop));
            StationId((mixed % n) as u32)
        };
        let bytes = 10_000 + salt % 1000;
        net.send(here, pick(0), bytes, (hop - 1, salt));
        let next = (hop - 1, salt.wrapping_add(1));
        if salt % 2 == 0 {
            net.send_body(here, pick(1), next, Bytes::from(vec![0u8; bytes as usize]));
        } else {
            net.try_send(here, pick(1), bytes, next)
                .expect("the handling station is up");
        }
        if salt % 3 == 0 {
            let fire = net.now() + SimTime::from_millis(20);
            net.schedule(here, fire, (hop - 1, salt.wrapping_add(2)));
            tally.timers_set += 1;
        }
    }

    /// The main-thread kick-off, also written once: four flood seeds,
    /// two timers on station 9 (the crashy schedule takes it down
    /// between them) and a `try_send` / `send` pair from station 23
    /// (down at t=0 under the crashy schedule).
    fn kick_off<C: NetCtx<Flood>>(net: &mut C, ids: &[StationId]) -> Result<SimTime, SendError> {
        for (i, &src) in ids.iter().enumerate().take(4) {
            net.send(src, ids[(i + 7) % ids.len()], 50_000, (5u32, i as u64 + 1));
        }
        net.schedule(ids[9], SimTime::from_millis(5), (1, 40));
        net.schedule(ids[9], SimTime::from_millis(20), (1, 41));
        net.send(ids[23], ids[1], 30_000, (1, 42));
        net.try_send(ids[23], ids[0], 20_000, (2, 43))
    }

    fn spec() -> LinkSpec {
        LinkSpec::new(1_000_000, SimTime::from_millis(5))
    }

    /// Everything a run leaves behind that the two engines must agree
    /// on, byte for byte.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        snapshot: String,
        kick: Result<SimTime, SendError>,
        down_after_kick: (bool, Option<SimTime>),
        delivered: (u64, u64),
        dropped: (u64, u64),
        now: SimTime,
        stations: Vec<StationStats>,
        tally: Tally,
    }

    /// Both engines answer these under the same inherent names.
    macro_rules! outcome {
        ($net:ident, $ids:ident, $kick:ident, $down_after_kick:ident, $tally:ident) => {
            Outcome {
                snapshot: $net.metrics().snapshot().to_json(),
                kick: $kick,
                down_after_kick: $down_after_kick,
                delivered: ($net.total_msgs(), $net.total_bytes()),
                dropped: ($net.dropped_msgs(), $net.dropped_bytes()),
                now: $net.now(),
                stations: $ids.iter().map(|&id| $net.station_stats(id)).collect(),
                tally: $tally,
            }
        };
    }

    fn seq_outcome(faults: Option<FaultSchedule>) -> Outcome {
        let (mut net, ids) = Network::uniform(24, spec());
        if let Some(f) = faults {
            net.set_faults(f);
        }
        let kick = kick_off(&mut net, &ids);
        let down_after_kick = (net.is_down(ids[23]), net.last_crash(ids[23]));
        let mut tally = Tally::default();
        net.run(|net, msg| flood(net, 24, &mut tally, msg));
        net.flush_metrics();
        outcome!(net, ids, kick, down_after_kick, tally)
    }

    fn par_outcome(islands: usize, threads: usize, faults: Option<FaultSchedule>) -> Outcome {
        let (mut net, ids) = ParNet::uniform(24, spec(), islands);
        if let Some(f) = faults {
            net.set_faults(f);
        }
        let kick = kick_off(&mut net, &ids);
        let down_after_kick = (net.is_down(ids[23]), net.last_crash(ids[23]));
        let tallies = net.run(
            threads,
            vec![Tally::default(); islands],
            |ctx, tally, msg| flood(ctx, 24, tally, msg),
        );
        net.flush_metrics();
        let mut tally = Tally::default();
        for t in tallies {
            tally.timers_set += t.timers_set;
            tally.timers_fired += t.timers_fired;
            tally.bodies += t.bodies;
        }
        outcome!(net, ids, kick, down_after_kick, tally)
    }

    const CELLS: [(usize, usize); 4] = [(1, 1), (3, 2), (8, 4), (24, 8)];

    #[test]
    fn parallel_matches_sequential_healthy() {
        let seq = seq_outcome(None);
        assert!(seq.kick.is_ok());
        assert!(seq.tally.timers_set > 0 && seq.tally.bodies > 0);
        // Healthy: every timer armed (two of them by the kick-off) fires.
        assert_eq!(seq.tally.timers_fired, seq.tally.timers_set + 2);
        for (islands, threads) in CELLS {
            assert_eq!(
                par_outcome(islands, threads, None),
                seq,
                "islands={islands} threads={threads}"
            );
        }
    }

    fn crashy_schedule() -> FaultSchedule {
        let (crash, recover) = (
            |station| Fault::Crash { station },
            |station| Fault::Recover { station },
        );
        let (src, dst) = (StationId(1), StationId(20));
        FaultSchedule::new()
            .at(SimTime::ZERO, crash(StationId(23)))
            .at(SimTime::from_millis(10), recover(StationId(23)))
            .at(SimTime::from_millis(12), crash(StationId(9)))
            .at(SimTime::from_millis(30), Fault::Partition { src, dst })
            .at(SimTime::from_millis(45), recover(StationId(9)))
            .at(SimTime::from_millis(60), Fault::Heal { src, dst })
            // Mid-flood: kills timers armed by handlers at station 4.
            .at(SimTime::from_millis(90), crash(StationId(4)))
            .at(SimTime::from_millis(140), recover(StationId(4)))
    }

    #[test]
    fn parallel_matches_sequential_under_faults() {
        let seq = seq_outcome(Some(crashy_schedule()));
        assert_eq!(seq.kick, Err(SendError::SenderDown(StationId(23))));
        assert_eq!(seq.down_after_kick, (true, Some(SimTime::ZERO)));
        assert!(seq.dropped.0 > 0);
        // Crashes killed timers: the kick-off's second one on station
        // 9 for certain.
        assert!(seq.tally.timers_fired > 0);
        assert!(seq.tally.timers_fired < seq.tally.timers_set + 2);
        for (islands, threads) in CELLS.into_iter().chain([(3, 3), (8, 2), (6, 8)]) {
            assert_eq!(
                par_outcome(islands, threads, Some(crashy_schedule())),
                seq,
                "islands={islands} threads={threads}"
            );
        }
    }

    #[test]
    fn main_thread_send_applies_due_faults_before_any_run() {
        // Like `Network`: a main-thread step applies what is due, so
        // `is_down` / `last_crash` / `netsim.fault.*` never wait for the
        // end of the next `run`.
        let (mut net, ids) = ParNet::uniform(6, spec(), 3);
        net.set_faults(FaultSchedule::new().at(SimTime::ZERO, Fault::Crash { station: ids[3] }));
        assert!(
            !net.is_down(ids[3]),
            "nothing applied before the first step"
        );
        net.send(ids[0], ids[1], 100, 0u8);
        assert!(net.is_down(ids[3]));
        assert_eq!(net.last_crash(ids[3]), Some(SimTime::ZERO));
        assert_eq!(net.metrics().snapshot().counter("netsim.fault.crash"), 1);
        net.run(2, vec![(); 3], |_, _, _| {});
        assert_eq!(net.metrics().snapshot().counter("netsim.fault.crash"), 1);
    }

    #[test]
    fn station_stats_match_sequential() {
        let (mut net, ids) = Network::uniform(6, spec());
        net.send(ids[0], ids[5], 40_000, (3u32, 1u64));
        let mut tally = Tally::default();
        net.run(|net, msg| flood(net, 6, &mut tally, msg));

        let (mut par, pids) = ParNet::uniform(6, spec(), 3);
        par.send(pids[0], pids[5], 40_000, (3u32, 1u64));
        par.run(2, vec![Tally::default(); 3], |ctx, tally, msg| {
            flood(ctx, 6, tally, msg)
        });

        for &id in &ids {
            assert_eq!(par.station_stats(id), net.station_stats(id));
        }
        assert_eq!(par.last_delivery(), net.last_delivery());
    }

    #[test]
    fn degrade_shrinks_lookahead() {
        let (mut net, _) = ParNet::<u8>::uniform(8, spec(), 4);
        assert_eq!(net.lookahead(), Some(SimTime::from_millis(5)));
        net.set_faults(FaultSchedule::new().at(
            SimTime::from_millis(1),
            Fault::Degrade {
                src: StationId(0),
                dst: StationId(7),
                bandwidth_factor: 1.0,
                latency_factor: 0.25,
            },
        ));
        assert_eq!(net.lookahead(), Some(SimTime::from_micros(1250)));
    }

    #[test]
    #[should_panic(expected = "positive cross-island lookahead")]
    fn zero_latency_cross_island_panics() {
        let (mut net, ids) = ParNet::uniform(4, LinkSpec::new(1_000_000, SimTime::ZERO), 2);
        net.send(ids[0], ids[3], 100, 0u8);
        net.run(2, vec![(); 2], |_, _, _| {});
    }

    #[test]
    fn single_island_allows_zero_latency() {
        let (mut net, ids) = ParNet::uniform(3, LinkSpec::new(1_000_000, SimTime::ZERO), 1);
        net.send(ids[0], ids[1], 1_000_000, 0u8);
        let got = net.run(1, vec![Vec::new()], |ctx, log: &mut Vec<u64>, msg| {
            log.push(ctx.now().as_micros());
            if msg.dst == StationId(1) {
                ctx.send(msg.dst, StationId(2), msg.bytes, msg.payload);
            }
        });
        assert_eq!(got, vec![vec![1_000_000, 2_000_000]]);
        assert_eq!(net.now(), SimTime::from_secs(2));
    }
}
