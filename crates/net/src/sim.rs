//! Deterministic logical-time network simulation.
//!
//! A [`SimNet`] owns every endpoint's inbox and a global event queue ordered
//! by logical delivery time. Tests drive it single-threadedly: `send` now,
//! [`SimNet::advance`] to the next delivery, or [`SimNet::run_until_quiet`]
//! to drain all in-flight traffic. All randomness (latency jitter, drops)
//! comes from one seeded RNG, so every run is reproducible.
//!
//! Crash semantics: [`SimNet::crash`] discards the endpoint's inbox and
//! in-flight traffic to it, and emits [`NetEvent::ConnectionClosed`] to every
//! peer with an open connection (any peer that exchanged a message with the
//! endpoint since its last restart). [`SimNet::restart`] models the forking
//! daemon bringing up a fresh child process: the endpoint is reachable again
//! with a clean connection table.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};

/// Latency model for message delivery.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Latency {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniformly distributed in `[lo, hi]` ticks.
    Uniform(u64, u64),
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Fixed(1)
    }
}

/// Configuration for a [`SimNet`].
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Latency model.
    pub latency: Latency,
    /// Probability each message is silently dropped.
    pub drop_rate: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: Latency::default(),
            drop_rate: 0.0,
        }
    }
}

#[derive(Debug)]
struct InFlight {
    due: u64,
    from: Addr,
    to: Addr,
    payload: Bytes,
}

/// A set of peer addresses stored as a bitmask. `insert`/`remove` are
/// single word ops and iteration yields addresses in ascending order
/// without sorting or allocating — the deterministic closure-event order
/// [`SimNet::crash`] needs, on the hot path of every exploit probe.
#[derive(Debug, Default)]
struct ConnSet {
    words: Vec<u64>,
}

impl ConnSet {
    fn insert(&mut self, addr: Addr) {
        let i = addr.raw() as usize;
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    fn remove(&mut self, addr: Addr) {
        let i = addr.raw() as usize;
        if let Some(word) = self.words.get_mut(i / 64) {
            *word &= !(1 << (i % 64));
        }
    }

    /// Zeroes the set, keeping the backing allocation for reuse.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Set members in ascending address order.
    fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(Addr::from_raw((w * 64) as u32 + b))
            })
        })
    }
}

#[derive(Debug, Default)]
struct EndpointState {
    name: String,
    inbox: VecDeque<NetEvent>,
    /// Peers with an open connection since the last restart.
    connections: ConnSet,
    crashed: bool,
}

/// One scheduled cut in the partition schedule: traffic from `a` to `b`
/// (and, unless `oneway`, from `b` to `a`) is dropped while the logical
/// clock is in `[from_tick, until_tick)`.
#[derive(Debug)]
struct Cut {
    a: HashSet<Addr>,
    b: HashSet<Addr>,
    from_tick: u64,
    until_tick: u64,
    oneway: bool,
}

impl Cut {
    fn severs(&self, now: u64, from: Addr, to: Addr) -> bool {
        if now < self.from_tick || now >= self.until_tick {
            return false;
        }
        (self.a.contains(&from) && self.b.contains(&to))
            || (!self.oneway && self.b.contains(&from) && self.a.contains(&to))
    }
}

/// The deterministic simulated network. See the [module docs](self).
#[derive(Debug)]
pub struct SimNet {
    config: SimConfig,
    rng: StdRng,
    now: u64,
    seq: u64,
    /// Endpoint slots. Only the first `live` are registered; slots past
    /// the watermark are kept after [`SimNet::trial_reset`] so their
    /// buffers can be recycled by the next trial's registrations.
    endpoints: Vec<EndpointState>,
    live: usize,
    /// FIFO delivery queue used for [`Latency::Fixed`]: due times are
    /// non-decreasing in send order (the clock is monotonic), so
    /// `(due, seq)` heap order equals insertion order and a ring buffer
    /// replaces the heap + side map entirely.
    fifo: VecDeque<InFlight>,
    /// Heap + side-map path for [`Latency::Uniform`], where jitter
    /// reorders deliveries.
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    in_flight: HashMap<u64, InFlight>,
    cuts: Vec<Cut>,
    stats: NetStats,
}

impl SimNet {
    /// Creates a network with the given configuration.
    pub fn new(config: SimConfig) -> SimNet {
        SimNet {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            now: 0,
            seq: 0,
            endpoints: Vec::new(),
            live: 0,
            fifo: VecDeque::new(),
            queue: BinaryHeap::new(),
            in_flight: HashMap::new(),
            cuts: Vec::new(),
            stats: NetStats::default(),
        }
    }

    fn fixed_latency(&self) -> bool {
        matches!(self.config.latency, Latency::Fixed(_))
    }

    /// Registers a named endpoint and returns its address.
    pub fn register(&mut self, name: &str) -> Addr {
        let addr = Addr::from_raw(self.live as u32);
        if self.live < self.endpoints.len() {
            // Recycle a slot parked by `trial_reset`: same address, fresh
            // state, no new allocations when the name fits.
            let ep = &mut self.endpoints[self.live];
            ep.name.clear();
            ep.name.push_str(name);
            ep.inbox.clear();
            ep.connections.clear();
            ep.crashed = false;
        } else {
            self.endpoints.push(EndpointState {
                name: name.to_owned(),
                ..EndpointState::default()
            });
        }
        self.live += 1;
        addr
    }

    /// Number of live registered endpoints — the natural `keep_endpoints`
    /// watermark to capture right after assembly.
    pub fn endpoint_count(&self) -> usize {
        self.live
    }

    /// Rewinds the network to its just-constructed state under a fresh
    /// `seed`, keeping the first `keep_endpoints` registrations (their
    /// addresses and names stay valid) and every buffer allocation.
    /// Endpoints registered after the watermark are forgotten; their
    /// slots are recycled by later [`SimNet::register`] calls, which
    /// hand out the same addresses again.
    ///
    /// # Panics
    ///
    /// Panics if `keep_endpoints` exceeds the live registration count.
    pub fn trial_reset(&mut self, seed: u64, keep_endpoints: usize) {
        assert!(
            keep_endpoints <= self.live,
            "watermark beyond live endpoints"
        );
        self.config.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self.now = 0;
        self.seq = 0;
        self.fifo.clear();
        self.queue.clear();
        self.in_flight.clear();
        self.cuts.clear();
        self.stats = NetStats::default();
        for ep in &mut self.endpoints[..self.live] {
            ep.inbox.clear();
            ep.connections.clear();
            ep.crashed = false;
        }
        self.live = keep_endpoints;
    }

    /// The name an endpoint registered under.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    pub fn name(&self, addr: Addr) -> &str {
        &self.endpoints[addr.raw() as usize].name
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Transport counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends `payload` from `from` to `to`, subject to drops and partitions.
    ///
    /// Sending to a crashed endpoint dead-letters the message and reports
    /// the closed connection back to the sender — exactly what a TCP client
    /// of a crashed server would see.
    ///
    /// # Panics
    ///
    /// Panics if either address was not issued by this network.
    pub fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        assert!((from.raw() as usize) < self.live, "unknown sender");
        assert!((to.raw() as usize) < self.live, "unknown receiver");
        self.stats.sent += 1;

        if self.endpoints[to.raw() as usize].crashed {
            self.stats.dead_lettered += 1;
            self.push_event(from, NetEvent::ConnectionClosed { peer: to, at: self.now });
            return;
        }
        if self.is_partitioned(from, to) {
            self.stats.dropped += 1;
            return;
        }
        if self.config.drop_rate > 0.0 && self.rng.gen::<f64>() < self.config.drop_rate {
            self.stats.dropped += 1;
            return;
        }

        let latency = match self.config.latency {
            Latency::Fixed(l) => l,
            Latency::Uniform(lo, hi) => self.rng.gen_range(lo..=hi),
        };
        let due = self.now + latency.max(1);
        let msg = InFlight { due, from, to, payload };
        if self.fixed_latency() {
            self.fifo.push_back(msg);
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Reverse((due, seq)));
            self.in_flight.insert(seq, msg);
        }
    }

    /// Advances logical time to the next delivery and delivers every message
    /// due at that instant. Returns `false` when nothing is in flight.
    pub fn advance(&mut self) -> bool {
        if self.fixed_latency() {
            let Some(due) = self.fifo.front().map(|m| m.due) else {
                return false;
            };
            self.now = due;
            while self.fifo.front().is_some_and(|m| m.due == due) {
                let msg = self.fifo.pop_front().expect("peeked");
                self.deliver(msg);
            }
            return true;
        }
        let Some(Reverse((due, _))) = self.queue.peek().copied() else {
            return false;
        };
        self.now = due;
        while let Some(Reverse((t, seq))) = self.queue.peek().copied() {
            if t != due {
                break;
            }
            self.queue.pop();
            if let Some(msg) = self.in_flight.remove(&seq) {
                self.deliver(msg);
            }
        }
        true
    }

    /// Runs [`SimNet::advance`] until no traffic is in flight.
    pub fn run_until_quiet(&mut self) {
        while self.advance() {}
    }

    fn deliver(&mut self, msg: InFlight) {
        let to_state = &mut self.endpoints[msg.to.raw() as usize];
        if to_state.crashed {
            // Crashed while the message was in flight.
            self.stats.dead_lettered += 1;
            self.push_event(msg.from, NetEvent::ConnectionClosed { peer: msg.to, at: self.now });
            return;
        }
        to_state.connections.insert(msg.from);
        to_state.inbox.push_back(NetEvent::Message {
            from: msg.from,
            payload: msg.payload,
            at: msg.due,
        });
        self.stats.delivered += 1;
        // The sender also holds an open connection to the receiver now.
        self.endpoints[msg.from.raw() as usize].connections.insert(msg.to);
    }

    /// Pops the next pending event at `addr`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    pub fn recv(&mut self, addr: Addr) -> Option<NetEvent> {
        self.endpoints[addr.raw() as usize].inbox.pop_front()
    }

    /// Drains all pending events at `addr`.
    pub fn drain(&mut self, addr: Addr) -> Vec<NetEvent> {
        self.endpoints[addr.raw() as usize].inbox.drain(..).collect()
    }

    /// Appends all pending events at `addr` to `out` — the batched,
    /// allocation-reusing form of [`SimNet::drain`] the pump loops use.
    pub fn drain_into(&mut self, addr: Addr, out: &mut Vec<NetEvent>) {
        out.extend(self.endpoints[addr.raw() as usize].inbox.drain(..));
    }

    /// Number of pending events at `addr`.
    pub fn pending(&self, addr: Addr) -> usize {
        self.endpoints[addr.raw() as usize].inbox.len()
    }

    /// Discards everything pending at `addr`, returning the number of
    /// [`NetEvent::ConnectionClosed`] events among them — the in-place
    /// form of [`Transport::drain_closure_count`](crate::transport::Transport::drain_closure_count):
    /// no event is moved out of the inbox, it is counted and cleared.
    pub fn drain_closure_count(&mut self, addr: Addr) -> u64 {
        let inbox = &mut self.endpoints[addr.raw() as usize].inbox;
        let n = inbox.iter().filter(|e| e.is_closure()).count() as u64;
        inbox.clear();
        n
    }

    /// Crashes the process at `addr`: its inbox is lost and every connected
    /// peer observes a [`NetEvent::ConnectionClosed`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not issued by this network.
    pub fn crash(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if self.endpoints[idx].crashed {
            return;
        }
        self.endpoints[idx].crashed = true;
        self.endpoints[idx].inbox.clear();
        // Steal the connection set so peers can be mutated while iterating.
        // Bit order is ascending — exactly the sorted order the old
        // Vec-collect-and-sort produced — with zero allocation per crash.
        let peers = std::mem::take(&mut self.endpoints[idx].connections);
        for peer in peers.iter() {
            self.push_event(peer, NetEvent::ConnectionClosed { peer: addr, at: self.now });
            // The peer's connection to the crashed node is gone too.
            self.endpoints[peer.raw() as usize].connections.remove(addr);
        }
        let mut peers = peers;
        peers.clear();
        self.endpoints[idx].connections = peers;
    }

    /// Restarts a crashed endpoint with a clean connection table (the
    /// forking daemon brought up a fresh child).
    pub fn restart(&mut self, addr: Addr) {
        let state = &mut self.endpoints[addr.raw() as usize];
        state.crashed = false;
        state.inbox.clear();
        state.connections.clear();
    }

    /// Whether `addr` is currently crashed.
    pub fn is_crashed(&self, addr: Addr) -> bool {
        self.endpoints[addr.raw() as usize].crashed
    }

    /// Schedules a cut separating `side_a` from `side_b` while the
    /// logical clock is in `[from_tick, until_tick)`. A `oneway` cut
    /// drops only `side_a → side_b` traffic (an asymmetric fault);
    /// otherwise both directions are severed. Cuts accumulate: a message
    /// is dropped if *any* active cut severs its direction.
    pub fn schedule_partition(
        &mut self,
        side_a: &[Addr],
        side_b: &[Addr],
        from_tick: u64,
        until_tick: u64,
        oneway: bool,
    ) {
        self.cuts.push(Cut {
            a: side_a.iter().copied().collect(),
            b: side_b.iter().copied().collect(),
            from_tick,
            until_tick,
            oneway,
        });
    }

    /// Removes every scheduled cut, active or future.
    pub fn clear_partitions(&mut self) {
        self.cuts.clear();
    }

    fn is_partitioned(&self, from: Addr, to: Addr) -> bool {
        self.cuts.iter().any(|c| c.severs(self.now, from, to))
    }

    fn push_event(&mut self, to: Addr, event: NetEvent) {
        if event.is_closure() {
            self.stats.closures += 1;
        }
        self.endpoints[to.raw() as usize].inbox.push_back(event);
    }
}

impl crate::transport::Transport for SimNet {
    fn register(&mut self, name: &str) -> Addr {
        SimNet::register(self, name)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        SimNet::send(self, from, to, payload);
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        SimNet::drain_into(self, at, out);
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        SimNet::drain_closure_count(self, at)
    }

    fn has_pending(&self, addr: Addr) -> bool {
        SimNet::pending(self, addr) != 0
    }

    /// One [`SimNet::advance`]: delivers everything due at the next
    /// logical instant.
    fn step(&mut self) -> bool {
        self.advance()
    }

    fn crash(&mut self, addr: Addr) {
        SimNet::crash(self, addr);
    }

    fn restart(&mut self, addr: Addr) {
        SimNet::restart(self, addr);
    }

    fn note_malformed(&mut self) {
        self.stats.malformed += 1;
    }

    fn stats(&self) -> NetStats {
        SimNet::stats(self)
    }

    fn now(&self) -> u64 {
        SimNet::now(self)
    }
}

impl crate::transport::TrialReset for SimNet {
    fn trial_reset(&mut self, seed: u64, keep_endpoints: usize) {
        SimNet::trial_reset(self, seed, keep_endpoints);
    }

    fn endpoint_count(&self) -> usize {
        SimNet::endpoint_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn two_nodes() -> (SimNet, Addr, Addr) {
        let mut net = SimNet::new(SimConfig::default());
        let a = net.register("a");
        let s = net.register("s");
        (net, a, s)
    }

    #[test]
    fn basic_delivery() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("hello"));
        assert_eq!(net.pending(s), 0, "not delivered before advance");
        assert!(net.advance());
        let ev = net.recv(s).unwrap();
        assert_eq!(ev.peer(), a);
        assert_eq!(ev.payload().unwrap().as_ref(), b"hello");
        assert!(net.recv(s).is_none());
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn fifo_between_pair_with_fixed_latency() {
        let (mut net, a, s) = two_nodes();
        for i in 0..10u8 {
            net.send(a, s, Bytes::copy_from_slice(&[i]));
        }
        net.run_until_quiet();
        for i in 0..10u8 {
            let ev = net.recv(s).unwrap();
            assert_eq!(ev.payload().unwrap().as_ref(), &[i]);
        }
    }

    #[test]
    fn crash_notifies_connected_peers() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("probe"));
        net.run_until_quiet();
        net.crash(s);
        let ev = net.recv(a).unwrap();
        assert_eq!(ev, NetEvent::ConnectionClosed { peer: s, at: net.now() });
        assert!(net.is_crashed(s));
        assert_eq!(net.stats().closures, 1);
    }

    #[test]
    fn crash_without_connection_is_silent() {
        let (mut net, a, s) = two_nodes();
        net.crash(s);
        assert!(net.recv(a).is_none(), "no connection, no closure event");
    }

    #[test]
    fn send_to_crashed_endpoint_reports_closure() {
        let (mut net, a, s) = two_nodes();
        net.crash(s);
        net.send(a, s, b("probe"));
        let ev = net.recv(a).unwrap();
        assert!(ev.is_closure());
        assert_eq!(net.stats().dead_lettered, 1);
    }

    #[test]
    fn in_flight_message_to_crashing_endpoint_is_dead_lettered() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("probe"));
        net.crash(s); // crashes before delivery
        net.run_until_quiet();
        let ev = net.recv(a).unwrap();
        assert!(ev.is_closure());
    }

    #[test]
    fn restart_clears_connections() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("x"));
        net.run_until_quiet();
        net.crash(s);
        net.drain(a);
        net.restart(s);
        assert!(!net.is_crashed(s));
        // A second crash with no new traffic produces no closure events.
        net.crash(s);
        assert!(net.recv(a).is_none());
    }

    #[test]
    fn double_crash_is_idempotent() {
        let (mut net, a, s) = two_nodes();
        net.send(a, s, b("x"));
        net.run_until_quiet();
        net.crash(s);
        net.crash(s);
        assert_eq!(net.drain(a).len(), 1);
    }

    #[test]
    fn partition_drops_cross_traffic() {
        let (mut net, a, s) = two_nodes();
        let now = net.now();
        net.schedule_partition(&[a], &[s], now, u64::MAX, false);
        net.send(a, s, b("x"));
        net.run_until_quiet();
        assert!(net.recv(s).is_none());
        assert_eq!(net.stats().dropped, 1);
        net.clear_partitions();
        net.send(a, s, b("y"));
        net.run_until_quiet();
        assert!(net.recv(s).is_some());
    }

    #[test]
    fn scheduled_cuts_window_and_compose() {
        let (mut net, a, s) = two_nodes();
        let c = net.register("c");
        // Symmetric cut active only at tick 0: the send at now = 0 is
        // severed (cut membership is checked at send time).
        net.schedule_partition(&[a], &[s], 0, 1, false);
        net.send(a, s, b("early"));
        net.run_until_quiet();
        assert_eq!(net.pending(s), 0, "cut active at send time");
        // Advance the clock past the window with uncut traffic.
        net.send(a, c, b("tick"));
        net.run_until_quiet();
        assert!(net.now() >= 1);
        net.send(a, s, b("late"));
        net.run_until_quiet();
        assert_eq!(net.pending(s), 1, "cut expired");

        // A one-way cut severs only a→s.
        let t = net.now();
        net.schedule_partition(&[a], &[s], t, u64::MAX, true);
        net.send(a, s, b("blocked"));
        net.send(s, a, b("flows"));
        net.run_until_quiet();
        assert_eq!(net.pending(s), 1, "a→s still only the earlier message");
        assert!(net.drain(a).iter().any(|e| e.payload().is_some()));
        net.clear_partitions();
        net.send(a, s, b("after clear"));
        net.run_until_quiet();
        assert_eq!(net.pending(s), 2);
    }

    #[test]
    fn drop_rate_loses_messages_deterministically() {
        let cfg = SimConfig {
            drop_rate: 0.5,
            seed: 42,
            ..SimConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let a = net.register("a");
        let s = net.register("s");
        for _ in 0..100 {
            net.send(a, s, b("x"));
        }
        net.run_until_quiet();
        let got = net.drain(s).len();
        assert!(got > 20 && got < 80, "got {got}");
        // Reproducibility: same seed, same outcome.
        let mut net2 = SimNet::new(cfg);
        let a2 = net2.register("a");
        let s2 = net2.register("s");
        for _ in 0..100 {
            net2.send(a2, s2, b("x"));
        }
        net2.run_until_quiet();
        assert_eq!(net2.drain(s2).len(), got);
    }

    #[test]
    fn uniform_latency_orders_by_due_time() {
        let cfg = SimConfig {
            latency: Latency::Uniform(1, 50),
            seed: 7,
            ..SimConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let a = net.register("a");
        let s = net.register("s");
        for i in 0..20u8 {
            net.send(a, s, Bytes::copy_from_slice(&[i]));
        }
        net.run_until_quiet();
        let events = net.drain(s);
        assert_eq!(events.len(), 20);
        let mut last = 0;
        for ev in &events {
            if let NetEvent::Message { at, .. } = ev {
                assert!(*at >= last);
                last = *at;
            }
        }
    }

    #[test]
    fn time_advances_monotonically() {
        let (mut net, a, s) = two_nodes();
        assert_eq!(net.now(), 0);
        net.send(a, s, b("x"));
        net.advance();
        let t1 = net.now();
        assert!(t1 > 0);
        net.send(s, a, b("y"));
        net.advance();
        assert!(net.now() > t1);
    }

    #[test]
    fn names_are_kept() {
        let (net, a, s) = two_nodes();
        assert_eq!(net.name(a), "a");
        assert_eq!(net.name(s), "s");
    }

    #[test]
    fn advance_on_idle_returns_false() {
        let (mut net, _, _) = two_nodes();
        assert!(!net.advance());
    }

    /// Drives one full "trial" on a net: registers a late endpoint (as a
    /// per-trial client would), exchanges seeded lossy traffic, crashes
    /// and restarts, and returns everything observable.
    fn drive_trial(net: &mut SimNet, a: Addr, s: Addr) -> (Vec<NetEvent>, NetStats, u64) {
        let c = net.register("client-0");
        for i in 0..20u8 {
            net.send(a, s, Bytes::copy_from_slice(&[i]));
            net.send(c, s, Bytes::copy_from_slice(&[100 + i]));
        }
        net.run_until_quiet();
        net.crash(s);
        net.restart(s);
        net.send(a, s, b("again"));
        net.run_until_quiet();
        let mut seen = net.drain(s);
        seen.extend(net.drain(a));
        seen.extend(net.drain(c));
        (seen, net.stats(), net.now())
    }

    #[test]
    fn trial_reset_replays_a_fresh_network_bit_for_bit() {
        let cfg = SimConfig {
            seed: 11,
            drop_rate: 0.3,
            ..SimConfig::default()
        };
        // Reference: two independent fresh networks, seeds 11 and 99.
        let mut fresh = SimNet::new(cfg);
        let fa = fresh.register("a");
        let fs = fresh.register("s");
        let first = drive_trial(&mut fresh, fa, fs);
        let mut fresh2 = SimNet::new(SimConfig { seed: 99, ..cfg });
        let fa2 = fresh2.register("a");
        let fs2 = fresh2.register("s");
        let second = drive_trial(&mut fresh2, fa2, fs2);

        // Reused: one network, reset between the trials.
        let mut net = SimNet::new(cfg);
        let a = net.register("a");
        let s = net.register("s");
        let watermark = net.endpoint_count();
        assert_eq!(watermark, 2);
        assert_eq!(drive_trial(&mut net, a, s), first);
        net.trial_reset(99, watermark);
        assert_eq!(net.endpoint_count(), 2);
        assert_eq!(net.name(a), "a");
        assert_eq!(
            drive_trial(&mut net, a, s),
            second,
            "reset trial must replay a fresh seed-99 network exactly"
        );
    }
}
