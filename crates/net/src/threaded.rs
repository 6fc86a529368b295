//! Multi-threaded transport over crossbeam channels.
//!
//! [`ThreadNet`] implements the same [`Transport`] interface as the
//! simulator but with real threads. Endpoints come in two flavors:
//!
//! * [`ThreadNet::register`] returns a [`NetHandle`] owning the inbox
//!   receiver, which can be moved into its own thread — the classic
//!   one-thread-per-node examples.
//! * [`Transport::register`] keeps the receiver inside the bus, so a
//!   single-threaded drive loop (e.g. a generic `Stack<ThreadNet>`) can
//!   batch-drain any endpoint via [`Transport::drain_into`] while other
//!   threads keep sending.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::transport::Transport;

/// Base duration of one [`Transport::step`] park while sender threads
/// are live. The first park uses exactly this, so time-stepped drive
/// loops (e.g. `examples/failover.rs`) see no added latency worth
/// naming; each further *consecutive* empty drain doubles the park (see
/// [`ParkBackoff::wait`]) so a long-idle waiter backs off instead of
/// waking 1000×/s for nothing.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Ceiling of the exponential park backoff. Bounded so a pump loop
/// re-checks its exit condition at a steady cadence even if a
/// notification is missed — a missed wakeup costs at most this long,
/// never an unbounded doubling.
const PARK_CEILING: Duration = Duration::from_millis(16);

/// The park-backoff schedule [`Transport::step`] uses when idle. The
/// defaults (`PARK_TIMEOUT` / `PARK_CEILING`) suit interactive
/// drive loops; wall-clock harnesses on CI boxes with coarse schedulers
/// can widen both via [`ThreadNet::with_backoff`] instead of relying on
/// compiled-in constants holding for every machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParkBackoff {
    /// First park length (and the granularity of the schedule).
    pub base: Duration,
    /// Clamp on the exponential doubling.
    pub ceiling: Duration,
}

impl Default for ParkBackoff {
    fn default() -> ParkBackoff {
        ParkBackoff { base: PARK_TIMEOUT, ceiling: PARK_CEILING }
    }
}

impl ParkBackoff {
    /// Park duration for the `idle_steps`-th consecutive empty drain:
    /// `base` doubled per extra idle step, clamped to `ceiling`. Pure so
    /// the schedule is unit-testable.
    fn wait(&self, idle_steps: u32) -> Duration {
        let doublings = idle_steps.saturating_sub(1).min(10);
        self.base.saturating_mul(1u32 << doublings).min(self.ceiling)
    }
}

#[derive(Debug)]
struct Registry {
    names: Vec<String>,
    senders: Vec<Sender<NetEvent>>,
    /// Inbox receivers the bus retained (trait-registered endpoints);
    /// `None` where a [`NetHandle`] owns the receiver instead.
    receivers: Vec<Option<Mutex<Receiver<NetEvent>>>>,
    crashed: Vec<bool>,
    /// Connection table: pairs that have exchanged messages.
    connections: Vec<Vec<Addr>>,
    stats: NetStats,
}

/// The park signal [`Transport::step`] waits on, one mutex guarding
/// both fields so the park decision and the facts it depends on cannot
/// race: `arrivals` is the total events ever enqueued bus-wide, and
/// `live_handles` counts [`NetHandle`]s not yet dropped — the only
/// endpoints whose owning threads can still produce traffic. A dropped
/// handle decrements the count *under this lock* and notifies, so a
/// step parked (or about to park) on the condvar re-observes liveness
/// instead of burning the full timeout on traffic that can never come
/// (the missed-wakeup race when the last sender exits between the
/// empty-drain check and the park).
#[derive(Debug, Default)]
struct ParkSignal {
    arrivals: u64,
    live_handles: usize,
}

/// A thread-safe message bus with crash/closure semantics.
///
/// # Example
///
/// ```
/// use fortress_net::threaded::ThreadNet;
/// use bytes::Bytes;
///
/// let net = ThreadNet::new();
/// let client = net.register("client");
/// let server = net.register("server");
/// client.send(server.addr(), Bytes::from_static(b"ping"));
/// let ev = server.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(ev.payload().unwrap().as_ref(), b"ping");
/// ```
#[derive(Clone, Debug)]
pub struct ThreadNet {
    registry: Arc<RwLock<Registry>>,
    /// Park signal (arrival counter + live-handle count), guarded by a
    /// plain std mutex so [`Transport::step`] can park on the condvar
    /// until a sender thread enqueues something — or the last handle
    /// drops. Never locked while the registry lock is held (and vice
    /// versa), so there is no ordering between the two.
    signal: Arc<(StdMutex<ParkSignal>, Condvar)>,
    /// Arrival count this instance last observed in [`Transport::step`].
    /// Per-clone deliberately: each drive loop tracks its own drain
    /// progress.
    seen_arrivals: u64,
    /// Consecutive [`Transport::step`] calls that observed no new
    /// arrivals. Parking starts at the *second* consecutive idle step:
    /// a pump loop's single exit-probe step stays latency-free even
    /// with live sender threads, while a dedicated `loop { step() }`
    /// waiter (two-plus idle steps in a row, the spin pattern the park
    /// replaces) blocks instead of burning CPU.
    idle_steps: u32,
    /// Park-backoff schedule (per clone: each drive loop may tune its
    /// own patience).
    backoff: ParkBackoff,
}

impl ThreadNet {
    /// Creates an empty bus with the default park backoff.
    pub fn new() -> ThreadNet {
        ThreadNet::with_backoff(ParkBackoff::default())
    }

    /// Creates an empty bus with an explicit park-backoff schedule —
    /// the timing knob wall-clock harnesses use to trade idle wakeups
    /// against wakeup latency on machines whose schedulers make the
    /// defaults flaky.
    pub fn with_backoff(backoff: ParkBackoff) -> ThreadNet {
        ThreadNet {
            registry: Arc::new(RwLock::new(Registry {
                names: Vec::new(),
                senders: Vec::new(),
                receivers: Vec::new(),
                crashed: Vec::new(),
                connections: Vec::new(),
                stats: NetStats::default(),
            })),
            signal: Arc::new((StdMutex::new(ParkSignal::default()), Condvar::new())),
            seen_arrivals: 0,
            idle_steps: 0,
            backoff,
        }
    }

    /// Records `count` freshly enqueued events and wakes any parked
    /// [`Transport::step`]. Called after the registry lock is released.
    fn note_arrivals(&self, count: u64) {
        if count == 0 {
            return;
        }
        let (lock, cvar) = &*self.signal;
        lock.lock().unwrap_or_else(|e| e.into_inner()).arrivals += count;
        cvar.notify_all();
    }

    /// Adjusts the live-handle count (`+1` at handle registration, `-1`
    /// at handle drop) and wakes any parked [`Transport::step`] so it
    /// re-evaluates whether parking is still justified. Only handle-
    /// owned endpoints count: their owning threads are the only senders
    /// a drive loop could be waiting on. Crash state deliberately does
    /// not factor in: neither transport gates sends on the *sender's*
    /// crash state (only the destination's), so a crashed-but-held
    /// handle can still produce traffic worth parking for.
    fn note_handles(&self, delta: isize) {
        let (lock, cvar) = &*self.signal;
        let mut signal = lock.lock().unwrap_or_else(|e| e.into_inner());
        signal.live_handles = signal.live_handles.saturating_add_signed(delta);
        cvar.notify_all();
    }

    /// Registers a named endpoint, returning its handle (receiver included).
    pub fn register(&self, name: &str) -> NetHandle {
        let (addr, rx) = self.register_endpoint(name, false);
        self.note_handles(1);
        NetHandle {
            addr,
            rx: rx.expect("receiver kept by the handle"),
            net: self.clone(),
        }
    }

    /// Shared registration: `retain` keeps the receiver in the bus (for
    /// [`Transport::drain_into`]), otherwise it is returned to the caller.
    fn register_endpoint(&self, name: &str, retain: bool) -> (Addr, Option<Receiver<NetEvent>>) {
        let (tx, rx) = unbounded();
        let mut reg = self.registry.write();
        let addr = Addr::from_raw(reg.names.len() as u32);
        reg.names.push(name.to_owned());
        reg.senders.push(tx);
        reg.crashed.push(false);
        reg.connections.push(Vec::new());
        if retain {
            reg.receivers.push(Some(Mutex::new(rx)));
            (addr, None)
        } else {
            reg.receivers.push(None);
            (addr, Some(rx))
        }
    }

    /// Transport counters.
    pub fn stats(&self) -> NetStats {
        self.registry.read().stats
    }

    /// The name an endpoint registered under.
    pub fn name(&self, addr: Addr) -> String {
        self.registry.read().names[addr.raw() as usize].clone()
    }

    /// Marks `addr` crashed and notifies connected peers with
    /// [`NetEvent::ConnectionClosed`].
    ///
    /// Queued-but-unread traffic is discarded for bus-retained endpoints
    /// ([`Transport::register`]), matching the simulator's
    /// crash-loses-the-inbox semantics. For [`NetHandle`] endpoints the
    /// handle *is* the process's inbox — it lives on the endpoint's own
    /// thread, so already-queued events stay readable there (like bytes a
    /// TCP client read into userspace before its peer died); the handle's
    /// owner decides what a crash means for them.
    pub fn crash(&self, addr: Addr) {
        let mut enqueued = 0u64;
        {
            let mut reg = self.registry.write();
            let idx = addr.raw() as usize;
            if reg.crashed[idx] {
                return;
            }
            reg.crashed[idx] = true;
            let peers = std::mem::take(&mut reg.connections[idx]);
            for peer in peers {
                if reg.senders[peer.raw() as usize]
                    .send(NetEvent::ConnectionClosed { peer: addr, at: 0 })
                    .is_ok()
                {
                    reg.stats.closures += 1;
                    enqueued += 1;
                }
                reg.connections[peer.raw() as usize].retain(|p| *p != addr);
            }
            // Drain the crashed endpoint's retained inbox: its process state
            // (and with it any queued traffic) is gone, matching the simulator.
            if let Some(rx) = &reg.receivers[idx] {
                let rx = rx.lock();
                while rx.try_recv().is_ok() {}
            }
        }
        self.note_arrivals(enqueued);
    }

    /// Restarts a crashed endpoint (fresh connections).
    pub fn restart(&self, addr: Addr) {
        let mut reg = self.registry.write();
        let idx = addr.raw() as usize;
        reg.crashed[idx] = false;
        reg.connections[idx].clear();
    }

    /// Whether `addr` is crashed.
    pub fn is_crashed(&self, addr: Addr) -> bool {
        self.registry.read().crashed[addr.raw() as usize]
    }

    fn send_from(&self, from: Addr, to: Addr, payload: Bytes) {
        let mut enqueued = 0u64;
        {
            let mut reg = self.registry.write();
            reg.stats.sent += 1;
            let to_idx = to.raw() as usize;
            if reg.crashed[to_idx] {
                reg.stats.dead_lettered += 1;
                if reg.senders[from.raw() as usize]
                    .send(NetEvent::ConnectionClosed { peer: to, at: 0 })
                    .is_ok()
                {
                    reg.stats.closures += 1;
                    enqueued += 1;
                }
            } else {
                if !reg.connections[to_idx].contains(&from) {
                    reg.connections[to_idx].push(from);
                }
                let from_idx = from.raw() as usize;
                if !reg.connections[from_idx].contains(&to) {
                    reg.connections[from_idx].push(to);
                }
                if reg.senders[to_idx]
                    .send(NetEvent::Message { from, payload, at: 0 })
                    .is_ok()
                {
                    reg.stats.delivered += 1;
                    enqueued += 1;
                }
            }
        }
        self.note_arrivals(enqueued);
    }
}

impl Transport for ThreadNet {
    /// Registers an endpoint whose inbox stays inside the bus, so the
    /// drive loop can batch-drain it with [`Transport::drain_into`].
    fn register(&mut self, name: &str) -> Addr {
        self.register_endpoint(name, true).0
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        self.send_from(from, to, payload);
    }

    /// Appends everything currently queued at `at`. Panics if `at` was
    /// registered via [`ThreadNet::register`] (its [`NetHandle`] owns the
    /// receiver) — an assembly bug, not a runtime condition.
    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        let reg = self.registry.read();
        let rx = reg.receivers[at.raw() as usize]
            .as_ref()
            .expect("endpoint's receiver is owned by a NetHandle, not the bus")
            .lock();
        while let Ok(ev) = rx.try_recv() {
            out.push(ev);
        }
    }

    /// Counts-and-discards without materializing: the channel is
    /// drained event by event straight into a counter, so a probe loop
    /// absorbing a flood of closure notifications never moves the
    /// events through an intermediate `Vec` (the default path's
    /// per-call behaviour this must stay bit-identical to — pinned by
    /// the conformance suite).
    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let reg = self.registry.read();
        let rx = reg.receivers[at.raw() as usize]
            .as_ref()
            .expect("endpoint's receiver is owned by a NetHandle, not the bus")
            .lock();
        let mut closures = 0u64;
        while let Ok(ev) = rx.try_recv() {
            if ev.is_closure() {
                closures += 1;
            }
        }
        closures
    }

    /// Reports whether traffic arrived since the last `step` — and, on
    /// the second-plus *consecutive* idle step while live sender threads
    /// exist, **parks on a condvar** instead of returning immediately:
    /// a `loop {{ step() }}` waiter driving a stack concurrently with
    /// sender threads blocks until traffic arrives rather than
    /// spin-yielding through empty drains. The park length backs off
    /// exponentially with consecutive empty drains — [`ParkBackoff::base`]
    /// at first, doubling per idle step up to [`ParkBackoff::ceiling`]
    /// (see `ParkBackoff::wait`) — and any arrival resets it, so a
    /// briefly idle
    /// loop stays responsive while a long-idle one stops waking
    /// 1000×/s. The first idle step never parks, so a pump loop's
    /// single exit-probe call — and with it every deployment with no
    /// handle-owned endpoints at all — sees no added latency.
    ///
    /// The liveness condition (`live_handles > 0`) is evaluated **under
    /// the same lock** the handle drop mutates, and the drop notifies
    /// the condvar: the last sender exiting between an empty drain and
    /// the park can neither slip past the check unobserved nor leave a
    /// parked step burning the full timeout (the missed-wakeup race
    /// this method used to have when liveness lived behind a separate
    /// lock with a notification-free drop).
    fn step(&mut self) -> bool {
        let (lock, cvar) = &*self.signal;
        let mut signal = lock.lock().unwrap_or_else(|e| e.into_inner());
        if signal.arrivals == self.seen_arrivals
            && self.idle_steps >= 1
            && signal.live_handles > 0
        {
            // Missed-wakeup-safe: arrivals and live_handles are both
            // re-checked under the lock their writers bump them under.
            let (guard, _) = cvar
                .wait_timeout(signal, self.backoff.wait(self.idle_steps))
                .unwrap_or_else(|e| e.into_inner());
            signal = guard;
        }
        let advanced = signal.arrivals != self.seen_arrivals;
        self.seen_arrivals = signal.arrivals;
        self.idle_steps = if advanced { 0 } else { self.idle_steps.saturating_add(1) };
        advanced
    }

    fn crash(&mut self, addr: Addr) {
        ThreadNet::crash(self, addr);
    }

    fn restart(&mut self, addr: Addr) {
        ThreadNet::restart(self, addr);
    }

    fn note_malformed(&mut self) {
        self.registry.write().stats.malformed += 1;
    }

    fn stats(&self) -> NetStats {
        ThreadNet::stats(self)
    }
}

impl Default for ThreadNet {
    fn default() -> Self {
        Self::new()
    }
}

/// An endpoint handle: address, inbox receiver and a cloned bus reference.
#[derive(Debug)]
pub struct NetHandle {
    addr: Addr,
    rx: Receiver<NetEvent>,
    net: ThreadNet,
}

impl NetHandle {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Sends `payload` to `to`.
    pub fn send(&self, to: Addr, payload: Bytes) {
        self.net.send_from(self.addr, to, payload);
    }

    /// Blocking receive with a timeout; `None` on timeout or disconnection.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<NetEvent> {
        self.rx.try_recv().ok()
    }

    /// The underlying bus (for crash injection in tests/examples).
    pub fn net(&self) -> &ThreadNet {
        &self.net
    }
}

impl Drop for NetHandle {
    /// A dropped handle can never send again: stop counting it as a
    /// live sender thread — under the park-signal lock, with a notify —
    /// so a concurrently parking (or already parked) [`Transport::step`]
    /// re-evaluates immediately instead of waiting out the timeout.
    fn drop(&mut self) {
        self.net.note_handles(-1);
    }
}

/// Maps endpoint names to addresses for assembly-time wiring.
#[derive(Debug, Default, Clone)]
pub struct AddressBook {
    by_name: HashMap<String, Addr>,
}

impl AddressBook {
    /// Creates an empty book.
    pub fn new() -> AddressBook {
        AddressBook::default()
    }

    /// Records `name → addr`.
    pub fn insert(&mut self, name: &str, addr: Addr) {
        self.by_name.insert(name.to_owned(), addr);
    }

    /// Looks up a name.
    pub fn get(&self, name: &str) -> Option<Addr> {
        self.by_name.get(name).copied()
    }

    /// All (name, addr) pairs, sorted by name.
    pub fn entries(&self) -> Vec<(String, Addr)> {
        let mut v: Vec<_> = self.by_name.iter().map(|(n, a)| (n.clone(), *a)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(500);

    #[test]
    fn send_and_receive_across_threads() {
        let net = ThreadNet::new();
        let a = net.register("a");
        let b = net.register("b");
        let b_addr = b.addr();
        let handle = std::thread::spawn(move || {
            let ev = b.recv_timeout(T).expect("message");
            ev.payload().unwrap().to_vec()
        });
        a.send(b_addr, Bytes::from_static(b"over threads"));
        assert_eq!(handle.join().unwrap(), b"over threads");
    }

    #[test]
    fn crash_notifies_peers() {
        let net = ThreadNet::new();
        let a = net.register("a");
        let s = net.register("s");
        a.send(s.addr(), Bytes::from_static(b"x"));
        let _ = s.recv_timeout(T).unwrap();
        net.crash(s.addr());
        let ev = a.recv_timeout(T).unwrap();
        assert!(ev.is_closure());
        assert_eq!(ev.peer(), s.addr());
        assert!(net.is_crashed(s.addr()));
    }

    #[test]
    fn send_to_crashed_returns_closure() {
        let net = ThreadNet::new();
        let a = net.register("a");
        let s = net.register("s");
        net.crash(s.addr());
        a.send(s.addr(), Bytes::from_static(b"x"));
        assert!(a.recv_timeout(T).unwrap().is_closure());
        net.restart(s.addr());
        a.send(s.addr(), Bytes::from_static(b"y"));
        assert!(s.recv_timeout(T).unwrap().payload().is_some());
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = ThreadNet::new();
        let a = net.register("a");
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn names() {
        let net = ThreadNet::new();
        let a = net.register("alice");
        assert_eq!(net.name(a.addr()), "alice");
    }

    #[test]
    fn step_without_live_handles_returns_immediately() {
        let mut net = ThreadNet::new();
        let a = Transport::register(&mut net, "a");
        let b = Transport::register(&mut net, "b");
        // 20 idle steps: a parking implementation would spend >= 19
        // park timeouts here; generous headroom absorbs CI preemption.
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(!net.step(), "no traffic, nothing to park for");
        }
        assert!(
            start.elapsed() < 10 * PARK_TIMEOUT,
            "bus-retained-only deployments must not park"
        );
        Transport::send(&mut net, a, b, Bytes::from_static(b"x"));
        assert!(net.step(), "new traffic must be reported");
        assert!(!net.step(), "already observed");
    }

    #[test]
    fn step_parks_until_a_sender_thread_delivers() {
        let mut net = ThreadNet::new();
        let b = Transport::register(&mut net, "b");
        let sender = net.register("sender"); // handle-owned: a live sender thread
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            sender.send(b, Bytes::from_static(b"late"));
        });
        // A parking drive loop: far fewer iterations than a spin would
        // take, and it still observes the late delivery promptly.
        let mut polls = 0u32;
        let woke = loop {
            polls += 1;
            if net.step() {
                break true;
            }
            if polls > 500 {
                break false;
            }
        };
        thread.join().unwrap();
        // A spinning step would exhaust the 500-poll cap in well under a
        // millisecond — long before the ~15ms send — so `woke` itself is
        // the spin detector, with no load-sensitive poll-count bound.
        assert!(woke, "the late send must wake a parked step");
        let _ = polls;
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dropped_handles_do_not_justify_parking() {
        let mut net = ThreadNet::new();
        let _b = Transport::register(&mut net, "b");
        let h = net.register("h");
        drop(h); // sender thread finished and released its handle
        // 20 idle steps: every one from the second on would park if the
        // dropped handle still counted as a live sender; generous
        // headroom absorbs CI preemption.
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(!net.step());
        }
        assert!(
            start.elapsed() < 10 * PARK_TIMEOUT,
            "a dropped handle cannot produce traffic; step must not park"
        );
    }

    /// The missed-wakeup race: a sender thread whose handle exits
    /// between a step's liveness check and its park must not leave the
    /// drive loop burning full park timeouts. Liveness is re-checked
    /// under the signal lock and every handle drop notifies, so a
    /// parked (or about-to-park) step re-evaluates within the churn
    /// interval instead of sleeping out [`PARK_TIMEOUT`]. Under the old
    /// separate-lock, notification-free drop, each of the 600 steps
    /// below parks the full 1 ms (the churn keeps the stale liveness
    /// check true, and nothing ever notifies) — ~600 ms, reliably 2×
    /// over the bound; with the fix the drops themselves wake the
    /// stepper (~100 µs per step, 3–5× under it), so the bound holds a
    /// wide margin on both sides even when CI preemption stalls the
    /// churner for a few park timeouts.
    #[test]
    fn handle_churn_cannot_park_steps_past_the_drop() {
        let mut net = ThreadNet::new();
        let _b = Transport::register(&mut net, "b");
        assert!(!net.step(), "prime the idle counter");
        let churn_net = net.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let churner = std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                let handle = churn_net.register(&format!("churn-{i}"));
                if i == 0 {
                    let _ = started_tx.send(());
                }
                std::thread::sleep(Duration::from_micros(100));
                drop(handle); // the last live sender exits — mid-park
                i += 1;
            }
        });
        // Step only once the churn is live, so the loop really races
        // parks against handle drops instead of sprinting through an
        // empty bus.
        started_rx.recv().expect("churner must start");
        let start = std::time::Instant::now();
        for _ in 0..600 {
            net.step();
        }
        let elapsed = start.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churner.join().unwrap();
        assert!(
            elapsed < 300 * PARK_TIMEOUT,
            "steps parked past handle drops ({elapsed:?} for 600 steps) — \
             the drop must wake or preempt the park"
        );
    }

    #[test]
    fn crashed_but_held_handles_still_park_and_their_sends_wake() {
        // Neither transport gates sends on the sender's crash state, so
        // a crashed-but-held handle is still a live traffic source: step
        // keeps parking for it, and its sends wake the parked stepper.
        let mut net = ThreadNet::new();
        let b = Transport::register(&mut net, "b");
        let h = net.register("h");
        net.crash(h.addr());
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            h.send(b, Bytes::from_static(b"still here"));
        });
        let mut polls = 0u32;
        let woke = loop {
            polls += 1;
            if net.step() {
                break true;
            }
            if polls > 500 {
                break false;
            }
        };
        thread.join().unwrap();
        assert!(woke, "the crashed-but-held handle's send must be seen");
        let _ = polls;
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1);
    }

    /// The backoff schedule is pure: base on the first park, doubling
    /// per consecutive empty drain, clamped at the ceiling — and immune
    /// to shift overflow at absurd idle counts.
    #[test]
    fn park_backoff_doubles_and_is_bounded() {
        let b = ParkBackoff::default();
        assert_eq!(b.base, PARK_TIMEOUT);
        assert_eq!(b.ceiling, PARK_CEILING);
        assert_eq!(b.wait(1), PARK_TIMEOUT);
        assert_eq!(b.wait(2), 2 * PARK_TIMEOUT);
        assert_eq!(b.wait(3), 4 * PARK_TIMEOUT);
        assert_eq!(b.wait(5), PARK_CEILING);
        assert_eq!(b.wait(100), PARK_CEILING);
        assert_eq!(b.wait(u32::MAX), PARK_CEILING);
        // 0 never reaches the park (the first idle step returns
        // immediately), but the function stays total.
        assert_eq!(b.wait(0), PARK_TIMEOUT);
    }

    /// A custom schedule is honored verbatim: a wider base and ceiling
    /// shift the whole curve without changing its shape.
    #[test]
    fn park_backoff_is_configurable() {
        let wide = ParkBackoff {
            base: Duration::from_millis(4),
            ceiling: Duration::from_millis(40),
        };
        assert_eq!(wide.wait(1), Duration::from_millis(4));
        assert_eq!(wide.wait(3), Duration::from_millis(16));
        assert_eq!(wide.wait(100), Duration::from_millis(40));
        // The constructor threads the schedule through to the instance
        // (and its clones — each drive loop keeps its own copy).
        let net = ThreadNet::with_backoff(wide);
        assert_eq!(net.backoff, wide);
        assert_eq!(net.clone().backoff, wide);
    }

    /// Backed-off parks are still wakeable: after enough idle steps to
    /// reach the ceiling, a sender's delivery must interrupt the park
    /// rather than sleep out the full [`PARK_CEILING`].
    #[test]
    fn late_sends_wake_a_backed_off_park() {
        let mut net = ThreadNet::new();
        let b = Transport::register(&mut net, "b");
        let sender = net.register("sender");
        // Drive to the backoff ceiling: each consecutive empty drain
        // doubles the park, so a handful of steps suffice.
        for _ in 0..8 {
            assert!(!net.step());
        }
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            sender.send(b, Bytes::from_static(b"wake up"));
        });
        let start = std::time::Instant::now();
        let mut polls = 0u32;
        let woke = loop {
            polls += 1;
            if net.step() {
                break true;
            }
            if polls > 500 {
                break false;
            }
        };
        thread.join().unwrap();
        assert!(woke, "the send must wake the backed-off park");
        // Generous bound: the ~5ms send plus at most one full-ceiling
        // park plus CI preemption headroom — but far under what 500
        // ceiling-length timeouts would take.
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "a backed-off park slept past the wake ({:?})",
            start.elapsed()
        );
        let mut out = Vec::new();
        net.drain_into(b, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn address_book() {
        let mut book = AddressBook::new();
        book.insert("p0", Addr::from_raw(3));
        assert_eq!(book.get("p0"), Some(Addr::from_raw(3)));
        assert_eq!(book.get("p1"), None);
        assert_eq!(book.entries().len(), 1);
    }
}
