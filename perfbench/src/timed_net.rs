//! A counting and timing [`Transport`] wrapper.
//!
//! [`Timed`] forwards every trait method to the wrapped transport —
//! including the ones backends override for speed (`broadcast`,
//! `drain_closure_count`, `has_pending`, `step`, `now`), so a stack over
//! `Timed<SimNet>` makes exactly the calls, in exactly the order, that a
//! stack over the bare `SimNet` makes. Around the calls that move data it
//! opens a [`crate::trace`] span and counts messages, payload bytes and
//! drains. `Stack` owns its transport and does not lend it out, so the
//! counts live in a shared [`Tally`] the caller keeps.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use fortress_net::{Addr, NetEvent, NetStats, Transport};

use crate::trace::span;

/// Counts taken at the transport boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Messages handed to the transport (a broadcast counts one per target).
    pub msgs: u64,
    /// Payload bytes handed to the transport (per target).
    pub bytes: u64,
    /// `drain_into` and `drain_closure_count` calls.
    pub drains: u64,
    /// Drains that found nothing pending.
    pub empty_drains: u64,
}

/// A handle on the counts of one [`Timed`] transport.
pub type Tally = Rc<Cell<NetCounts>>;

/// The wrapper. See the [module docs](self).
pub struct Timed<T> {
    inner: T,
    tally: Tally,
}

impl<T> Timed<T> {
    /// Wraps `inner`; the returned tally reads the counts.
    pub fn new(inner: T) -> (Timed<T>, Tally) {
        let tally = Tally::default();
        let timed = Timed {
            inner,
            tally: Rc::clone(&tally),
        };
        (timed, tally)
    }

    fn count(&mut self, f: impl FnOnce(&mut NetCounts)) {
        let mut c = self.tally.get();
        f(&mut c);
        self.tally.set(c);
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn register(&mut self, name: &str) -> Addr {
        self.inner.register(name)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        let len = payload.len() as u64;
        self.count(|c| {
            c.msgs += 1;
            c.bytes += len;
        });
        span("net.send", || self.inner.send(from, to, payload));
    }

    fn broadcast(&mut self, from: Addr, targets: &[Addr], payload: Bytes) {
        let n = targets.iter().filter(|&&to| to != from).count() as u64;
        let len = payload.len() as u64;
        self.count(|c| {
            c.msgs += n;
            c.bytes += n * len;
        });
        span("net.broadcast", || {
            self.inner.broadcast(from, targets, payload)
        });
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        let before = out.len();
        span("net.drain", || self.inner.drain_into(at, out));
        let empty = out.len() == before;
        self.count(|c| {
            c.drains += 1;
            c.empty_drains += u64::from(empty);
        });
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let pending = self.inner.has_pending(at);
        let closures = span("net.drain", || self.inner.drain_closure_count(at));
        self.count(|c| {
            c.drains += 1;
            c.empty_drains += u64::from(!pending);
        });
        closures
    }

    fn has_pending(&self, addr: Addr) -> bool {
        self.inner.has_pending(addr)
    }

    fn step(&mut self) -> bool {
        span("net.step", || self.inner.step())
    }

    fn crash(&mut self, addr: Addr) {
        span("net.crash", || self.inner.crash(addr));
    }

    fn restart(&mut self, addr: Addr) {
        span("net.restart", || self.inner.restart(addr));
    }

    fn note_malformed(&mut self) {
        self.inner.note_malformed();
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }
}
