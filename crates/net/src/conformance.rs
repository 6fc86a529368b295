//! The behavioural contract every [`Transport`] backend must satisfy,
//! as a reusable test suite.
//!
//! Three backends (plus the fault decorator) implement [`Transport`];
//! the guarantees drive loops rely on — round-trip delivery, the
//! crash/restart observable, caller-reported malformed counting, the
//! [`NetStats`](crate::NetStats) conservation identity, and `drain_closure_count`
//! matching the drain-and-filter default bit for bit — are checked
//! here once, generically, instead of re-asserted ad hoc per backend.
//!
//! Each check takes a **factory** so it can build as many fresh
//! instances as it needs; `tests/conformance.rs` instantiates the suite
//! for `SimNet`, `ThreadNet`, `FaultyTransport<SimNet>`, and both
//! `SockNet` families.
//!
//! The assertions are deliberately *semantic*, not byte-level: a
//! simulated network may surface one closure per send into an outage
//! while a kernel transport surfaces one EOF per dead session, so the
//! suite pins "at least one closure, and the books balance" rather
//! than an exact event count that would overfit one backend.

use bytes::Bytes;

use crate::event::NetEvent;
use crate::transport::Transport;

/// Settles a transport: steps until no backend reports progress. For
/// eager backends this returns quickly; for kernel-socket backends it
/// waits out real delivery latency (bounded by the backend's own
/// settle timeout).
pub fn settle<T: Transport>(net: &mut T) {
    while net.step() {}
}

/// Runs every conformance check against fresh instances from `mk`.
/// `label` names the backend in assertion messages.
pub fn check_all<T: Transport>(mut mk: impl FnMut() -> T, label: &str) {
    check_round_trip(&mut mk(), label);
    check_crash_restart(&mut mk(), label);
    check_malformed_counting(&mut mk(), label);
    check_conservation(&mut mk(), label);
    check_drain_closure_count(&mut mk, label);
}

/// Broadcast delivery: every target except the sender receives the
/// payload byte-identically, and the stats agree.
pub fn check_round_trip<T: Transport>(net: &mut T, label: &str) {
    let a = net.register("a");
    let b = net.register("b");
    let c = net.register("c");
    net.broadcast(a, &[a, b, c], Bytes::from_static(b"ping"));
    settle(net);
    let mut out = Vec::new();
    net.drain_into(b, &mut out);
    net.drain_into(c, &mut out);
    assert_eq!(out.len(), 2, "[{label}] both targets hear a broadcast");
    assert!(
        out.iter()
            .all(|e| e.payload().map(|p| p.as_ref()) == Some(b"ping".as_ref())),
        "[{label}] payloads must arrive byte-identical"
    );
    out.clear();
    net.drain_into(a, &mut out);
    assert!(out.is_empty(), "[{label}] broadcast must skip the sender");
    let st = net.stats();
    assert_eq!(st.sent, 2, "[{label}] broadcast counts one send per target");
    assert_eq!(st.delivered, 2, "[{label}] both sends delivered");
}

/// The crash observable the paper's de-randomization attacks hinge on:
/// a peer that exchanged traffic with a crashed endpoint observes a
/// connection closure; sends into the outage dead-letter and bounce a
/// closure back; a restarted endpoint serves again with a clean table.
pub fn check_crash_restart<T: Transport>(net: &mut T, label: &str) {
    let attacker = net.register("attacker");
    let server = net.register("server");
    net.send(attacker, server, Bytes::from_static(b"probe"));
    settle(net);
    let mut out = Vec::new();
    net.drain_into(server, &mut out);
    assert_eq!(out.len(), 1, "[{label}] probe reaches the server");

    net.crash(server);
    settle(net);
    out.clear();
    net.drain_into(attacker, &mut out);
    let closures = out.iter().filter(|e| e.is_closure()).count();
    assert!(
        closures >= 1,
        "[{label}] a connected peer must observe the crash as a closure \
         (saw {closures})"
    );
    assert!(
        out.iter().filter(|e| e.is_closure()).all(|e| e.peer() == server),
        "[{label}] the closure names the crashed endpoint"
    );

    // A send into the outage is dead-lettered and bounces a closure.
    let before = net.stats();
    net.send(attacker, server, Bytes::from_static(b"into the void"));
    settle(net);
    let after = net.stats();
    assert_eq!(
        after.dead_lettered,
        before.dead_lettered + 1,
        "[{label}] sends to a crashed endpoint dead-letter"
    );
    out.clear();
    net.drain_into(attacker, &mut out);
    assert!(
        out.iter().any(|e| e.is_closure() && e.peer() == server),
        "[{label}] the dead-lettered sender is told the connection closed"
    );

    // After restart the endpoint serves again, with a clean table.
    net.restart(server);
    net.send(attacker, server, Bytes::from_static(b"after restart"));
    settle(net);
    out.clear();
    net.drain_into(server, &mut out);
    let delivered: Vec<_> = out.iter().filter_map(NetEvent::payload).collect();
    assert_eq!(delivered.len(), 1, "[{label}] a restarted endpoint receives");
    assert_eq!(delivered[0].as_ref(), b"after restart");

    let st = net.stats();
    assert_eq!(
        st.delivered + st.dropped + st.dead_lettered,
        st.sent,
        "[{label}] conservation must hold across crash/restart: {st:?}"
    );
}

/// Malformed frames are counted where they are detected — by the
/// consumer, reported back through the transport.
pub fn check_malformed_counting<T: Transport>(net: &mut T, label: &str) {
    assert_eq!(net.stats().malformed, 0);
    net.note_malformed();
    net.note_malformed();
    let st = net.stats();
    assert_eq!(st.malformed, 2, "[{label}] malformed reports accumulate");
    assert_eq!(st.sent, 0, "[{label}] malformed counting is orthogonal to sends");
}

/// The books balance at quiescence: every accepted send is delivered,
/// dropped, or dead-lettered — nothing vanishes, even across a crash.
pub fn check_conservation<T: Transport>(net: &mut T, label: &str) {
    let a = net.register("a");
    let b = net.register("b");
    let c = net.register("c");
    for i in 0..8u32 {
        let to = if i % 2 == 0 { b } else { c };
        net.send(a, to, Bytes::from_static(b"load"));
    }
    settle(net);
    net.crash(b);
    settle(net);
    net.send(a, b, Bytes::from_static(b"lost"));
    net.send(c, a, Bytes::from_static(b"still up"));
    settle(net);
    let st = net.stats();
    assert_eq!(st.sent, 10, "[{label}] every send is counted");
    assert_eq!(
        st.delivered + st.dropped + st.dead_lettered,
        st.sent,
        "[{label}] conservation identity violated at quiescence: {st:?}"
    );
}

/// `drain_closure_count` must agree exactly with the default
/// drain-and-filter path on identically prepared instances — backends
/// that answer without materializing events (O(1) counting) cannot
/// change the answer.
pub fn check_drain_closure_count<T: Transport>(mk: &mut impl FnMut() -> T, label: &str) {
    // Prepare the same observable state twice: a peer with one pending
    // message, one crash-induced closure, and one dead-letter closure.
    let prepare = |net: &mut T| {
        let a = net.register("a");
        let s = net.register("s");
        net.send(s, a, Bytes::from_static(b"payload"));
        net.send(a, s, Bytes::from_static(b"probe"));
        settle(net);
        let mut sink = Vec::new();
        net.drain_into(s, &mut sink);
        net.crash(s);
        settle(net);
        net.send(a, s, Bytes::from_static(b"bounce"));
        settle(net);
        a
    };

    let mut via_default = mk();
    let a1 = prepare(&mut via_default);
    // The trait's documented default, spelled out.
    let mut out = Vec::new();
    via_default.drain_into(a1, &mut out);
    let expect = out.iter().filter(|e| e.is_closure()).count() as u64;
    assert!(expect >= 1, "[{label}] the prepared state contains closures");

    let mut via_override = mk();
    let a2 = prepare(&mut via_override);
    let got = via_override.drain_closure_count(a2);
    assert_eq!(
        got, expect,
        "[{label}] drain_closure_count must be bit-identical to \
         drain-and-filter"
    );
    // And the inbox really is discarded: a second call answers zero.
    assert_eq!(
        via_override.drain_closure_count(a2),
        0,
        "[{label}] a drained inbox has no closures left"
    );
}
