//! Crypto layer timings at the serve workload's message sizes.
//!
//! One request round trip through an S2 stack over the simulated network
//! yields a real doubly-signed reply; the crypto primitives are then
//! timed in a loop on that reply's encoded bytes — the same sizes the
//! serve loop's client verifies and its proxies sign.

use std::hint::black_box;
use std::time::Instant;

use fortress_core::client::FortressClient;
use fortress_core::system::{Stack, StackConfig, SystemClass};
use fortress_core::wire::WireMsg;
use fortress_crypto::sig::DoublySigned;
use fortress_crypto::{HmacSha256, KeyAuthority, Signer};

use crate::Report;

/// Calls per timed primitive.
const CALLS: u32 = 20_000;

/// The encoded signed reply a benign serve request gets back.
fn reply_bytes() -> Vec<u8> {
    let mut stack = Stack::new(StackConfig {
        class: SystemClass::S2Fortress,
        seed: 1,
        ..StackConfig::default()
    })
    .expect("default S2 stack assembles");
    stack.add_client("c");
    let mut client = FortressClient::new("c", stack.authority(), stack.ns().clone());
    stack.submit("c", &client.request(crate::serve::OP));
    stack.pump();
    stack
        .drain_client("c")
        .iter()
        .find_map(|ev| match WireMsg::decode(ev.payload()?) {
            WireMsg::ProxyResponse(resp) => Some(resp.reply.encode()),
            _ => None,
        })
        .expect("a benign request is answered")
}

fn mean_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..CALLS {
        f();
    }
    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(CALLS)
}

/// Records `crypto.mac_us`, `crypto.sign_us` and `crypto.verify2_us`.
pub fn record(report: &mut Report) {
    let msg = reply_bytes();
    let authority = KeyAuthority::with_seed(7);
    let server = Signer::register("pb-0", &authority);
    let proxy = Signer::register("proxy-0", &authority);
    let key = [0x5au8; 32];
    let signed = DoublySigned::over_sign(msg.clone(), server.sign(&msg), &proxy);
    let (servers, proxies) = (["pb-0".to_string()], ["proxy-0".to_string()]);
    assert!(signed.verify(&authority, &servers, &proxies).is_ok());

    let mac = mean_us(|| {
        black_box(HmacSha256::mac_parts(black_box(&key), &[black_box(&msg)]));
    });
    let sign = mean_us(|| {
        black_box(server.sign(black_box(&msg)));
    });
    let verify2 = mean_us(|| {
        black_box(
            black_box(&signed)
                .verify(&authority, &servers, &proxies)
                .is_ok(),
        );
    });
    report.layer("crypto.mac_us", mac, "us");
    report.layer("crypto.sign_us", sign, "us");
    report.layer("crypto.verify2_us", verify2, "us");
    report
        .notes
        .push(format!("crypto timed on a {}-byte signed reply", msg.len()));
}
