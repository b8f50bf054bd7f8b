//! Allocation budget of the serving path: after warm-up, a served `Add`
//! moves its three ciphertexts through buffers that already exist — the
//! client's request and reply frames, the connection's two frame buffers,
//! the scratch pool's polynomials — so a reintroduced copy or clone shows
//! up here as a count, not as a few percent on a noisy benchmark. A served
//! `Rotate` is held to the same budget: its key switch draws the key's
//! `a_j` a limb at a time into one pool lease, so no buffer of them is
//! allocated per request.
//!
//! Its own test binary: the counting allocator sees every thread of the
//! process, so nothing else may run beside the measured request — the
//! tests take [`SERIAL`] first.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ckks::serialize::serialize_ciphertext;
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};

/// Held by each test for its whole run, so one measures alone.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Large allocations one warm served `Add` may make, client and server
/// together. What is left are the two components of the result the client
/// decodes and hands to its caller to keep; the budget leaves room for two
/// more so an allocator-level detail does not fail the test, and none for
/// a copy of a whole operand set. The commit before the in-place codec and
/// framing measured 26 here: per-ciphertext serialization `Vec`s, their
/// copies into the request body, the frame, the server's read buffer,
/// `drain().collect()` and `split_off`, four decoded components, four
/// cloned by `align_levels`, the reply body, its frame, and the client's
/// zero-filled read buffer and `split_off` of it.
const BUDGET: usize = 4;

/// Three 4096-coefficient limbs: every component is 96 KiB, so each
/// polynomial, ciphertext and frame is a large allocation, and so is the
/// key switch's tile of one limb of its three `a_j`.
fn ring() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(12)
            .levels(3)
            .scale_bits(40)
            .first_modulus_bits(50)
            .dnum(3)
            .build()
            .unwrap(),
    )
}

#[test]
fn a_warm_served_add_allocates_almost_nothing_large() {
    let _serial = serial();
    let ctx = ring();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0xa110c);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let mut encrypt = |x: f64| {
        let pt = encoder
            .encode(&[Complex::new(x, 0.0)], 3, ctx.params().scale())
            .unwrap();
        encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
    };
    let (a, b) = (encrypt(0.25), encrypt(-0.5));
    assert!(8 * a.c0().flat().len() >= counting_alloc::LARGE);
    let expected = serialize_ciphertext(&Evaluator::new(ctx.clone()).add(&a, &b));

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    for _ in 0..4 {
        client.add(sid, &a, &b).unwrap();
    }
    counting_alloc::reset();
    let sum = client.add(sid, &a, &b).unwrap();
    let large = counting_alloc::large_allocations();
    assert_eq!(serialize_ciphertext(&sum), expected);
    assert!(
        large <= BUDGET,
        "a warm served Add made {large} allocations of at least {} KiB (budget {BUDGET})",
        counting_alloc::LARGE >> 10
    );
    client.close_session(sid).unwrap();
    server.shutdown();
}

#[test]
fn a_warm_served_rotate_allocates_almost_nothing_large() {
    let _serial = serial();
    let ctx = ring();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x7075);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let gk = keygen.galois_keys(&mut rng, &sk, &[1], false);
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.25, 0.0)], 3, ctx.params().scale())
        .unwrap();
    let a = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    // The key switch's `a_j` tile is as large as any buffer here.
    assert!(8 * 3 * ctx.params().degree() >= counting_alloc::LARGE);
    let expected = serialize_ciphertext(&Evaluator::new(ctx.clone()).rotate(&a, 1, &gk));

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_galois(sid, &gk).unwrap();
    for _ in 0..4 {
        client.rotate(sid, &a, 1).unwrap();
        client.add(sid, &a, &a).unwrap();
    }
    // A warm `Add` on the same connection: what any served result costs.
    counting_alloc::reset();
    client.add(sid, &a, &a).unwrap();
    let add = counting_alloc::large_allocations();
    counting_alloc::reset();
    let rotated = client.rotate(sid, &a, 1).unwrap();
    let large = counting_alloc::large_allocations();
    assert_eq!(serialize_ciphertext(&rotated), expected);
    assert!(
        large <= BUDGET,
        "a warm served Rotate made {large} allocations of at least {} KiB (budget {BUDGET})",
        counting_alloc::LARGE >> 10
    );
    // The key switch adds none of its own: an `a_j` tile allocated per
    // request would be one more than the `Add` made.
    assert!(
        large <= add,
        "a warm served Rotate made {large}, an Add {add}"
    );
    client.close_session(sid).unwrap();
    server.shutdown();
}
