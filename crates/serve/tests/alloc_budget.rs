//! Allocation budget of the serving path: after warm-up, a served `Add`
//! moves its three ciphertexts through buffers that already exist — the
//! client's request and reply frames, the connection's two frame buffers,
//! the scratch pool's polynomials — so a reintroduced copy or clone shows
//! up here as a count, not as a few percent on a noisy benchmark.
//!
//! Its own test binary: the counting allocator sees every thread of the
//! process, so nothing else may run beside the measured request.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ckks::serialize::serialize_ciphertext;
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn a_warm_served_add_allocates_almost_nothing_large() {
    // Three 4096-coefficient limbs: every component is 96 KiB, so each
    // polynomial, ciphertext and frame is a large allocation.
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(12)
            .levels(3)
            .scale_bits(40)
            .first_modulus_bits(50)
            .dnum(3)
            .build()
            .unwrap(),
    );
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
