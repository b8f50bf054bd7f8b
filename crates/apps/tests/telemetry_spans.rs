//! End-to-end telemetry check: runs one encrypted HELR-style update step
//! (an inner-product fold, then the sigmoid's quadratic term) with
//! measurement spans active and verifies that (a) the computation still
//! decrypts to the plaintext reference and (b) the span layer attributes
//! the expected structure of operations to each primitive.

use ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn helr_style_step_is_measured_and_correct() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(5)
            .scale_bits(30)
            .first_modulus_bits(36)
            .special_modulus_bits(36)
            .dnum(2)
            .build()
            .expect("test parameters are valid"),
    );
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());
    let keygen = KeyGenerator::new(ctx.clone());
    let mut rng = StdRng::seed_from_u64(99);
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let gk = keygen.galois_keys(&mut rng, &sk, &[1, 2, 3, 4], false);

    let slots = encoder.slots();
    let scale = ctx.params().scale();
    let xs: Vec<f64> = (0..slots).map(|i| 0.04 * i as f64 - 0.5).collect();
    let ws: Vec<f64> = (0..slots).map(|i| 0.3 - 0.02 * i as f64).collect();
    let cx: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let cw: Vec<Complex> = ws.iter().map(|&w| Complex::new(w, 0.0)).collect();
    let ct_x = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&cx, 5, scale).unwrap(), &sk);
    let ct_w = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&cw, 5, scale).unwrap(), &sk);

    // One gradient-style step: inner product fold of w·x, then the
    // degree-3 sigmoid's quadratic term via squaring.
    telemetry::reset();
    telemetry::capture_spans(usize::MAX);
    let prod = evaluator.mul(&ct_x, &ct_w, &rlk);
    let folded = evaluator.sum_slots(&prod, 3, &gk);
    let act = evaluator.square(&folded, &rlk);
    let spans = telemetry::capture_spans(0);
    let snap = telemetry::snapshot();

    // Plaintext reference for the same schedule.
    let dot: Vec<f64> = (0..slots)
        .map(|i| {
            (0..8)
                .map(|j| xs[(i + j) % slots] * ws[(i + j) % slots])
                .sum()
        })
        .collect();
    let decryptor = Decryptor::new(ctx.clone());
    let decrypted = encoder.decode(&decryptor.decrypt(&act, &sk));
    for (got, want) in decrypted.iter().zip(dot.iter().map(|d| d * d)) {
        assert!(
            (got.re - want).abs() < 1e-3,
            "slot mismatch: {} vs {want}",
            got.re
        );
    }

    // Structural assertions on the measured profile.
    assert!(snap.mults > 0 && snap.adds > 0, "ops were counted");
    assert!(
        snap.ntt_fwd > 0 && snap.ntt_inv > 0,
        "transforms were counted"
    );
    assert!(snap.ext_terms > 0, "basis-extension terms were counted");

    // The three-rung fold runs as the stages {1, 2, 3} and {4} of one
    // `RotateFold`: a ModUp and a ModDown per stage, an inner product per
    // step, one more ModDown when the ladder ends — and no full key switch.
    // The two multiplications run the same three phases (their ModDown is
    // merged with the rescale). Nested phases are attributed inclusively.
    // Per span name: how many closed, and their summed counter deltas.
    let report = |name: &str| {
        let mut total = telemetry::Snapshot::default();
        let calls = spans.iter().filter(|s| s.name == name).fold(0, |n, s| {
            total.accumulate(&s.ops);
            n + 1
        });
        (calls, total)
    };
    assert_eq!(report("KeySwitch").0, 0);
    assert_eq!(report("Rotate").0, 0);
    let (fold_calls, fold) = report("RotateFold");
    assert_eq!(fold_calls, 1);
    let (mult_calls, mult) = report("Mult");
    assert_eq!(mult_calls, 2);
    let (modup_calls, modup) = report("ModUp");
    let (inner_calls, inner) = report("KSKInnerProd");
    let (moddown_calls, moddown) = report("ModDown");
    assert_eq!(modup_calls, 2 + 2);
    assert_eq!(inner_calls, 2 + 4);
    assert_eq!(moddown_calls, 2 + 3);
    let phase_mults = modup.mults + inner.mults + moddown.mults;
    assert!(
        phase_mults <= fold.mults + mult.mults,
        "nested phases are included in the enclosing spans"
    );
    assert!(
        fold.mults + mult.mults <= snap.mults,
        "span totals never exceed the global counters"
    );

    // Reset clears the counters; capture, once off, records nothing.
    telemetry::reset();
    assert_eq!(telemetry::snapshot().mults, 0);
    let _ = evaluator.rotate(&ct_x, 1, &gk);
    assert!(telemetry::capture_spans(0).is_empty());
}
