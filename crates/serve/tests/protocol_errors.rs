//! Error-path coverage for the wire protocol: every structured error code
//! a client can provoke, plus the echo shortcut, deadline rejection, the
//! worker queue's bound, the Hello bodies older clients send, and what a
//! length prefix alone can make the server commit to memory.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ckks::hoisting::LinearTransform;
use ckks::serialize::{serialize_ciphertext, serialize_switching_key};
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::codec::limb_width;
use fhe_serve::protocol::{read_frame, BodyWriter, FrameRead, Opcode, DEFAULT_MAX_FRAME_BYTES};
use fhe_serve::{
    Client, ClientError, ErrorCode, FaultDecision, FaultMix, FaultPlan, RetryPolicy,
    RetryingClient, ServeConfig, Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(3)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    )
}

fn expect_code(result: Result<Vec<u8>, ClientError>, want: ErrorCode) {
    match result {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
        other => panic!("expected {want:?}, got {other:?}"),
    }
}

#[test]
fn structured_errors_cover_the_misuse_space() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();

    // Unknown opcode.
    expect_code(client.call_raw(0xee, &[]), ErrorCode::UnknownOpcode);
    // So is the retired 0x17 tag: a HELR step is an uploaded program now.
    expect_code(client.call_raw(0x17, &[]), ErrorCode::UnknownOpcode);

    // Unknown session.
    let mut w = BodyWriter::new();
    w.u64(424242).blob(b"x").blob(b"y");
    expect_code(
        client.call_raw(Opcode::Add as u8, &w.0),
        ErrorCode::NoSession,
    );

    let sid = client.hello().unwrap();

    // Truncated body.
    let mut w = BodyWriter::new();
    w.u64(sid);
    expect_code(
        client.call_raw(Opcode::Add as u8, &w.0),
        ErrorCode::Malformed,
    );

    // Garbage ciphertext bytes.
    let mut w = BodyWriter::new();
    w.u64(sid).blob(b"not MADf").blob(b"also not");
    expect_code(
        client.call_raw(Opcode::Add as u8, &w.0),
        ErrorCode::Malformed,
    );

    // Garbage key upload.
    let mut w = BodyWriter::new();
    w.u64(sid).raw(b"garbage key");
    expect_code(
        client.call_raw(Opcode::UploadRelin as u8, &w.0),
        ErrorCode::Malformed,
    );

    // Ops needing keys the session never uploaded.
    let mut rng = StdRng::seed_from_u64(7);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let pt = encoder
        .encode(&[Complex::new(0.5, 0.0)], 3, ctx.params().scale())
        .unwrap();
    let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    match client.mult(sid, &ct, &ct) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::MissingKey),
        other => panic!("expected MissingKey, got {other:?}"),
    }
    match client.rotate(sid, &ct, 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::MissingKey),
        other => panic!("expected MissingKey, got {other:?}"),
    }

    // Rotation by zero needs no key at all and echoes the input.
    let echoed = client.rotate(sid, &ct, 0).unwrap();
    assert_eq!(serialize_ciphertext(&echoed), serialize_ciphertext(&ct));

    server.shutdown();
}

/// A ciphertext operand is exactly its length: padding after it — behind a
/// `Rotate`'s steps, where the operand is the body's rest, or inside an
/// `Add` blob whose length counts the padding — is `Malformed`, not
/// ignored.
#[test]
fn a_padded_operand_is_malformed() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.5, 0.0)], 3, ctx.params().scale())
        .unwrap();
    let ct =
        serialize_ciphertext(&Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk));
    let mut padded = ct.clone();
    padded.extend_from_slice(&[0; 8]);

    // A rotation by zero needs no key: only the operand can refuse it.
    let rotate = |client: &mut Client, operand: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).i64(0).raw(operand);
        client.call_raw(Opcode::Rotate as u8, &w.0)
    };
    expect_code(rotate(&mut client, &padded), ErrorCode::Malformed);
    assert_eq!(rotate(&mut client, &ct).unwrap(), ct);

    let add = |client: &mut Client, a: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).blob(a).blob(&ct);
        client.call_raw(Opcode::Add as u8, &w.0)
    };
    expect_code(add(&mut client, &padded), ErrorCode::Malformed);
    add(&mut client, &ct).unwrap();
    server.shutdown();
}

/// A fresh operand travels seeded (`c_0`, then the 32-byte seed its `c_1`
/// expands from, behind form byte 1): a form byte that is neither form, a
/// seed cut short or a byte after the seed is `Malformed`, in a `Rotate`'s
/// trailing operand and in an `Add` blob alike.
#[test]
fn a_seeded_operand_with_a_bad_form_a_short_seed_or_a_trailing_byte_is_malformed() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.25, 0.5)], 3, ctx.params().scale())
        .unwrap();
    let fresh = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    assert!(fresh.is_seeded());
    let ct = serialize_ciphertext(&fresh);
    // Magic, version, degree, limb count, three moduli, the scale.
    let form_at = 4 + 1 + 4 + 4 + 8 * 3 + 8;
    assert_eq!(ct[form_at], 1, "a fresh operand is seeded");
    let mut bad_form = ct.clone();
    bad_form[form_at] = 2;
    let short_seed = ct[..ct.len() - 1].to_vec();
    let mut trailing = ct.clone();
    trailing.push(0);

    let rotate = |client: &mut Client, operand: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).i64(0).raw(operand);
        client.call_raw(Opcode::Rotate as u8, &w.0)
    };
    let add = |client: &mut Client, a: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).blob(a).blob(&ct);
        client.call_raw(Opcode::Add as u8, &w.0)
    };
    for operand in [&bad_form, &short_seed, &trailing] {
        expect_code(rotate(&mut client, operand), ErrorCode::Malformed);
        expect_code(add(&mut client, operand), ErrorCode::Malformed);
    }
    // The session still serves the well-formed operand.
    assert_eq!(rotate(&mut client, &ct).unwrap(), ct);
    add(&mut client, &ct).unwrap();
    server.shutdown();
}

/// A relin key whose digit count is not the context's `dnum` is refused at
/// upload, so no `Mult` ever runs a key switch it cannot finish.
#[test]
fn a_relin_key_with_the_wrong_digit_count_is_malformed_at_upload() {
    let ctx = small_ctx(); // dnum = 2
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let good = serialize_switching_key(kg.relin_key_compressed(&mut rng, &sk).switching_key());

    // One digit: the count rewritten and the second `b` cut off, each of
    // its limbs packed at its modulus's width.
    let full = ctx.full_basis();
    let count_at = 5 + 8 + 8 * full.len();
    let b_bytes: usize = full.moduli().iter().map(|m| limb_width(m.value())).sum();
    let mut one = good.clone();
    one[count_at..count_at + 4].copy_from_slice(&1u32.to_le_bytes());
    one.truncate(good.len() - b_bytes * full.degree());
    let mut w = BodyWriter::new();
    w.u64(sid).raw(&one);
    expect_code(
        client.call_raw(Opcode::UploadRelin as u8, &w.0),
        ErrorCode::Malformed,
    );

    let mut w = BodyWriter::new();
    w.u64(sid).raw(&good);
    client.call_raw(Opcode::UploadRelin as u8, &w.0).unwrap();
    server.shutdown();
}

/// A key's wire form is exactly its length: a relin key with one byte
/// after its last `b_j` is `Malformed` at upload, so a session never
/// stores (and counts) the padding.
#[test]
fn a_relin_key_with_a_trailing_byte_is_malformed_at_upload() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let good = serialize_switching_key(kg.relin_key(&mut rng, &sk).switching_key());
    let upload = |client: &mut Client, key: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).raw(key);
        client.call_raw(Opcode::UploadRelin as u8, &w.0)
    };
    let mut long = good.clone();
    long.push(0);
    expect_code(upload(&mut client, &long), ErrorCode::Malformed);
    upload(&mut client, &good).unwrap();
    server.shutdown();
}

/// As a relin key, so a Galois bundle: one byte after its last entry is
/// `Malformed` at upload.
#[test]
fn a_galois_bundle_with_a_trailing_byte_is_malformed_at_upload() {
    use ckks::serialize::serialize_galois_keys;
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let good = serialize_galois_keys(&kg.galois_keys(&mut rng, &sk, &[1, 2], false));
    let upload = |client: &mut Client, bundle: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).raw(bundle);
        client.call_raw(Opcode::UploadGalois as u8, &w.0)
    };
    let mut long = good.clone();
    long.push(0);
    expect_code(upload(&mut client, &long), ErrorCode::Malformed);
    upload(&mut client, &good).unwrap();
    server.shutdown();
}

/// A Galois key is checked whole at upload: an unreduced residue in a limb
/// that a level-2 rotation never reads — which the level's expansion would
/// never decode — is `Malformed` then, not a latent fault of a later
/// rotation at a higher level.
#[test]
fn a_galois_key_with_an_unreduced_residue_above_the_level_is_malformed_at_upload() {
    use ckks::serialize::{deserialize_switching_key_at, serialize_galois_keys};
    let ctx = small_ctx(); // L = 3, α = k = 2, dnum = 2
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let good = serialize_galois_keys(&gk);

    // The bundle's one key sits behind its count, element and length; its
    // `b_0` behind the key's header, digit count, seed flag and seed. Q-limb
    // 2 of `b_0` is above level 2.
    // Limbs are packed at their moduli's widths: the all-ones field of
    // that limb's first word is out of range.
    let full = ctx.full_basis();
    let width = |i: usize| limb_width(full.modulus(i).value());
    let key_at = 5 + 4 + 8 + 4;
    let b0_at = key_at + 5 + 8 + 8 * full.len() + 4 + 1 + 32;
    let word_at = b0_at + (width(0) + width(1)) * full.degree();
    let mut bad = good.clone();
    bad[word_at..word_at + width(2)].fill(0xff);
    assert!(
        deserialize_switching_key_at(&ctx, &bad[key_at..], 2).is_ok(),
        "a level-2 expansion never reads the bad limb"
    );
    let upload = |client: &mut Client, bundle: &[u8]| {
        let mut w = BodyWriter::new();
        w.u64(sid).raw(bundle);
        client.call_raw(Opcode::UploadGalois as u8, &w.0)
    };
    expect_code(upload(&mut client, &bad), ErrorCode::Malformed);

    upload(&mut client, &good).unwrap();
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.5, 0.0)], 2, ctx.params().scale())
        .unwrap();
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    assert_eq!(client.rotate(sid, &ct, 1).unwrap().limb_count(), 2);
    server.shutdown();
}

/// A `Bsgs` body whose diagonal offsets repeat or descend is refused, as a
/// program's `MatDecl` is: a repeated offset would replace a diagonal, and
/// the client would get the product of a matrix it never sent. A rotation
/// by a whole number of turns is a copy and needs no key.
#[test]
fn bsgs_offsets_must_increase_and_a_whole_turn_is_a_free_copy() {
    let ctx = small_ctx();
    let slots = ctx.params().slots();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let pt = encoder
        .encode(&[Complex::new(0.25, 0.5)], 3, ctx.params().scale())
        .unwrap();
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);

    // No key uploaded yet: a whole turn either way echoes the input.
    for steps in [slots as i64, -2 * slots as i64] {
        let echoed = client.rotate(sid, &ct, steps).unwrap();
        assert_eq!(serialize_ciphertext(&echoed), serialize_ciphertext(&ct));
    }

    client
        .upload_galois(
            sid,
            &kg.galois_keys_compressed(&mut rng, &sk, &[1, 2], false),
        )
        .unwrap();
    let body = |offsets: &[u32]| {
        let mut w = BodyWriter::new();
        w.u64(sid).u32(2).u32(offsets.len() as u32);
        for &d in offsets {
            w.u32(d);
            for _ in 0..2 * slots {
                w.f64(0.125);
            }
        }
        w.raw(&serialize_ciphertext(&ct));
        w.0
    };
    assert!(client.call_raw(Opcode::Bsgs as u8, &body(&[1, 2])).is_ok());
    for offsets in [[1, 1], [2, 1]] {
        expect_code(
            client.call_raw(Opcode::Bsgs as u8, &body(&offsets)),
            ErrorCode::Malformed,
        );
    }
    server.shutdown();
}

/// A `Bsgs` of a one-limb ciphertext has no level left to multiply at: it
/// is `Malformed`, as a `Mult`, `PtMult` or `Rescale` of one is, whatever
/// its diagonals. Refused before it runs, it cannot fail inside the
/// context's shared caches, so a later `Rotate` from another session still
/// answers exactly what the library computes.
#[test]
fn a_one_limb_bsgs_is_malformed_and_rotations_still_run() {
    let ctx = small_ctx();
    let slots = ctx.params().slots();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 2], false);
    let (encoder, encryptor) = (Encoder::new(ctx.clone()), Encryptor::new(ctx.clone()));
    let mut encrypt = |limbs| {
        let pt = encoder
            .encode(&[Complex::new(0.25, 0.5)], limbs, ctx.params().scale())
            .unwrap();
        encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
    };
    let (low, top) = (encrypt(1), encrypt(3));
    assert_eq!(low.limb_count(), 1);

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_galois(sid, &gk).unwrap();
    for offsets in [&[1, 2][..], &[0]] {
        let diagonal = vec![Complex::new(0.125, 0.0); slots];
        let diagonals = offsets.iter().map(|&d| (d, diagonal.clone())).collect();
        let lt = LinearTransform::from_diagonals(diagonals, slots);
        match client.bsgs(sid, &low, &lt, 2) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("one-limb bsgs over {offsets:?}: {:?}", other.map(|_| ())),
        }
    }

    let mut other = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let other_sid = other.hello().unwrap();
    other.upload_galois(other_sid, &gk).unwrap();
    let remote = other.rotate(other_sid, &top, 1).unwrap();
    let local = Evaluator::new(ctx.clone()).rotate(&top, 1, &gk);
    assert_eq!(serialize_ciphertext(&remote), serialize_ciphertext(&local));
    server.shutdown();
}

/// An `Add` whose operands' scales the evaluator would refuse — apart
/// beyond its tolerance, or not finite positive numbers — is a client
/// mistake: it is answered `Malformed`, which a retrying client gives up on
/// after one attempt, not `Internal` from a caught panic, which it retries.
#[test]
fn an_add_of_mismatched_or_garbage_scales_is_malformed_and_not_retried() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();

    let mut rng = StdRng::seed_from_u64(13);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let delta = ctx.params().scale();
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.5, 0.0)], 3, delta)
        .unwrap();
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    let at = |scale: f64| Ciphertext::new(ct.c0().clone(), ct.c1().clone(), scale);
    let squared = at(delta * delta);
    for (a, b) in [
        (at(delta), at(delta * delta)),
        (at(f64::NAN), at(f64::NAN)),
        (at(f64::INFINITY), at(f64::INFINITY)),
        (at(0.0), at(0.0)),
        (at(-delta), at(-delta)),
    ] {
        match client.add(sid, &a, &b) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("scales {} and {}: {other:?}", a.scale(), b.scale()),
        }
    }
    // The connection and the worker are fine: a well-formed add succeeds.
    client.add(sid, &ct, &ct).unwrap();

    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let mut retrying = RetryingClient::connect(server.local_addr(), ctx, policy).unwrap();
    let before = retrying.stats();
    match retrying.add(&ct, &squared) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    let after = retrying.stats();
    assert_eq!(after.attempts - before.attempts, 1, "{after:?}");
    assert_eq!((after.retries, after.gave_up), (0, 0), "{after:?}");
    server.shutdown();
}

#[test]
fn version_mismatch_is_answered_not_dropped() {
    let ctx = small_ctx();
    let server = Server::start(ctx, ServeConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // Hand-rolled frame with a bad version byte.
    let body = [0u8; 0];
    let len = (2 + body.len()) as u32;
    stream.write_all(&len.to_le_bytes()).unwrap();
    stream.write_all(&[99, Opcode::Hello as u8]).unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap() {
        FrameRead::Frame(f) => {
            assert_eq!(f.tag, ErrorCode::UnsupportedVersion as u8);
        }
        other => panic!("expected a frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversize_frame_is_rejected_and_connection_closed() {
    let ctx = small_ctx();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            max_frame_bytes: 1024,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    expect_code(
        client.call_raw(Opcode::Hello as u8, &vec![0u8; 4096]),
        ErrorCode::FrameTooLarge,
    );
    // The server dropped the out-of-sync connection; the next call fails.
    assert!(client.call_raw(Opcode::Hello as u8, &[]).is_err());
    server.shutdown();
}

#[test]
fn zero_deadline_rejects_every_queued_request() {
    let ctx = small_ctx();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            request_deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    expect_code(
        client.call_raw(Opcode::Hello as u8, &[]),
        ErrorCode::DeadlineExceeded,
    );
    let dump = server.metrics_dump();
    assert!(
        dump.contains("serve_rejected_deadline_total 1"),
        "deadline rejection must be counted:\n{dump}"
    );
    server.shutdown();
}

/// The memory a connection commits follows the bytes it has *received*: a
/// prefix announcing the largest frame the server accepts, followed by a
/// stall, must not reserve that frame. The connection's buffer is private
/// to its shard loop, so its capacity is observed where it is requested —
/// at the allocator, across every thread of this process (the other tests
/// of this binary serve 32-coefficient rings and allocate nothing near the
/// bound asserted here).
#[test]
fn a_length_prefix_alone_reserves_no_frame() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    counting_alloc::reset();
    stream
        .write_all(&DEFAULT_MAX_FRAME_BYTES.to_le_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        counting_alloc::largest() <= 128 << 10,
        "64 MiB announced, 4 bytes sent: something reserved {} bytes",
        counting_alloc::largest()
    );
    // A first slice of the body arrives; the buffer may now run ahead of
    // it, but only by as much again.
    let slice = vec![0u8; 100 << 10];
    stream.write_all(&slice).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        counting_alloc::largest() <= 2 * slice.len() + (64 << 10),
        "64 MiB announced, {} bytes sent: something reserved {} bytes",
        4 + slice.len(),
        counting_alloc::largest()
    );

    // The stalled connection holds no one else up.
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    assert!(client.hello().unwrap() > 0);
    drop(stream);
    server.shutdown();
}

/// The value of a label-less sample in the server's metrics dump.
fn metric(server: &Server, name: &str) -> u64 {
    let dump = server.metrics_dump();
    let line = dump
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("{name} missing from the dump"))
        .parse()
        .unwrap()
}

/// Polls until the server has accepted `requests` requests and exactly
/// `depth` of them wait in the worker queue.
fn await_queue(server: &Server, requests: u64, depth: u64) {
    let asked = Instant::now();
    while (
        metric(server, "serve_requests_total"),
        metric(server, "serve_queue_depth"),
    ) != (requests, depth)
    {
        assert!(
            asked.elapsed() < Duration::from_secs(10),
            "never saw {requests} accepted with {depth} queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The worker queue holds at most `queue_capacity` requests, keyed ones
/// included. One worker, `queue_capacity` 1: while an injected delay
/// holds the worker on the first rotate, a second waits in the queue and
/// a third is refused `Overloaded` at once. Both accepted rotates answer
/// what the library computes.
#[test]
fn a_full_worker_queue_refuses_the_next_keyed_request() {
    // Every evaluation op draws a delay (setup frames are spared) and the
    // budget is one: seed 6 draws 858 ms of the 1 s range for the first.
    const SEED: u64 = 6;
    let mix = FaultMix {
        delay: 1000,
        overloaded: 0,
        delay_cap: Duration::from_secs(1),
        ..FaultMix::latency()
    };
    assert!(mix.spare_setup);
    match FaultPlan::new(SEED, mix.clone(), 1).decide(Opcode::Rotate) {
        Some(FaultDecision::Delay(d)) => assert!(d >= Duration::from_millis(500), "{d:?}"),
        other => panic!("seed {SEED} draws {other:?}"),
    }

    let ctx = small_ctx();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            shards: 1,
            workers: 1,
            queue_capacity: 1,
            fault_plan: Some(Arc::new(FaultPlan::new(SEED, mix, 1))),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.5, -0.25)], 3, ctx.params().scale())
        .unwrap();
    let ct = Arc::new(Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk));

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_galois(sid, &gk).unwrap();
    let rotate_in_thread = || {
        let (addr, ctx, ct) = (server.local_addr(), ctx.clone(), ct.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, ctx).unwrap();
            serialize_ciphertext(&client.rotate(sid, &ct, 1).unwrap())
        })
    };
    // Hello and the upload, then the first rotate, picked up and held.
    let held = rotate_in_thread();
    await_queue(&server, 3, 0);
    let queued = rotate_in_thread();
    await_queue(&server, 4, 1);

    match client.rotate(sid, &ct, 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("a full queue took a request: {:?}", other.map(|_| ())),
    }
    assert_eq!(metric(&server, "serve_rejected_overload_total"), 1);

    let reference = Evaluator::new(ctx.clone()).rotate(&ct, 1, &gk);
    for rotate in [held, queued] {
        assert_eq!(rotate.join().unwrap(), serialize_ciphertext(&reference));
    }
    server.shutdown();
}

/// A Hello body is not read: the empty body of today's client, an older
/// client's batching-hint byte (`0` or `2`) and trailing garbage each
/// open a session, and the reply keeps its layout — session id, flags
/// byte 1, backend name.
#[test]
fn legacy_hello_bodies_each_open_a_session() {
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    let mut sessions = Vec::new();
    for body in [&[][..], &[0], &[2], &[0xff, 0xff, 0xff]] {
        let reply = client.call_raw(Opcode::Hello as u8, body).unwrap();
        assert_eq!(reply[8], 1, "flags byte after {body:?}");
        assert_eq!(&reply[9..], server.kernel_backend_name().as_bytes());
        sessions.push(u64::from_le_bytes(reply[..8].try_into().unwrap()));
    }
    for (i, &sid) in sessions.iter().enumerate() {
        assert!(!sessions[..i].contains(&sid), "session {sid} minted twice");
        client.close_session(sid).unwrap();
    }
    server.shutdown();
}
