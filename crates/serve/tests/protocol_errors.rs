//! Error-path coverage for the wire protocol: every structured error code
//! a client can provoke, plus the echo shortcut, deadline rejection, and
//! what a length prefix alone can make the server commit to memory.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use ckks::serialize::serialize_ciphertext;
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_serve::protocol::{read_frame, BodyWriter, FrameRead, Opcode, DEFAULT_MAX_FRAME_BYTES};
use fhe_serve::{Client, ClientError, ErrorCode, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

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
