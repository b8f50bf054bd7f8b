//! Protocol fuzzing: throw random bytes and mutated-but-plausible frames
//! at a live server and assert the connection handler's contract — every
//! reply is either a success frame or a structured [`ErrorCode`], the
//! connection closes cleanly, the server never panics, and it keeps
//! serving well-formed clients afterwards. Runs under the default
//! feature set; no chaos plumbing involved.

use ckks::{CkksContext, CkksParams};
use fhe_serve::protocol::{frame_bytes, read_frame, FrameRead, DEFAULT_MAX_FRAME_BYTES};
use fhe_serve::{Client, ClientError, ErrorCode, Opcode, ServeConfig, Server};
use proptest::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One server shared by every fuzz case: surviving hundreds of hostile
/// connections *on the same instance* is exactly the property under test.
fn shared() -> &'static (Arc<CkksContext>, Server) {
    static SHARED: OnceLock<(Arc<CkksContext>, Server)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(3)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        );
        let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
        (ctx, server)
    })
}

/// Writes `bytes` to a fresh connection, half-closes, and drains replies.
/// Fails the case on a panic-shaped outcome: an unstructured status tag,
/// a reply that never arrives (hang), or a server that stops accepting
/// healthy clients afterwards.
fn exercise(bytes: &[u8]) {
    let (ctx, server) = shared();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("server must keep accepting");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    // The server may legally slam the connection mid-write (e.g. after an
    // unrecoverable framing error); only a hang or a malformed reply is a
    // failure.
    match stream.write_all(bytes) {
        Ok(()) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
            ) => {}
        Err(e) => panic!("unexpected write failure: {e}"),
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "server kept the connection open past the drain deadline"
        );
        match read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
            Ok(FrameRead::Frame(f)) => {
                assert!(
                    f.tag == 0 || ErrorCode::from_u8(f.tag).is_some(),
                    "unstructured status tag {} in reply",
                    f.tag
                );
            }
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::TooLarge(n)) => panic!("server sent an oversize frame ({n} bytes)"),
            // A reset counts as a close; a timeout is a hang.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::UnexpectedEof
                ) =>
            {
                break
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("server hung instead of replying or closing")
            }
            Err(e) => panic!("unexpected read failure: {e}"),
        }
    }

    // The instance must still serve a well-formed client.
    let mut healthy = Client::connect(addr, ctx.clone()).expect("post-fuzz connect");
    let sid = healthy.hello().expect("post-fuzz hello");
    healthy.close_session(sid).expect("post-fuzz close");
}

/// A plausible frame to mutate: real opcodes, bodies from valid-ish to
/// garbage.
fn base_frame(which: usize, garbage: &[u8]) -> Vec<u8> {
    match which {
        0 => frame_bytes(Opcode::Hello as u8, &[]),
        1 => frame_bytes(Opcode::Add as u8, garbage),
        2 => frame_bytes(Opcode::Metrics as u8, &[]),
        3 => frame_bytes(Opcode::UploadRelin as u8, garbage),
        4 => {
            // UploadProgram: a session id followed by garbage where the
            // MADP program bytes belong.
            let mut body = 1u64.to_le_bytes().to_vec();
            body.extend_from_slice(garbage);
            frame_bytes(Opcode::UploadProgram as u8, &body)
        }
        5 => {
            // RunProgram: session + program ids (the latter almost
            // certainly unknown) followed by garbage inputs.
            let mut body = 1u64.to_le_bytes().to_vec();
            body.extend_from_slice(&7u64.to_le_bytes());
            body.extend_from_slice(garbage);
            frame_bytes(Opcode::RunProgram as u8, &body)
        }
        _ => frame_bytes(0xEE, garbage), // unknown opcode
    }
}

/// Every advertised instruction either runs or is not advertised: each
/// member of `Opcode::ALL` reaches a handler (success or a structured
/// error of its own, never `UnknownOpcode`), and the retired HELR-step
/// tag is refused at the frame parser.
#[test]
fn every_advertised_opcode_is_served_and_the_retired_one_is_not() {
    let (ctx, server) = shared();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    for op in Opcode::ALL {
        assert_eq!(Opcode::from_u8(op as u8), Some(op));
        for body in [&[][..], &[0xAB; 40][..]] {
            match client.call_raw(op as u8, body) {
                Ok(_) => {}
                Err(ClientError::Server { code, .. }) => {
                    assert_ne!(code, ErrorCode::UnknownOpcode, "{op:?} is advertised")
                }
                Err(e) => panic!("{op:?}: connection failed: {e:?}"),
            }
        }
    }
    assert_eq!(Opcode::from_u8(0x17), None);
    match client.call_raw(0x17, &[]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected UnknownOpcode for 0x17, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pure noise: arbitrary byte strings of arbitrary length.
    #[test]
    fn random_bytes_never_wedge_the_server(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        exercise(&bytes);
    }

    /// Structured hostility: take a plausible frame and truncate it,
    /// flip one bit, or append trailing garbage — the mutations a flaky
    /// network or a buggy client actually produces.
    #[test]
    fn mutated_frames_yield_structured_errors_or_clean_close(
        which in 0usize..7,
        mode in 0usize..3,
        cut in any::<u16>(),
        flip in any::<u16>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut frame = base_frame(which, &garbage);
        match mode {
            0 => {
                // Truncate: a torn frame mid-length-prefix or mid-body.
                let keep = (cut as usize) % (frame.len() + 1);
                frame.truncate(keep);
            }
            1 => {
                // Flip one bit anywhere, including inside the length
                // prefix (declares a wrong body size).
                if !frame.is_empty() {
                    let i = (flip as usize) % frame.len();
                    frame[i] ^= 1 << (flip % 8);
                }
            }
            _ => {
                // Trailing garbage after a complete frame: the server
                // answers the valid frame, then must survive the tail.
                frame.extend_from_slice(&garbage);
            }
        }
        exercise(&frame);
    }
}
