//! Frames that arrive in pieces. The shard loop reads a frame's length
//! prefix and then exactly the rest of it straight into the connection's
//! buffer, so where the socket happens to cut the byte stream — inside the
//! prefix, between header and body, every few bytes of a ciphertext — must
//! not show in the reply: every slicing of a valid `Add` frame is answered
//! with the byte-identical frame an unsliced send gets. The fault plan's
//! torn write is pinned the same way from the other side: what it lets
//! through is a strict prefix of that real frame.

use ckks::serialize::serialize_ciphertext;
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_serve::protocol::{frame_bytes, BodyWriter, Opcode};
use fhe_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn ctx(log_degree: u32, levels: usize) -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(log_degree)
            .levels(levels)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    )
}

/// A server, a session on it, one valid `Add` request frame for that
/// session, and the frame a faithful server answers it with.
struct Rig {
    server: Server,
    request: Vec<u8>,
    reply: Vec<u8>,
}

fn rig(ctx: &Arc<CkksContext>, config: ServeConfig) -> Rig {
    let server = Server::start(ctx.clone(), config).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5711ce);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let levels = ctx.params().levels();
    let mut encrypt = |x: f64| {
        let pt = encoder
            .encode(&[Complex::new(x, -x)], levels, ctx.params().scale())
            .unwrap();
        encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
    };
    let (a, b) = (encrypt(0.375), encrypt(-0.125));
    let sid = Client::connect(server.local_addr(), ctx.clone())
        .unwrap()
        .hello()
        .unwrap();
    let mut body = BodyWriter::new();
    body.u64(sid)
        .blob(&serialize_ciphertext(&a))
        .blob(&serialize_ciphertext(&b));
    let sum = Evaluator::new(ctx.clone()).add(&a, &b);
    Rig {
        server,
        request: frame_bytes(Opcode::Add as u8, &body.0),
        reply: frame_bytes(0, &serialize_ciphertext(&sum)),
    }
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// Reads one whole reply frame, raw.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

/// Writes `frame` in `slice`-byte pieces, pausing — long enough for the
/// shard loop to run dry and park — after every piece that ends within
/// the length prefix or the header, and after every `pause_every`-th.
fn dribble(stream: &mut TcpStream, frame: &[u8], slice: usize, pause_every: usize) {
    let mut sent = 0;
    for (i, piece) in frame.chunks(slice).enumerate() {
        stream.write_all(piece).unwrap();
        sent += piece.len();
        if sent <= 8 || i % pause_every == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[test]
fn a_dribbled_add_frame_gets_the_byte_identical_reply() {
    let ctx = ctx(5, 3);
    let rig = rig(&ctx, ServeConfig::default());
    let mut stream = connect(&rig.server);
    // Unsliced first: the reply is the library's own result, framed.
    stream.write_all(&rig.request).unwrap();
    assert_eq!(read_reply(&mut stream), rig.reply);
    // 1-byte pieces split the prefix three times and the header once; 3-
    // and 7-byte pieces straddle the prefix/header/body boundaries.
    for slice in [1, 3, 7] {
        dribble(&mut stream, &rig.request, slice, 97);
        assert_eq!(read_reply(&mut stream), rig.reply, "{slice}-byte pieces");
    }
    // Two frames back to back in one write, the second cut mid-prefix:
    // the first is answered before a byte past it is consumed.
    let mut two = rig.request.clone();
    two.extend_from_slice(&rig.request[..2]);
    stream.write_all(&two).unwrap();
    assert_eq!(read_reply(&mut stream), rig.reply);
    stream.write_all(&rig.request[2..]).unwrap();
    assert_eq!(read_reply(&mut stream), rig.reply);
    rig.server.shutdown();
}

#[test]
fn a_frame_larger_than_any_one_read_arrives_in_64k_slices() {
    // 4 limbs of 4096 coefficients at 5 and 4 bytes a residue: 136 KiB a
    // ciphertext, 272 KiB a frame.
    let ctx = ctx(12, 4);
    let rig = rig(&ctx, ServeConfig::default());
    assert!(rig.request.len() > 4 * (64 << 10));
    let mut stream = connect(&rig.server);
    for round in 0..2 {
        dribble(&mut stream, &rig.request, 64 << 10, 1);
        assert_eq!(read_reply(&mut stream), rig.reply, "round {round}");
    }
    rig.server.shutdown();
}

/// The chaos layer's torn write lets through a strict prefix of the frame
/// a faithful server would have sent, then drops the connection.
#[test]
fn a_write_abort_sends_a_strict_prefix_of_the_real_frame() {
    use fhe_serve::{FaultMix, FaultPlan};

    let ctx = ctx(5, 3);
    let mix = FaultMix {
        write_abort: 1000,
        read_error: 0,
        session_reset: 0,
        overloaded: 0,
        spare_setup: true,
        ..FaultMix::io()
    };
    let rig = rig(
        &ctx,
        ServeConfig {
            fault_plan: Some(Arc::new(FaultPlan::new(7, mix, 1))),
            ..ServeConfig::default()
        },
    );
    let mut stream = connect(&rig.server);
    stream.write_all(&rig.request).unwrap();
    let mut torn = Vec::new();
    stream.read_to_end(&mut torn).unwrap();
    assert!(!torn.is_empty() && torn.len() < rig.reply.len());
    assert_eq!(torn, rig.reply[..torn.len()]);
    // The plan's one fault is spent: the same frame is now served whole.
    let mut stream = connect(&rig.server);
    stream.write_all(&rig.request).unwrap();
    assert_eq!(read_reply(&mut stream), rig.reply);
    rig.server.shutdown();
}
