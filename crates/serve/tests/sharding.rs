//! Sharded-serving integration: a 4-shard server must place sequential
//! tenants on distinct shards, migrate keyed frames from a foreign
//! connection to the session's owning shard, keep every op byte-identical
//! to direct library execution, stamp the owning shard into request
//! traces, and report per-shard metrics families alongside the global
//! aggregates.

use ckks::hoisting::rotate_hoisted;
use ckks::serialize::serialize_ciphertext;
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_serve::protocol::{frame_bytes, read_frame, BodyWriter, FrameRead, Opcode};
use fhe_serve::{shard_of, CacheStats, Client, ObsConfig, ServeConfig, Server};
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

fn encrypt_vec(
    ctx: &Arc<CkksContext>,
    encoder: &Encoder,
    encryptor: &Encryptor,
    sk: &ckks::SecretKey,
    rng: &mut StdRng,
    v: &[f64],
) -> Ciphertext {
    let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let pt = encoder
        .encode(&cv, ctx.params().levels(), ctx.params().scale())
        .unwrap();
    encryptor.encrypt_symmetric(rng, &pt, sk)
}

fn sharded_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers: 1,
        obs: ObsConfig::baseline(),
        ..ServeConfig::default()
    }
}

/// Sequentially-connecting tenants land on distinct shards (the
/// acceptor round-robins and Hello mints a self-locating id), every op
/// stays bit-identical to the library, traces carry the owning shard,
/// and the metrics dump grows per-shard labeled families.
#[test]
fn four_shards_place_tenants_disjointly_and_stay_bit_identical() {
    const SHARDS: usize = 4;
    let ctx = small_ctx();
    let slots = ctx.params().slots();
    let server = Server::start(ctx.clone(), sharded_config(SHARDS)).unwrap();
    assert_eq!(server.shard_count(), SHARDS);
    let addr = server.local_addr();

    let mut owners = Vec::new();
    for tenant in 0..SHARDS as u64 {
        let mut rng = StdRng::seed_from_u64(100 + tenant);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 4], false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());

        let mut client = Client::connect(addr, ctx.clone()).unwrap();
        let sid = client.hello().unwrap();
        owners.push(shard_of(sid, SHARDS));
        client.upload_relin(sid, rlk.switching_key()).unwrap();
        client.upload_galois(sid, &gk).unwrap();

        let v: Vec<f64> = (0..slots)
            .map(|i| (i as f64 * 0.31 + tenant as f64).cos() * 0.3)
            .collect();
        let a = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);

        let remote = client.mult(sid, &a, &a).unwrap();
        assert_eq!(
            serialize_ciphertext(&remote),
            serialize_ciphertext(&ev.mul(&a, &a, &rlk)),
            "tenant {tenant}: mult diverged on a sharded server"
        );
        for steps in [1i64, 4] {
            let remote = client.rotate(sid, &a, steps).unwrap();
            let local = rotate_hoisted(&ev, &a, &[steps], &gk)
                .pop()
                .expect("one rotation");
            assert_eq!(
                serialize_ciphertext(&remote),
                serialize_ciphertext(&local),
                "tenant {tenant}: rotate {steps} diverged on a sharded server"
            );
        }
        client.close_session(sid).unwrap();
    }

    // Round-robin accept + self-locating Hello ids: four sequential
    // tenants cover all four shards.
    let mut sorted = owners.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        vec![0, 1, 2, 3],
        "tenants were not spread across shards: {owners:?}"
    );

    // Every shard's cache ledger holds, and the summed lookup counters
    // partition into hits and misses.
    let stats = server.assert_cache_consistent();
    assert!(stats.misses > 0, "keyed ops must have expanded keys");

    // Traces carry the owning shard, and (with tenants on all four
    // shards) more than one shard shows up.
    let trace_shards: std::collections::BTreeSet<u32> =
        server.recent_traces().iter().map(|t| t.shard).collect();
    assert!(
        trace_shards.iter().all(|&s| (s as usize) < SHARDS),
        "trace stamped with an out-of-range shard: {trace_shards:?}"
    );
    assert!(
        trace_shards.len() >= 2,
        "expected traces from multiple shards, saw {trace_shards:?}"
    );

    // The dump keeps its global families and appends per-shard ones.
    let mut client = Client::connect(addr, ctx.clone()).unwrap();
    let dump = client.metrics().unwrap();
    for needle in [
        "serve_requests_total",
        "serve_shards 4",
        "serve_shard_requests_total{shard=\"0\"}",
        "serve_shard_requests_total{shard=\"3\"}",
        "serve_shard_key_cache_budget_bytes{shard=\"1\"}",
        "serve_shard_sessions{shard=\"2\"}",
    ] {
        assert!(
            dump.contains(needle),
            "metrics dump missing {needle}:\n{dump}"
        );
    }
    // The wire dump and the server-side dump are the same text modulo
    // counters that moved; both carry the shard families.
    assert!(server.metrics_dump().contains("serve_shards 4"));
    server.shutdown();
}

/// A keyed frame sent on a connection accepted by the *wrong* shard
/// must migrate to the session's owner and still answer byte-identical
/// results — the consistent-hash routing fabric under test.
#[test]
fn keyed_frames_migrate_to_the_owning_shard() {
    const SHARDS: usize = 4;
    let ctx = small_ctx();
    let slots = ctx.params().slots();
    let server = Server::start(ctx.clone(), sharded_config(SHARDS)).unwrap();
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(42);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key_compressed(&mut rng, &sk);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());

    // Session minted on the first accepted connection (shard 0 by
    // round-robin); keys uploaded there.
    let mut home = Client::connect(addr, ctx.clone()).unwrap();
    let sid = home.hello().unwrap();
    let owner = shard_of(sid, SHARDS);
    home.upload_relin(sid, rlk.switching_key()).unwrap();

    let v: Vec<f64> = (0..slots).map(|i| i as f64 * 0.05).collect();
    let a = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
    let expected = serialize_ciphertext(&ev.mul(&a, &a, &rlk));

    // Three more connections land on the three *other* shards; each
    // drives the same session, so every keyed frame must migrate to the
    // owner. Multiple calls per connection prove the connection keeps
    // working after it moved.
    for foreign in 0..SHARDS - 1 {
        let mut client = Client::connect(addr, ctx.clone()).unwrap();
        for round in 0..2 {
            let remote = client.mult(sid, &a, &a).unwrap();
            assert_eq!(
                serialize_ciphertext(&remote),
                expected,
                "foreign connection {foreign} round {round}: mult diverged after migration"
            );
        }
    }

    // All of those requests executed on the owning shard.
    let dump = server.metrics_dump();
    let needle = format!("serve_shard_requests_total{{shard=\"{owner}\"}}");
    let owner_requests: u64 = dump
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .expect("owner shard requests metric present");
    assert!(
        owner_requests >= 8,
        "expected the owner shard to have executed the migrated requests, saw {owner_requests}"
    );

    home.close_session(sid).unwrap();
    server.shutdown();
}

/// A frame that trickles in on the *wrong* shard: the foreign shard
/// buffers the partial frame across several of its loop's ticks, and only
/// when the last byte lands does the connection — buffer and all — move
/// to the session's owner, which answers from the migrated bytes. The
/// next frame on the same connection trickles in on the owner.
#[test]
fn a_frame_split_across_reads_migrates_whole() {
    const SHARDS: usize = 4;
    let ctx = small_ctx();
    let server = Server::start(ctx.clone(), sharded_config(SHARDS)).unwrap();
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(77);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.03).collect();
    let a = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
    let expected = serialize_ciphertext(&Evaluator::new(ctx.clone()).add(&a, &a));

    // The first connection's session lives on the shard that accepted it.
    let mut home = Client::connect(addr, ctx.clone()).unwrap();
    let sid = home.hello().unwrap();
    let owner = shard_of(sid, SHARDS);
    let mut body = BodyWriter::new();
    let a_bytes = serialize_ciphertext(&a);
    body.u64(sid).blob(&a_bytes).blob(&a_bytes);
    let frame = frame_bytes(Opcode::Add as u8, &body.0);

    // The next three connections land on the three other shards.
    for foreign in 0..SHARDS - 1 {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for round in 0..2 {
            // Mid-prefix, mid-session-id (before the routing key is even
            // complete), mid-body.
            let mut rest = &frame[..];
            for cut in [3, 7, frame.len() / 2] {
                let (piece, tail) = rest.split_at(cut);
                stream.write_all(piece).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                rest = tail;
            }
            stream.write_all(rest).unwrap();
            match read_frame(&mut stream, u32::MAX).unwrap() {
                FrameRead::Frame(f) => {
                    assert_eq!(f.tag, 0, "{}", String::from_utf8_lossy(&f.body));
                    assert_eq!(
                        f.body, expected,
                        "foreign connection {foreign} round {round}: add diverged"
                    );
                }
                other => panic!("expected a reply frame, got {other:?}"),
            }
        }
    }

    // Every one of them executed on the owner.
    let dump = server.metrics_dump();
    let needle = format!("serve_shard_requests_total{{shard=\"{owner}\"}}");
    let owner_requests: u64 = dump
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .expect("owner shard requests metric present");
    assert!(
        owner_requests >= 7,
        "expected the Hello and six migrated adds on shard {owner}, saw {owner_requests}"
    );
    home.close_session(sid).unwrap();
    server.shutdown();
}

/// Four tenants on four open connections, one Galois key each, driven
/// round-robin for `ROUNDS` rounds of `rotate(1)` against a global budget
/// of two expanded keys; returns the summed cache counters.
fn residency_counts(shards: usize) -> CacheStats {
    const TENANTS: u64 = 4;
    const ROUNDS: usize = 5;
    let ctx = small_ctx();
    let kg = KeyGenerator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.02).collect();

    let mut keys = Vec::new();
    for tenant in 0..TENANTS {
        let mut rng = StdRng::seed_from_u64(300 + tenant);
        let sk = kg.secret_key(&mut rng);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
        let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
        keys.push((gk, ct));
    }
    let key_bytes = keys[0].0.iter().next().expect("one key").1.size_bytes();

    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            key_cache_budget: 2 * key_bytes,
            ..sharded_config(shards)
        },
    )
    .unwrap();
    // Sequential connections: the acceptor round-robins them and Hello
    // mints an id owned by the accepting shard, so with four shards each
    // tenant's key lives in a slice of its own.
    let mut tenants = Vec::new();
    for (gk, ct) in &keys {
        let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
        let sid = client.hello().unwrap();
        client.upload_galois(sid, gk).unwrap();
        tenants.push((client, sid, ct));
    }
    for _ in 0..ROUNDS {
        for (client, sid, ct) in &mut tenants {
            client.rotate(*sid, ct, 1).unwrap();
        }
    }
    let stats = server.assert_cache_consistent();
    for (client, sid, _) in &mut tenants {
        client.close_session(*sid).unwrap();
    }
    server.shutdown();
    stats
}

/// The scaling claim as counts: on a fixed global key budget, sharding
/// turns a thrashing cache into a resident one. One shard is a two-key
/// LRU cycled by four keys, so every lookup misses; four shards give each
/// tenant a half-key slice, and keep-newest holds the one key that slice
/// ever sees, so only each tenant's first lookup misses.
#[test]
fn sharding_a_fixed_key_budget_turns_misses_into_hits() {
    let one = residency_counts(1);
    assert_eq!((one.hits, one.misses), (0, 20), "one shard: {one:?}");
    let four = residency_counts(4);
    assert_eq!((four.hits, four.misses), (16, 4), "four shards: {four:?}");
    assert_eq!(four.evictions, 0, "four shards: {four:?}");
}
