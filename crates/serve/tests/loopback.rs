//! End-to-end loopback test: K concurrent tenants share one server whose
//! key-cache budget is deliberately smaller than the tenants' aggregate
//! expanded key bytes, so the cache must evict and regenerate from seeds
//! mid-run — and every result must still be bit-identical to the same
//! operations executed directly against the library.

use ckks::hoisting::rotate_hoisted;
use ckks::serialize::{deserialize_switching_key, serialize_ciphertext, serialize_switching_key};
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_apps::helr_step_program;
use fhe_math::cfft::Complex;
use fhe_program::program::ProgramEnv;
use fhe_program::{execute, ExecInputs, ExecKeys};
use fhe_serve::protocol::{frame_bytes, read_frame, BodyWriter, FrameRead, Opcode};
use fhe_serve::{
    Client, ClientError, ErrorCode, EvictionPolicy, FaultDecision, FaultMix, FaultPlan,
    ServeConfig, Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn helr_ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(10)
            .scale_bits(30)
            .first_modulus_bits(40)
            .special_modulus_bits(34)
            .dnum(5)
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

#[test]
fn concurrent_tenants_bit_identical_under_tight_budget() {
    const TENANTS: u64 = 4;
    let ctx = helr_ctx();
    let slots = ctx.params().slots();
    let levels = ctx.params().levels();
    // The HELR step each tenant runs server-side; its Galois keys are the
    // tenants' whole rotation key set.
    let dim = 2;
    let prog = Arc::new(helr_step_program(dim, slots, levels, 1.0));
    let fold_steps = prog
        .validate(&ProgramEnv { levels, slots })
        .unwrap()
        .manifest
        .galois_steps;

    // Measure one expanded key so the budget can be set in key units:
    // every switching key here has the same full-basis shape.
    let probe_bytes = {
        let mut rng = StdRng::seed_from_u64(999);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let wire = serialize_switching_key(rlk.switching_key());
        deserialize_switching_key(&ctx, &wire).unwrap().size_bytes()
    };
    // Each tenant uploads 1 relin + 6 fold keys = 7 expanded keys; 4
    // tenants need 28. Six keys of budget forces steady eviction.
    let budget = 6 * probe_bytes;

    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 3,
            queue_capacity: 16,
            key_cache_budget: budget,
            eviction: EvictionPolicy::Lru,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let ctx = ctx.clone();
            let prog = prog.clone();
            let fold_steps = fold_steps.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + tenant);
                let kg = KeyGenerator::new(ctx.clone());
                let sk = kg.secret_key(&mut rng);
                let rlk = kg.relin_key_compressed(&mut rng, &sk);
                let gk = kg.galois_keys_compressed(&mut rng, &sk, &fold_steps, false);
                let encoder = Encoder::new(ctx.clone());
                let encryptor = Encryptor::new(ctx.clone());
                let ev = Evaluator::new(ctx.clone());

                let mut client = Client::connect(addr, ctx.clone()).unwrap();
                let sid = client.hello().unwrap();
                client.upload_relin(sid, rlk.switching_key()).unwrap();
                client.upload_galois(sid, &gk).unwrap();

                let xs_plain: Vec<f64> = (0..slots)
                    .map(|i| (i as f64 * 0.37 + tenant as f64).sin() * 0.4)
                    .collect();
                let ys_plain: Vec<f64> = (0..slots).map(|i| ((i % 2) as f64) * 0.5).collect();
                let a = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &xs_plain);
                let b = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &ys_plain);

                // Each pair: remote result must equal the local library
                // call byte for byte.
                let remote = client.add(sid, &a, &b).unwrap();
                assert_eq!(
                    serialize_ciphertext(&remote),
                    serialize_ciphertext(&ev.add(&a, &b)),
                    "tenant {tenant}: add diverged"
                );

                let remote = client.mult(sid, &a, &b).unwrap();
                assert_eq!(
                    serialize_ciphertext(&remote),
                    serialize_ciphertext(&ev.mul(&a, &b, &rlk)),
                    "tenant {tenant}: mult diverged"
                );

                for steps in [1i64, 4, 8] {
                    let remote = client.rotate(sid, &a, steps).unwrap();
                    // The library rotates one way: alone, or as one step
                    // of a hoisted list.
                    let local = rotate_hoisted(&ev, &a, &[steps], &gk)
                        .pop()
                        .expect("one rotation");
                    assert_eq!(
                        serialize_ciphertext(&remote),
                        serialize_ciphertext(&local),
                        "tenant {tenant}: rotate {steps} diverged"
                    );
                    assert_eq!(
                        serialize_ciphertext(&remote),
                        serialize_ciphertext(&ev.rotate(&a, steps, &gk)),
                        "tenant {tenant}: rotate {steps} is not Evaluator::rotate"
                    );
                }

                let remote = client.rescale(sid, &a).unwrap();
                assert_eq!(
                    serialize_ciphertext(&remote),
                    serialize_ciphertext(&ev.rescale(&a)),
                    "tenant {tenant}: rescale diverged"
                );

                // A whole HELR training step server-side, as an uploaded
                // program — compared with the same program run locally.
                let cols: Vec<Vec<f64>> = (0..dim)
                    .map(|d| (0..slots).map(|i| ((i + d) % 5) as f64 * 0.1).collect())
                    .collect();
                let xs: Vec<Ciphertext> = cols
                    .iter()
                    .map(|c| encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, c))
                    .collect();
                let y01 = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &ys_plain);
                let mut inputs = ExecInputs::default();
                for (d, x) in xs.iter().enumerate() {
                    let w =
                        encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &vec![0.0; slots]);
                    inputs.cts.insert(format!("w{d}"), w);
                    inputs.cts.insert(format!("x{d}"), x.clone());
                }
                inputs.cts.insert("y".into(), y01);
                let pid = client.upload_program(sid, &prog).unwrap();
                let remote = client.run_program(sid, pid, &prog, &inputs).unwrap();
                let keys = ExecKeys {
                    relin: Some(rlk.switching_key()),
                    galois: Some(&gk),
                };
                let local = execute(&ev, &encoder, &prog, &inputs, keys).unwrap();
                assert_eq!(remote.len(), dim);
                for (d, (r, (_, l))) in remote.iter().zip(&local).enumerate() {
                    assert_eq!(
                        serialize_ciphertext(r),
                        serialize_ciphertext(l),
                        "tenant {tenant}: HELR weight {d} diverged"
                    );
                }
                client.close_session(sid).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread panicked");
    }

    // The budget was smaller than the working set, so the cache must have
    // both hit (within a tenant's burst) and evicted (across tenants).
    let stats = server.cache_stats();
    assert!(stats.misses >= TENANTS, "each tenant expands at least once");
    assert!(
        stats.evictions > 0,
        "aggregate keys exceed the budget, evictions required: {stats:?}"
    );
    assert!(
        stats.resident_bytes <= budget,
        "cache overran its budget: {} > {budget}",
        stats.resident_bytes
    );
    // Sessions were closed, so nothing of theirs should remain resident.
    assert_eq!(stats.resident_keys, 0, "closed sessions must purge");

    // With no contention, back-to-back key use must hit the cache: the
    // second MULT reuses the relin expansion the first one paid for.
    let mut client = Client::connect(addr, ctx.clone()).unwrap();
    {
        let mut rng = StdRng::seed_from_u64(5000);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let sid = client.hello().unwrap();
        client.upload_relin(sid, rlk.switching_key()).unwrap();
        let v: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
        let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
        let before = server.cache_stats();
        client.mult(sid, &ct, &ct).unwrap();
        client.mult(sid, &ct, &ct).unwrap();
        let after = server.cache_stats();
        assert_eq!(after.misses, before.misses + 1, "first mult expands");
        assert!(after.hits > before.hits, "second mult must hit");
        client.close_session(sid).unwrap();
    }
    let dump = client.metrics().unwrap();
    for needle in [
        "serve_requests_total",
        "serve_key_cache_evictions_total",
        "serve_op_latency_us_count{op=\"run_program\"}",
        "serve_bytes_written_total",
    ] {
        assert!(
            dump.contains(needle),
            "metrics dump missing {needle}:\n{dump}"
        );
    }
    server.shutdown();
}

#[test]
fn graceful_drain_then_connect_refused() {
    let ctx = helr_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr, ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    assert!(sid > 0);
    server.shutdown();
    // The listener is gone: a fresh connection must fail.
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "post-shutdown connect should be refused"
    );
}

/// Shutdown with two connections open: one has sent half a frame, the
/// other has a request in flight, held on its worker by an injected delay.
/// `Server::shutdown` returns, the reply in flight still arrives whole and
/// byte-identical, the half-frame connection closes unanswered, and the
/// port refuses new connections.
#[test]
fn shutdown_answers_the_request_in_flight_and_closes_a_half_frame() {
    let ctx = helr_ctx();
    // The first evaluation frame draws a delay and nothing else is
    // faulted; seed 10 draws 299 ms, far longer than the steps below take.
    let mix = FaultMix {
        read_error: 0,
        write_abort: 0,
        delay: 1000,
        eviction_storm: 0,
        session_reset: 0,
        overloaded: 0,
        worker_panic: 0,
        delay_cap: Duration::from_millis(500),
        spare_setup: true,
    };
    let plan = Arc::new(FaultPlan::new(10, mix, 1));
    let config = ServeConfig {
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(ctx.clone(), config).unwrap();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(5400);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.02).collect();
    let a = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
    let b = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
    let expected = serialize_ciphertext(&Evaluator::new(ctx.clone()).add(&a, &b));

    // A served connection that then sends half an `Add` frame and stalls.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(&frame_bytes(Opcode::Hello as u8, &[]))
        .unwrap();
    let stalled_sid = match read_frame(&mut stalled, u32::MAX).unwrap() {
        FrameRead::Frame(f) if f.tag == 0 => u64::from_le_bytes(f.body[..8].try_into().unwrap()),
        other => panic!("expected a Hello reply, got {other:?}"),
    };
    let mut body = BodyWriter::new();
    let a_bytes = serialize_ciphertext(&a);
    body.u64(stalled_sid).blob(&a_bytes).blob(&a_bytes);
    let frame = frame_bytes(Opcode::Add as u8, &body.0);
    stalled.write_all(&frame[..frame.len() / 2]).unwrap();

    // A request in flight: parsed (the plan has drawn its delay), not yet
    // answered.
    let mut client = Client::connect(addr, ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let in_flight =
        std::thread::spawn(move || client.add(sid, &a, &b).map(|ct| serialize_ciphertext(&ct)));
    while plan.injected_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !in_flight.is_finished(),
        "the request finished before shutdown"
    );

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("Server::shutdown did not return");
    let reply = in_flight
        .join()
        .unwrap()
        .expect("the request in flight was answered");
    assert_eq!(reply, expected, "the reply in flight diverged");
    assert!(
        matches!(plan.injected()[0].fault, FaultDecision::Delay(d) if d >= Duration::from_millis(200)),
        "the delay that held the request in flight: {:?}",
        plan.injected()
    );
    let unanswered = read_frame(&mut stalled, u32::MAX);
    assert!(
        matches!(unanswered, Ok(FrameRead::Eof) | Err(_)),
        "the half-frame connection got {unanswered:?}"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "post-shutdown connect should be refused"
    );
}

/// The sum of a family's samples across every shard of a metrics dump.
fn shard_total(dump: &str, family: &str) -> u64 {
    let prefix = format!("{family}{{shard=\"");
    dump.lines()
        .filter(|line| line.starts_with(&prefix))
        .map(|line| line.rsplit_once(' ').expect("a sample").1.parse::<u64>())
        .map(|v| v.expect("an integer sample"))
        .sum()
}

/// The per-shard stored-bytes gauge is the sessions' compressed keys, byte
/// for byte as uploaded, and falls back to zero when the session closes.
#[test]
fn stored_key_bytes_are_the_uploaded_compressed_keys() {
    let ctx = helr_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(7000);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key_compressed(&mut rng, &sk);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 2, 4], false);
    let uploaded = serialize_switching_key(rlk.switching_key()).len()
        + gk.iter()
            .map(|(_, key)| serialize_switching_key(key).len())
            .sum::<usize>();

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let stored = |client: &mut Client| {
        let dump = client.metrics().unwrap();
        assert!(dump.contains("\nserve_scratch_free_bytes "), "{dump}");
        shard_total(&dump, "serve_shard_stored_key_bytes")
    };
    assert_eq!(stored(&mut client), 0);
    let sid = client.hello().unwrap();
    client.upload_relin(sid, rlk.switching_key()).unwrap();
    client.upload_galois(sid, &gk).unwrap();
    assert_eq!(stored(&mut client), uploaded as u64);
    client.close_session(sid).unwrap();
    assert_eq!(stored(&mut client), 0);
    server.shutdown();
}

/// Operands and results go back to the context's scratch pool once the
/// reply is bytes, so a warm loop of identical rotations finds every
/// buffer it leases already pooled.
#[test]
fn warm_rotate_loop_stops_missing_the_scratch_pool() {
    let ctx = helr_ctx();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(6000);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.01).collect();
    let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_galois(sid, &gk).unwrap();
    for _ in 0..4 {
        client.rotate(sid, &ct, 1).unwrap();
    }
    let warm = ctx.scratch().stats();
    for _ in 0..8 {
        client.rotate(sid, &ct, 1).unwrap();
    }
    let after = ctx.scratch().stats();
    assert!(after.leases > warm.leases, "rotations lease from the pool");
    assert_eq!(
        after.misses, warm.misses,
        "a warm rotation allocated a buffer the previous one dropped"
    );
    server.shutdown();
}

/// A rotation by the slot count is a key-free copy, so a fresh operand
/// comes back as it went: in the seeded form (`c_0` and the seed), the
/// bytes the library's own rotation serializes to.
#[test]
fn a_served_whole_turn_of_a_fresh_operand_replies_seeded() {
    let ctx = helr_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(7000);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let slots = ctx.params().slots();
    let v: Vec<f64> = (0..slots).map(|i| i as f64 * 0.03).collect();
    let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
    assert!(ct.is_seeded());

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    let ev = Evaluator::new(ctx.clone());
    for steps in [slots as i64, -2 * slots as i64] {
        let local = ev.rotate(&ct, steps, &gk);
        assert!(local.is_seeded(), "the library's copy keeps the seed");
        let remote = client.rotate(sid, &ct, steps).unwrap();
        assert!(remote.is_seeded(), "rotate {steps}: the reply is seeded");
        assert_eq!(serialize_ciphertext(&remote), serialize_ciphertext(&local));
        assert_eq!(serialize_ciphertext(&remote), serialize_ciphertext(&ct));
    }
    // A real rotation is computed, and comes back whole.
    client.upload_galois(sid, &gk).unwrap();
    let turned = client.rotate(sid, &ct, 1).unwrap();
    assert!(!turned.is_seeded());
    assert_eq!(
        serialize_ciphertext(&turned),
        serialize_ciphertext(&ev.rotate(&ct, 1, &gk))
    );
    server.shutdown();
}

/// A zero queue capacity is served as one, as zero workers are: keyed
/// requests run instead of all being refused `Overloaded`.
#[test]
fn a_zero_queue_capacity_still_serves_keyed_requests() {
    let ctx = helr_ctx();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(8000);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.02).collect();
    let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_galois(sid, &gk).unwrap();
    let remote = client.rotate(sid, &ct, 1).unwrap();
    let local = rotate_hoisted(&Evaluator::new(ctx.clone()), &ct, &[1], &gk)
        .pop()
        .expect("one rotation");
    assert_eq!(serialize_ciphertext(&remote), serialize_ciphertext(&local));
    server.shutdown();
}

/// The value of a label-less sample in a metrics dump.
fn gauge(dump: &str, name: &str) -> u64 {
    let line = dump
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("{name} missing from the dump"))
        .parse()
        .unwrap()
}

/// A request that never gets its reply out still frees its shard's
/// execution slot. One permit and a line of one: an `Add` that panics on
/// an injected fault, one held past its deadline by an injected delay, and
/// one whose client hangs up while it waits in line. Then an `Add` on a
/// fresh connection answers within 5 s, and `serve_queue_depth` reads 0.
#[test]
fn every_way_a_request_ends_frees_its_permit() {
    let ctx = helr_ctx();
    let deadline = Duration::from_millis(250);
    let mix = FaultMix {
        read_error: 0,
        write_abort: 0,
        delay: 500,
        eviction_storm: 0,
        session_reset: 0,
        overloaded: 0,
        worker_panic: 500,
        delay_cap: Duration::from_secs(2),
        spare_setup: true,
    };
    // The first seed whose plan panics on the first evaluation frame and
    // holds the second for at least a second.
    let seed = (0..)
        .find(|&seed| {
            let plan = FaultPlan::new(seed, mix.clone(), 2);
            let draws = [plan.decide(Opcode::Add), plan.decide(Opcode::Add)];
            matches!(draws, [Some(FaultDecision::WorkerPanic), Some(FaultDecision::Delay(d))]
                if d >= Duration::from_secs(1))
        })
        .unwrap();
    let plan = Arc::new(FaultPlan::new(seed, mix, 2));
    let config = ServeConfig {
        shards: 1,
        workers: 1,
        queue_capacity: 1,
        request_deadline: deadline,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(ctx.clone(), config).unwrap();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(9000);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let v: Vec<f64> = (0..ctx.params().slots()).map(|i| i as f64 * 0.04).collect();
    let a = Arc::new(encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v));
    let expected = serialize_ciphertext(&Evaluator::new(ctx.clone()).add(&a, &a));
    let code = |result: Result<Ciphertext, ClientError>| match result {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected an error reply, got {:?}", other.map(|_| ())),
    };

    let mut client = Client::connect(addr, ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    assert_eq!(code(client.add(sid, &a, &a)), ErrorCode::Internal);

    let (held_tx, held) = channel();
    let operand = a.clone();
    std::thread::spawn(move || {
        let _ = held_tx.send(client.add(sid, &operand, &operand));
    });
    while plan.injected_count() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The delayed request holds the permit: this one waits in line, and
    // its client leaves without reading the reply.
    let mut hangs_up = TcpStream::connect(addr).unwrap();
    let mut body = BodyWriter::new();
    let a_bytes = serialize_ciphertext(&a);
    body.u64(sid).blob(&a_bytes).blob(&a_bytes);
    hangs_up
        .write_all(&frame_bytes(Opcode::Add as u8, &body.0))
        .unwrap();
    let asked = Instant::now();
    while gauge(&server.metrics_dump(), "serve_queue_depth") != 1 {
        assert!(asked.elapsed() < Duration::from_secs(10), "nothing waited");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(hangs_up);
    let held = held
        .recv_timeout(Duration::from_secs(10))
        .expect("the delayed request was never answered");
    assert_eq!(code(held), ErrorCode::DeadlineExceeded);

    let (fresh_tx, fresh) = channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr, ctx).unwrap();
        let sid = client.hello().unwrap();
        let _ = fresh_tx.send(client.add(sid, &a, &a).map(|ct| serialize_ciphertext(&ct)));
    });
    let reply = fresh
        .recv_timeout(Duration::from_secs(5))
        .expect("a fresh Add was not answered within 5 s");
    assert_eq!(reply.unwrap(), expected);
    assert_eq!(gauge(&server.metrics_dump(), "serve_queue_depth"), 0);
    server.shutdown();
}

/// The Hello reply's wire layout: the 8-byte session id, the reserved
/// flags byte `1`, then the kernel-backend name.
#[test]
fn hello_reply_is_session_id_flags_byte_then_backend_name() {
    let ctx = helr_ctx();
    let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    let reply = client
        .call_raw(fhe_serve::Opcode::Hello as u8, &[])
        .unwrap();
    let sid = u64::from_le_bytes(reply[..8].try_into().unwrap());
    assert_ne!(sid, 0);
    assert_eq!(reply[8], 1, "the flags byte");
    assert_eq!(&reply[9..], server.kernel_backend_name().as_bytes());
    client.close_session(sid).unwrap();
    server.shutdown();
}
