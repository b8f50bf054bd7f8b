//! The key-reuse scheduler's two contracts, end to end:
//!
//! 1. **Byte identity**: a mixed Rotate/BSGS/Mult workload from multiple
//!    tenants produces bit-identical replies whether requests run as
//!    groups of one (`max_batch: 1`) or of several, and both match the
//!    library executed directly — grouping may only change *when* work
//!    runs, never *what* it computes.
//! 2. **Fewer expansions**: with a key-cache budget of one key, the
//!    ungrouped server thrashes (every op re-expands), while the
//!    grouping server pins each group's key-set once — so the grouped run
//!    must show strictly fewer cache misses for the same workload.
//!
//! Plus the count of avoided expansions (0 while every group holds one
//! request), the deadline-vs-hold regression (a request held by the
//! batching window must not have that hold double-counted against its
//! deadline), and the two rules of a scheduler its shard loop drives
//! without ever blocking: shutdown releases every held group at once, and
//! at most `queue_capacity` keyed jobs are held.

use ckks::hoisting::{apply_bsgs, rotate_hoisted, LinearTransform};
use ckks::serialize::{deserialize_switching_key, serialize_ciphertext, serialize_switching_key};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    RelinKey, SecretKey,
};
use fhe_math::cfft::Complex;
use fhe_program::workloads::sha256_stress_program;
use fhe_program::ExecInputs;
use fhe_serve::{
    BatchConfig, BatchHint, Client, ClientError, ErrorCode, EvictionPolicy, RetryPolicy,
    RetryingClient, ServeConfig, Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
const LANES: usize = 3;
const CYCLES: usize = 2;

fn test_ctx() -> Arc<CkksContext> {
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

struct Tenant {
    rlk: RelinKey,
    gk: GaloisKeys,
    a: Ciphertext,
    b: Ciphertext,
}

fn make_tenant(ctx: &Arc<CkksContext>, seed: u64) -> Tenant {
    let slots = ctx.params().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key_compressed(&mut rng, &sk);
    // Steps 1 and 2 cover the rotate lanes and the BSGS baby/giant set.
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 2], false);
    let va: Vec<f64> = (0..slots)
        .map(|i| (i as f64 * 0.29 + seed as f64).sin() * 0.4)
        .collect();
    let vb: Vec<f64> = (0..slots)
        .map(|i| (i as f64 * 0.41 + seed as f64).cos() * 0.4)
        .collect();
    let a = encrypt_vec(ctx, &sk, &mut rng, &va);
    let b = encrypt_vec(ctx, &sk, &mut rng, &vb);
    Tenant { rlk, gk, a, b }
}

fn encrypt_vec(ctx: &Arc<CkksContext>, sk: &SecretKey, rng: &mut StdRng, v: &[f64]) -> Ciphertext {
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let pt = encoder
        .encode(&cv, ctx.params().levels(), ctx.params().scale())
        .unwrap();
    encryptor.encrypt_symmetric(rng, &pt, sk)
}

/// A 4-diagonal transform whose BSGS schedule (n1 = 2) needs exactly the
/// Galois keys for steps {1, 2}.
fn make_lt(slots: usize) -> LinearTransform {
    let mut diagonals = BTreeMap::new();
    for d in 0..4usize {
        let diag: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(0.1 + (d as f64) * 0.05 + (j as f64) * 0.01, 0.0))
            .collect();
        diagonals.insert(d, diag);
    }
    LinearTransform::from_diagonals(diagonals, slots)
}

/// One lane's single call in one round; returns the serialized reply.
fn run_lane_op(
    client: &mut Client,
    sid: u64,
    tenant: &Tenant,
    lt: &LinearTransform,
    round: usize,
    lane: usize,
) -> Vec<u8> {
    let ct = match round % 3 {
        // Rotations [1, 2, 1] of the same ciphertext: lanes 0 and 2
        // share a hoisted decomposition when batched.
        0 => client.rotate(sid, &tenant.a, [1i64, 2, 1][lane]).unwrap(),
        // Relin lane: three identical mults group under (sid, Relin).
        1 => client.mult(sid, &tenant.a, &tenant.b).unwrap(),
        // BSGS plus two rotations — all Galois class, one group.
        _ => {
            if lane == 0 {
                client.bsgs(sid, &tenant.a, lt, 2).unwrap()
            } else {
                client.rotate(sid, &tenant.a, 1).unwrap()
            }
        }
    };
    serialize_ciphertext(&ct)
}

/// What the library itself computes for that lane — the byte-identity
/// reference. The server rotates through the hoisted path in both modes,
/// so the reference must too.
fn reference_op(
    ctx: &Arc<CkksContext>,
    tenant: &Tenant,
    lt: &LinearTransform,
    round: usize,
    lane: usize,
) -> Vec<u8> {
    let ev = Evaluator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let ct = match round % 3 {
        0 => rotate_hoisted(&ev, &tenant.a, &[[1i64, 2, 1][lane]], &tenant.gk)
            .pop()
            .unwrap(),
        1 => ev.mul(&tenant.a, &tenant.b, &tenant.rlk),
        _ => {
            if lane == 0 {
                apply_bsgs(&ev, &encoder, &tenant.a, lt, &tenant.gk, 2)
            } else {
                rotate_hoisted(&ev, &tenant.a, &[1], &tenant.gk)
                    .pop()
                    .unwrap()
            }
        }
    };
    serialize_ciphertext(&ct)
}

fn start_server(ctx: &Arc<CkksContext>, batch: BatchConfig) -> Server {
    // Budget of exactly one expanded key: groups of one must re-expand
    // almost every access; a larger group pins its key-set once (pins may
    // transiently exceed the budget by design).
    let probe_bytes = {
        let mut rng = StdRng::seed_from_u64(999);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let wire = serialize_switching_key(rlk.switching_key());
        deserialize_switching_key(ctx, &wire).unwrap().size_bytes()
    };
    Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            queue_capacity: 32,
            key_cache_budget: probe_bytes,
            eviction: EvictionPolicy::Lru,
            batch,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn metric(dump: &str, name: &str) -> u64 {
    dump.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} missing from dump"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn batched_replies_are_byte_identical_and_expand_fewer_keys() {
    let ctx = test_ctx();
    let slots = ctx.params().slots();
    let lt = Arc::new(make_lt(slots));
    let tenants: Vec<Arc<Tenant>> = (0..TENANTS)
        .map(|t| Arc::new(make_tenant(&ctx, 7000 + t as u64)))
        .collect();
    let rounds = CYCLES * 3;

    // ---- Phase A: groups of one, one thread, interleaved lanes. ----
    // `max_batch: 1` is explicit so the CI env matrix cannot leak in.
    let server_a = start_server(
        &ctx,
        BatchConfig {
            max_batch: 1,
            ..BatchConfig::baseline()
        },
    );
    let addr_a = server_a.local_addr();
    let mut replies_a: Vec<Vec<u8>> = Vec::new();
    {
        let mut clients: Vec<(Client, u64)> = tenants
            .iter()
            .map(|t| {
                let mut c = Client::connect(addr_a, ctx.clone()).unwrap();
                let info = c.hello_ext(BatchHint::Auto).unwrap();
                c.upload_relin(info.session, t.rlk.switching_key()).unwrap();
                c.upload_galois(info.session, &t.gk).unwrap();
                (c, info.session)
            })
            .collect();
        for round in 0..rounds {
            for (t, tenant) in tenants.iter().enumerate() {
                let (client, sid) = &mut clients[t];
                for lane in 0..LANES {
                    replies_a.push(run_lane_op(client, *sid, tenant, &lt, round, lane));
                }
            }
        }
    }
    let misses_a = server_a.cache_stats().misses;
    server_a.shutdown();

    // ---- Phase B: every round fills a group of 3. ----
    let server_b = start_server(
        &ctx,
        BatchConfig {
            max_batch: LANES,
            // Large window: Throughput sessions hold until the group
            // fills, so dispatch is count-triggered and deterministic.
            max_delay: Duration::from_secs(1),
        },
    );
    let addr_b = server_b.local_addr();
    let sids: Vec<u64> = tenants
        .iter()
        .map(|t| {
            let mut c = Client::connect(addr_b, ctx.clone()).unwrap();
            let info = c.hello_ext(BatchHint::Throughput).unwrap();
            c.upload_relin(info.session, t.rlk.switching_key()).unwrap();
            c.upload_galois(info.session, &t.gk).unwrap();
            info.session
        })
        .collect();

    let barrier = Arc::new(Barrier::new(TENANTS * LANES));
    let mut handles = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for lane in 0..LANES {
            let (ctx, lt, tenant) = (ctx.clone(), lt.clone(), tenant.clone());
            let (barrier, sid) = (barrier.clone(), sids[t]);
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr_b, ctx).unwrap();
                let mut out = Vec::new();
                for round in 0..rounds {
                    barrier.wait();
                    out.push(run_lane_op(&mut client, sid, &tenant, &lt, round, lane));
                }
                (t, lane, out)
            }));
        }
    }
    // Reindex the per-thread streams into phase A's flat order.
    let mut replies_b: Vec<Option<Vec<u8>>> = vec![None; replies_a.len()];
    for h in handles {
        let (t, lane, out) = h.join().unwrap();
        for (round, bytes) in out.into_iter().enumerate() {
            replies_b[(round * TENANTS + t) * LANES + lane] = Some(bytes);
        }
    }
    let misses_b = server_b.cache_stats().misses;
    let dump = server_b.metrics_dump();
    server_b.shutdown();

    // Byte identity: batched == unbatched == the library, everywhere.
    let mut i = 0;
    for round in 0..rounds {
        for (t, tenant) in tenants.iter().enumerate() {
            for lane in 0..LANES {
                let reference = reference_op(&ctx, tenant, &lt, round, lane);
                assert_eq!(
                    replies_a[i], reference,
                    "unbatched reply diverged from library (round {round}, tenant {t}, lane {lane})"
                );
                assert_eq!(
                    replies_b[i].as_deref(),
                    Some(&reference[..]),
                    "batched reply diverged (round {round}, tenant {t}, lane {lane})"
                );
                i += 1;
            }
        }
    }

    // The perf bar: same workload, strictly fewer key expansions.
    assert!(
        misses_b < misses_a,
        "batching must reduce key expansions (unbatched {misses_a}, batched {misses_b})"
    );

    // The scheduler actually grouped and shared work.
    let batches = metric(&dump, "serve_batches_total");
    let batch_jobs = metric(&dump, "serve_batch_jobs_total");
    assert!(batches > 0, "no batches formed");
    assert!(
        batch_jobs > batches,
        "groups never exceeded one job (jobs {batch_jobs}, batches {batches})"
    );
    assert!(
        metric(&dump, "serve_batch_keys_pinned_total") > 0,
        "batches never pinned keys"
    );
    assert!(
        metric(&dump, "serve_batch_expansions_avoided_total") > 0,
        "pinned keys were never reused"
    );
    // Rotate rounds put lanes 0 and 2 (and in BSGS rounds, lanes 1 and
    // 2) on the same ciphertext: their ModUp decompositions are shared.
    assert!(
        metric(&dump, "serve_batch_hoist_shared_total") >= 2,
        "no hoisted decompositions were shared"
    );
}

/// Groups of one share nothing, so they avoid no expansion: every keyed
/// opcode pins its keys and reads them, and the counter stays at 0.
#[test]
fn groups_of_one_avoid_no_expansions() {
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 5150);
    let server = start_server(
        &ctx,
        BatchConfig {
            max_batch: 1,
            ..BatchConfig::baseline()
        },
    );
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello_ext(BatchHint::Auto).unwrap().session;
    client
        .upload_relin(sid, tenant.rlk.switching_key())
        .unwrap();
    client.upload_galois(sid, &tenant.gk).unwrap();
    // Relin and Galois {1, 2}: the keys the tenant uploaded.
    let prog = sha256_stress_program(ctx.params().levels(), 1, 2);
    let pid = client.upload_program(sid, &prog).unwrap();
    let mut inputs = ExecInputs::default();
    for name in ["x", "y", "z", "w"] {
        inputs.cts.insert(name.into(), tenant.a.clone());
    }
    for _ in 0..2 {
        client.mult(sid, &tenant.a, &tenant.b).unwrap();
        client.rotate(sid, &tenant.a, 1).unwrap();
        client.run_program(sid, pid, &prog, &inputs).unwrap();
    }
    let dump = server.metrics_dump();
    server.shutdown();
    assert!(metric(&dump, "serve_batch_keys_pinned_total") > 0);
    assert_eq!(metric(&dump, "serve_batch_expansions_avoided_total"), 0);
}

#[test]
fn batching_hold_is_not_charged_against_the_deadline() {
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 4242);

    // The batching window (400 ms) dwarfs the request deadline (120 ms):
    // a held request survives only because the scheduler restarts the
    // deadline clock at dispatch. Without that, the worker would see the
    // hold as queue time and reject with DeadlineExceeded.
    let mut rng = StdRng::seed_from_u64(31);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key_compressed(&mut rng, &sk);
    let wire = serialize_switching_key(rlk.switching_key());
    let probe_bytes = deserialize_switching_key(&ctx, &wire).unwrap().size_bytes();
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            queue_capacity: 32,
            key_cache_budget: 4 * probe_bytes,
            eviction: EvictionPolicy::Lru,
            request_deadline: Duration::from_millis(120),
            batch: BatchConfig {
                max_batch: 64,
                max_delay: Duration::from_millis(400),
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let policy = RetryPolicy {
        op_timeout: Some(Duration::from_secs(5)),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::connect_with_hint(
        server.local_addr(),
        ctx.clone(),
        policy,
        BatchHint::Throughput,
    )
    .unwrap();
    client.upload_galois(&tenant.gk).unwrap();

    let start = Instant::now();
    let rotated = client.rotate(&tenant.a, 1).unwrap();
    let held = start.elapsed();

    let ev = Evaluator::new(ctx.clone());
    assert_eq!(
        serialize_ciphertext(&rotated),
        serialize_ciphertext(&rotate_hoisted(&ev, &tenant.a, &[1], &tenant.gk)[0]),
        "held rotation diverged"
    );
    // The lone request cannot fill a group of 64, so it waited out the
    // 400 ms window — far past the 120 ms deadline — and still succeeded
    // on the first attempt.
    assert!(
        held >= Duration::from_millis(300),
        "request was not actually held (took {held:?})"
    );
    assert_eq!(
        client.stats().retries,
        0,
        "a batching hold was double-counted against the deadline"
    );
    server.shutdown();
}

/// A one-worker server holding `Throughput` groups for 5 s, the window
/// no test waits out: anything a test sees answered came from a release
/// the loop made on its own (fill, overload, shutdown).
fn start_holding_server(ctx: &Arc<CkksContext>, queue_capacity: usize) -> Server {
    Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            queue_capacity,
            batch: BatchConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(5),
            },
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// A `Throughput` session with `tenant`'s Galois keys uploaded.
fn throughput_session(server: &Server, ctx: &Arc<CkksContext>, tenant: &Tenant) -> (Client, u64) {
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello_ext(BatchHint::Throughput).unwrap().session;
    client.upload_galois(sid, &tenant.gk).unwrap();
    (client, sid)
}

/// A `rotate(a, 1)` of session `sid` on a connection of its own.
fn rotate_in_thread(
    server: &Server,
    ctx: &Arc<CkksContext>,
    tenant: &Arc<Tenant>,
    sid: u64,
) -> std::thread::JoinHandle<Vec<u8>> {
    let (addr, ctx, tenant) = (server.local_addr(), ctx.clone(), tenant.clone());
    std::thread::spawn(move || {
        let mut client = Client::connect(addr, ctx).unwrap();
        serialize_ciphertext(&client.rotate(sid, &tenant.a, 1).unwrap())
    })
}

fn rotated_by_library(ctx: &Arc<CkksContext>, tenant: &Tenant) -> Vec<u8> {
    let ev = Evaluator::new(ctx.clone());
    serialize_ciphertext(&rotate_hoisted(&ev, &tenant.a, &[1], &tenant.gk)[0])
}

#[test]
fn shutdown_releases_held_groups_at_once() {
    let ctx = test_ctx();
    let tenant = Arc::new(make_tenant(&ctx, 5151));
    let server = start_holding_server(&ctx, 32);
    let (_client, sid) = throughput_session(&server, &ctx, &tenant);
    let rotate = rotate_in_thread(&server, &ctx, &tenant, sid);
    std::thread::sleep(Duration::from_millis(100));

    // The rotate is held: its group is one of 64 under a 5 s window.
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert_eq!(
        rotate.join().unwrap(),
        rotated_by_library(&ctx, &tenant),
        "the held rotate was not answered correctly"
    );
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited out the held group's window ({took:?})"
    );
}

#[test]
fn held_keyed_jobs_are_bounded_by_queue_capacity() {
    let ctx = test_ctx();
    let tenant = Arc::new(make_tenant(&ctx, 6161));
    let server = start_holding_server(&ctx, 2);
    let (mut client, sid) = throughput_session(&server, &ctx, &tenant);
    let held: Vec<_> = (0..2)
        .map(|_| rotate_in_thread(&server, &ctx, &tenant, sid))
        .collect();
    let waited = Instant::now();
    while metric(&server.metrics_dump(), "serve_queue_depth") < 2 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the two rotates never reached the scheduler"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Two keyed jobs held, `queue_capacity` 2: a third is pushed back.
    match client.rotate(sid, &tenant.a, 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("a third held job was not refused: {:?}", other.map(|_| ())),
    }
    assert_eq!(
        metric(&server.metrics_dump(), "serve_rejected_overload_total"),
        1
    );
    server.shutdown();
    let reference = rotated_by_library(&ctx, &tenant);
    for rotate in held {
        assert_eq!(rotate.join().unwrap(), reference, "a held rotate diverged");
    }
}
