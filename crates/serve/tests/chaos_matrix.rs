//! Deterministic chaos matrix: replay a grid of seeds × fault mixes
//! against a loopback server and assert that the retrying client always
//! converges to the fault-free answer.
//!
//! Per cell the suite asserts:
//! - every retried response is **byte-identical** to the fault-free
//!   evaluation of the same call (server ops are pure, seeded key
//!   expansion is bit-exact, so retries re-send rather than re-apply);
//! - no panic escapes the server (`catch_unwind` turns injected worker
//!   panics into structured `Internal` errors);
//! - the key cache's byte budget and counter invariants hold after the
//!   storm ([`Server::assert_cache_consistent`]);
//! - the `serve_faults_injected_total` metric agrees exactly with the
//!   plan's own injection log;
//! - wall time stays within the injected latency plus a fixed slack, so
//!   no request silently outlives its deadline.
//!
//! A failing cell writes a replay artifact (seed, mix, injection log) to
//! `target/chaos/` and names the seed in the panic, so
//! `CHAOS_SEEDS=<seed> cargo test -p fhe-serve --test chaos_matrix`
//! reproduces it in isolation.

use ckks::hoisting::rotate_hoisted;
use ckks::serialize::{deserialize_switching_key, serialize_ciphertext, serialize_switching_key};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    RelinKey,
};
use fhe_math::cfft::Complex;
use fhe_program::program::Program;
use fhe_program::{execute, workloads, ExecInputs, ExecKeys};
use fhe_serve::{
    EvictionPolicy, FaultDecision, FaultMix, FaultPlan, RetryPolicy, RetryingClient, ServeConfig,
    Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Everything keygen-derived, built once for the whole grid.
struct Setup {
    ctx: Arc<CkksContext>,
    rlk: RelinKey,
    gk: GaloisKeys,
    a: Ciphertext,
    b: Ciphertext,
    /// The program the cells upload and run (sha stress: relin + the
    /// same {1, 4} Galois steps the direct ops use).
    prog: Program,
    prog_inputs: ExecInputs,
    /// (label, expected response bytes) for each op the cells replay.
    expected: Vec<(&'static str, Vec<u8>)>,
    /// Bytes of one expanded switching key, for budget sizing.
    key_bytes: u64,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
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
        let slots = ctx.params().slots();
        let mut rng = StdRng::seed_from_u64(0x000C_4A05);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 4], false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let encrypt = |rng: &mut StdRng, v: &[f64]| {
            let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let pt = encoder
                .encode(&cv, ctx.params().levels(), ctx.params().scale())
                .unwrap();
            encryptor.encrypt_symmetric(rng, &pt, &sk)
        };
        let va: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.31).sin() * 0.5).collect();
        let vb: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.17).cos() * 0.5).collect();
        let a = encrypt(&mut rng, &va);
        let b = encrypt(&mut rng, &vb);

        // A whole program as one opcode: the sha stress round's manifest
        // (relin + Galois {1, 4}) matches the keys the cells upload.
        let prog = workloads::sha256_stress_program(ctx.params().levels(), 1, 4);
        let bits = |seed: usize| -> Vec<f64> {
            (0..slots)
                .map(|b| f64::from((b * 31 + seed * 17).is_multiple_of(3)))
                .collect()
        };
        let mut prog_inputs = ExecInputs::default();
        for (seed, name) in ["x", "y", "z", "w"].iter().enumerate() {
            let ct = encrypt(&mut rng, &bits(seed));
            prog_inputs.cts.insert((*name).into(), ct);
        }

        // The fault-free ground truth, straight from the library.
        let ev = Evaluator::new(ctx.clone());
        let prog_out = execute(
            &ev,
            &encoder,
            &prog,
            &prog_inputs,
            ExecKeys {
                relin: Some(rlk.switching_key()),
                galois: Some(&gk),
            },
        )
        .expect("sha stress executes fault-free");
        let expected = vec![
            ("add", serialize_ciphertext(&ev.add(&a, &b))),
            ("mult", serialize_ciphertext(&ev.mul(&a, &b, &rlk))),
            ("mult_again", serialize_ciphertext(&ev.mul(&a, &b, &rlk))),
            // The server rotates through the hoisted path; match it.
            (
                "rotate_1",
                serialize_ciphertext(&rotate_hoisted(&ev, &a, &[1], &gk)[0]),
            ),
            (
                "rotate_4",
                serialize_ciphertext(&rotate_hoisted(&ev, &a, &[4], &gk)[0]),
            ),
            ("rescale", serialize_ciphertext(&ev.rescale(&a))),
            ("run_program", serialize_ciphertext(&prog_out[0].1)),
        ];

        let wire = serialize_switching_key(rlk.switching_key());
        let key_bytes = deserialize_switching_key(&ctx, &wire).unwrap().size_bytes();
        Setup {
            ctx,
            rlk,
            gk,
            a,
            b,
            prog,
            prog_inputs,
            expected,
            key_bytes,
        }
    })
}

fn seeds() -> Vec<u64> {
    if let Ok(list) = std::env::var("CHAOS_SEEDS") {
        return list
            .split(',')
            .map(|s| s.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect();
    }
    // 32 committed seeds: deliberately plain so a failure report reads
    // naturally, spread enough that the xorshift streams decorrelate.
    (0..32).map(|i| 1000 + 37 * i).collect()
}

struct CellReport {
    faults: u64,
    injected_delay: Duration,
    elapsed: Duration,
}

/// Runs one (seed, mix, shards) cell and panics with the seed on any
/// divergence.
fn run_cell(seed: u64, mix_name: &str, mix: FaultMix, shards: usize) -> CellReport {
    let s = setup();
    let plan = Arc::new(FaultPlan::new(seed, mix, 6));
    let server = Server::start(
        s.ctx.clone(),
        ServeConfig {
            shards,
            workers: 2,
            queue_capacity: 8,
            key_cache_budget: 2 * s.key_bytes,
            eviction: EvictionPolicy::Lru,
            request_deadline: Duration::from_secs(5),
            fault_plan: Some(plan.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let budget = 2 * s.key_bytes;
    let addr = server.local_addr();
    let policy = RetryPolicy {
        max_attempts: 30,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        op_timeout: Some(Duration::from_secs(2)),
        jitter_seed: seed.wrapping_mul(0x9E37_79B9),
    };

    let started = Instant::now();
    let mut client = RetryingClient::connect(addr, s.ctx.clone(), policy)
        .unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("connect: {e}")));
    client
        .upload_relin(s.rlk.switching_key())
        .unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("upload_relin: {e}")));
    client
        .upload_galois(&s.gk)
        .unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("upload_galois: {e}")));
    let ph = client
        .upload_program(&s.prog)
        .unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("upload_program: {e}")));

    for (label, want) in &s.expected {
        let got = match *label {
            "add" => client.add(&s.a, &s.b),
            "mult" | "mult_again" => client.mult(&s.a, &s.b),
            "rotate_1" => client.rotate(&s.a, 1),
            "rotate_4" => client.rotate(&s.a, 4),
            "rescale" => client.rescale(&s.a),
            "run_program" => client
                .run_program(ph, &s.prog_inputs)
                .map(|mut outs| outs.pop().expect("one digest output")),
            other => unreachable!("unknown op label {other}"),
        };
        let got = got.unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("{label}: {e}")));
        let got = serialize_ciphertext(&got);
        if &got != want {
            fail::<()>(
                seed,
                mix_name,
                &plan,
                &format!(
                    "{label}: response diverged from fault-free run \
                     ({} vs {} bytes, equal={})",
                    got.len(),
                    want.len(),
                    got == *want
                ),
            );
        }
    }

    // The metric was bumped at every decide() hit, so it must agree
    // exactly with the plan's own log — a cross-check that no injection
    // site fired without being recorded (or vice versa).
    let dump = client
        .metrics()
        .unwrap_or_else(|e| fail(seed, mix_name, &plan, &format!("metrics: {e}")));
    let elapsed = started.elapsed();
    let metric_faults: u64 = dump
        .lines()
        .find_map(|l| l.strip_prefix("serve_faults_injected_total "))
        .expect("faults counter always dumped")
        .trim()
        .parse()
        .unwrap();
    let faults = plan.injected_count();
    if metric_faults != faults {
        fail::<()>(
            seed,
            mix_name,
            &plan,
            &format!("metric says {metric_faults} faults, plan logged {faults}"),
        );
    }

    // Cache invariants after the storm: byte accounting consistent and
    // the budget respected. A batch delivers its replies before it
    // retires its pins, so the last response can race the final unpin —
    // wait (bounded) for in-flight pins to drain before judging the
    // budget, since pinned overage is documented transient behavior.
    let mut stats = server.assert_cache_consistent();
    let pin_drain = Instant::now() + Duration::from_secs(5);
    while stats.pinned_keys > 0 && Instant::now() < pin_drain {
        std::thread::sleep(Duration::from_millis(2));
        stats = server.assert_cache_consistent();
    }
    // One shard: the global budget is one cache's budget, enforced
    // exactly. Sharded: each slice gets budget/shards and keeps its most
    // recent key resident even when the slice is smaller than one key
    // (keep-1 residency), so the aggregate may exceed the global budget
    // by up to one key per shard — but never more.
    let budget_bound = if shards == 1 {
        budget
    } else {
        budget + shards as u64 * s.key_bytes
    };
    if stats.resident_bytes > budget_bound {
        fail::<()>(
            seed,
            mix_name,
            &plan,
            &format!(
                "cache overran budget: {} > {budget_bound} ({} keys, {} pinned, {shards} shards)",
                stats.resident_bytes, stats.resident_keys, stats.pinned_keys
            ),
        );
    }

    // Nothing may outlive its deadline by more than the injected latency:
    // the whole cell (10 round-trips plus bounded retries on a loopback
    // socket) must finish within the injected delays plus a fixed slack.
    let injected_delay: Duration = plan
        .injected()
        .iter()
        .map(|f| match f.fault {
            FaultDecision::Delay(d) => d,
            _ => Duration::ZERO,
        })
        .sum();
    let slack = Duration::from_secs(30);
    if elapsed > injected_delay + slack {
        fail::<()>(
            seed,
            mix_name,
            &plan,
            &format!("cell took {elapsed:?} (injected delay {injected_delay:?} + slack {slack:?})"),
        );
    }

    server.shutdown();
    CellReport {
        faults,
        injected_delay,
        elapsed,
    }
}

/// Writes the replay artifact and panics naming the seed.
fn fail<T>(seed: u64, mix: &str, plan: &FaultPlan, what: &str) -> T {
    let dir = std::path::Path::new("../../target/chaos");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("seed-{seed}-{mix}.txt"));
    let mut report =
        format!("chaos cell failed\nseed: {seed}\nmix: {mix}\nfailure: {what}\n\ninjection log:\n");
    for f in plan.injected() {
        report.push_str(&format!(
            "  frame {:>3}  {:?}  {:?}\n",
            f.frame, f.op, f.fault
        ));
    }
    report.push_str(&format!(
        "\nreproduce:\n  CHAOS_SEEDS={seed} cargo test -p fhe-serve --test chaos_matrix\n"
    ));
    let _ = std::fs::write(&path, &report);
    panic!(
        "[chaos seed {seed}, mix {mix}] {what} (artifact: {})",
        path.display()
    );
}

type MixCtor = fn() -> FaultMix;

#[test]
fn chaos_matrix_converges_on_every_seed() {
    let seeds = seeds();
    let mixes: [(&str, MixCtor); 3] = [
        ("io", FaultMix::io),
        ("latency", FaultMix::latency),
        ("havoc", FaultMix::havoc),
    ];
    let mut total_faults = 0u64;
    for shards in [1usize, 4] {
        for &seed in &seeds {
            for (mix_name, mix) in mixes {
                // Each cell runs under a watchdog: a hang (lost wakeup,
                // deadlocked retry loop) fails the suite instead of
                // wedging CI until the job timeout.
                let (tx, rx) = mpsc::channel();
                let name = format!("{mix_name}-s{shards}");
                let handle = std::thread::spawn(move || {
                    let report = run_cell(seed, &name, mix(), shards);
                    let _ = tx.send(report);
                });
                match rx.recv_timeout(Duration::from_secs(120)) {
                    Ok(report) => {
                        total_faults += report.faults;
                        assert!(
                            report.elapsed < Duration::from_secs(120),
                            "watchdog arithmetic: {:?}",
                            report.injected_delay
                        );
                        handle.join().expect("cell thread exited uncleanly");
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // The cell panicked: join propagates the
                        // seed-naming panic message.
                        handle.join().expect("chaos cell failed");
                        unreachable!("disconnected sender without panic");
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        panic!(
                            "[chaos seed {seed}, mix {mix_name}, shards {shards}] \
                             cell hung past 120s watchdog"
                        );
                    }
                }
            }
        }
    }
    // A grid that injected nothing proves nothing.
    assert!(
        total_faults > 0,
        "no faults injected across {} cells — plan or weights broken",
        seeds.len() * mixes.len() * 2
    );
}

/// Replaying one seed twice must inject the identical fault sequence and
/// converge both times — the determinism claim, end to end, on both the
/// single-shard and the sharded server.
#[test]
fn chaos_cell_replays_bit_for_bit() {
    for shards in [1usize, 4] {
        let first = run_cell(777, "havoc-replay-a", FaultMix::havoc(), shards).faults;
        let second = run_cell(777, "havoc-replay-b", FaultMix::havoc(), shards).faults;
        assert_eq!(
            first, second,
            "same seed must inject the same fault count ({shards} shards)"
        );
    }
}
