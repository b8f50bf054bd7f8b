//! Closed-loop load generator for the sharded serving runtime.
//!
//! A sweep cell starts a [`Server`] with a given shard/worker shape,
//! provisions a small fleet of tenants (one session, one key set and
//! one ciphertext each — sessions are created *sequentially* so the
//! round-robin acceptor plus self-locating Hello ids spread them across
//! shards), then drives it closed-loop: `connections` client threads,
//! each executing its pre-generated op sequence one request at a time,
//! the next request issued only after the previous reply. Every request
//! is timed individually, so a cell reports both throughput
//! (requests/sec over the loaded wall clock) and the latency tail
//! (p50/p95/p99).
//!
//! The whole request schedule — which tenant each connection drives and
//! the op drawn for every slot — is a pure function of the cell seed
//! via [`fhe_serve::fault::XorShift64`], so a cell replays exactly:
//! same seed, same schedule ([`Plan::generate`]).
//!
//! The interesting sweep axis is shards on a *fixed* key-cache byte
//! budget. With `cache_keys = Some(2)` and four tenants, a one-shard
//! server holds a two-key LRU that four cycling Galois keys thrash —
//! every rotation pays the seeded key expansion. Four shards split the
//! same global budget four ways, but each slice serves exactly one
//! tenant and the cache's keep-newest semantics hold that tenant's key
//! resident, so rotations run from cache. The throughput gap between
//! those two cells is the paper's compute-for-memory trade measured as
//! a serving scaling curve, on a single core — residency, not
//! parallelism.

use ckks::hoisting::{bsgs_required_steps, LinearTransform};
use ckks::serialize::{deserialize_switching_key, serialize_switching_key};
use ckks::{Ciphertext, CkksContext, Encoder, Encryptor, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_program::program::Program;
use fhe_program::{workloads, ExecInputs};
use fhe_serve::fault::XorShift64;
use fhe_serve::{shard_of, BatchConfig, Client, EvictionPolicy, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simfhe::program::ProgramEnv;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One request kind the generator can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    /// Hoisted rotation by one slot (Galois key).
    Rotate,
    /// Ciphertext–ciphertext multiply (relinearization key).
    Mult,
    /// BSGS plaintext matrix–vector product (hoisted Galois set).
    Bsgs,
    /// One uploaded-program execution (manifest keys).
    RunProgram,
}

impl LoadOp {
    /// Every op, in the order [`OpMix::weights`] indexes them.
    pub const ALL: [LoadOp; 4] = [
        LoadOp::Rotate,
        LoadOp::Mult,
        LoadOp::Bsgs,
        LoadOp::RunProgram,
    ];
}

/// A weighted op distribution for one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Short label used in cell names and JSON rows.
    pub name: &'static str,
    /// Draw weights for [`LoadOp::ALL`], in that order.
    pub weights: [u32; 4],
}

impl OpMix {
    /// Pure rotations — the mix that isolates key-cache residency:
    /// every request either runs from a resident Galois key or pays a
    /// seeded expansion.
    pub const fn cached_rotate() -> Self {
        Self {
            name: "cached_rotate",
            weights: [1, 0, 0, 0],
        }
    }

    /// A production-shaped blend: mostly rotations, a fair share of
    /// multiplies, the occasional BSGS and whole-program execution.
    pub const fn mixed() -> Self {
        Self {
            name: "mixed",
            weights: [5, 3, 1, 1],
        }
    }

    /// Whether `op` can ever be drawn from this mix.
    pub fn uses(&self, op: LoadOp) -> bool {
        let idx = LoadOp::ALL.iter().position(|o| *o == op).expect("known op");
        self.weights[idx] > 0
    }
}

/// The full request schedule for one cell: which tenant each connection
/// drives, and the op sequence each connection executes. A pure
/// function of `(seed, shape, mix)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `tenant_of[c]` is the tenant (session) connection `c` drives.
    pub tenant_of: Vec<usize>,
    /// `ops[c]` is connection `c`'s op sequence, executed in order.
    pub ops: Vec<Vec<LoadOp>>,
}

impl Plan {
    /// Generates the deterministic schedule: a balanced
    /// connection→tenant assignment (each tenant gets within one of
    /// `connections / tenants` drivers, Fisher–Yates-permuted by the
    /// seed) and an independent weighted op draw for every request
    /// slot. Calling this twice with the same arguments yields the
    /// identical plan.
    pub fn generate(
        seed: u64,
        connections: usize,
        tenants: usize,
        requests_per_conn: usize,
        mix: &OpMix,
    ) -> Self {
        assert!(tenants > 0 && connections > 0, "empty cell");
        let mut rng = XorShift64::new(seed);

        let mut tenant_of: Vec<usize> = (0..connections).map(|c| c % tenants).collect();
        for i in (1..tenant_of.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            tenant_of.swap(i, j);
        }

        let total: u32 = mix.weights.iter().sum();
        assert!(total > 0, "mix draws nothing");
        let mut draw = || {
            let mut r = rng.below(u64::from(total)) as u32;
            for (op, w) in LoadOp::ALL.iter().zip(mix.weights) {
                if r < w {
                    return *op;
                }
                r -= w;
            }
            unreachable!("weights sum covers every draw")
        };
        let ops = (0..connections)
            .map(|_| (0..requests_per_conn).map(|_| draw()).collect())
            .collect();

        Self { tenant_of, ops }
    }
}

/// The shape of one sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Shard loops the server runs.
    pub shards: usize,
    /// Workers **per shard**.
    pub workers: usize,
    /// Concurrent closed-loop client connections.
    pub connections: usize,
    /// Tenant sessions the connections share.
    pub tenants: usize,
    /// Requests each connection issues.
    pub requests_per_conn: usize,
    /// Seed for the request schedule.
    pub seed: u64,
    /// Op distribution.
    pub mix: OpMix,
    /// Level the driven ciphertext is encoded at. A *low* level under a
    /// deep modulus chain is the paper's byte asymmetry in miniature:
    /// the keyswitch only touches the ciphertext's live limbs, but a
    /// cache miss regenerates the switching key across the full chain —
    /// so the hit/miss cost gap, and with it the shard-residency
    /// scaling curve, widens as this drops.
    pub ct_level: usize,
    /// Global key-cache budget in units of one expanded switching key;
    /// `None` runs effectively uncached-unbounded (1 GiB). `Some(2)`
    /// with four tenants is the residency configuration the module doc
    /// describes.
    pub cache_keys: Option<u64>,
}

impl CellSpec {
    /// The cell's stable name — the JSON row key the trajectory gate
    /// diffs, so it encodes every swept axis.
    pub fn name(&self) -> String {
        format!(
            "loadgen/{}/s{}w{}c{}",
            self.mix.name, self.shards, self.workers, self.connections
        )
    }
}

/// Measured outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// [`CellSpec::name`] of the cell.
    pub name: String,
    /// Total requests completed (all of them — closed-loop never drops).
    pub requests: u64,
    /// Requests per second over the loaded wall clock.
    pub rps: f64,
    /// Mean per-request latency in nanoseconds.
    pub mean_ns: f64,
    /// Median per-request latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Key-cache hits summed across shards — the residency signal.
    pub cache_hits: u64,
    /// Key-cache misses summed across shards (each one paid a seeded
    /// expansion).
    pub cache_misses: u64,
}

impl CellResult {
    /// The cell as one JSON line in the vendored-criterion schema the
    /// bench-trajectory gate parses: `name` + `mean_ns` are the gated
    /// fields; `rps` and the tail quantiles ride along as extra fields
    /// the guard ignores but the artifact records.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"mean_ns\":{:.2},\"iters\":{},\"rps\":{:.2},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"key_hits\":{},\"key_misses\":{}}}",
            self.name,
            self.mean_ns,
            self.requests,
            self.rps,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.cache_hits,
            self.cache_misses
        )
    }
}

/// Nearest-rank percentile over sorted nanosecond samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Everything one tenant session needs at request time.
struct TenantRig {
    sid: u64,
    ct: Ciphertext,
    lt: Option<LinearTransform>,
    n1: usize,
    program: Option<(u64, Program, ExecInputs)>,
}

/// Runs one sweep cell end to end and reports its throughput and
/// latency tail. Panics (with the failing call) on any server or
/// protocol error — a load cell that cannot complete is a bug, not a
/// data point.
pub fn run_cell(ctx: &Arc<CkksContext>, spec: &CellSpec) -> CellResult {
    let slots = ctx.params().slots();
    let levels = ctx.params().levels();
    let plan = Plan::generate(
        spec.seed,
        spec.connections,
        spec.tenants,
        spec.requests_per_conn,
        &spec.mix,
    );

    // Budget measurement: relin and Galois switching keys share a shape,
    // so one expanded relin key prices the unit.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x6c6f_6164_6765_6e21);
    let kg = KeyGenerator::new(ctx.clone());
    let probe_sk = kg.secret_key(&mut rng);
    let probe_rlk = kg.relin_key_compressed(&mut rng, &probe_sk);
    let wire = serialize_switching_key(probe_rlk.switching_key());
    let key_bytes = deserialize_switching_key(ctx, &wire)
        .expect("round-trip the probe key")
        .size_bytes();
    let budget = match spec.cache_keys {
        Some(keys) => keys * key_bytes,
        None => 1 << 30,
    };

    // Grouping off (`max_batch: 1`): a multi-request group's pinned
    // key-set would blur the per-shard residency signal this generator
    // exists to measure.
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            shards: spec.shards,
            workers: spec.workers,
            key_cache_budget: budget,
            eviction: EvictionPolicy::Lru,
            batch: BatchConfig {
                max_batch: 1,
                ..BatchConfig::baseline()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    // BSGS transform shared by every tenant that draws Bsgs.
    let diagonals = 4usize;
    let needs_bsgs = spec.mix.uses(LoadOp::Bsgs);
    let needs_mult = spec.mix.uses(LoadOp::Mult);
    let needs_prog = spec.mix.uses(LoadOp::RunProgram);
    let n1 = 2usize;
    let mk_lt = |salt: usize| {
        let mut diags = BTreeMap::new();
        for d in 0..diagonals {
            let diag: Vec<Complex> = (0..slots)
                .map(|j| Complex::new(((j * 3 + d * 5 + salt) % 7) as f64 * 0.1 - 0.2, 0.0))
                .collect();
            diags.insert(d, diag);
        }
        LinearTransform::from_diagonals(diags, slots)
    };

    // Tenants are provisioned over sequential connections: the
    // round-robin acceptor parks connection t on shard t % shards, and
    // Hello mints a session id hashing there, so `tenants == shards`
    // covers every shard with exactly one tenant.
    let mut homes = Vec::with_capacity(spec.tenants);
    let mut rigs = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(1 + t as u64));
        let sk = kg.secret_key(&mut rng);

        let lt = needs_bsgs.then(|| mk_lt(t));
        let program = needs_prog.then(|| workloads::dot_product_program(slots, levels, diagonals));
        let mut steps = vec![1i64];
        if let Some(lt) = &lt {
            steps.extend(bsgs_required_steps(lt, n1));
        }
        if let Some(prog) = &program {
            let env = ProgramEnv { levels, slots };
            steps.extend(
                prog.validate(&env)
                    .expect("program validates")
                    .manifest
                    .galois_steps,
            );
        }
        steps.sort_unstable();
        steps.dedup();
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);
        let rlk = (needs_mult || needs_prog).then(|| kg.relin_key_compressed(&mut rng, &sk));

        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let mut encrypt = |v: &[f64], level: usize| {
            let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let pt = encoder.encode(&cv, level, ctx.params().scale()).unwrap();
            encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
        };

        let mut client = Client::connect(addr, ctx.clone()).expect("tenant connects");
        let sid = client.hello().expect("hello");
        client.upload_galois(sid, &gk).expect("upload galois");
        if let Some(rlk) = &rlk {
            client
                .upload_relin(sid, rlk.switching_key())
                .expect("upload relin");
        }

        let v: Vec<f64> = (0..slots)
            .map(|i| (i as f64 * 0.17 + t as f64).sin() * 0.25)
            .collect();
        let ct = encrypt(&v, spec.ct_level);

        let program = program.map(|prog| {
            let pid = client.upload_program(sid, &prog).expect("upload program");
            let mut diags = BTreeMap::new();
            for d in 0..diagonals {
                let diag: Vec<Complex> = (0..slots)
                    .map(|j| Complex::new(((j * 5 + d * 3 + t) % 5) as f64 * 0.1 - 0.1, 0.0))
                    .collect();
                diags.insert(d, diag);
            }
            let query: Vec<f64> = (0..slots).map(|b| ((b * 2 + t) % 5) as f64 * 0.1).collect();
            let mut inputs = ExecInputs::default();
            inputs.cts.insert("query".into(), encrypt(&query, levels));
            inputs
                .mats
                .insert("db".into(), LinearTransform::from_diagonals(diags, slots));
            (pid, prog, inputs)
        });

        rigs.push(Arc::new(TenantRig {
            sid,
            ct,
            lt,
            n1,
            program,
        }));
        homes.push(client);
    }

    // With one tenant per shard the residency mechanism requires the
    // placement the acceptor promises; check it rather than measure a
    // silently degenerate cell.
    if spec.shards == spec.tenants {
        let mut owners: Vec<usize> = rigs.iter().map(|r| shard_of(r.sid, spec.shards)).collect();
        owners.sort_unstable();
        assert_eq!(
            owners,
            (0..spec.shards).collect::<Vec<_>>(),
            "sequential tenants did not cover all shards"
        );
    }

    // The closed loop: every connection thread runs its schedule, one
    // outstanding request at a time, timing each reply.
    let barrier = Barrier::new(spec.connections + 1);
    let (wall, mut lat) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.connections)
            .map(|c| {
                let rig = Arc::clone(&rigs[plan.tenant_of[c]]);
                let ops = &plan.ops[c];
                let barrier = &barrier;
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr, ctx).expect("load conn connects");
                    barrier.wait();
                    let mut lat = Vec::with_capacity(ops.len());
                    for op in ops {
                        let t0 = Instant::now();
                        match op {
                            LoadOp::Rotate => {
                                client.rotate(rig.sid, &rig.ct, 1).expect("rotate");
                            }
                            LoadOp::Mult => {
                                client.mult(rig.sid, &rig.ct, &rig.ct).expect("mult");
                            }
                            LoadOp::Bsgs => {
                                let lt =
                                    rig.lt.as_ref().expect("mix drew Bsgs without a transform");
                                client.bsgs(rig.sid, &rig.ct, lt, rig.n1).expect("bsgs");
                            }
                            LoadOp::RunProgram => {
                                let (pid, prog, inputs) = rig
                                    .program
                                    .as_ref()
                                    .expect("mix drew RunProgram unprepared");
                                client
                                    .run_program(rig.sid, *pid, prog, inputs)
                                    .expect("run_program");
                            }
                        }
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let lat: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect();
        (t0.elapsed(), lat)
    });

    for (rig, home) in rigs.iter().zip(&mut homes) {
        home.close_session(rig.sid).expect("close session");
    }
    let cache = server.cache_stats();
    server.shutdown();

    lat.sort_unstable();
    let requests = lat.len() as u64;
    let mean_ns = lat.iter().map(|&n| n as f64).sum::<f64>() / requests as f64;
    CellResult {
        name: spec.name(),
        requests,
        rps: requests as f64 / wall.as_secs_f64(),
        mean_ns,
        p50_ns: percentile(&lat, 0.50),
        p95_ns: percentile(&lat, 0.95),
        p99_ns: percentile(&lat, 0.99),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    }
}

/// Runs the cell `runs` times and returns the *slowest* complete run
/// by mean latency, with every reported number (rps, tail, hit/miss)
/// taken from that one coherent run.
///
/// Worst-of-N is what makes the trajectory gate stable for thrash
/// cells. A closed-loop cell settles into a sticky cyclic request
/// order; if two connections of the same tenant happen to start
/// adjacent in that cycle, the tenant's key survives between them and
/// the whole run lands in a lucky fast regime. The cell's *designed*
/// regime — a deliberately thrashing cache — is its slow mode, so the
/// slowest of N runs is the one that actually measured the experiment,
/// on both the baseline side and the CI side. Adjacency luck would
/// have to strike all N runs to skew it, and in that case the current
/// measurement is fast and the gate passes anyway.
pub fn run_cell_worst(ctx: &Arc<CkksContext>, spec: &CellSpec, runs: usize) -> CellResult {
    assert!(runs > 0, "at least one run");
    (0..runs)
        .map(|_| run_cell(ctx, spec))
        .max_by(|a, b| a.mean_ns.total_cmp(&b.mean_ns))
        .expect("at least one run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_exact_schedule() {
        let mix = OpMix::mixed();
        let a = Plan::generate(7, 32, 4, 50, &mix);
        let b = Plan::generate(7, 32, 4, 50, &mix);
        assert_eq!(a, b, "the schedule must be a pure function of the seed");
        assert_eq!(a.tenant_of.len(), 32);
        assert!(a.ops.iter().all(|seq| seq.len() == 50));
    }

    #[test]
    fn different_seeds_diverge() {
        let mix = OpMix::mixed();
        let a = Plan::generate(7, 32, 4, 50, &mix);
        let b = Plan::generate(8, 32, 4, 50, &mix);
        assert_ne!(a, b, "distinct seeds should not collide on 1600 draws");
    }

    #[test]
    fn assignment_is_balanced_for_every_seed() {
        for seed in 0..20 {
            let plan = Plan::generate(seed, 32, 4, 1, &OpMix::cached_rotate());
            let mut counts = [0usize; 4];
            for &t in &plan.tenant_of {
                counts[t] += 1;
            }
            assert_eq!(counts, [8; 4], "permutation must preserve balance");
        }
    }

    #[test]
    fn cached_rotate_draws_only_rotations() {
        let plan = Plan::generate(3, 8, 4, 100, &OpMix::cached_rotate());
        assert!(plan.ops.iter().flatten().all(|op| *op == LoadOp::Rotate));
    }

    #[test]
    fn mixed_draws_every_op_kind() {
        let plan = Plan::generate(3, 8, 4, 200, &OpMix::mixed());
        for op in LoadOp::ALL {
            assert!(
                plan.ops.iter().flatten().any(|o| *o == op),
                "{op:?} never drawn in 1600 samples of the mixed mix"
            );
        }
    }

    #[test]
    fn json_line_carries_the_gated_and_informational_fields() {
        let r = CellResult {
            name: "loadgen/cached_rotate/s4w1c8".into(),
            requests: 240,
            rps: 123.45,
            mean_ns: 8_000_000.0,
            p50_ns: 7_000_000,
            p95_ns: 12_000_000,
            p99_ns: 20_000_000,
            cache_hits: 236,
            cache_misses: 4,
        };
        let line = r.json_line();
        for needle in [
            "\"name\":\"loadgen/cached_rotate/s4w1c8\"",
            "\"mean_ns\":8000000.00",
            "\"rps\":123.45",
            "\"p99_ns\":20000000",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
    }
}
