//! The serving workloads: an in-process server, a closed loop in which one
//! client thread drives every connection in turn with one request
//! outstanding in all, a host-probe pass between requests every
//! [`crate::hostprobe::BLOCK`], and a byte-exact check of every reply against
//! the library's own result.

use crate::hostprobe::Meter;
use crate::plan::{Op, Plan, Slot};
use crate::promparse::Dump;
use crate::trace::{Recorder, Span};
use crate::workloads::{ServeWorkload, BSGS_N1, DIAGONALS};
use ckks::hoisting::{apply_bsgs, bsgs_required_steps, rotate_hoisted, LinearTransform};
use ckks::serialize::{deserialize_switching_key, serialize_switching_key};
use ckks::{
    Ciphertext, CkksContext, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator, Plaintext,
    RelinKey, SwitchingKey,
};
use fhe_math::cfft::Complex;
use fhe_program::program::{Program, ProgramEnv};
use fhe_program::{execute, workloads, ExecInputs, ExecKeys};
use fhe_serve::{
    shard_of, BatchConfig, CacheStats, Client, ClientError, EvictionPolicy, ObsConfig, ServeConfig,
    Server,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The bytes a correct reply must carry.
#[derive(Clone)]
pub struct Expected {
    scale_bits: u64,
    c0: Vec<u64>,
    c1: Vec<u64>,
}

impl Expected {
    pub fn of(ct: &Ciphertext) -> Self {
        Self {
            scale_bits: ct.scale().to_bits(),
            c0: ct.c0().flat().to_vec(),
            c1: ct.c1().flat().to_vec(),
        }
    }

    pub fn matches(&self, ct: &Ciphertext) -> bool {
        self.scale_bits == ct.scale().to_bits()
            && self.c0 == ct.c0().flat()
            && self.c1 == ct.c1().flat()
    }

    /// Flips one bit of the expectation (the `--corrupt-reference` proof
    /// that the checker can fail).
    pub fn corrupt(&mut self) {
        self.c0[0] ^= 1;
    }
}

/// What the library computes locally for every distinct request of a plan.
pub type Reference = BTreeMap<(usize, Op, usize), Vec<Expected>>;

/// One tenant's client-side material: secret key, seeded (compressed) keys
/// as they are uploaded, and the operands its requests draw from.
struct Tenant {
    galois: GaloisKeys,
    relin: Option<RelinKey>,
    cts: Vec<Ciphertext>,
    pt: Plaintext,
    lt: Option<LinearTransform>,
    /// The served program and its inputs, one binding per operand.
    program: Option<(Program, Vec<ExecInputs>)>,
}

impl Tenant {
    fn uploaded_keys(&self) -> usize {
        self.galois.len() + usize::from(self.relin.is_some())
    }
}

fn uses(w: &ServeWorkload, op: Op) -> bool {
    w.shape.mix.iter().any(|&(o, weight)| o == op && weight > 0)
}

fn random_values(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<Complex> {
    (0..n)
        .map(|_| Complex::new(rng.gen_range(lo..hi), 0.0))
        .collect()
}

fn random_transform(rng: &mut StdRng, slots: usize) -> LinearTransform {
    let diagonals = (0..DIAGONALS)
        .map(|d| (d, random_values(rng, slots, -0.3, 0.3)))
        .collect();
    LinearTransform::from_diagonals(diagonals, slots)
}

fn make_tenant(ctx: &Arc<CkksContext>, w: &ServeWorkload, seed: u64, t: usize) -> Tenant {
    let params = ctx.params();
    let (slots, levels) = (params.slots(), params.levels());
    let level = w.ct_level.unwrap_or(levels);
    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());

    let lt = uses(w, Op::Bsgs).then(|| random_transform(&mut rng, slots));
    let program =
        uses(w, Op::RunProgram).then(|| workloads::dot_product_program(slots, levels, DIAGONALS));

    let mut steps = Vec::new();
    if uses(w, Op::Rotate) {
        steps.push(1i64);
    }
    if let Some(lt) = &lt {
        steps.extend(bsgs_required_steps(lt, BSGS_N1));
    }
    if let Some(prog) = &program {
        let info = prog
            .validate(&ProgramEnv { levels, slots })
            .expect("dot-product program validates on the serving ring");
        steps.extend(info.manifest.galois_steps);
    }
    steps.sort_unstable();
    steps.dedup();
    let galois = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);
    let relin = uses(w, Op::Mult).then(|| kg.relin_key_compressed(&mut rng, &sk));

    let encrypt = |rng: &mut StdRng, level: usize| {
        let values = random_values(rng, slots, -0.5, 0.5);
        let pt = encoder
            .encode(&values, level, params.scale())
            .expect("input encodes");
        encryptor.encrypt_symmetric(rng, &pt, &sk)
    };
    let cts = (0..w.shape.operands)
        .map(|_| encrypt(&mut rng, level))
        .collect();
    let pt = encoder
        .encode(
            &random_values(&mut rng, slots, -0.5, 0.5),
            level,
            params.scale(),
        )
        .expect("plaintext operand encodes");
    let program = program.map(|prog| {
        let inputs = (0..w.shape.operands)
            .map(|_| {
                let mut inputs = ExecInputs::default();
                inputs.cts.insert("query".into(), encrypt(&mut rng, levels));
                inputs
                    .mats
                    .insert("db".into(), random_transform(&mut rng, slots));
                inputs
            })
            .collect();
        (prog, inputs)
    });

    Tenant {
        galois,
        relin,
        cts,
        pt,
        lt,
        program,
    }
}

/// The key exactly as the server holds it after expanding the uploaded
/// (seeded) wire form.
fn expanded(ctx: &CkksContext, key: &SwitchingKey) -> SwitchingKey {
    deserialize_switching_key(ctx, &serialize_switching_key(key))
        .expect("a freshly serialized key deserializes")
}

/// Computes, with direct library calls, what the server must answer to
/// every distinct `(tenant, op, operand)` of `plan`.
fn compute_reference(
    ctx: &Arc<CkksContext>,
    w: &ServeWorkload,
    tenants: &[Tenant],
    plan: &Plan,
) -> Reference {
    let ev = Evaluator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let mut out = Reference::new();
    let mut keys: BTreeMap<usize, (GaloisKeys, Option<SwitchingKey>)> = BTreeMap::new();
    for slot in warm_up_slots(w).chain(plan.conns.iter().flatten().copied()) {
        let key = (slot.tenant, slot.op, slot.operand);
        if slot.op == Op::Reprovision || out.contains_key(&key) {
            continue;
        }
        let tenant = &tenants[slot.tenant];
        let (gk, rlk) = keys.entry(slot.tenant).or_insert_with(|| {
            let mut gk = GaloisKeys::new();
            for (element, k) in tenant.galois.iter() {
                gk.insert(element, expanded(ctx, k));
            }
            let rlk = tenant
                .relin
                .as_ref()
                .map(|r| expanded(ctx, r.switching_key()));
            (gk, rlk)
        });
        let a = &tenant.cts[slot.operand];
        let b = &tenant.cts[(slot.operand + 1) % tenant.cts.len()];
        let results = match slot.op {
            Op::Add => vec![ev.add(a, b)],
            Op::PtMult => vec![ev.mul_plain(a, &tenant.pt)],
            Op::Rescale => vec![ev.rescale(a)],
            // The server rotates through the hoisted formulation, which is
            // only semantically equal to `Evaluator::rotate`.
            Op::Rotate => rotate_hoisted(&ev, a, &[1], gk),
            Op::Mult => {
                let rlk = rlk.as_ref().expect("Mult in the mix implies a relin key");
                vec![ev.mul_with_key(a, b, rlk)]
            }
            Op::Bsgs => {
                let lt = tenant
                    .lt
                    .as_ref()
                    .expect("Bsgs in the mix implies a transform");
                vec![apply_bsgs(&ev, &encoder, a, lt, gk, BSGS_N1)]
            }
            Op::RunProgram => {
                let (prog, inputs) = tenant.program.as_ref().expect("program prepared");
                let keys = ExecKeys {
                    relin: rlk.as_ref(),
                    galois: Some(gk),
                };
                execute(&ev, &encoder, prog, &inputs[slot.operand], keys)
                    .expect("reference program executes")
                    .into_iter()
                    .map(|(_, ct)| ct)
                    .collect()
            }
            Op::Reprovision => unreachable!("skipped above"),
        };
        out.insert(key, results.iter().map(Expected::of).collect());
    }
    out
}

/// One connection of the closed loop with the session state of the tenants
/// it owns.
struct Conn {
    client: Client,
    /// `(session id, program id)` per owned tenant, by index within the
    /// connection.
    sessions: Vec<(u64, Option<u64>)>,
}

impl Conn {
    /// Opens a session for `tenant` and uploads everything it needs.
    fn provision(client: &mut Client, tenant: &Tenant) -> Result<(u64, Option<u64>), ClientError> {
        let sid = client.hello()?;
        // `serve_light` needs no key, and the server rejects an empty bundle.
        if !tenant.galois.is_empty() {
            client.upload_galois(sid, &tenant.galois)?;
        }
        if let Some(rlk) = &tenant.relin {
            client.upload_relin(sid, rlk.switching_key())?;
        }
        let pid = match &tenant.program {
            Some((prog, _)) => Some(client.upload_program(sid, prog)?),
            None => None,
        };
        Ok((sid, pid))
    }

    /// Issues one slot's request(s); returns the reply ciphertexts.
    fn issue(
        &mut self,
        slot: Slot,
        local: usize,
        tenant: &Tenant,
    ) -> Result<Vec<Ciphertext>, ClientError> {
        let (sid, pid) = self.sessions[local];
        let a = &tenant.cts[slot.operand];
        let b = &tenant.cts[(slot.operand + 1) % tenant.cts.len()];
        let c = &mut self.client;
        Ok(match slot.op {
            Op::Add => vec![c.add(sid, a, b)?],
            Op::PtMult => vec![c.pt_mult(sid, a, &tenant.pt)?],
            Op::Rescale => vec![c.rescale(sid, a)?],
            Op::Rotate => vec![c.rotate(sid, a, 1)?],
            Op::Mult => vec![c.mult(sid, a, b)?],
            Op::Bsgs => {
                let lt = tenant
                    .lt
                    .as_ref()
                    .expect("Bsgs in the mix implies a transform");
                vec![c.bsgs(sid, a, lt, BSGS_N1)?]
            }
            Op::RunProgram => {
                let (prog, inputs) = tenant.program.as_ref().expect("program prepared");
                c.run_program(
                    sid,
                    pid.expect("program uploaded"),
                    prog,
                    &inputs[slot.operand],
                )?
            }
            Op::Reprovision => {
                c.close_session(sid)?;
                self.sessions[local] = Self::provision(c, tenant)?;
                Vec::new()
            }
        })
    }
}

/// A provisioned, warmed-up server with its clients: one repetition's
/// set-up.
pub struct Rig {
    w: &'static ServeWorkload,
    ctx: Arc<CkksContext>,
    tenants: Vec<Tenant>,
    server: Server,
    conns: Vec<Conn>,
    /// Set-up time in seconds, as measured and at the reference host's speed.
    pub setup_raw_s: f64,
    pub setup_s: f64,
}

/// What one measured phase observed, from the client side and — as deltas
/// over the phase — from what the server publishes.
pub struct Phase {
    /// The client-observed latencies of every request issued, summed, in ms:
    /// as measured, and divided block by block by the host's slowdown. With
    /// one request outstanding this is the time the phase spent serving.
    pub raw_busy_ms: f64,
    pub busy_ms: f64,
    /// `(op, client-observed latency in ms at the reference host's speed)`
    /// of every request that got a reply, correct or not.
    pub samples: Vec<(Op, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub server: Dump,
    pub cache: CacheStats,
    pub cache_before: CacheStats,
    pub scratch_leases: u64,
    pub scratch_misses: u64,
    pub limb_transforms: u64,
    pub cpu_ms: f64,
    pub keys_uploaded: usize,
    pub spans: Vec<Span>,
}

impl Rig {
    /// Builds context, tenants and server, provisions every tenant over the
    /// connection that owns it and warms every `(tenant, op)` once. The
    /// reference is computed on first use — outside the set-up time — and
    /// shared by later repetitions, whose identically seeded set-up must
    /// reproduce it.
    pub fn setup(
        w: &'static ServeWorkload,
        seed: u64,
        plan: &Plan,
        reference: &mut Option<Reference>,
        meter: &mut Meter,
    ) -> Result<Rig, String> {
        meter.open();
        let started = Instant::now();
        let ctx = CkksContext::new(w.ring.params());
        let tenants: Vec<Tenant> = (0..w.shape.tenants())
            .map(|t| make_tenant(&ctx, w, seed, t))
            .collect();
        let key_bytes = tenants[0]
            .galois
            .iter()
            .next()
            .map(|(_, k)| k.size_bytes())
            .or_else(|| {
                tenants[0]
                    .relin
                    .as_ref()
                    .map(|r| r.switching_key().size_bytes())
            });
        let budget = match (w.cache_keys, key_bytes) {
            (Some(keys), Some(bytes)) => keys * bytes,
            _ => 1 << 30,
        };
        // Every field the workload depends on is set here; struct update
        // only keeps the benchmark compiling when the config grows.
        let server = Server::start(
            ctx.clone(),
            ServeConfig {
                shards: w.shards,
                workers: w.workers,
                queue_capacity: 64,
                key_cache_budget: budget,
                eviction: EvictionPolicy::Lru,
                batch: BatchConfig::baseline(),
                obs: ObsConfig::baseline(),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let mut conns = Vec::with_capacity(w.shape.connections);
        for c in 0..w.shape.connections {
            let mut client = Client::connect(server.local_addr(), ctx.clone())
                .map_err(|e| format!("connect: {e}"))?;
            let owned = c * w.shape.tenants_per_conn..(c + 1) * w.shape.tenants_per_conn;
            let sessions = tenants[owned]
                .iter()
                .map(|t| Conn::provision(&mut client, t))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("provisioning: {e}"))?;
            conns.push(Conn { client, sessions });
        }
        // One closed loop per cache slice: the acceptor parks connection `c`
        // on shard `c mod shards` and Hello mints ids that hash there, so a
        // connection's tenants share its shard and no other connection's.
        // Hit or miss is then a property of the plan, not of how two loops
        // interleave; check it rather than measure a different experiment.
        for (c, conn) in conns.iter().enumerate() {
            for &(sid, _) in &conn.sessions {
                let home = shard_of(sid, w.shards);
                if home != c % w.shards {
                    return Err(format!(
                        "session {sid} of connection {c} lives on shard {home}, not {}",
                        c % w.shards
                    ));
                }
            }
        }
        let build_s = started.elapsed().as_secs_f64();
        let build_slowdown = meter.close();

        let reference = reference.get_or_insert_with(|| compute_reference(&ctx, w, &tenants, plan));

        meter.open();
        let warm = Instant::now();
        let mut rig = Rig {
            w,
            ctx,
            tenants,
            server,
            conns,
            setup_raw_s: 0.0,
            setup_s: 0.0,
        };
        rig.warm_up(reference)?;
        let warm_s = warm.elapsed().as_secs_f64();
        rig.setup_raw_s = build_s + warm_s;
        rig.setup_s = build_s / build_slowdown + warm_s / meter.close();
        Ok(rig)
    }

    /// Every tenant × op kind once, checked like a measured request: keys
    /// get expanded, the scratch pool fills, lazy tables build.
    fn warm_up(&mut self, reference: &Reference) -> Result<(), String> {
        let per = self.w.shape.tenants_per_conn;
        for slot in warm_up_slots(self.w) {
            let (t, op) = (slot.tenant, slot.op);
            let reply = self.conns[t / per]
                .issue(slot, t % per, &self.tenants[t])
                .map_err(|e| format!("warm-up {op:?} for tenant {t}: {e}"))?;
            if !replies_match(&reference[&(t, op, 0)], &reply) {
                return Err(format!("warm-up {op:?} for tenant {t}: reply differs"));
            }
        }
        Ok(())
    }

    /// Runs `plan` closed-loop from this thread — every connection in turn,
    /// one request outstanding in all — and stops issuing at `deadline`.
    /// Replies are checked between requests, outside their latency.
    pub fn measure(
        &mut self,
        plan: &Plan,
        reference: &Reference,
        traced: bool,
        deadline: Duration,
        meter: &mut Meter,
    ) -> Phase {
        let per = self.w.shape.tenants_per_conn;
        let order = plan.interleaved();
        let epoch = Instant::now();
        let mut rec = Recorder::new(traced, epoch, 0);
        let mut samples: Vec<(Op, f64)> = Vec::with_capacity(order.len());
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut raw_busy_ms, mut busy_ms) = (0.0, 0.0);

        let before = Dump::parse(&self.server.metrics_dump());
        let cache_before = self.server.cache_stats();
        let scratch_before = self.ctx.scratch().stats();
        let ntt =
            fhe_math::ntt::counters::forward_count() + fhe_math::ntt::counters::inverse_count();
        let cpu_before = crate::sys::cpu_ms();
        meter.take_passes();

        // The open block: latencies of requests that failed outright (no
        // sample) and the index of its first sample.
        let mut block_failed_ms = 0.0;
        let mut block_from = 0;
        let mut close_block = |meter: &mut Meter, samples: &mut Vec<(Op, f64)>, lost: &mut f64| {
            let slowdown = meter.close();
            let mut raw = *lost;
            for (_, ms) in &mut samples[block_from..] {
                raw += *ms;
                *ms /= slowdown;
            }
            block_from = samples.len();
            *lost = 0.0;
            raw_busy_ms += raw;
            busy_ms += raw / slowdown;
        };

        meter.open();
        let started = Instant::now();
        for (i, &(c, slot)) in order.iter().enumerate() {
            if started.elapsed() > deadline {
                break;
            }
            let id = ((c as u64) << 32) | i as u64;
            let sent = Instant::now();
            let reply = self.conns[c].issue(slot, slot.tenant % per, &self.tenants[slot.tenant]);
            let done = Instant::now();
            let ms = (done - sent).as_secs_f64() * 1e3;
            let ok = match &reply {
                Ok(cts) => {
                    samples.push((slot.op, ms));
                    reference
                        .get(&(slot.tenant, slot.op, slot.operand))
                        .is_none_or(|want| replies_match(want, cts))
                }
                Err(_) => {
                    block_failed_ms += ms;
                    false
                }
            };
            attempted += 1;
            failed += u64::from(!ok);
            rec.record("client.call", Some("request"), id, sent, done);
            rec.record("request", None, id, sent, Instant::now());
            if meter.due() {
                close_block(meter, &mut samples, &mut block_failed_ms);
            }
        }
        close_block(meter, &mut samples, &mut block_failed_ms);

        let passes = meter.take_passes();
        let cpu_ms = crate::sys::cpu_ms() - cpu_before - passes.iter().sum::<f64>();
        let limb_transforms = fhe_math::ntt::counters::forward_count()
            + fhe_math::ntt::counters::inverse_count()
            - ntt;
        let scratch = self.ctx.scratch().stats();
        let server = Dump::parse(&self.server.metrics_dump()).since(&before);

        Phase {
            raw_busy_ms,
            busy_ms,
            samples,
            attempted,
            failed,
            server,
            cache: self.server.cache_stats(),
            cache_before,
            scratch_leases: scratch.leases - scratch_before.leases,
            scratch_misses: scratch.misses - scratch_before.misses,
            limb_transforms,
            cpu_ms,
            keys_uploaded: self.tenants.iter().map(Tenant::uploaded_keys).sum(),
            spans: rec.spans,
        }
    }

    /// Closes every session and drains the server.
    pub fn teardown(mut self) -> Arc<CkksContext> {
        for conn in &mut self.conns {
            for &(sid, _) in &conn.sessions {
                let _ = conn.client.close_session(sid);
            }
        }
        drop(self.conns);
        self.server.shutdown();
        self.ctx
    }

    pub fn backend(&self) -> &'static str {
        self.server.kernel_backend_name()
    }

    pub fn shard_count(&self) -> usize {
        self.server.shard_count()
    }
}

/// Every tenant × op kind of the mix once, on operand 0.
fn warm_up_slots(w: &ServeWorkload) -> impl Iterator<Item = Slot> + '_ {
    (0..w.shape.tenants()).flat_map(move |tenant| {
        w.shape.mix.iter().map(move |&(op, _)| Slot {
            tenant,
            op,
            operand: 0,
        })
    })
}

pub fn replies_match(want: &[Expected], got: &[Ciphertext]) -> bool {
    want.len() == got.len() && want.iter().zip(got).all(|(w, g)| w.matches(g))
}

/// The served program executed directly, for the `fhe_program.*` and
/// `simfhe.*` rows of a workload whose mix contains `RunProgram`.
pub struct ProgramProbe {
    pub program: Program,
    pub info: fhe_program::program::ProgramInfo,
    pub median_ms: f64,
    /// Limb NTTs of one execution.
    pub limb_transforms: u64,
}

pub fn program_probe(
    ctx: &Arc<CkksContext>,
    w: &ServeWorkload,
    seed: u64,
    meter: &mut Meter,
) -> Option<ProgramProbe> {
    let tenant = make_tenant(ctx, w, seed, 0);
    let (program, inputs) = tenant.program?;
    let params = ctx.params();
    let info = program
        .validate(&ProgramEnv {
            levels: params.levels(),
            slots: params.slots(),
        })
        .expect("validated at set-up");
    let mut gk = GaloisKeys::new();
    for (element, k) in tenant.galois.iter() {
        gk.insert(element, expanded(ctx, k));
    }
    let ev = Evaluator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let keys = ExecKeys {
        relin: None,
        galois: Some(&gk),
    };
    let run = || execute(&ev, &encoder, &program, &inputs[0], keys).expect("program executes");
    let counters =
        || fhe_math::ntt::counters::forward_count() + fhe_math::ntt::counters::inverse_count();
    let before = counters();
    run();
    let limb_transforms = counters() - before;
    Some(ProgramProbe {
        median_ms: crate::probes::median_us(meter, run) / 1e3,
        limb_transforms,
        program,
        info,
    })
}
