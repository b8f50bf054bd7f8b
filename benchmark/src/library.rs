//! `lib_programs`: the four encrypted programs executed back to back by one
//! caller thread — no socket, codec or cache, only `ckks` and `fhe-math`.

use crate::hostprobe::Meter;
use crate::serve::{replies_match, Expected};
use crate::trace::{Recorder, Span};
use crate::workloads::LibWorkload;
use ckks::hoisting::LinearTransform;
use ckks::{
    Ciphertext, CkksContext, Decryptor, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    RelinKey, SecretKey,
};
use fhe_math::cfft::Complex;
use fhe_program::program::{Program, ProgramEnv, ProgramInfo};
use fhe_program::{execute_validated, workloads, ExecInputs, ExecKeys};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A round's four program latencies in ms.
type ProgramMs = [f64; 4];

/// The programs of a round, in execution order; the names are the suffixes
/// of the `fhe_program.execute_ms.*` metrics.
pub const PROGRAMS: [&str; 4] = ["dot_product", "sha256_stress", "aggregate", "helr_step"];
const SPANS: [&str; 4] = [
    "execute.dot_product",
    "execute.sha256_stress",
    "execute.aggregate",
    "execute.helr_step",
];

/// A validated program with its inputs and what its outputs must decrypt to.
pub struct Prepared {
    pub program: Program,
    pub info: ProgramInfo,
    pub inputs: ExecInputs,
    /// Per output, the plaintext reference slot by slot.
    plain: Vec<Vec<f64>>,
}

/// One repetition's set-up: context, pre-expanded keys, encrypted inputs.
pub struct Bench {
    pub ctx: Arc<CkksContext>,
    ev: Evaluator,
    encoder: Encoder,
    sk: SecretKey,
    relin: RelinKey,
    galois: GaloisKeys,
    pub prepared: Vec<Prepared>,
    /// Set-up time in seconds, as measured and at the reference host's speed.
    pub setup_raw_s: f64,
    pub setup_s: f64,
}

/// The outputs of one round, program by program.
pub type RoundOutputs = Vec<Vec<Expected>>;

pub struct Phase {
    /// Round latencies in ms as measured, summed.
    pub raw_busy_ms: f64,
    /// Round latencies in ms at the reference host's speed: every program
    /// execution is a block of its own between two passes of the host probe.
    pub rounds: Vec<f64>,
    /// `execute_ms[p]` are program `p`'s latencies in ms at the reference
    /// host's speed, one per round.
    pub execute_ms: [Vec<f64>; 4],
    pub failed: u64,
    pub max_slot_error: f64,
    pub limb_transforms: u64,
    pub scratch_leases: u64,
    pub scratch_misses: u64,
    pub cpu_ms: f64,
    pub spans: Vec<Span>,
}

fn reals(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

fn bits(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| f64::from(rng.gen_bool(0.5))).collect()
}

impl Bench {
    pub fn setup(w: &LibWorkload, seed: u64, meter: &mut Meter) -> Bench {
        meter.open();
        let started = Instant::now();
        let ctx = CkksContext::new(w.ring.params());
        let (slots, levels) = (ctx.params().slots(), ctx.params().levels());
        let env = ProgramEnv { levels, slots };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_625f_7072_6f67);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());

        let programs = [
            workloads::dot_product_program(slots, levels, w.dot_diagonals),
            workloads::sha256_stress_program(levels, w.sha_rotations.0, w.sha_rotations.1),
            workloads::aggregate_program(slots, levels),
            fhe_apps::helr_step_program(w.helr_dim, slots, levels, 1.0),
        ];
        let infos: Vec<ProgramInfo> = programs
            .iter()
            .map(|p| p.validate(&env).expect("workload program validates"))
            .collect();
        let mut steps: Vec<i64> = infos
            .iter()
            .flat_map(|i| i.manifest.galois_steps.iter().copied())
            .collect();
        steps.sort_unstable();
        steps.dedup();
        // Keys pre-expanded: generated in full, never through a seed.
        let relin = kg.relin_key(&mut rng, &sk);
        let galois = kg.galois_keys(&mut rng, &sk, &steps, false);

        let encrypt = |rng: &mut StdRng, v: &[f64]| {
            let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let pt = encoder
                .encode(&cv, levels, ctx.params().scale())
                .expect("input encodes");
            encryptor.encrypt_symmetric(rng, &pt, &sk)
        };

        let mut prepared = Vec::with_capacity(4);
        let [dot, sha, agg, helr] = programs;
        let mut infos = infos.into_iter();
        let mut push = |program, inputs, plain| {
            prepared.push(Prepared {
                program,
                info: infos.next().expect("one info per program"),
                inputs,
                plain,
            })
        };

        // dot_product: y[j] = Σ_d diag_d[j] · query[(j + d) mod slots] / 8.
        {
            let query = reals(&mut rng, slots, 0.0, 0.6);
            let diags: Vec<Vec<f64>> = (0..w.dot_diagonals)
                .map(|_| reals(&mut rng, slots, -0.2, 0.4))
                .collect();
            let want = (0..slots)
                .map(|j| {
                    diags
                        .iter()
                        .enumerate()
                        .map(|(d, diag)| diag[j] * query[(j + d) % slots])
                        .sum::<f64>()
                        * 0.125
                })
                .collect();
            let mut inputs = ExecInputs::default();
            inputs.cts.insert("query".into(), encrypt(&mut rng, &query));
            let lt = LinearTransform::from_diagonals(
                diags
                    .iter()
                    .enumerate()
                    .map(|(d, diag)| (d, diag.iter().map(|&x| Complex::new(x, 0.0)).collect()))
                    .collect(),
                slots,
            );
            inputs.mats.insert("db".into(), lt);
            push(dot, inputs, vec![want]);
        }

        // sha256_stress: σ₀-style rotation XOR + Ch + Maj over 0/1 slots.
        {
            let (x, y, z, v) = (
                bits(&mut rng, slots),
                bits(&mut rng, slots),
                bits(&mut rng, slots),
                bits(&mut rng, slots),
            );
            let xor = |a: f64, b: f64| a + b - 2.0 * a * b;
            let (ra, rb) = (w.sha_rotations.0 as usize, w.sha_rotations.1 as usize);
            let want = (0..slots)
                .map(|j| {
                    xor(x[(j + ra) % slots], x[(j + rb) % slots])
                        + (v[j] + y[j] * (z[j] - v[j]))
                        + (x[j] * y[j] + xor(x[j], y[j]) * z[j])
                })
                .collect();
            let mut inputs = ExecInputs::default();
            for (name, bits) in [("x", &x), ("y", &y), ("z", &z), ("w", &v)] {
                inputs.cts.insert(name.into(), encrypt(&mut rng, bits));
            }
            push(sha, inputs, vec![want]);
        }

        // aggregate: global mean and a two-fold smooth maximum.
        {
            let vs: Vec<Vec<f64>> = (0..3).map(|_| reals(&mut rng, slots, 0.0, 1.0)).collect();
            let mean = vs.iter().flatten().sum::<f64>() / (3 * slots) as f64;
            let smax = (0..slots)
                .map(|b| {
                    let mut m = vs[0][b];
                    for v in [vs[1][b], vs[2][b]] {
                        m = (m + v) / 2.0 + (m - v) * (m - v) / 2.0;
                    }
                    m
                })
                .collect();
            let mut inputs = ExecInputs::default();
            for (d, v) in vs.iter().enumerate() {
                inputs.cts.insert(format!("v{d}"), encrypt(&mut rng, v));
            }
            push(agg, inputs, vec![vec![mean; slots], smax]);
        }

        // helr_step: one gradient step, against `plain_lr_step`.
        {
            let dim = w.helr_dim;
            let xs: Vec<Vec<f64>> = (0..dim)
                .map(|_| reals(&mut rng, slots, -0.4, 0.4))
                .collect();
            let y = bits(&mut rng, slots);
            let mut weights: Vec<f64> = (0..dim).map(|d| 0.01 * d as f64).collect();
            let mut inputs = ExecInputs::default();
            for (d, x) in xs.iter().enumerate() {
                let w_ct = encrypt(&mut rng, &vec![weights[d]; slots]);
                inputs.cts.insert(format!("w{d}"), w_ct);
                inputs.cts.insert(format!("x{d}"), encrypt(&mut rng, x));
            }
            inputs.cts.insert("y".into(), encrypt(&mut rng, &y));
            fhe_apps::plain_lr_step(&mut weights, &xs, &y, 1.0);
            // Every slot of an updated weight holds the same value.
            push(
                helr,
                inputs,
                weights.iter().map(|&wd| vec![wd; slots]).collect(),
            );
        }

        let mut bench = Bench {
            ev: Evaluator::new(ctx.clone()),
            encoder,
            ctx,
            sk,
            relin,
            galois,
            prepared,
            setup_raw_s: 0.0,
            setup_s: 0.0,
        };
        let build_s = started.elapsed().as_secs_f64();
        let build_slowdown = meter.close();
        // Warm-up: one round, part of the set-up, fills the scratch pool and
        // builds every lazily constructed table.
        let mut rec = Recorder::new(false, started, 0);
        let (raw, corrected, _) = bench.round(0, &mut rec, meter);
        bench.setup_raw_s = build_s + raw.iter().sum::<f64>() / 1e3;
        bench.setup_s = build_s / build_slowdown + corrected.iter().sum::<f64>() / 1e3;
        bench
    }

    fn keys(&self) -> ExecKeys<'_> {
        ExecKeys {
            relin: Some(self.relin.switching_key()),
            galois: Some(&self.galois),
        }
    }

    /// Executes program `p` once.
    pub fn execute(&self, p: usize) -> Vec<Ciphertext> {
        let prep = &self.prepared[p];
        execute_validated(
            &self.ev,
            &self.encoder,
            &prep.program,
            &prep.info,
            &prep.inputs,
            self.keys(),
        )
        .expect("workload program executes")
        .into_iter()
        .map(|(_, ct)| ct)
        .collect()
    }

    /// One round: the four programs once each, each between two passes of
    /// the host probe. Returns the per-program latencies in ms — as
    /// measured, and at the reference host's speed — and every output.
    fn round(
        &self,
        id: u64,
        rec: &mut Recorder,
        meter: &mut Meter,
    ) -> (ProgramMs, ProgramMs, Vec<Vec<Ciphertext>>) {
        let (mut raw, mut corrected) = ([0.0; 4], [0.0; 4]);
        let mut outputs = Vec::with_capacity(4);
        let round_start = Instant::now();
        for (p, name) in SPANS.into_iter().enumerate() {
            meter.open();
            let start = Instant::now();
            outputs.push(self.execute(p));
            let end = Instant::now();
            raw[p] = (end - start).as_secs_f64() * 1e3;
            corrected[p] = raw[p] / meter.close();
            rec.record(name, Some("round"), id, start, end);
        }
        rec.record("round", None, id, round_start, Instant::now());
        (raw, corrected, outputs)
    }

    /// Largest absolute slot error of `outputs` against the plaintext
    /// reference.
    fn slot_error(&self, outputs: &[Vec<Ciphertext>]) -> f64 {
        let decryptor = Decryptor::new(self.ctx.clone());
        let mut worst = 0.0f64;
        for (prep, outs) in self.prepared.iter().zip(outputs) {
            for (want, ct) in prep.plain.iter().zip(outs) {
                let got = self.encoder.decode(&decryptor.decrypt(ct, &self.sk));
                for (g, w) in got.iter().zip(want) {
                    worst = worst.max((g.re - w).abs());
                }
            }
        }
        worst
    }

    /// Runs `rounds` rounds. The first and last are decrypted against the
    /// plaintext reference; every round must reproduce `expected` byte for
    /// byte (set from the first round ever run, so identically seeded
    /// repetitions must agree too). A round that fails either check counts
    /// as failed.
    pub fn measure(
        &self,
        rounds: usize,
        expected: &mut Option<RoundOutputs>,
        corrupt: bool,
        traced: bool,
        deadline: Duration,
        meter: &mut Meter,
    ) -> Phase {
        let pool = self.ctx.scratch().stats();
        let ntt =
            fhe_math::ntt::counters::forward_count() + fhe_math::ntt::counters::inverse_count();
        let cpu = crate::sys::cpu_ms();
        let started = Instant::now();
        let mut rec = Recorder::new(traced, started, 0);
        let mut latencies = Vec::with_capacity(rounds);
        let mut raw_busy_ms = 0.0;
        meter.take_passes();
        let mut execute_ms: [Vec<f64>; 4] = Default::default();
        let mut mismatched = Vec::with_capacity(rounds);
        // Only the first and the latest round's outputs are held, so that
        // `peak_rss_mb` does not grow with the number of rounds.
        let mut first = None;
        let mut last = None;
        for r in 0..rounds {
            if started.elapsed() > deadline {
                break;
            }
            let (raw, ms, outputs) = self.round(r as u64, &mut rec, meter);
            raw_busy_ms += raw.iter().sum::<f64>();
            latencies.push(ms.iter().sum::<f64>());
            for (all, one) in execute_ms.iter_mut().zip(ms) {
                all.push(one);
            }
            // The round's clock has stopped: checking is not timed.
            let want = expected.get_or_insert_with(|| {
                let mut first: RoundOutputs = outputs
                    .iter()
                    .map(|o| o.iter().map(Expected::of).collect())
                    .collect();
                if corrupt {
                    first[0][0].corrupt();
                }
                first
            });
            mismatched.push(!want.iter().zip(&outputs).all(|(w, o)| replies_match(w, o)));
            if first.is_none() {
                first = Some(outputs);
            } else {
                last = Some(outputs);
            }
        }
        let limb_transforms = fhe_math::ntt::counters::forward_count()
            + fhe_math::ntt::counters::inverse_count()
            - ntt;
        let cpu_ms = crate::sys::cpu_ms() - cpu - meter.take_passes().iter().sum::<f64>();
        let after = self.ctx.scratch().stats();

        let mut max_slot_error = 0.0f64;
        for (r, outputs) in [(0, first), (mismatched.len().saturating_sub(1), last)] {
            if let Some(outputs) = outputs {
                let err = self.slot_error(&outputs);
                max_slot_error = max_slot_error.max(err);
                mismatched[r] |= err >= crate::MAX_SLOT_ERROR;
            }
        }
        let failed = mismatched.iter().filter(|&&bad| bad).count() as u64;

        Phase {
            raw_busy_ms,
            rounds: latencies,
            execute_ms,
            failed,
            max_slot_error,
            limb_transforms,
            scratch_leases: after.leases - pool.leases,
            scratch_misses: after.misses - pool.misses,
            cpu_ms,
            spans: rec.spans,
        }
    }
}
