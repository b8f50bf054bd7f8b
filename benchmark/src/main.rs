//! The repo's benchmark: one command runs one named workload from one seed
//! and prints every metric by name with its unit. See README.md.

mod agree;
mod hostprobe;
mod library;
mod metrics;
mod plan;
mod probes;
mod promparse;
mod serve;
mod stats;
mod sys;
mod trace;
mod workloads;

use hostprobe::Meter;
use metrics::{Values, Verdict};
use plan::{Op, Plan};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{
    LibWorkload, ServeWorkload, LIB_PROGRAMS, REPETITIONS, SERVE_WORKLOADS, WORKLOAD_NAMES,
};

/// `run_seconds` of `/BENCHMARK.json` and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Largest slot error `lib_programs` accepts against the plaintext
/// reference — the bound `crates/program/tests/identity.rs` uses.
pub const MAX_SLOT_ERROR: f64 = 2e-2;

/// A repetition stops issuing requests once it has run this many times a
/// third of `--seconds`, so that a hung or badly regressed build still ends
/// inside the driver's 180 s (four repetitions of at most 30 s at the default
/// `--seconds`, and their set-ups). A repetition cut short fails the run; the
/// factor is wide because a repetition takes 2–3 s on a quiet host and this
/// host alone has been seen 4x slower than that.
const DEADLINE_FACTOR: u64 = 9;

/// Why each workload exists, in `WORKLOAD_NAMES` order (`/BENCHMARK.json`).
pub const WHYS: [&str; 4] = [
    "Sub-millisecond kernels (Add, PtMult, Rescale on 786 KB ciphertexts): client codec, framing, sockets and the shard loop dominate, so codec and wire work shows here and kernel work does not",
    "Keyed ops (Rotate, Mult, Bsgs, RunProgram) with every key resident: most server time is the keyswitch kernel stage and the key cache only hits, so kernel, hoisting and batching work shows here",
    "Six tenants' Galois keys against a two-key cache on two shards, with reprovisioning: the miss, eviction, purge, upload and shard-placement paths of the layers serve_keyed only hits",
    "Four encrypted programs executed in-process at N=2^14 with no server: all time is ckks and fhe-math in the memory-bound regime, so a serving-layer change must leave it flat",
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    corrupt: bool,
}

const USAGE: &str = "usage: mad-benchmark --workload <serve_light|serve_keyed|serve_thrash|lib_programs> --seed <u64>
                     [--seconds <n>] [--trace [0|1]] [--corrupt-reference]
       mad-benchmark --agree [--seconds <n>]
       mad-benchmark --manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Environment knobs of the code under test must not leak into a run.
    if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("MAD_")) {
        eprintln!("refusing to run with {name} set: unset every MAD_* variable");
        return ExitCode::from(2);
    }
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: RUN_SECONDS,
        traced: false,
        corrupt: false,
    };
    let (mut agree, mut seed_given) = (false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut number = |what: &str| -> Option<u64> {
            let v = it.next().and_then(|v| v.parse().ok());
            if v.is_none() {
                eprintln!("{what} needs a whole number\n{USAGE}");
            }
            v
        };
        match arg.as_str() {
            "--workload" => match it.next() {
                Some(name) => opts.workload = name.clone(),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match number("--seed") {
                Some(v) => (opts.seed, seed_given) = (v, true),
                None => return ExitCode::from(2),
            },
            "--seconds" => match number("--seconds") {
                Some(v) if v >= 1 => opts.seconds = v,
                _ => return ExitCode::from(2),
            },
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                opts.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--corrupt-reference" => opts.corrupt = true,
            "--agree" => agree = true,
            "--manifest" => {
                print!("{}", metrics::manifest(RUN_SECONDS, &WHYS));
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("unknown argument `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if agree {
        return agree::run(opts.seconds);
    }
    if !WORKLOAD_NAMES.contains(&opts.workload.as_str()) || !seed_given {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let nproc = sys::nproc();
    sys::keep_memory();
    let cpu = sys::pin_to_one_cpu();
    println!(
        "# mad-benchmark workload={} seed={} seconds={} trace={} commit={} nproc={} pinned_to_cpu={} parallel_compiled={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        sys::git_commit(),
        nproc,
        cpu.map_or("none".to_string(), |c| c.to_string()),
        fhe_math::parallel::compiled(),
    );
    let outcome = match SERVE_WORKLOADS.iter().find(|w| w.name == opts.workload) {
        Some(w) => run_serve(w, &opts),
        None => Ok(run_library(&LIB_PROGRAMS, &opts)),
    };
    let (mut values, notes, verdict) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !opts.traced {
        values.set("peak_rss_mb", sys::peak_rss_mb());
    }
    metrics::print_table(opts.traced, &values, &notes);
    println!(
        "{:<42} {:>18.6} ratio  {} failed of {} attempted",
        "failed_share",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    );
    for v in &verdict.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", metrics::result_line(opts.traced, &values, &verdict));
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Outcome = (Values, BTreeMap<&'static str, String>, Verdict);

/// In a traced run this repetition — the middle one — has the spans on; the
/// untraced ones either side of it are what its throughput is compared with.
const TRACED_REPETITION: usize = 1;

fn phase_deadline(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds * DEADLINE_FACTOR) as f64 / REPETITIONS as f64)
}

fn spread_note(values: &[f64]) -> String {
    let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "median of {} repetitions [{}], (max-min)/median {:.3}",
        values.len(),
        each.join(", "),
        stats::spread(values)
    )
}

/// What one repetition contributes to the end-to-end figures. Times come in
/// pairs: as measured (`raw_*`), and at the reference host's speed, which is
/// what is reported (see `hostprobe`).
struct Repetition {
    raw_setup_s: f64,
    setup_s: f64,
    /// The latencies of every request issued, summed: with one request
    /// outstanding, the time the repetition spent serving.
    raw_busy_ms: f64,
    busy_ms: f64,
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
}

impl Repetition {
    fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.busy_ms / 1e3)
    }

    fn raw_throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.raw_busy_ms / 1e3)
    }
}

/// Requests attempted and failed over `reps`, and — as a violation — any
/// repetition its deadline cut short: it did less work than the plan fixed,
/// so its figures must not be compared with a full run's.
fn verdict(reps: &[Repetition], planned: u64) -> Verdict {
    let violations = reps
        .iter()
        .filter(|r| r.attempted < planned)
        .map(|r| {
            format!(
                "a repetition stopped at its deadline after {} of {planned} requests",
                r.attempted
            )
        })
        .collect();
    Verdict {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        violations,
    }
}

/// The end-to-end rows of an untraced run: `setup_s` and `throughput_rps` are
/// medians over the repetitions, `latency_p50_ms` the median of all their
/// samples. `planned` is the request count of one repetition.
fn end_to_end(reps: Vec<Repetition>, planned: u64) -> Outcome {
    let verdict = verdict(&reps, planned);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let raw_setups: Vec<f64> = reps.iter().map(|r| r.raw_setup_s).collect();
    let rps: Vec<f64> = reps.iter().map(Repetition::throughput).collect();
    let raw_rps: Vec<f64> = reps.iter().map(Repetition::raw_throughput).collect();
    let slowdown = reps.iter().map(|r| r.raw_busy_ms).sum::<f64>()
        / reps.iter().map(|r| r.busy_ms).sum::<f64>();
    let p50s: Vec<f64> = reps
        .iter()
        .map(|r| stats::percentile(&stats::sorted(r.latencies_ms.clone()), 0.5))
        .collect();
    let pooled = stats::sorted(reps.into_iter().flat_map(|r| r.latencies_ms).collect());

    let mut values = Values::default();
    let mut notes = BTreeMap::new();
    values.set("setup_s", stats::median(&setups));
    notes.insert(
        "setup_s",
        format!(
            "{}; as measured {:.4}",
            spread_note(&setups),
            stats::median(&raw_setups)
        ),
    );
    values.set("throughput_rps", stats::median(&rps));
    notes.insert(
        "throughput_rps",
        format!(
            "{}; as measured {:.4}, host slowdown {slowdown:.3}",
            spread_note(&rps),
            stats::median(&raw_rps)
        ),
    );
    values.set("latency_p50_ms", stats::percentile(&pooled, 0.5));
    notes.insert(
        "latency_p50_ms",
        format!(
            "{} samples, per-repetition (max-min)/median {:.3}",
            pooled.len(),
            stats::spread(&p50s)
        ),
    );
    (values, notes, verdict)
}

/// `loadgen.trace_overhead_share`: how much slower the traced repetition ran
/// than the untraced ones either side of it. Two untraced repetitions differ
/// too, so the limit is only enforced on what exceeds their own disagreement
/// or [`REPETITION_NOISE`], whichever is more; an overhead inside that is
/// reported as unresolved.
fn trace_overhead(
    reps: &[Repetition],
    values: &mut Values,
    notes: &mut BTreeMap<&'static str, String>,
    violations: &mut Vec<String>,
) {
    let traced = reps[TRACED_REPETITION].throughput();
    let untraced: Vec<f64> = reps
        .iter()
        .enumerate()
        .filter(|&(r, _)| r != TRACED_REPETITION)
        .map(|(_, rep)| rep.throughput())
        .collect();
    let base = untraced.iter().sum::<f64>() / untraced.len() as f64;
    let overhead = 1.0 - traced / base;
    let noise = stats::spread(&untraced).max(REPETITION_NOISE);
    values.set("loadgen.trace_overhead_share", overhead);
    let resolved = overhead - noise >= TRACE_OVERHEAD_LIMIT;
    notes.insert(
        "loadgen.trace_overhead_share",
        format!(
            "traced {traced:.4} req/s against untraced {untraced:.4?}; repetitions differ by {noise:.3}{}",
            if overhead >= TRACE_OVERHEAD_LIMIT && !resolved {
                "; unresolved"
            } else {
                ""
            }
        ),
    );
    if resolved {
        violations.push(format!(
            "tracing overhead {overhead:.3} exceeds {TRACE_OVERHEAD_LIMIT} by more than repetitions differ ({noise:.3})"
        ));
    }
}

/// Writes the spans of a traced run next to the benchmark's sources.
fn write_trace(workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn run_serve(w: &'static ServeWorkload, opts: &Opts) -> Result<Outcome, String> {
    let plan = Plan::generate(&w.shape, w.requests_per_conn(opts.seconds), opts.seed);
    let deadline = phase_deadline(opts.seconds);
    let mut reference = None;
    let mut checked: Option<serve::Reference> = None;
    let mut header_printed = false;
    let mut meter = Meter::new(w.host_sensitivity);
    let mut run_phase = |traced: bool| -> Result<(serve::Phase, (f64, f64), _), String> {
        let mut rig = serve::Rig::setup(w, opts.seed, &plan, &mut reference, &mut meter)?;
        if !header_printed {
            header_printed = true;
            println!(
                "# plan_hash={:016x} requests_per_repetition={} connections={} tenants={} backend={} shards={}",
                plan.hash(),
                plan.total(),
                w.shape.connections,
                w.shape.tenants(),
                rig.backend(),
                rig.shard_count(),
            );
        }
        // The clean reference checks the warm-up; the measured phase checks
        // against a copy that `--corrupt-reference` has damaged.
        let checked = checked.get_or_insert_with(|| {
            let mut copy = reference.clone().expect("set-up computed the reference");
            if opts.corrupt {
                let first = plan.conns[0]
                    .iter()
                    .find(|s| s.op != Op::Reprovision)
                    .expect("a plan has requests");
                copy.get_mut(&(first.tenant, first.op, first.operand))
                    .expect("every planned request has a reference")[0]
                    .corrupt();
            }
            copy
        });
        let phase = rig.measure(&plan, checked, traced, deadline, &mut meter);
        let setup = (rig.setup_raw_s, rig.setup_s);
        Ok((phase, setup, rig.teardown()))
    };

    // A whole repetition is run and thrown away before anything is timed:
    // it touches every page the measured ones will use (the allocator keeps
    // them, see `sys::keep_memory`), and a page touched for the first time
    // costs this guest up to 50 us.
    run_phase(false)?;

    // A traced run is the same three repetitions with the spans on in the
    // middle one, which the per-layer figures come from.
    let mut reps = Vec::with_capacity(REPETITIONS);
    let mut traced = None;
    for r in 0..REPETITIONS {
        let spans_on = opts.traced && r == TRACED_REPETITION;
        let (phase, (raw_setup_s, setup_s), ctx) = run_phase(spans_on)?;
        reps.push(Repetition {
            raw_setup_s,
            setup_s,
            raw_busy_ms: phase.raw_busy_ms,
            busy_ms: phase.busy_ms,
            attempted: phase.attempted,
            failed: phase.failed,
            latencies_ms: phase.samples.iter().map(|&(_, ms)| ms).collect(),
        });
        if spans_on {
            traced = Some((phase, ctx));
        }
    }
    let Some((phase, ctx)) = traced else {
        return Ok(end_to_end(reps, plan.total() as u64));
    };

    write_trace(w.name, &phase.spans)?;
    let mut values = Values::default();
    let mut notes = BTreeMap::new();
    let mut verdict = verdict(&reps, plan.total() as u64);
    trace_overhead(&reps, &mut values, &mut notes, &mut verdict.violations);
    serve_layers(w, &phase, &mut values, &mut notes, &mut verdict.violations);

    let level = w.ct_level.unwrap_or(w.ring.levels);
    probes::layers(&ctx, level, &mut values, &mut meter);
    probes::serve_direct(&ctx, level, &mut values, &mut meter);
    probes::search_speed(&mut values, &mut meter);
    if let Some(probe) = serve::program_probe(&ctx, w, opts.seed, &mut meter) {
        values.set("fhe_program.execute_ms.dot_product", probe.median_ms);
        let estimate =
            probes::primitive_estimate_us(&probe.program, &probe.info, w.ring.levels, &values);
        values.set(
            "fhe_program.vs_primitives_ratio",
            probe.median_ms * 1e3 / estimate,
        );
        let modelled = probes::simulator(
            &ctx,
            &[(&probe.program, &probe.info)],
            &mut values,
            &mut meter,
        );
        values.set(
            "simfhe.model_ntt_ratio",
            probe.limb_transforms as f64 / modelled as f64,
        );
    }
    Ok((values, notes, verdict))
}

const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// Repetitions of identical work read up to this far apart on the reference
/// host even at its corrected speed (the traced repetition of `lib_programs`
/// read between 8% faster and 4% slower than its untraced neighbours in six
/// runs), and two untraced repetitions are too few to show it every time.
const REPETITION_NOISE: f64 = 0.10;

/// How far the stage means may fall short of the server's end-to-end mean.
/// The issue asked for 5%; the seed measures 16% on `serve_thrash` (time
/// between a worker finishing and the shard loop flushing the reply, which
/// no stage claims, with a second shard loop polling on the same CPU), so
/// the check allows for that and the gap is reported as
/// `fhe_serve.stage.unattributed_us`.
const STAGE_SUM_TOLERANCE: f64 = 0.25;

/// Tail percentiles, sample count and CPU per request of a traced phase.
fn loadgen_rows(
    latencies_ms: Vec<f64>,
    cpu_ms: f64,
    values: &mut Values,
    notes: &mut BTreeMap<&'static str, String>,
) {
    let sorted = stats::sorted(latencies_ms);
    for (name, want) in [
        ("loadgen.latency_p95_ms", 0.95),
        ("loadgen.latency_p99_ms", 0.99),
    ] {
        let q = stats::supported_percentile(sorted.len(), want);
        values.set(name, stats::percentile(&sorted, q));
        notes.insert(
            name,
            format!("percentile {:.4} of {} samples", q, sorted.len()),
        );
    }
    values.set("loadgen.samples", sorted.len() as f64);
    values.set(
        "loadgen.cpu_ms_per_req",
        cpu_ms / sorted.len().max(1) as f64,
    );
}

/// The `loadgen.*` and `fhe_serve.*` rows of a traced phase, and the
/// workload's self-assertions: a workload that stops stressing the layer it
/// exists for must fail loudly, not drift.
fn serve_layers(
    w: &ServeWorkload,
    phase: &serve::Phase,
    values: &mut Values,
    notes: &mut BTreeMap<&'static str, String>,
    violations: &mut Vec<String>,
) {
    // Client-side figures are already at the reference host's speed; what
    // the server and the operating system report is divided by the phase's
    // overall slowdown to match.
    let slowdown = phase.raw_busy_ms / phase.busy_ms;
    values.set("loadgen.host_slowdown", slowdown);
    let all: Vec<f64> = phase.samples.iter().map(|&(_, ms)| ms).collect();
    let raw_client_mean_ms = phase.raw_busy_ms / all.len().max(1) as f64;
    loadgen_rows(all, phase.cpu_ms / slowdown, values, notes);
    for op in Op::ALL {
        let ms: Vec<f64> = phase
            .samples
            .iter()
            .filter(|&&(o, _)| o == op)
            .map(|&(_, ms)| ms)
            .collect();
        if !ms.is_empty() {
            values.set(
                &format!("loadgen.op_p50_ms.{}", op.name()),
                stats::percentile(&stats::sorted(ms), 0.5),
            );
        }
    }

    let s = &phase.server;
    // Per *server* request: a reprovision slot is three of them.
    let served = s.get("serve_e2e_latency_us_count").max(1.0);
    let total_us = s.mean("serve_e2e_latency_us", "") / slowdown;
    values.set(
        "fhe_serve.client.outside_server_ms",
        (phase.raw_busy_ms - s.get("serve_e2e_latency_us_sum") / 1e3) / served / slowdown,
    );
    values.set(
        "fhe_serve.protocol.wire_bytes_per_req",
        (s.get("serve_bytes_read_total") + s.get("serve_bytes_written_total")) / served,
    );
    let mut stage_sum = 0.0;
    for stage in [
        "queue",
        "batch_hold",
        "decode",
        "key",
        "kernel",
        "serialize",
        "write",
    ] {
        let mean = s.mean("serve_stage_latency_us", &format!("{{stage=\"{stage}\"}}")) / slowdown;
        stage_sum += mean;
        values.set(&format!("fhe_serve.stage.{stage}_us"), mean);
    }
    values.set("fhe_serve.stage.total_us", total_us);
    // Server time no stage claims: hand-offs between the shard loop, the
    // scheduler and the workers.
    values.set("fhe_serve.stage.unattributed_us", total_us - stage_sum);
    values.set(
        "fhe_serve.server.rejected",
        s.get("serve_rejected_overload_total") + s.get("serve_rejected_deadline_total"),
    );
    values.set("fhe_serve.server.errors", s.get("serve_errors_total"));
    values.set(
        "fhe_serve.batch.jobs_per_batch",
        s.get("serve_batch_jobs_total") / s.get("serve_batches_total").max(1.0),
    );
    values.set(
        "fhe_serve.batch.expansions_avoided",
        s.get("serve_batch_expansions_avoided_total"),
    );
    values.set(
        "fhe_serve.batch.hoist_shared",
        s.get("serve_batch_hoist_shared_total"),
    );

    let hits = phase.cache.hits - phase.cache_before.hits;
    let misses = phase.cache.misses - phase.cache_before.misses;
    let evictions = phase.cache.evictions - phase.cache_before.evictions;
    let hit_share = hits as f64 / (hits + misses).max(1) as f64;
    values.set("fhe_serve.cache.hit_share", hit_share);
    values.set("fhe_serve.cache.misses", misses as f64);
    values.set("fhe_serve.cache.evictions", evictions as f64);
    values.set(
        "fhe_serve.cache.resident_mb",
        phase.cache.resident_bytes as f64 / (1 << 20) as f64,
    );
    let per_shard: Vec<f64> = s
        .labelled("serve_shard_requests_total", "shard")
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    let idlest = per_shard.iter().copied().fold(f64::MAX, f64::min);
    values.set(
        "fhe_serve.shard.request_imbalance",
        busiest / idlest.max(1.0),
    );

    values.set(
        "fhe_math.ntt.limb_transforms_per_req",
        phase.limb_transforms as f64 / phase.attempted.max(1) as f64,
    );
    values.set(
        "fhe_math.scratch.miss_share",
        phase.scratch_misses as f64 / phase.scratch_leases.max(1) as f64,
    );

    // Self-assertions.
    // A ratio of two figures as measured: the host's speed cancels.
    let kernel_share = values.get("fhe_serve.stage.kernel_us").unwrap_or(0.0) * slowdown
        / 1e3
        / raw_client_mean_ms;
    let mut require = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    require(
        (stage_sum - total_us).abs() <= STAGE_SUM_TOLERANCE * total_us,
        format!(
            "stage means sum to {stage_sum:.1} us, not within {STAGE_SUM_TOLERANCE} of the {total_us:.1} us total"
        ),
    );
    let (lo, hi) = w.expect.kernel_share;
    require(
        kernel_share > lo && kernel_share < hi,
        format!("kernel stage is {kernel_share:.2} of client latency, outside ({lo}, {hi})"),
    );
    match w.expect.hit_share {
        Some((lo, hi)) => {
            require(
                hit_share > lo && hit_share < hi,
                format!("cache hit share {hit_share:.2} is outside ({lo}, {hi})"),
            );
            require(
                evictions > 0,
                "no eviction under a tight key budget".to_string(),
            );
        }
        None => require(
            phase.cache.misses <= phase.keys_uploaded as u64,
            format!(
                "{} cache misses for {} uploaded keys: keys were not resident",
                phase.cache.misses, phase.keys_uploaded
            ),
        ),
    }
    require(
        per_shard.len() == w.shards && idlest > 0.0,
        format!("requests per shard {per_shard:?}: a shard served nothing"),
    );
    notes.insert(
        "fhe_serve.stage.kernel_us",
        format!("{kernel_share:.3} of the client-observed mean latency"),
    );
}

fn run_library(w: &LibWorkload, opts: &Opts) -> Outcome {
    let rounds = w.rounds_per_rep(opts.seconds);
    let deadline = phase_deadline(opts.seconds);
    println!(
        "# rounds_per_repetition={rounds} programs_per_round={} caller_threads=1",
        library::PROGRAMS.len()
    );
    let mut expected = None;
    let mut header_printed = false;
    let mut meter = Meter::new(w.host_sensitivity);
    let mut run_phase = |traced: bool| {
        let bench = library::Bench::setup(w, opts.seed, &mut meter);
        if !header_printed {
            header_printed = true;
            println!("# backend={}", bench.ctx.kernel_backend().name());
        }
        let phase = bench.measure(
            rounds,
            &mut expected,
            opts.corrupt,
            traced,
            deadline,
            &mut meter,
        );
        (phase, bench)
    };

    // A discarded first repetition, as for the serving workloads.
    run_phase(false);

    let mut reps = Vec::with_capacity(REPETITIONS);
    let mut traced = None;
    for r in 0..REPETITIONS {
        let spans_on = opts.traced && r == TRACED_REPETITION;
        let (phase, bench) = run_phase(spans_on);
        reps.push(Repetition {
            raw_setup_s: bench.setup_raw_s,
            setup_s: bench.setup_s,
            raw_busy_ms: phase.raw_busy_ms,
            busy_ms: phase.rounds.iter().sum(),
            attempted: phase.rounds.len() as u64,
            failed: phase.failed,
            latencies_ms: phase.rounds.clone(),
        });
        if spans_on {
            traced = Some((phase, bench));
        }
    }
    let Some((phase, bench)) = traced else {
        return end_to_end(reps, rounds as u64);
    };

    let mut values = Values::default();
    let mut notes = BTreeMap::new();
    let mut verdict = verdict(&reps, rounds as u64);
    if let Err(e) = write_trace(w.name, &phase.spans) {
        verdict.violations.push(e);
    }
    trace_overhead(&reps, &mut values, &mut notes, &mut verdict.violations);
    let slowdown = phase.raw_busy_ms / phase.rounds.iter().sum::<f64>();
    values.set("loadgen.host_slowdown", slowdown);
    loadgen_rows(
        phase.rounds.clone(),
        phase.cpu_ms / slowdown,
        &mut values,
        &mut notes,
    );
    let done = phase.rounds.len().max(1) as f64;
    values.set("ckks.max_slot_error", phase.max_slot_error);
    values.set(
        "fhe_math.ntt.limb_transforms_per_req",
        phase.limb_transforms as f64 / done,
    );
    values.set(
        "fhe_math.scratch.miss_share",
        phase.scratch_misses as f64 / phase.scratch_leases.max(1) as f64,
    );
    for (name, ms) in library::PROGRAMS.iter().zip(&phase.execute_ms) {
        values.set(&format!("fhe_program.execute_ms.{name}"), stats::median(ms));
    }

    probes::layers(&bench.ctx, w.ring.levels, &mut values, &mut meter);
    probes::search_speed(&mut values, &mut meter);
    let programs: Vec<_> = bench
        .prepared
        .iter()
        .map(|p| (&p.program, &p.info))
        .collect();
    let estimate: f64 = programs
        .iter()
        .map(|(prog, info)| probes::primitive_estimate_us(prog, info, w.ring.levels, &values))
        .sum();
    values.set(
        "fhe_program.vs_primitives_ratio",
        stats::median(&phase.rounds) * 1e3 / estimate,
    );
    let modelled = probes::simulator(&bench.ctx, &programs, &mut values, &mut meter);
    values.set(
        "simfhe.model_ntt_ratio",
        phase.limb_transforms as f64 / done / modelled as f64,
    );

    if let Some(name) = values.names().find(|n| n.starts_with("fhe_serve.")) {
        verdict
            .violations
            .push(format!("lib_programs reported {name} without a server"));
    }
    (values, notes, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A repetition of `done` requests (of 100 planned) at `rps` req/s.
    fn rep(done: u64, rps: f64) -> Repetition {
        let busy_ms = done as f64 / rps * 1e3;
        Repetition {
            raw_setup_s: 0.0,
            setup_s: 0.0,
            raw_busy_ms: busy_ms,
            busy_ms,
            attempted: done,
            failed: 0,
            latencies_ms: Vec::new(),
        }
    }

    fn overhead_of(rps: [f64; 3]) -> (f64, Vec<String>) {
        let reps = rps.map(|r| rep(100, r));
        let (mut values, mut notes, mut violations) = Default::default();
        trace_overhead(&reps, &mut values, &mut notes, &mut violations);
        (
            values.get("loadgen.trace_overhead_share").unwrap(),
            violations,
        )
    }

    #[test]
    fn trace_overhead_is_enforced_only_beyond_the_untraced_disagreement() {
        // Untraced 100 and 100, traced 84: 16% slower, more than the limit
        // beyond what identical repetitions differ by.
        let (overhead, violations) = overhead_of([100.0, 84.0, 100.0]);
        assert!((overhead - 0.16).abs() < 1e-9);
        assert_eq!(violations.len(), 1);
        // 10% slower is inside that: unresolved.
        assert!(overhead_of([100.0, 90.0, 100.0]).1.is_empty());
        // Untraced 115 and 85 differ by 30% themselves: 20% slower is unresolved.
        let (overhead, violations) = overhead_of([115.0, 80.0, 85.0]);
        assert!((overhead - 0.20).abs() < 1e-9);
        assert!(violations.is_empty());
        // A traced repetition that ran faster is a negative overhead.
        assert!(overhead_of([100.0, 104.0, 100.0]).0 < 0.0);
    }

    #[test]
    fn a_repetition_cut_short_is_a_violation() {
        let full = verdict(&[rep(100, 50.0), rep(100, 50.0)], 100);
        assert!(full.correct() && full.attempted == 200);
        let cut = verdict(&[rep(100, 50.0), rep(60, 50.0)], 100);
        assert!(!cut.correct() && cut.failed == 0 && cut.attempted == 160);
    }
}
