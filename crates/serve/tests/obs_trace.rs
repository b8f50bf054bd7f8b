//! End-to-end contracts of the request-tracing layer (`fhe_serve::obs`):
//!
//! 1. **Perfetto loadability**: `TraceDump` returns Chrome trace-event
//!    JSON whose stage slices nest inside their request slice with
//!    monotonic, non-negative timestamps — the structure Perfetto needs
//!    to render a timeline.
//! 2. **Attribution adds up**: the per-stage latency histograms sum
//!    (within a scheduling-gap tolerance) to the end-to-end histogram,
//!    and the derived p50/p95/p99 are ordered.
//! 3. **Gauge integrity**: `serve_queue_depth` returns to zero after a
//!    churn of deadline-expired and overload-rejected requests — the
//!    accounting audit of the dequeue paths.
//! 4. **Kernel sub-spans**: every request's timeline carries the
//!    `fhe_math::telemetry` spans its own worker thread opened — the same
//!    names whether it ran alone or beside another worker — and the
//!    metrics dump counts the key expansions behind the cache's misses.

use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, GaloisKeys, KeyGenerator, SecretKey,
};
use fhe_math::cfft::Complex;
use fhe_serve::obs::FinishedTrace;
use fhe_serve::{Client, EvictionPolicy, ObsConfig, ServeConfig, Server, Stage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn test_ctx() -> Arc<CkksContext> {
    ctx_with_log_degree(5)
}

fn ctx_with_log_degree(log_degree: u32) -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(log_degree)
            .levels(3)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    )
}

struct Tenant {
    gk: GaloisKeys,
    a: Ciphertext,
    b: Ciphertext,
}

fn make_tenant(ctx: &Arc<CkksContext>, seed: u64) -> Tenant {
    let slots = ctx.params().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1], false);
    let va: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.31).sin() * 0.4).collect();
    let vb: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.17).cos() * 0.4).collect();
    let a = encrypt_vec(ctx, &sk, &mut rng, &va);
    let b = encrypt_vec(ctx, &sk, &mut rng, &vb);
    Tenant { gk, a, b }
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

/// A server with tracing pinned to explicit knobs (the env matrix must
/// not leak into these assertions).
fn start_server(ctx: &Arc<CkksContext>, workers: usize, obs: ObsConfig) -> Server {
    Server::start(
        ctx.clone(),
        ServeConfig {
            workers,
            queue_capacity: 32,
            key_cache_budget: 64 << 20,
            eviction: EvictionPolicy::Lru,
            obs,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn obs_on() -> ObsConfig {
    ObsConfig {
        ring_capacity: 64,
        slow_threshold: Duration::ZERO,
    }
}

/// Pulls `"key": <integer>` out of one trace-event line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let at = line.find(&needle)? + needle.len();
    line[at..].split('"').next()
}

/// The value of a plain (label-less or exactly-labeled) metric sample.
fn metric(dump: &str, name: &str) -> u64 {
    dump.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} missing from dump"))
        .trim()
        .parse()
        .unwrap()
}

fn metric_f64(dump: &str, name: &str) -> f64 {
    dump.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} missing from dump"))
        .trim()
        .parse()
        .unwrap()
}

/// The finished `rotate` timelines, once `want` of them are in the ring.
/// A reply reaches its client before the shard loop closes the books on
/// the trace (the write stage ends at the flush), so wait for the traces
/// to land instead of racing the loop for them.
fn rotate_traces(server: &Server, want: usize) -> Vec<FinishedTrace> {
    let asked = Instant::now();
    loop {
        let mut rotates = server.recent_traces();
        rotates.retain(|t| t.op == "rotate");
        if rotates.len() >= want {
            return rotates;
        }
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "{want} rotates were traced, found {}",
            rotates.len()
        );
        std::thread::yield_now();
    }
}

#[test]
fn trace_dump_is_perfetto_loadable_with_contained_slices() {
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 1001);
    let server = start_server(&ctx, 2, obs_on());
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let session = client.hello().unwrap();
    client.upload_galois(session, &tenant.gk).unwrap();
    for _ in 0..4 {
        client.add(session, &tenant.a, &tenant.b).unwrap();
        client.rotate(session, &tenant.a, 1).unwrap();
    }

    let json = client.trace_dump().unwrap();
    assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
    assert!(json.trim_end().ends_with("]}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"request:add (status 0)\""), "{json}");
    assert!(json.contains("\"request:rotate (status 0)\""));
    // The rotate path must surface its stage structure in the timeline.
    for stage in ["queue", "key", "kernel", "serialize", "write"] {
        assert!(
            json.contains(&format!("\"name\": \"{stage}\"")),
            "stage {stage} missing from the exported trace"
        );
    }

    // Every "X" slice nests inside its track's request slice, and all
    // timestamps are monotonic non-negative offsets — what Perfetto
    // needs to draw the timeline without clipping.
    let slices: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"ph\": \"X\""))
        .collect();
    assert!(slices.len() >= 8, "expected a slice per request at least");
    let mut requests = 0usize;
    for req in &slices {
        let name = field_str(req, "name").unwrap();
        if !name.starts_with("request:") {
            continue;
        }
        requests += 1;
        let tid = field_u64(req, "tid").unwrap();
        let ts = field_u64(req, "ts").unwrap();
        let dur = field_u64(req, "dur").unwrap();
        for s in &slices {
            if field_u64(s, "tid") != Some(tid) || field_str(s, "name") == Some(name) {
                continue;
            }
            let sts = field_u64(s, "ts").unwrap();
            let sdur = field_u64(s, "dur").unwrap();
            let sname = field_str(s, "name").unwrap();
            assert!(
                sts >= ts && sts + sdur <= ts + dur.max(1),
                "slice {sname} [{sts}, {}] escapes request slice [{ts}, {}]",
                sts + sdur,
                ts + dur
            );
        }
    }
    assert_eq!(
        requests,
        slices
            .iter()
            .filter(|s| field_str(s, "name").unwrap().starts_with("request:"))
            .count()
    );
    assert!(requests >= 8, "one request slice per op, got {requests}");

    // Zero slow threshold: every request is in the structured log, each
    // line carrying the full stage breakdown and a dominant stage.
    let slow = client.slow_log().unwrap();
    let lines: Vec<&str> = slow.lines().collect();
    assert!(lines.len() >= 8, "slow log missing requests:\n{slow}");
    for line in &lines {
        assert!(line.starts_with("slow_request id="), "{line}");
        assert!(line.contains(" dominant="), "{line}");
        for s in Stage::ALL {
            assert!(line.contains(&format!(" {}_us=", s.name())), "{line}");
        }
    }

    // The dedicated slowest slot agrees with the ring.
    let slowest = server.slowest_trace().expect("traffic was recorded");
    let max_seen = server
        .recent_traces()
        .iter()
        .map(|t| t.total_us)
        .max()
        .unwrap();
    assert_eq!(slowest.total_us, max_seen);
    server.shutdown();
}

#[test]
fn stage_latencies_sum_to_end_to_end_with_ordered_quantiles() {
    // N = 2^11: a rotate's kernel stage is hundreds of µs, so the
    // thread-wakeup gaps (tens of µs) cannot be half of end-to-end. At
    // N = 2^5 the kernel is ~30 µs, the gaps' own size, and the lower
    // bound below tripped once in a few hundred runs.
    let ctx = ctx_with_log_degree(11);
    let tenant = make_tenant(&ctx, 2002);
    // One worker: no cross-request concurrency inside the pool, so the
    // stage attribution has nothing racing it.
    let server = start_server(&ctx, 1, obs_on());
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let session = client.hello().unwrap();
    client.upload_galois(session, &tenant.gk).unwrap();
    let reqs = 16u64;
    for _ in 0..reqs {
        client.rotate(session, &tenant.a, 1).unwrap();
    }
    let dump = client.metrics().unwrap();
    server.shutdown();

    // Every finished request observed e2e and all six stages.
    let e2e_count = metric(&dump, "serve_e2e_latency_us_count");
    assert!(e2e_count >= reqs, "e2e count {e2e_count} < {reqs}");
    let mut stage_sum = 0u64;
    for s in Stage::ALL {
        let label = format!("serve_stage_latency_us_count{{stage=\"{}\"}}", s.name());
        assert_eq!(metric(&dump, &label), e2e_count, "{label}");
        let label = format!("serve_stage_latency_us_sum{{stage=\"{}\"}}", s.name());
        stage_sum += metric(&dump, &label);
    }
    let e2e_sum = metric(&dump, "serve_e2e_latency_us_sum");

    // The taxonomy partitions e2e latency. Attribution can only lose
    // time (µs truncation per stamp, thread-wakeup gaps between
    // stages), never invent it.
    assert!(
        stage_sum <= e2e_sum + 8 * e2e_count,
        "stages ({stage_sum} µs) exceed end-to-end ({e2e_sum} µs)"
    );
    // And the gaps stay small: the stages must explain the bulk of the
    // measured end-to-end time. The bound is deliberately loose — CI
    // scheduling jitter lands in the unattributed gaps.
    assert!(
        stage_sum * 2 >= e2e_sum,
        "stages ({stage_sum} µs) explain under half of end-to-end ({e2e_sum} µs)"
    );

    // Derived quantiles exist and are ordered for the end-to-end and
    // per-stage families.
    let p50 = metric_f64(&dump, "serve_e2e_latency_us_quantile{q=\"0.5\"}");
    let p95 = metric_f64(&dump, "serve_e2e_latency_us_quantile{q=\"0.95\"}");
    let p99 = metric_f64(&dump, "serve_e2e_latency_us_quantile{q=\"0.99\"}");
    assert!(p50 > 0.0);
    assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
    let k50 = metric_f64(
        &dump,
        "serve_stage_latency_us_quantile{stage=\"kernel\",q=\"0.5\"}",
    );
    let k99 = metric_f64(
        &dump,
        "serve_stage_latency_us_quantile{stage=\"kernel\",q=\"0.99\"}",
    );
    assert!(k50 <= k99);
    // Rotate is kernel-bound on the cached path: its median can't
    // exceed the end-to-end median.
    assert!(k50 <= p50, "kernel p50 {k50} above e2e p50 {p50}");
}

#[test]
fn queue_depth_returns_to_zero_under_deadline_churn_and_overload() {
    let ctx = test_ctx();
    let tenant = Arc::new(make_tenant(&ctx, 3003));
    // A zero deadline expires every queued job deterministically (the
    // stamp-to-pickup gap is never literally zero), so every dequeue
    // runs the deadline-expired path; a tiny queue forces overload
    // rejections on top.
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            key_cache_budget: 64 << 20,
            eviction: EvictionPolicy::Lru,
            request_deadline: Duration::ZERO,
            obs: obs_on(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for t in 0..4 {
        let (ctx, tenant) = (ctx.clone(), tenant.clone());
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, ctx).unwrap();
            let mut rejected = 0usize;
            for i in 0..8 {
                // Bogus session: irrelevant, the deadline rejects the
                // job before the handler ever looks at it.
                let r = if (t + i) % 2 == 0 {
                    client.add(9999, &tenant.a, &tenant.b)
                } else {
                    client.rotate(9999, &tenant.a, 1)
                };
                if r.is_err() {
                    rejected += 1;
                }
            }
            rejected
        }));
    }
    let rejected: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(rejected, 32, "a zero deadline must reject everything");

    // All replies were delivered, so the gauge must have settled: every
    // enqueue was matched by a dequeue on some rejection path.
    let dump = server.metrics_dump();
    assert_eq!(
        metric(&dump, "serve_queue_depth"),
        0,
        "queue depth leaked:\n{dump}"
    );
    assert!(metric(&dump, "serve_queue_depth_peak") >= 1);
    assert!(metric(&dump, "serve_rejected_deadline_total") >= 1);
    server.shutdown();
}

/// The math layer's spans land in the request timeline.
#[test]
fn deep_sample_bridges_kernel_subspans() {
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 5005);
    let server = start_server(&ctx, 1, obs_on());
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let session = client.hello().unwrap();
    client.upload_galois(session, &tenant.gk).unwrap();
    for _ in 0..4 {
        client.rotate(session, &tenant.a, 1).unwrap();
    }
    let json = client.trace_dump().unwrap();
    server.shutdown();

    // Every rotate captured the hoisted-rotation span stack.
    assert!(
        json.contains("kernels"),
        "no kernel companion track:\n{json}"
    );
    // The hoisted rotation decomposes into ModUp → key-switch inner
    // product → ModDown; at least one of those spans must have bridged.
    assert!(
        [
            "ModUp",
            "KSKInnerProd",
            "ModDown",
            "HoistedMatVec",
            "KeySwitch"
        ]
        .iter()
        .any(|n| json.contains(&format!("\"name\": \"{n}\""))),
        "no kernel sub-span in the timeline:\n{json}"
    );
    // Sub-spans sit inside the request's execution window on the
    // companion track (tid offset by the kernel-track constant).
    let ktrack = fhe_serve::obs::KERNEL_TRACK_OFFSET;
    assert!(
        json.lines()
            .filter(|l| l.contains("\"ph\": \"X\""))
            .any(|l| field_u64(l, "tid").is_some_and(|t| t >= ktrack)),
        "kernel spans not on the companion track"
    );
}

/// Two workers in kernels at once: each request's timeline holds the
/// spans of its own handler run and of nothing else.
#[test]
fn concurrent_rotates_each_carry_their_own_subspans() {
    // Rounds of two released-together rotates run until a round's two
    // exec windows overlap. Idle, one of the first four rounds does; on a
    // two-vCPU host beside one busy-loop process, 60 runs needed 14 rounds
    // at the median and 287 at most. A round costs well under a
    // millisecond, so the cap is generous, and the ring keeps every
    // round's timelines.
    const MAX_ROUNDS: usize = 2048;
    // N = 2^11 keeps a rotate in its kernels for around a millisecond, so
    // two requests released together are in them together.
    let ctx = ctx_with_log_degree(11);
    let server = start_server(
        &ctx,
        2,
        ObsConfig {
            ring_capacity: 1 + 2 * MAX_ROUNDS,
            ..obs_on()
        },
    );
    let connect = |seed: u64| {
        let tenant = make_tenant(&ctx, seed);
        let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
        let session = client.hello().unwrap();
        client.upload_galois(session, &tenant.gk).unwrap();
        (client, session, tenant.a)
    };
    let names = |t: &FinishedTrace| t.subspans.iter().map(|s| s.name).collect::<Vec<_>>();
    let overlap = |a: &FinishedTrace, b: &FinishedTrace| {
        let window = |t: &FinishedTrace| {
            let begin = t.start_us + t.exec_begin_us;
            (begin, begin + t.exec_us)
        };
        let ((a0, a1), (b0, b1)) = (window(a), window(b));
        a.id != b.id && a0 < b1 && b0 < a1
    };

    // What a lone rotate carries.
    let mut first = connect(6006);
    first.0.rotate(first.1, &first.2, 1).unwrap();
    let lone = names(&rotate_traces(&server, 1)[0]);
    assert_eq!(
        lone,
        ["Rotate", "ModUp", "KSKInnerProd", "ModDown"],
        "Evaluator::rotate"
    );

    let mut clients = [first, connect(6007)];
    let release = Barrier::new(2);
    let mut rounds = 0;
    let traces = loop {
        rounds += 1;
        std::thread::scope(|s| {
            for (client, session, ct) in &mut clients {
                let release = &release;
                s.spawn(move || {
                    release.wait();
                    client.rotate(*session, ct, 1).unwrap();
                });
            }
        });
        // Both replies are in, so this round's two timelines close last.
        let traces = rotate_traces(&server, 1 + 2 * rounds);
        let [.., a, b] = &traces[..] else {
            unreachable!("at least three rotates were traced")
        };
        if overlap(a, b) || rounds == MAX_ROUNDS {
            break traces;
        }
    };

    assert_eq!(traces.len(), 1 + 2 * rounds);
    for t in &traces {
        assert_eq!(names(t), lone, "request {} beside another worker", t.id);
        // Inside its own exec window (1 µs: three truncated stamps).
        let exec_end = t.exec_begin_us + t.exec_us + 1;
        for s in &t.subspans {
            assert!(
                t.exec_begin_us <= s.begin_us && s.begin_us <= s.end_us && s.end_us <= exec_end,
                "request {}: {s:?} outside exec [{}, {exec_end}]",
                t.id,
                t.exec_begin_us
            );
        }
    }
    // The check above means something only if handlers did run two at a
    // time.
    let overlapped = traces.iter().any(|a| traces.iter().any(|b| overlap(a, b)));
    assert!(
        overlapped,
        "no two exec windows overlapped in {rounds} rounds"
    );
    server.shutdown();
}

/// The key cache's misses are switching-key expansions, and the metrics
/// dump says how many the server has paid for.
#[test]
fn metrics_dump_counts_the_expansions_behind_cache_misses() {
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 7007);
    let server = start_server(&ctx, 1, obs_on());
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let session = client.hello().unwrap();
    client.upload_galois(session, &tenant.gk).unwrap();
    // Cold, then warm.
    for _ in 0..4 {
        client.rotate(session, &tenant.a, 1).unwrap();
    }
    let stats = server.cache_stats();
    let dump = client.metrics().unwrap();
    server.shutdown();

    assert!(stats.misses >= 1 && stats.hits >= 1, "{stats:?}");
    // The counter is this server's: other servers of the binary's tests
    // do not add to it.
    let expansions = metric(&dump, "serve_key_expansions_total");
    assert_eq!(
        expansions, stats.misses,
        "{expansions} expansions counted, {} cache misses",
        stats.misses
    );
    assert!(metric(&dump, "serve_key_expansion_bytes_total") > 0);
}

/// Polls the server-side dump until `accepted` timelines have finished (a
/// trace closes only after its reply flushes), then checks that exactly
/// that many requests were accepted and that the end-to-end family and
/// every stage family counted each of them once.
fn assert_one_timeline_per_request(server: &Server, accepted: u64) {
    let asked = Instant::now();
    let dump = loop {
        let dump = server.metrics_dump();
        let finished = if dump.contains("\nserve_e2e_latency_us_count ") {
            metric(&dump, "serve_e2e_latency_us_count")
        } else {
            0
        };
        if finished >= accepted {
            break dump;
        }
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "{finished} of {accepted} timelines finished:\n{dump}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(metric(&dump, "serve_requests_total"), accepted);
    assert_eq!(metric(&dump, "serve_e2e_latency_us_count"), accepted);
    for s in Stage::ALL {
        let label = format!("serve_stage_latency_us_count{{stage=\"{}\"}}", s.name());
        assert_eq!(metric(&dump, &label), accepted, "{label}");
    }
}

/// Every request the server accepts finishes exactly one timeline,
/// whatever its fate — served keyless or keyed, failed in its handler, or
/// refused at its deadline — so `serve_e2e_latency_us_count`, which every
/// per-request stage cell is divided by, equals `serve_requests_total`.
#[test]
fn every_accepted_request_finishes_exactly_one_timeline() {
    use fhe_serve::{ClientError, ErrorCode, Opcode};
    fn code<T>(r: Result<T, ClientError>) -> ErrorCode {
        match r {
            Err(ClientError::Server { code, .. }) => code,
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("the request succeeded"),
        }
    }
    let ctx = test_ctx();
    let tenant = make_tenant(&ctx, 9009);

    let server = start_server(&ctx, 2, obs_on());
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let session = client.hello().unwrap();
    client.upload_galois(session, &tenant.gk).unwrap();
    for _ in 0..3 {
        client.add(session, &tenant.a, &tenant.b).unwrap();
        client.rotate(session, &tenant.a, 1).unwrap();
    }
    // An `Add` body that ends after its session id fails in the handler.
    let truncated = client.call_raw(Opcode::Add as u8, &session.to_le_bytes());
    assert_eq!(code(truncated), ErrorCode::Malformed);
    // An unknown opcode is refused before it is accepted: neither family
    // counts it.
    assert_eq!(code(client.call_raw(0xee, &[])), ErrorCode::UnknownOpcode);
    assert_one_timeline_per_request(&server, 1 + 1 + 6 + 1);
    server.shutdown();

    // A zero deadline refuses every request at pickup.
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 1,
            request_deadline: Duration::ZERO,
            obs: obs_on(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    for _ in 0..3 {
        let add = client.add(9999, &tenant.a, &tenant.b);
        assert_eq!(code(add), ErrorCode::DeadlineExceeded);
        let rotate = client.rotate(9999, &tenant.a, 1);
        assert_eq!(code(rotate), ErrorCode::DeadlineExceeded);
    }
    assert_one_timeline_per_request(&server, 6);
    server.shutdown();
}
