//! End-to-end check of the measured-vs-modeled ledger — the library entry
//! point the `validate` binary (CI's `model-validation` job) runs: every
//! row executes once under the counters and the trace recorder, its op
//! counts and cache-replayed DRAM bytes stay inside the one committed
//! tolerance file, and nothing about the measurement moves run to run.

use std::sync::OnceLock;

use fhe_program::ledger::{self, Ledger};
use fhe_program::replay::replay;
use fhe_program::report::Tolerances;

/// Two runs of the schedule, made back to back by whichever test asks
/// first: the telemetry counters and the trace buffer are process-global,
/// so runs from the harness's worker threads must not overlap.
fn runs() -> &'static [Ledger; 2] {
    static RUNS: OnceLock<[Ledger; 2]> = OnceLock::new();
    RUNS.get_or_init(|| [ledger::run(), ledger::run()])
}

fn committed() -> Tolerances {
    Tolerances::parse(ledger::TOLERANCES).expect("committed tolerances parse")
}

/// The rows with their own top-level span and gated bytes.
const PRIMITIVES: [&str; 13] = [
    "Add",
    "PtAdd",
    "PtMult",
    "Rescale",
    "PModUp",
    "KeySwitch",
    "Rotate",
    "Mult",
    "MultStandard",
    "BsgsMatVec",
    "RotateFold",
    "HelrMicro",
    "ResNetMicro",
];

/// A row's `mults`, `adds`, `ntt_fwd`, `ntt_inv` and, where gated, its
/// `dram_read`, `dram_write`, `key_read`.
type Recorded = (&'static str, [u64; 4], Option<[u64; 3]>);

/// What the ledger measures, in schedule order. The rows down to `Rotate`
/// and `MultStandard`'s op counts are what the two validators this ledger
/// replaced reported (`validate` for the op counts, `simfhe trace` for the
/// bytes) — the kernels under them have only ever been made faster — with
/// one re-count: a key-switch inner product used to record an addition
/// per digit and side where a sum of β terms makes β − 1, so every `adds`
/// below a key switch fell by `2·(ℓ+k)·N` per inner product (1024 at
/// ℓ = 5) the day the counter was corrected; nothing else in those rows
/// has moved a digit. The rest were recorded when `Mult` became the
/// ModDown-merged sequence and `apply_bsgs` the double-hoisted schedule
/// over pre-encoded diagonals: fewer transforms on every one of them
/// (`Mult` 29 + 13 → 19 + 13, `BsgsMatVec` 65 + 24 → 40 + 24,
/// `ProgDotProduct` 116 + 38 → 46 + 26), and `MultStandard`'s bytes down
/// with the operand copies and the tensor pass both sequences lost.
/// `RotateFold` is new with the double-hoisted ladder, and the two rows
/// with a ladder in them moved with it: fewer transforms (`HelrMicro`
/// 93 + 57 → 71 + 44, `ProgAggregate` 150 + 86 → 106 + 60), more bytes
/// through an 8-limb cache (`HelrMicro` 276,480 / 158,720 / 73,728 →
/// 360,960 / 208,384 / 88,064: four key reads where three were, and a
/// raised `c0` as large as the cache). Every keyed row's `key_read` then
/// halved, and its `dram_read` fell by the same bytes, nothing else
/// moving, when the key switch stopped reading stored `a_j` and began
/// drawing them from the key's seed (`HelrMicro` 360,960 / 88,064 →
/// 316,928 / 44,032).
const RECORDED: [Recorded; 19] = [
    ("Add", [0, 640, 0, 0], Some([10240, 5120, 0])),
    ("PtAdd", [0, 320, 0, 0], Some([5120, 2560, 0])),
    ("PtMult", [3200, 4864, 8, 2], Some([15360, 9216, 0])),
    ("Rescale", [2560, 4864, 8, 2], Some([5120, 4096, 0])),
    ("PModUp", [320, 0, 0, 0], Some([2560, 0, 0])),
    (
        "KeySwitch",
        [15232, 19968, 21, 11],
        Some([27136, 21504, 8192]),
    ),
    ("ModUp", [6144, 8576, 11, 5], None),
    ("KSKInnerProd", [2048, 1024, 0, 0], None),
    ("ModDown", [7040, 10368, 10, 6], None),
    // Re-recorded when `Evaluator::rotate` became the one-step hoisted
    // formulation (decompose `c1`, then permute the digits): the same ops
    // and transforms, and the trace now sees the β permuted digit copies, as
    // it does `RotateFold`'s — 44,032 / 29,184 bytes before.
    ("Rotate", [15232, 20288, 21, 11], Some([43008, 34816, 8192])),
    ("Mult", [17280, 20800, 19, 13], Some([56320, 35840, 8192])),
    (
        "MultStandard",
        [19072, 25792, 29, 13],
        Some([61440, 40960, 8192]),
    ),
    (
        "BsgsMatVec",
        [34944, 42496, 40, 24],
        Some([138752, 95744, 16384]),
    ),
    (
        "RotateFold",
        [31360, 42560, 37, 19],
        Some([222720, 156160, 32768]),
    ),
    (
        "HelrMicro",
        [59968, 77440, 71, 44],
        Some([316928, 208384, 44032]),
    ),
    (
        "ResNetMicro",
        [68544, 80000, 70, 41],
        Some([372736, 208896, 48128]),
    ),
    ("ProgAggregate", [80896, 111488, 106, 60], None),
    ("ProgDotProduct", [47360, 54144, 46, 26], None),
    ("ProgShaStress", [90496, 117568, 104, 68], None),
];

/// Every gated `(row, metric, measured)` of a report, in report order.
fn gated(run: &Ledger) -> Vec<(&str, &str, u64)> {
    run.report
        .primitives
        .iter()
        .flat_map(|p| {
            p.metrics
                .iter()
                .map(|m| (p.name.as_str(), m.metric, m.measured))
        })
        .collect()
}

#[test]
fn measured_ops_and_replayed_bytes_match_model_within_committed_tolerances() {
    let report = &runs()[0].report;
    let violations = report.evaluate(&committed());
    assert!(
        violations.is_empty(),
        "measured op counts or cache-replayed DRAM bytes drifted from the model:\n{}",
        violations
            .iter()
            .map(|v| format!("  {}/{}: {}", v.primitive, v.metric, v.reason))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let names: Vec<&str> = report.primitives.iter().map(|p| p.name.as_str()).collect();
    for expected in PRIMITIVES {
        assert!(names.contains(&expected), "missing primitive {expected}");
    }
}

#[test]
fn every_gated_metric_is_inside_the_one_committed_file() {
    // 13 rows × 7 metrics + (3 key-switch phases + 3 programs) × 4 op
    // metrics = 115 gated metrics, and the file holds exactly those.
    let tol = committed();
    let gated = gated(&runs()[0]);
    for (row, metric, _) in &gated {
        assert!(
            tol.get(row, metric).is_some(),
            "no bound for {row}/{metric}"
        );
    }
    assert_eq!(gated.len(), 115);
    assert_eq!(tol.len(), 115, "a bound that gates nothing");
    for p in &runs()[0].report.primitives {
        let metrics: Vec<&str> = p.metrics.iter().map(|m| m.metric).collect();
        let ops = ["mults", "adds", "ntt_fwd", "ntt_inv"];
        if PRIMITIVES.contains(&p.name.as_str()) {
            assert_eq!(metrics[..4], ops);
            assert_eq!(metrics[4..], ["dram_read", "dram_write", "key_read"]);
        } else {
            assert_eq!(metrics, ops, "{}", p.name);
        }
    }
}

#[test]
fn measured_values_equal_the_recorded_table() {
    let mut recorded = Vec::new();
    for (row, ops, bytes) in &RECORDED {
        let names = ["mults", "adds", "ntt_fwd", "ntt_inv"];
        recorded.extend(names.iter().zip(ops).map(|(m, v)| (*row, *m, *v)));
        let names = ["dram_read", "dram_write", "key_read"];
        recorded.extend(
            names
                .iter()
                .zip(bytes.iter().flatten())
                .map(|(m, v)| (*row, *m, *v)),
        );
    }
    assert_eq!(gated(&runs()[0]), recorded);
}

#[test]
fn two_runs_agree_on_op_counts_and_bytes() {
    // The gate must be stable run-to-run or CI would flake.
    let [first, second] = runs();
    assert_eq!(gated(first), gated(second));
}

#[test]
fn capture_is_deterministic() {
    // Raw events are not literally comparable (operand ids come from a
    // global counter), so compare what the gate actually consumes: each
    // row's own trace replayed — including the program rows', which no
    // bound covers yet.
    let measure = |run: &Ledger| -> Vec<(&str, u64, u64)> {
        run.events
            .iter()
            .map(|row| {
                let s = replay(&row.events, &ledger::gate_config());
                (row.name, s.dram_read(), s.dram_write())
            })
            .collect()
    };
    let [first, second] = runs();
    assert_eq!(measure(first), measure(second));
}

#[test]
fn perfetto_export_has_one_slice_per_captured_span_and_a_counter_at_each_row_edge() {
    let rows = &runs()[0].events;
    let json = ledger::perfetto_json(rows);
    // Past the header and the process name, one event per line: per row,
    // a counter sample, one `X` slice per captured span (the row's own
    // first) with its op deltas as args, and a counter sample.
    let mut events = json.lines().skip(2).filter(|l| l.starts_with('{'));
    let sample = |line: Option<&str>| line.is_some_and(|l| l.contains("\"ph\": \"C\""));
    for row in rows {
        assert!(sample(events.next()), "no sample opens {}", row.name);
        for span in &row.spans {
            let line = events.next().expect("a slice per span");
            let head = format!(
                "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\"",
                span.name
            );
            let o = span.ops;
            let args = format!(
                "\"args\": {{\"mults\": {}, \"adds\": {}, \"ntt_fwd\": {}, \"ntt_inv\": {}",
                o.mults, o.adds, o.ntt_fwd, o.ntt_inv
            );
            assert!(line.starts_with(&head) && line.contains(&args), "{line}");
        }
        assert!(sample(events.next()), "no sample closes {}", row.name);
    }
    assert!(events.next().is_none(), "only slices and row-edge samples");
    assert!(json.contains("\"displayTimeUnit\""));
    // Cheap structural sanity in place of a JSON parser: balanced
    // braces/brackets and no trailing comma before a closing bracket.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains(",\n]"));
}

#[test]
fn sweep_covers_all_sizes_and_larger_caches_never_cost_more() {
    let rows = ledger::sweep(&runs()[0].events);
    assert_eq!(rows.len(), 36, "6 primitives x 6 cache sizes");
    // For a fixed primitive, measured DRAM traffic is non-increasing in
    // cache size (LRU with pinning has no Belady anomaly here because
    // capacities are nested and the trace is identical).
    for name in ["Add", "PtMult", "Rescale", "KeySwitch", "Rotate", "Mult"] {
        let series: Vec<u64> = rows
            .iter()
            .filter(|r| r.primitive == name)
            .map(|r| r.measured_bytes)
            .collect();
        assert_eq!(series.len(), 6);
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0],
                "{name}: measured bytes grew with cache size: {series:?}"
            );
        }
    }
}

#[test]
fn trace_segments_cover_every_row_once() {
    // One trace per executed row, named as the row: the 13 primitives and
    // the 3 programs (the key-switch phases are sub-spans of their row).
    let run = &runs()[0];
    assert_eq!(run.events.len(), 16);
    let executed: Vec<&str> = run
        .report
        .primitives
        .iter()
        .map(|p| p.name.as_str())
        .filter(|n| !["ModUp", "KSKInnerProd", "ModDown"].contains(n))
        .collect();
    let names: Vec<&str> = run.events.iter().map(|r| r.name).collect();
    assert_eq!(names, executed);
    for row in &run.events {
        assert_eq!(row.spans[0].name, row.name, "a row's own span comes first");
        assert!(!row.events.is_empty(), "{} recorded no touches", row.name);
    }
}
