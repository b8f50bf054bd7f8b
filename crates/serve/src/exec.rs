//! Execution: one request in, one reply body out.
//!
//! A worker [`decode`]s a request once, pins the keys it plans from the
//! decoded form ([`Decoded::pin`]), and [`execute`] deserializes the
//! operands, runs the evaluator call(s) and serializes the result straight
//! into the reply frame the connection thread will write, attributing
//! decode/serialize time to the executing request's trace. Keyed ops read
//! their switching keys from the request's [`PinnedKeys`] — handlers
//! never touch the shard's `KeyCache` (the one exception is
//! `CloseSession` purging the session's entries).

use crate::obs::{self, Stage};
use crate::plan::{KeyPlan, PinnedKeys};
use crate::protocol::{
    slot_values, split_session, BodyWriter, ErrorCode, InputBytes, Opcode, ProgramInputs, Request,
};
use crate::server::ServerState;
use crate::session::{Session, StoredProgram};
use ckks::hoisting::{apply_bsgs, LinearTransform};
use ckks::serialize::{
    check_switching_key, galois_key_set_entries, lease_ciphertext, lease_plaintext,
    write_ciphertext,
};
use ckks::{Ciphertext, Evaluator};
use fhe_program::program::{Instr, Program, ProgramEnv};
use fhe_program::{execute_validated, ExecError, ExecInputs, ExecKeys};
use std::sync::Arc;

/// A handler's verdict; on `Ok` the reply body is whatever it appended to
/// the reply frame.
pub(crate) type OpResult = Result<(), (ErrorCode, String)>;

fn fail<T>(code: ErrorCode, msg: impl Into<String>) -> Result<T, (ErrorCode, String)> {
    Err((code, msg.into()))
}

/// A request as its worker decoded it, operands still bytes: every
/// session-scoped op with its session id and session, looked up once.
pub(crate) enum Decoded<'a> {
    /// `Hello`, `Metrics` or `TraceDump`, with the body as sent.
    Unscoped(Opcode, &'a [u8]),
    /// An upload or `CloseSession`, with the payload behind the id.
    Manage(Opcode, u64, Arc<Session>, &'a [u8]),
    /// An evaluation op's fields, as the codec read them.
    Eval(u64, Arc<Session>, Request<'a>),
    /// A `RunProgram`'s stored program and its inputs.
    Program(u64, Arc<Session>, Arc<StoredProgram>, InputBytes<'a>),
}

/// Decodes `body` once. Errors in the order a client has always seen
/// them: `NoSession`, then `Malformed`; a missing key surfaces later,
/// when the handler asks the pinned set for it.
pub(crate) fn decode<'a>(
    state: &ServerState,
    op: Opcode,
    body: &'a [u8],
) -> Result<Decoded<'a>, (ErrorCode, String)> {
    if !op.has_session() {
        return Ok(Decoded::Unscoped(op, body));
    }
    let (sid, fields) = split_session(body).ok_or_else(malformed)?;
    let session = state
        .sessions
        .get(sid)
        .map_err(|c| (c, format!("session {sid}")))?;
    let slots = state.ctx.params().slots();
    Ok(match op {
        _ if op.is_upload() || op == Opcode::CloseSession => {
            Decoded::Manage(op, sid, session, fields)
        }
        _ => match Request::decode(op, fields, slots).ok_or_else(malformed)? {
            Request::RunProgram(pid, inputs) => {
                let sp = session
                    .program(pid)
                    .map_err(|c| (c, format!("program {pid} not uploaded to session {sid}")))?;
                let inputs = ProgramInputs::decode(&sp.program, slots, inputs);
                let inputs = inputs.ok_or_else(malformed)?;
                Decoded::Program(sid, session, sp, inputs)
            }
            req => Decoded::Eval(sid, session, req),
        },
    })
}

impl Decoded<'_> {
    /// Plans the request's keys from what was decoded and pins them;
    /// `None` for a request that needs no key.
    pub(crate) fn pin(&self, state: &ServerState) -> Option<PinnedKeys> {
        let ctx = &state.ctx;
        let (sid, session, plan) = match self {
            Decoded::Eval(sid, s, req) => (sid, s, KeyPlan::for_request(ctx, req)),
            Decoded::Program(sid, s, p, _) => {
                (sid, s, KeyPlan::for_program(ctx, &p.program, &p.info))
            }
            _ => return None,
        };
        (!plan.is_empty()).then(|| PinnedKeys::pin(state, *sid, session, plan))
    }
}

/// Runs a decoded request, its keys pinned in `keys`.
pub(crate) fn execute(
    state: &ServerState,
    request: Decoded<'_>,
    keys: &PinnedKeys,
    out: &mut Vec<u8>,
) -> OpResult {
    let ev = &state.evaluator;
    match request {
        Decoded::Unscoped(Opcode::Hello, _) => {
            // The body is not read: an older client's batching-hint byte
            // opens a session like an empty body does. The shard-local
            // manager mints an id that hashes back to this shard, so the
            // session's keyed traffic comes back to this queue.
            let sid = state.sessions.create();
            // 8 LE bytes of session id, a reserved flags byte (always 1,
            // so the backend name stays at offset 9 for existing clients),
            // then the active kernel-backend name in UTF-8. Pre-backend
            // clients read only the first 8 bytes.
            out.extend_from_slice(&sid.to_le_bytes());
            out.push(1);
            out.extend_from_slice(state.ctx.kernel_backend().name().as_bytes());
        }
        Decoded::Unscoped(Opcode::Metrics, _) => {
            out.extend_from_slice(state.metrics_text().as_bytes());
        }
        Decoded::Unscoped(_, body) => {
            let dump = match body.first().copied().unwrap_or(0) {
                0 => obs::chrome_trace_json(&state.obs.recent()),
                1 => state.obs.slow_log(),
                m => return fail(ErrorCode::Malformed, format!("unknown trace-dump mode {m}")),
            };
            out.extend_from_slice(dump.as_bytes());
        }
        // Every key is checked whole against the context before it is
        // filed away — header, digit count, every stored residue — without
        // expanding it: the cache expands only the share of a key a level
        // reads, so a bad limb above that level would otherwise go unseen.
        Decoded::Manage(Opcode::UploadRelin, _, session, key_bytes) => {
            if check_switching_key(&state.ctx, key_bytes).is_err() {
                return fail(ErrorCode::Malformed, "relin key bytes rejected");
            }
            session.set_relin(key_bytes.to_vec());
        }
        Decoded::Manage(Opcode::UploadGalois, _, session, bundle) => {
            let entries = match galois_key_set_entries(bundle) {
                Ok(e) if !e.is_empty() => e,
                _ => return fail(ErrorCode::Malformed, "galois bundle rejected"),
            };
            if let Some((element, _)) = entries
                .iter()
                .find(|(_, key)| check_switching_key(&state.ctx, key).is_err())
            {
                let msg = format!("galois bundle rejected: key for element {element}");
                return fail(ErrorCode::Malformed, msg);
            }
            // Keys are stored compressed, split but unexpanded — the
            // cache pays for expansion on first use.
            for (element, key_bytes) in entries {
                session.set_galois(element, key_bytes.to_vec());
            }
        }
        Decoded::Manage(Opcode::UploadProgram, _, session, wire) => {
            let program = Program::from_bytes(wire)
                .map_err(|e| (ErrorCode::Malformed, format!("program rejected: {e}")))?;
            // Validate against *this server's* parameters once at upload,
            // so every RunProgram skips straight to execution and a
            // mis-parameterized program fails loudly up front.
            let env = ProgramEnv {
                levels: state.ctx.params().levels(),
                slots: state.ctx.params().slots(),
            };
            let info = program
                .validate(&env)
                .map_err(|e| (ErrorCode::Malformed, format!("program rejected: {e}")))?;
            if program
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::Bootstrap { .. }))
            {
                return fail(
                    ErrorCode::Malformed,
                    "program uses Bootstrap, which the serving runtime cannot execute",
                );
            }
            let pid = session.store_program(StoredProgram {
                wire_len: wire.len(),
                info,
                program,
            });
            out.extend_from_slice(&pid.to_le_bytes());
        }
        Decoded::Manage(_, sid, ..) => {
            state
                .sessions
                .close(sid)
                .map_err(|c| (c, format!("session {sid}")))?;
            state.cache.purge_session(sid);
        }
        Decoded::Eval(_, _, Request::Add(a, b)) => {
            let (a, b) = (read_ct(state, a)?, read_ct(state, b)?);
            // Refused here, not by the evaluator's panic: a retry would
            // send the same operands again.
            if !Evaluator::scales_agree(a.scale(), b.scale()) {
                return fail(ErrorCode::Malformed, "operand scales disagree");
            }
            reply_ct(state, out, ev.add(&a, &b), [a, b]);
        }
        Decoded::Eval(_, _, Request::PtMult(ct, pt)) => {
            let ct = read_ct(state, ct)?;
            let pt = lease_plaintext(&state.ctx, pt)
                .map_err(|e| (ErrorCode::Malformed, e.to_string()))?;
            if ct.limb_count() != pt.limb_count() || ct.limb_count() < 2 {
                return fail(ErrorCode::Malformed, "plaintext level mismatch");
            }
            let prod = ev.mul_plain(&ct, &pt);
            pt.recycle(state.ctx.scratch());
            reply_ct(state, out, prod, [ct]);
        }
        Decoded::Eval(_, _, Request::Mult(a, b)) => {
            let (a, b) = (read_ct(state, a)?, read_ct(state, b)?);
            if a.limb_count().min(b.limb_count()) < 2 {
                return fail(ErrorCode::Malformed, "no level left to multiply at");
            }
            let rlk = keys.relin()?;
            reply_ct(state, out, ev.mul_with_key(&a, &b, &rlk), [a, b]);
        }
        Decoded::Eval(_, _, Request::Rotate(steps, ct)) => {
            let ct = read_ct(state, ct)?;
            let rotated = ev.rotate(&ct, steps, &keys.galois()?);
            reply_ct(state, out, rotated, [ct]);
        }
        Decoded::Eval(_, _, Request::Rescale(ct)) => {
            let ct = read_ct(state, ct)?;
            if ct.limb_count() < 2 {
                return fail(ErrorCode::Malformed, "no limb left to rescale away");
            }
            reply_ct(state, out, ev.rescale(&ct), [ct]);
        }
        Decoded::Eval(_, _, Request::Bsgs(n1, diagonals, ct)) => {
            let ct = read_ct(state, ct)?;
            let slots = state.ctx.params().slots();
            let diagonals = diagonals.into_iter().map(|(d, v)| (d, slot_values(v)));
            let lt = LinearTransform::from_diagonals(diagonals.collect(), slots);
            // The plan walked the same offsets by the validator's BSGS
            // schedule, so it names exactly `bsgs_required_steps(&lt, n1)`.
            let gk = keys.galois()?;
            let product = apply_bsgs(ev, &state.encoder, &ct, &lt, &gk, n1);
            reply_ct(state, out, product, [ct]);
        }
        Decoded::Eval(_, _, Request::RunProgram(..)) => unreachable!("decoded as a Program"),
        Decoded::Program(_, _, sp, wire) => {
            let prog = &sp.program;
            let mut inputs = ExecInputs::default();
            for (decl, bytes) in prog.ct_inputs.iter().zip(wire.cts) {
                inputs.cts.insert(decl.name.clone(), read_ct(state, bytes)?);
            }
            for (decl, bytes) in prog.pt_inputs.iter().zip(wire.pts) {
                inputs.pts.insert(decl.name.clone(), slot_values(bytes));
            }
            for (decl, diagonals) in prog.matrices.iter().zip(wire.mats) {
                let values = diagonals.into_iter().map(slot_values);
                let diagonals = decl.offsets.iter().copied().zip(values).collect();
                let lt = LinearTransform::from_diagonals(diagonals, decl.slots);
                inputs.mats.insert(decl.name.clone(), lt);
            }
            // The plan was built from this program's manifest, so it names
            // exactly the keys the program touches.
            let rlk = if sp.info.manifest.relin {
                Some(keys.relin()?)
            } else {
                None
            };
            let gk = keys.galois()?;
            let (relin, galois) = (rlk.as_deref(), Some(&gk));
            let outs = execute_validated(
                ev,
                &state.encoder,
                prog,
                &sp.info,
                &inputs,
                ExecKeys { relin, galois },
            )
            .map_err(exec_error)?;
            let mut reply = BodyWriter(std::mem::take(out));
            for (_name, ct) in &outs {
                reply.blob_with(|out| ser_ct(ct, out));
            }
            *out = reply.0;
            let spent = outs.into_iter().chain(inputs.cts).map(|(_name, ct)| ct);
            recycle(state, spent);
        }
    }
    Ok(())
}

fn malformed() -> (ErrorCode, String) {
    (ErrorCode::Malformed, "truncated request body".into())
}

/// Maps an executor failure onto the protocol's error codes: absent keys
/// surface as [`ErrorCode::MissingKey`] (upload and retry), everything
/// else is a client-side [`ErrorCode::Malformed`].
fn exec_error(e: ExecError) -> (ErrorCode, String) {
    let code = match e {
        ExecError::MissingRelinKey | ExecError::MissingGaloisKey(_) => ErrorCode::MissingKey,
        _ => ErrorCode::Malformed,
    };
    (code, e.to_string())
}

fn read_ct(state: &ServerState, bytes: &[u8]) -> Result<Ciphertext, (ErrorCode, String)> {
    obs::time_stage(Stage::Decode, || {
        lease_ciphertext(&state.ctx, bytes).map_err(|e| (ErrorCode::Malformed, e.to_string()))
    })
}

/// Serializes a result ciphertext onto the reply, attributing the time to
/// the executing request's serialize stage.
fn ser_ct(ct: &Ciphertext, out: &mut Vec<u8>) {
    obs::time_stage(Stage::Serialize, || write_ciphertext(ct, out))
}

/// Hands ciphertexts a request is done with to the context's scratch
/// pool: once the reply is bytes, the next request's kernels lease these
/// buffers instead of allocating what this one would have freed.
fn recycle(state: &ServerState, spent: impl IntoIterator<Item = Ciphertext>) {
    for ct in spent {
        ct.recycle(state.ctx.scratch());
    }
}

/// Makes `result` the reply body, then recycles it and the `spent`
/// operands.
fn reply_ct(
    state: &ServerState,
    out: &mut Vec<u8>,
    result: Ciphertext,
    spent: impl IntoIterator<Item = Ciphertext>,
) {
    ser_ct(&result, out);
    recycle(state, spent.into_iter().chain([result]));
}
