//! Execution: one parsed request in, one reply body out.
//!
//! [`handle`] decodes the body, runs the evaluator call(s) and serializes
//! the result straight into the reply frame the shard loop will write,
//! attributing decode/serialize time to the executing request's trace.
//! Keyed ops read their switching keys from the request's
//! [`PinnedKeys`] — handlers never touch the shard's `KeyCache` (the one
//! exception is `CloseSession` purging the session's entries).

use crate::obs::{self, Stage};
use crate::plan::{read_bsgs, KeyPlan, PinnedKeys};
use crate::protocol::{BodyReader, BodyWriter, ErrorCode, Opcode};
use crate::server::ServerState;
use crate::session::{Session, StoredProgram};
use ckks::hoisting::{apply_bsgs, LinearTransform};
use ckks::serialize::{
    deserialize_switching_key, galois_key_set_entries, lease_ciphertext, lease_plaintext,
    write_ciphertext,
};
use ckks::Ciphertext;
use fhe_math::cfft::Complex;
use fhe_program::program::{Instr, Program, ProgramEnv};
use fhe_program::{execute_validated, ExecError, ExecInputs, ExecKeys};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A handler's verdict; on `Ok` the reply body is whatever it appended to
/// the reply frame.
pub(crate) type OpResult = Result<(), (ErrorCode, String)>;

fn fail<T>(code: ErrorCode, msg: impl Into<String>) -> Result<T, (ErrorCode, String)> {
    Err((code, msg.into()))
}

pub(crate) fn handle(
    state: &ServerState,
    op: Opcode,
    body: &[u8],
    plan: &KeyPlan,
    keys: &PinnedKeys,
    out: &mut Vec<u8>,
) -> OpResult {
    let mut r = BodyReader::new(body);
    match op {
        Opcode::Hello => {
            // The body is not read: an older client's batching-hint byte
            // opens a session like an empty body does. The shard-local
            // manager mints an id that hashes back to this shard, so the
            // session's keyed traffic never migrates.
            let sid = state.sessions.create();
            // 8 LE bytes of session id, a reserved flags byte (always 1,
            // so the backend name stays at offset 9 for existing clients),
            // then the active kernel-backend name in UTF-8. Pre-backend
            // clients read only the first 8 bytes.
            out.extend_from_slice(&sid.to_le_bytes());
            out.push(1);
            out.extend_from_slice(state.ctx.kernel_backend().name().as_bytes());
            Ok(())
        }
        Opcode::UploadRelin => {
            let (_sid, session) = need_session(state, &mut r)?;
            let key_bytes = r.rest();
            // Validate against the context before filing it away, so MULT
            // never trips over garbage later.
            if deserialize_switching_key(&state.ctx, key_bytes).is_err() {
                return fail(ErrorCode::Malformed, "relin key bytes rejected");
            }
            session.set_relin(key_bytes.to_vec());
            Ok(())
        }
        Opcode::UploadGalois => {
            let (_sid, session) = need_session(state, &mut r)?;
            let bundle = r.rest();
            let entries = match galois_key_set_entries(bundle) {
                Ok(e) if !e.is_empty() => e,
                _ => return fail(ErrorCode::Malformed, "galois bundle rejected"),
            };
            // Keys are stored compressed, split but unexpanded — the
            // cache pays for expansion on first use.
            for (element, key_bytes) in entries {
                session.set_galois(element, key_bytes.to_vec());
            }
            Ok(())
        }
        Opcode::CloseSession => {
            let sid = r.u64().ok_or_else(malformed)?;
            state
                .sessions
                .close(sid)
                .map_err(|c| (c, format!("session {sid}")))?;
            state.cache.purge_session(sid);
            Ok(())
        }
        Opcode::UploadProgram => {
            let (_sid, session) = need_session(state, &mut r)?;
            let wire = r.rest();
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
            Ok(())
        }
        Opcode::Add => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let a = read_ct(state, r.blob().ok_or_else(malformed)?)?;
            let b = read_ct(state, r.blob().ok_or_else(malformed)?)?;
            reply_ct(state, out, state.evaluator.add(&a, &b), [a, b])
        }
        Opcode::PtMult => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let ct = read_ct(state, r.blob().ok_or_else(malformed)?)?;
            let pt = lease_plaintext(&state.ctx, r.blob().ok_or_else(malformed)?)
                .map_err(|e| (ErrorCode::Malformed, e.to_string()))?;
            if ct.limb_count() != pt.limb_count() || ct.limb_count() < 2 {
                return fail(ErrorCode::Malformed, "plaintext level mismatch");
            }
            let prod = state.evaluator.mul_plain(&ct, &pt);
            pt.recycle(state.ctx.scratch());
            reply_ct(state, out, prod, [ct])
        }
        Opcode::Mult => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let a = read_ct(state, r.blob().ok_or_else(malformed)?)?;
            let b = read_ct(state, r.blob().ok_or_else(malformed)?)?;
            if a.limb_count().min(b.limb_count()) < 2 {
                return fail(ErrorCode::Malformed, "no level left to multiply at");
            }
            let rlk = keys.relin()?;
            reply_ct(
                state,
                out,
                state.evaluator.mul_with_key(&a, &b, &rlk),
                [a, b],
            )
        }
        Opcode::Rotate => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let steps = r.i64().ok_or_else(malformed)?;
            let ct = read_ct(state, r.rest())?;
            let gk = keys.galois(&plan.galois)?;
            let rotated = state.evaluator.rotate(&ct, steps, &gk);
            reply_ct(state, out, rotated, [ct])
        }
        Opcode::Rescale => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let ct = read_ct(state, r.rest())?;
            if ct.limb_count() < 2 {
                return fail(ErrorCode::Malformed, "no limb left to rescale away");
            }
            reply_ct(state, out, state.evaluator.rescale(&ct), [ct])
        }
        Opcode::Bsgs => {
            let (_sid, _session) = need_session(state, &mut r)?;
            let slots = state.ctx.params().slots();
            let (n1, offsets, diagonals) =
                read_bsgs(&mut r, slots, |r| read_complex(r, slots).ok())
                    .ok_or_else(|| (ErrorCode::Malformed, "bad BSGS body".to_string()))?;
            let ct = read_ct(state, r.rest())?;
            let diagonals = offsets.into_iter().zip(diagonals).collect();
            let lt = LinearTransform::from_diagonals(diagonals, slots);
            // The plan walked the same offsets by the validator's BSGS
            // schedule, so it names exactly `bsgs_required_steps(&lt, n1)`.
            let gk = keys.galois(&plan.galois)?;
            let product = apply_bsgs(&state.evaluator, &state.encoder, &ct, &lt, &gk, n1);
            reply_ct(state, out, product, [ct])
        }
        Opcode::RunProgram => {
            let (sid, session) = need_session(state, &mut r)?;
            let pid = r.u64().ok_or_else(malformed)?;
            let sp = session
                .program(pid)
                .map_err(|c| (c, format!("program {pid} not uploaded to session {sid}")))?;
            let prog = &sp.program;
            // Inputs arrive in declaration order: ciphertext blobs, then
            // plaintext vectors, then matrix diagonals (declared offsets,
            // `slots` complex values each).
            let mut inputs = ExecInputs::default();
            for decl in &prog.ct_inputs {
                let ct = read_ct(state, r.blob().ok_or_else(malformed)?)?;
                inputs.cts.insert(decl.name.clone(), ct);
            }
            for decl in &prog.pt_inputs {
                let n = r.u32().ok_or_else(malformed)? as usize;
                if n > state.ctx.params().slots() {
                    return fail(ErrorCode::Malformed, "plaintext vector exceeds slot count");
                }
                inputs
                    .pts
                    .insert(decl.name.clone(), read_complex(&mut r, n)?);
            }
            for decl in &prog.matrices {
                let mut diagonals = BTreeMap::new();
                for &offset in &decl.offsets {
                    diagonals.insert(offset, read_complex(&mut r, decl.slots)?);
                }
                inputs.mats.insert(
                    decl.name.clone(),
                    LinearTransform::from_diagonals(diagonals, decl.slots),
                );
            }
            if !r.is_empty() {
                return fail(ErrorCode::Malformed, "trailing bytes after program inputs");
            }
            // The plan was built from this program's manifest, so it names
            // exactly the keys the program touches.
            let rlk = if sp.info.manifest.relin {
                Some(keys.relin()?)
            } else {
                None
            };
            let gk = keys.galois(&plan.galois)?;
            let (relin, galois) = (rlk.as_deref(), Some(&gk));
            let outs = execute_validated(
                &state.evaluator,
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
            Ok(())
        }
        Opcode::Metrics => {
            out.extend_from_slice(state.metrics_text().as_bytes());
            Ok(())
        }
        Opcode::TraceDump => {
            let dump = match body.first().copied().unwrap_or(0) {
                0 => obs::chrome_trace_json(&state.obs.recent()),
                1 => state.obs.slow_log(),
                m => return fail(ErrorCode::Malformed, format!("unknown trace-dump mode {m}")),
            };
            out.extend_from_slice(dump.as_bytes());
            Ok(())
        }
    }
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

fn need_session(
    state: &ServerState,
    r: &mut BodyReader<'_>,
) -> Result<(u64, Arc<Session>), (ErrorCode, String)> {
    let sid = r.u64().ok_or_else(malformed)?;
    let session = state
        .sessions
        .get(sid)
        .map_err(|c| (c, format!("session {sid}")))?;
    Ok((sid, session))
}

/// `n` complex values as `f64` pairs.
fn read_complex(r: &mut BodyReader<'_>, n: usize) -> Result<Vec<Complex>, (ErrorCode, String)> {
    (0..n)
        .map(|_| {
            let re = r.f64().ok_or_else(malformed)?;
            let im = r.f64().ok_or_else(malformed)?;
            Ok(Complex::new(re, im))
        })
        .collect()
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
) -> OpResult {
    ser_ct(&result, out);
    recycle(state, spent.into_iter().chain([result]));
    Ok(())
}
