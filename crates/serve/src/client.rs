//! A blocking client for the serving protocol.
//!
//! The client shares the server's `CkksContext` by construction (both
//! sides build it from the same published parameters), serializes
//! payloads with [`ckks::serialize`], and exposes one method per opcode.
//! Every call is strict request/response on one connection; open several
//! clients for concurrency.
//!
//! A request is built where it is sent from: the codec
//! ([`crate::protocol`]) encodes its body into one reusable frame buffer,
//! ciphertexts serialized in place behind their length prefixes, and the
//! frame leaves in a single write. The reply body lands in a second
//! reusable buffer and is decoded from there.

use crate::fault::XorShift64;
use crate::protocol::{
    begin_frame, finish_frame, read_frame_into, BodyReader, BodyWriter, Call, ErrorCode, FrameRead,
    Opcode, ProgramInputs, DEFAULT_MAX_FRAME_BYTES,
};
use ckks::hoisting::LinearTransform;
use ckks::serialize::{
    deserialize_ciphertext, serialize_galois_keys, serialize_switching_key, write_switching_key,
    SerializeError,
};
use ckks::{Ciphertext, CkksContext, GaloisKeys, Plaintext, SwitchingKey};
use fhe_program::program::Program;
use fhe_program::ExecInputs;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with a structured error.
    Server {
        /// Decoded error code.
        code: ErrorCode,
        /// The server's diagnostic message.
        message: String,
    },
    /// The response frame itself made no sense.
    Protocol(String),
    /// A returned payload failed to deserialize.
    Serialize(SerializeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server { code, message } => write!(f, "server: {code}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Serialize(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<SerializeError> for ClientError {
    fn from(e: SerializeError) -> Self {
        ClientError::Serialize(e)
    }
}

/// One connection to a serving runtime.
pub struct Client {
    stream: TcpStream,
    ctx: Arc<CkksContext>,
    /// The request frame, built in place and reused call after call.
    request: Vec<u8>,
    /// The latest reply's body; its buffer is reused for the next.
    reply: Vec<u8>,
}

/// A frame begun in `buf` (its capacity reused), ready for body fields.
fn begin_request(buf: &mut Vec<u8>) -> BodyWriter {
    let mut frame = std::mem::take(buf);
    begin_frame(&mut frame);
    BodyWriter(frame)
}

impl Client {
    /// Connects to a server that evaluates under `ctx`'s parameters.
    ///
    /// # Errors
    ///
    /// Propagates connection I/O errors.
    pub fn connect<A: ToSocketAddrs>(addr: A, ctx: Arc<CkksContext>) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            ctx,
            request: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Bounds how long any single response read may block (`None` blocks
    /// forever, the default). [`RetryingClient`] sets this to its
    /// per-operation timeout so a stalled server surfaces as a timed-out
    /// [`ClientError::Io`] instead of a hang.
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends `frame` — begun with [`begin_frame`], body appended — under
    /// `tag` with one write, and reads the reply's body into `self.reply`.
    fn exchange(&mut self, tag: u8, frame: &mut [u8]) -> Result<(), ClientError> {
        finish_frame(frame, tag);
        self.stream.write_all(frame)?;
        let reply = std::mem::take(&mut self.reply);
        match read_frame_into(&mut self.stream, DEFAULT_MAX_FRAME_BYTES, reply)? {
            FrameRead::Frame(f) => {
                self.reply = f.body;
                if f.tag == 0 {
                    return Ok(());
                }
                let code = ErrorCode::from_u8(f.tag)
                    .ok_or_else(|| ClientError::Protocol(format!("unknown status {}", f.tag)))?;
                Err(ClientError::Server {
                    code,
                    message: String::from_utf8_lossy(&self.reply).into_owned(),
                })
            }
            FrameRead::Eof => Err(ClientError::Protocol("server closed connection".into())),
            FrameRead::TooLarge(n) => Err(ClientError::Protocol(format!(
                "oversize response ({n} bytes)"
            ))),
        }
    }

    /// One request/response: `build` appends the body to the connection's
    /// request frame (kept for the next request unless this one was an
    /// upload, [`Opcode::is_upload`]); the reply's body is left in
    /// `self.reply`.
    fn call(&mut self, tag: u8, build: impl FnOnce(&mut BodyWriter)) -> Result<(), ClientError> {
        let mut w = begin_request(&mut self.request);
        build(&mut w);
        let sent = self.exchange(tag, &mut w.0);
        if !Opcode::from_u8(tag).is_some_and(Opcode::is_upload) {
            self.request = w.0;
        }
        sent
    }

    /// Sends one raw frame and returns the response body on success.
    /// Public so protocol tests (and fuzzing drivers) can send frames no
    /// well-behaved method would.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for structured errors, [`ClientError::Io`]
    /// / [`ClientError::Protocol`] for transport trouble.
    pub fn call_raw(&mut self, tag: u8, body: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.call(tag, |w| {
            w.raw(body);
        })?;
        Ok(std::mem::take(&mut self.reply))
    }

    /// One evaluation request: `call` encoded behind `session`, its reply
    /// body left in `self.reply`.
    fn send(&mut self, session: u64, call: &Call<'_>) -> Result<(), ClientError> {
        self.call(call.op() as u8, |w| call.encode(session, w))
    }

    fn eval(&mut self, session: u64, call: Call<'_>) -> Result<Ciphertext, ClientError> {
        self.send(session, &call)?;
        Ok(deserialize_ciphertext(&self.ctx, &self.reply)?)
    }

    /// Uploads stored wire bytes (a key, a key bundle, a program) to
    /// `session`; the reply body is left in `self.reply`.
    fn upload(&mut self, op: Opcode, session: u64, wire: &[u8]) -> Result<(), ClientError> {
        self.call(op as u8, |w| {
            w.u64(session).raw(wire);
        })
    }

    /// Opens a session; the returned id scopes all uploaded keys.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn hello(&mut self) -> Result<u64, ClientError> {
        self.call(Opcode::Hello as u8, |_| {})?;
        // Reply layout: sid, a reserved flags byte, then the backend name.
        let sid = self.reply.first_chunk::<8>();
        let sid = sid.ok_or_else(|| ClientError::Protocol("short session id".into()))?;
        Ok(u64::from_le_bytes(*sid))
    }

    /// Uploads the relinearization key in its wire form (seed and `b_j`,
    /// half the bytes), which the server stores as sent.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn upload_relin(&mut self, session: u64, key: &SwitchingKey) -> Result<(), ClientError> {
        self.call(Opcode::UploadRelin as u8, |w| {
            w.u64(session);
            write_switching_key(key, &mut w.0);
        })
    }

    /// Uploads a Galois key bundle in one frame.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn upload_galois(&mut self, session: u64, keys: &GaloisKeys) -> Result<(), ClientError> {
        self.upload(Opcode::UploadGalois, session, &serialize_galois_keys(keys))
    }

    /// Closes a session, dropping its keys server-side.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        self.call(Opcode::CloseSession as u8, |w| {
            w.u64(session);
        })
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn add(
        &mut self,
        session: u64,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::Add(a, b))
    }

    /// Ciphertext × plaintext multiplication (rescaled).
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn pt_mult(
        &mut self,
        session: u64,
        ct: &Ciphertext,
        pt: &Plaintext,
    ) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::PtMult(ct, pt))
    }

    /// Ciphertext multiplication using the session's relin key.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn mult(
        &mut self,
        session: u64,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::Mult(a, b))
    }

    /// Slot rotation by `steps` using the session's Galois keys.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn rotate(
        &mut self,
        session: u64,
        ct: &Ciphertext,
        steps: i64,
    ) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::Rotate(steps, ct))
    }

    /// Drops one scale limb.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn rescale(&mut self, session: u64, ct: &Ciphertext) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::Rescale(ct))
    }

    /// BSGS plaintext matrix–vector product with baby dimension `n1`. The
    /// transform's diagonals travel in the request; the session must hold
    /// Galois keys for [`ckks::hoisting::bsgs_required_steps`].
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn bsgs(
        &mut self,
        session: u64,
        ct: &Ciphertext,
        lt: &LinearTransform,
        n1: usize,
    ) -> Result<Ciphertext, ClientError> {
        self.eval(session, Call::Bsgs(n1, lt, ct))
    }

    /// Uploads a serialized encrypted program; the server validates it
    /// against its own parameters and returns the program id to pass to
    /// [`Client::run_program`].
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`]; a program the server's parameters cannot
    /// host fails `Malformed` with the validator's diagnostic.
    pub fn upload_program(&mut self, session: u64, prog: &Program) -> Result<u64, ClientError> {
        self.upload(Opcode::UploadProgram, session, &prog.to_bytes())?;
        program_id(&self.reply)
    }

    /// Runs an uploaded program, binding `inputs` by declaration name,
    /// and returns the output ciphertexts in the program's output order.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`]; unbound or mis-shaped inputs fail
    /// client-side as [`ClientError::Protocol`] before anything is sent.
    pub fn run_program(
        &mut self,
        session: u64,
        pid: u64,
        prog: &Program,
        inputs: &ExecInputs,
    ) -> Result<Vec<Ciphertext>, ClientError> {
        let inputs = ProgramInputs::bind(prog, inputs).map_err(ClientError::Protocol)?;
        self.send(session, &Call::RunProgram(pid, inputs))?;
        decode_program_outputs(&self.ctx, prog.outputs.len(), &self.reply)
    }

    /// Fetches the server's plain-text metrics dump.
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.call_raw(Opcode::Metrics as u8, &[])?;
        String::from_utf8(resp).map_err(|_| ClientError::Protocol("metrics not UTF-8".into()))
    }

    /// Fetches the server's recent request timelines as Chrome
    /// trace-event JSON (loadable in Perfetto / `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn trace_dump(&mut self) -> Result<String, ClientError> {
        let resp = self.call_raw(Opcode::TraceDump as u8, &[0])?;
        String::from_utf8(resp).map_err(|_| ClientError::Protocol("trace dump not UTF-8".into()))
    }

    /// Fetches the server's structured slow-request log (one line per
    /// request that crossed the slow threshold, dominant stage
    /// annotated).
    ///
    /// # Errors
    ///
    /// See [`Client::call_raw`].
    pub fn slow_log(&mut self) -> Result<String, ClientError> {
        let resp = self.call_raw(Opcode::TraceDump as u8, &[1])?;
        String::from_utf8(resp).map_err(|_| ClientError::Protocol("slow log not UTF-8".into()))
    }
}

/// The `u64` program id an `UploadProgram` reply carries.
fn program_id(resp: &[u8]) -> Result<u64, ClientError> {
    resp.first_chunk::<8>()
        .map(|b| u64::from_le_bytes(*b))
        .ok_or_else(|| ClientError::Protocol("short program id".into()))
}

/// Decodes a `RunProgram` response: one ciphertext blob per program
/// output, in output order.
fn decode_program_outputs(
    ctx: &CkksContext,
    n_outputs: usize,
    resp: &[u8],
) -> Result<Vec<Ciphertext>, ClientError> {
    let mut r = BodyReader::new(resp);
    let short = || ClientError::Protocol("short program response".into());
    (0..n_outputs)
        .map(|_| Ok(deserialize_ciphertext(ctx, r.blob().ok_or_else(short)?)?))
        .collect()
}

/// How [`RetryingClient`] paces its attempts: capped exponential backoff
/// with deterministic jitter (a seeded [`XorShift64`], no OS entropy, so
/// a chaos run replays bit-for-bit), a per-attempt read timeout, and a
/// ceiling on attempts per operation.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per operation before giving up with the last
    /// error; at least 1.
    pub max_attempts: u32,
    /// First backoff; each retry doubles it until [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Read timeout applied to every connection, bounding how long one
    /// attempt can block on a response.
    pub op_timeout: Option<Duration>,
    /// Seed for the jitter RNG.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            op_timeout: Some(Duration::from_secs(30)),
            jitter_seed: 0x4d41_4466, // "MADf"
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based): exponential
    /// growth capped at [`RetryPolicy::max_backoff`], then jittered
    /// uniformly over the upper half of the interval so synchronized
    /// clients fan out instead of stampeding in lockstep.
    pub fn backoff(&self, retry: u32, rng: &mut XorShift64) -> Duration {
        let base = self.base_backoff.as_micros().max(1) as u64;
        let cap = self.max_backoff.as_micros().max(1) as u64;
        let exp = base.saturating_mul(1u64 << retry.min(32)).min(cap);
        let half = exp / 2;
        Duration::from_micros(half + rng.below(exp - half + 1))
    }
}

/// Counters describing what the retry machinery had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Individual attempts, including first tries.
    pub attempts: u64,
    /// Attempts that failed retryably and were re-issued.
    pub retries: u64,
    /// Reconnects (connection loss or server-side session loss), each
    /// followed by session re-setup and compressed-key re-upload.
    pub reconnects: u64,
    /// Operations that exhausted [`RetryPolicy::max_attempts`].
    pub gave_up: u64,
}

enum RetryClass {
    /// Do not retry: re-sending the same bytes would fail the same way.
    Fatal,
    /// Back off and re-send on the existing connection.
    Backoff,
    /// The connection or the server-side session is gone: reconnect,
    /// open a fresh session, re-upload the stored compressed keys, then
    /// re-send.
    Reconnect,
}

fn classify(e: &ClientError) -> RetryClass {
    match e {
        // Transport trouble (drops, torn frames, timeouts) and nonsense
        // responses: assume the connection is poisoned.
        ClientError::Io(_) | ClientError::Protocol(_) => RetryClass::Reconnect,
        ClientError::Server { code, .. } if !code.is_retryable() => RetryClass::Fatal,
        // A retryable NoSession means the server lost our session (e.g.
        // a restart or a chaos session reset): full re-setup.
        ClientError::Server { code, .. } if *code == ErrorCode::NoSession => RetryClass::Reconnect,
        ClientError::Server { .. } => RetryClass::Backoff,
        ClientError::Serialize(_) => RetryClass::Fatal,
    }
}

/// A [`Client`] hardened for unreliable networks and overloaded servers.
///
/// Owns one logical session and survives connection loss transparently:
/// on reconnect it opens a fresh server session and re-uploads the
/// *stored compressed wire bytes* of every key, so the server state after
/// recovery is byte-identical to the original upload (every key expands
/// bit-exactly from its seed). Transient server errors (`Overloaded`,
/// `DeadlineExceeded`, `Internal`, `NoSession`) are retried under
/// [`RetryPolicy`]; client-side mistakes are surfaced immediately.
///
/// **Idempotency guard:** serialization is deterministic, so every
/// attempt sends the same bytes but for the current incarnation's session
/// (and program) id. Because every evaluation opcode is a pure function
/// of its request body, a retried `Mult` or `Rotate` is *re-sent*, never
/// re-applied — a response that was computed but lost in transit is
/// simply recomputed bit-identically.
pub struct RetryingClient {
    addr: SocketAddr,
    ctx: Arc<CkksContext>,
    policy: RetryPolicy,
    rng: XorShift64,
    conn: Option<(Client, u64)>,
    relin: Option<Vec<u8>>,
    galois: Option<Vec<u8>>,
    programs: Vec<ProgramSlot>,
    stats: RetryStats,
}

/// A program uploaded through [`RetryingClient::upload_program`],
/// retained for re-upload: the exact wire bytes (so a recovered session
/// holds a byte-identical program), the decoded form (to frame
/// `run_program` inputs), and the server-side id of the *current*
/// session incarnation.
struct ProgramSlot {
    wire: Vec<u8>,
    program: Program,
    pid: u64,
}

/// Handle to a program uploaded through
/// [`RetryingClient::upload_program`]. Stable across reconnects: the
/// server-side program id changes with every session incarnation, the
/// handle does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramHandle(usize);

impl RetryingClient {
    /// Connects (with retries) and opens the logical session.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once [`RetryPolicy::max_attempts`] is
    /// exhausted, or immediately on address-resolution failure.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        ctx: Arc<CkksContext>,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let rng = XorShift64::new(policy.jitter_seed);
        let mut me = Self {
            addr,
            ctx,
            policy,
            rng,
            conn: None,
            relin: None,
            galois: None,
            programs: Vec::new(),
            stats: RetryStats::default(),
        };
        me.with_retry(|_, _, _| Ok(()))?;
        Ok(me)
    }

    /// The server-side id of the current session incarnation (changes
    /// after a reconnect), or `None` while disconnected.
    pub fn session_id(&self) -> Option<u64> {
        self.conn.as_ref().map(|(_, sid)| *sid)
    }

    /// What the retry machinery has done so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// (Re)establishes the connection, session, uploaded keys, and
    /// uploaded programs, leaving the live connection in `self.conn`.
    fn ensure_ready(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let client = Client::connect(self.addr, self.ctx.clone())?;
        client.set_read_timeout(self.policy.op_timeout)?;
        let mut client = client;
        let sid = client.hello()?;
        // Re-upload the stored compressed key bytes verbatim: the
        // recovered session is byte-identical to the lost one.
        let stored = [
            (Opcode::UploadRelin, &self.relin),
            (Opcode::UploadGalois, &self.galois),
        ];
        for (op, bytes) in stored {
            if let Some(bytes) = bytes {
                client.upload(op, sid, bytes)?;
            }
        }
        // Re-upload stored program wire bytes, re-learning each slot's
        // server-side id under the new session.
        for slot in &mut self.programs {
            client.upload(Opcode::UploadProgram, sid, &slot.wire)?;
            slot.pid = program_id(&client.reply)?;
        }
        self.conn = Some((client, sid));
        Ok(())
    }

    /// Runs `f` until it succeeds, retrying per policy. `f` receives the
    /// live connection, the *current* session id and the program slots —
    /// whose server-side ids a reconnect inside the loop re-learns before
    /// the next attempt — and must send the request under those ids;
    /// nothing else in the request may change between attempts.
    fn with_retry<T>(
        &mut self,
        mut f: impl FnMut(&mut Client, u64, &[ProgramSlot]) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            let result = self.ensure_ready().and_then(|()| {
                let (client, sid) = self.conn.as_mut().expect("just ensured");
                f(client, *sid, &self.programs)
            });
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let class = classify(&err);
            if matches!(class, RetryClass::Fatal) || attempt >= self.policy.max_attempts.max(1) {
                if !matches!(class, RetryClass::Fatal) {
                    self.stats.gave_up += 1;
                }
                return Err(err);
            }
            if matches!(class, RetryClass::Reconnect) {
                self.conn = None;
                self.stats.reconnects += 1;
            }
            self.stats.retries += 1;
            std::thread::sleep(self.policy.backoff(attempt - 1, &mut self.rng));
        }
    }

    /// Uploads (and stores for re-upload) the relinearization key.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn upload_relin(&mut self, key: &SwitchingKey) -> Result<(), ClientError> {
        let bytes = serialize_switching_key(key);
        self.relin = Some(bytes.clone());
        self.with_retry(|client, sid, _| client.upload(Opcode::UploadRelin, sid, &bytes))
    }

    /// Uploads (and stores for re-upload) a Galois key bundle.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn upload_galois(&mut self, keys: &GaloisKeys) -> Result<(), ClientError> {
        let bytes = serialize_galois_keys(keys);
        self.galois = Some(bytes.clone());
        self.with_retry(|client, sid, _| client.upload(Opcode::UploadGalois, sid, &bytes))
    }

    /// Uploads a program (and stores its wire bytes for re-upload on
    /// reconnect). The returned handle is stable across reconnects —
    /// every retry or recovery re-learns the server-side id under the
    /// current session, so callers never see a stale program id.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn upload_program(&mut self, prog: &Program) -> Result<ProgramHandle, ClientError> {
        let wire = prog.to_bytes();
        let pid = self.with_retry(|client, sid, _| {
            client.upload(Opcode::UploadProgram, sid, &wire)?;
            program_id(&client.reply)
        })?;
        self.programs.push(ProgramSlot {
            wire,
            program: prog.clone(),
            pid,
        });
        Ok(ProgramHandle(self.programs.len() - 1))
    }

    /// Runs an uploaded program with retries, binding `inputs` by
    /// declaration name; returns the outputs in program output order.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`]; unbound or mis-shaped inputs
    /// fail immediately as [`ClientError::Protocol`].
    pub fn run_program(
        &mut self,
        handle: ProgramHandle,
        inputs: &ExecInputs,
    ) -> Result<Vec<Ciphertext>, ClientError> {
        let slot = self
            .programs
            .get(handle.0)
            .ok_or_else(|| ClientError::Protocol("unknown program handle".into()))?;
        // Bound once here, so a binding error is not retried.
        ProgramInputs::bind(&slot.program, inputs).map_err(ClientError::Protocol)?;
        self.with_retry(|client, sid, programs| {
            let slot = &programs[handle.0];
            client.run_program(sid, slot.pid, &slot.program, inputs)
        })
    }

    /// Homomorphic addition, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, ClientError> {
        self.with_retry(|client, sid, _| client.add(sid, a, b))
    }

    /// Ciphertext multiplication, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn mult(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, ClientError> {
        self.with_retry(|client, sid, _| client.mult(sid, a, b))
    }

    /// Ciphertext × plaintext multiplication, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn pt_mult(&mut self, ct: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, ClientError> {
        self.with_retry(|client, sid, _| client.pt_mult(sid, ct, pt))
    }

    /// Slot rotation, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn rotate(&mut self, ct: &Ciphertext, steps: i64) -> Result<Ciphertext, ClientError> {
        self.with_retry(|client, sid, _| client.rotate(sid, ct, steps))
    }

    /// Drops one scale limb, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn rescale(&mut self, ct: &Ciphertext) -> Result<Ciphertext, ClientError> {
        self.with_retry(|client, sid, _| client.rescale(sid, ct))
    }

    /// Fetches the server's metrics dump, with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        // Metrics is session-free.
        let resp = self.with_retry(|client, _, _| client.call_raw(Opcode::Metrics as u8, &[]))?;
        String::from_utf8(resp).map_err(|_| ClientError::Protocol("metrics not UTF-8".into()))
    }

    /// Closes the logical session and forgets the stored keys. A retried
    /// close that reconnects opens a throwaway session (re-uploading
    /// keys) and closes it, so the server never leaks the *current*
    /// incarnation; sessions orphaned by earlier crashes stay until an
    /// operator sweep.
    ///
    /// # Errors
    ///
    /// See [`RetryingClient::connect`].
    pub fn close(mut self) -> Result<(), ClientError> {
        let r = self.with_retry(|client, sid, _| client.close_session(sid));
        self.conn = None;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut rng = XorShift64::new(1);
        let mut prev_cap = Duration::ZERO;
        for retry in 0..12 {
            let exp = Duration::from_millis(4)
                .saturating_mul(1 << retry.min(31))
                .min(Duration::from_millis(100));
            let d = policy.backoff(retry, &mut rng);
            assert!(d >= exp / 2, "retry {retry}: {d:?} below half of {exp:?}");
            assert!(d <= exp, "retry {retry}: {d:?} above cap {exp:?}");
            assert!(exp >= prev_cap, "cap must be monotone");
            prev_cap = exp;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let mut a = XorShift64::new(99);
        let mut b = XorShift64::new(99);
        for retry in 0..20 {
            assert_eq!(policy.backoff(retry, &mut a), policy.backoff(retry, &mut b));
        }
    }

    #[test]
    fn classification_matches_retryability() {
        assert!(matches!(
            classify(&ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "t"
            ))),
            RetryClass::Reconnect
        ));
        assert!(matches!(
            classify(&ClientError::Protocol("server closed connection".into())),
            RetryClass::Reconnect
        ));
        let server = |code| ClientError::Server {
            code,
            message: String::new(),
        };
        assert!(matches!(
            classify(&server(ErrorCode::Overloaded)),
            RetryClass::Backoff
        ));
        assert!(matches!(
            classify(&server(ErrorCode::DeadlineExceeded)),
            RetryClass::Backoff
        ));
        assert!(matches!(
            classify(&server(ErrorCode::Internal)),
            RetryClass::Backoff
        ));
        assert!(matches!(
            classify(&server(ErrorCode::NoSession)),
            RetryClass::Reconnect
        ));
        for fatal in [
            ErrorCode::Malformed,
            ErrorCode::MissingKey,
            ErrorCode::UnknownOpcode,
            ErrorCode::UnsupportedVersion,
            ErrorCode::FrameTooLarge,
            ErrorCode::BadFrame,
        ] {
            assert!(matches!(classify(&server(fatal)), RetryClass::Fatal));
        }
    }
}
