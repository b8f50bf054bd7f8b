//! The wire protocol: length-prefixed frames over the `MADf`
//! serialization.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 length][u8 protocol version][u8 opcode | status][body…]
//! ```
//!
//! with the length counting everything after itself (so `2 + body`),
//! little-endian throughout like the `MADf` payloads it carries. Requests
//! put an [`Opcode`] in the tag byte; responses put a status there — zero
//! for success, otherwise an [`ErrorCode`] with a UTF-8 diagnostic as the
//! body. Ciphertexts, plaintexts and keys travel as their
//! [`ckks::serialize`] byte forms, nested inside the frame body with
//! `u32` length prefixes wherever more than one payload shares a body.
//!
//! It is also the one codec of every evaluation request body: `Call` for
//! the clients, `Request` and `ProgramInputs` for the worker.

use ckks::hoisting::LinearTransform;
use ckks::serialize::{write_ciphertext, write_plaintext};
use ckks::{Ciphertext, Plaintext};
use fhe_math::cfft::Complex;
use fhe_program::program::{valid_baby_dim, Program};
use fhe_program::ExecInputs;
use std::collections::BTreeMap;
use std::io::Read;

/// Protocol version carried in every frame. Version 2 carries `MADf`
/// version 2 payloads (residues packed at their moduli's widths), so a
/// version-1 peer is refused at its first frame, not at its first operand.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default ceiling on a single frame's length field (64 MiB) — large
/// enough for a full rotation-key bundle at demo scale, small enough to
/// reject garbage lengths before allocating.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 << 20;

/// Request opcodes. Session management sits below 0x10, evaluation ops at
/// 0x10–0x1f, introspection at 0x20.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Open a session. The request body is ignored: clients send it
    /// empty, and older ones sent a batching-hint byte, which the server
    /// no longer reads. The response body is the `u64` session id, a
    /// reserved flags byte (always `1`), then the server's kernel-backend
    /// name in UTF-8.
    Hello = 0x01,
    /// Upload the relinearization key (compressed seeded form welcome).
    UploadRelin = 0x02,
    /// Upload a Galois (rotation) key bundle.
    UploadGalois = 0x03,
    /// Close a session and drop its keys from store and cache.
    CloseSession = 0x04,
    /// Upload a serialized encrypted-program (`MADP` wire form). The body
    /// is the `u64` session id followed by the raw program bytes; the
    /// server validates the program against its own parameters and
    /// replies with the `u64` program id to pass to [`Opcode::RunProgram`].
    UploadProgram = 0x05,
    /// Homomorphic addition of two ciphertexts.
    Add = 0x10,
    /// Ciphertext × plaintext multiplication (with rescale).
    PtMult = 0x12,
    /// Ciphertext × ciphertext multiplication (needs the relin key).
    Mult = 0x13,
    /// Slot rotation (needs the matching Galois key).
    Rotate = 0x14,
    /// Drop one scale limb.
    Rescale = 0x15,
    /// BSGS plaintext matrix–vector product.
    Bsgs = 0x16,
    /// Execute a previously uploaded program: `u64` session id, `u64`
    /// program id, then the program's declared inputs in declaration
    /// order (ciphertexts as blobs, plaintext vectors and matrix
    /// diagonals as `f64` pairs). The response carries one ciphertext
    /// blob per program output, in output order.
    RunProgram = 0x18,
    /// Fetch the server's plain-text metrics dump.
    Metrics = 0x20,
    /// Fetch recent request timelines. An empty body (or a leading `0`
    /// byte) returns Chrome trace-event JSON for Perfetto; a leading `1`
    /// byte returns the structured slow-request log instead.
    TraceDump = 0x21,
}

impl Opcode {
    /// Decodes a tag byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x01 => Opcode::Hello,
            0x02 => Opcode::UploadRelin,
            0x03 => Opcode::UploadGalois,
            0x04 => Opcode::CloseSession,
            0x05 => Opcode::UploadProgram,
            0x10 => Opcode::Add,
            0x12 => Opcode::PtMult,
            0x13 => Opcode::Mult,
            0x14 => Opcode::Rotate,
            0x15 => Opcode::Rescale,
            0x16 => Opcode::Bsgs,
            0x18 => Opcode::RunProgram,
            0x20 => Opcode::Metrics,
            0x21 => Opcode::TraceDump,
            _ => return None,
        })
    }

    /// Short lower-case name used as the metrics label.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "hello",
            Opcode::UploadRelin => "upload_relin",
            Opcode::UploadGalois => "upload_galois",
            Opcode::CloseSession => "close_session",
            Opcode::UploadProgram => "upload_program",
            Opcode::Add => "add",
            Opcode::PtMult => "pt_mult",
            Opcode::Mult => "mult",
            Opcode::Rotate => "rotate",
            Opcode::Rescale => "rescale",
            Opcode::Bsgs => "bsgs",
            Opcode::RunProgram => "run_program",
            Opcode::Metrics => "metrics",
            Opcode::TraceDump => "trace_dump",
        }
    }

    /// Whether this op uploads a key, a key bundle or a program — by far
    /// the largest frames a session sends, and among its rarest. Frame
    /// buffers are reused from one evaluation request to the next, but
    /// not kept after one of these: that would hold megabytes per
    /// connection for a frame that may never recur.
    pub(crate) fn is_upload(self) -> bool {
        matches!(
            self,
            Opcode::UploadRelin | Opcode::UploadGalois | Opcode::UploadProgram
        )
    }

    /// Whether the body starts with a session id ([`split_session`]):
    /// every op but `Hello`, `Metrics` and `TraceDump`.
    pub(crate) fn has_session(self) -> bool {
        !matches!(self, Opcode::Hello | Opcode::Metrics | Opcode::TraceDump)
    }

    /// Every opcode, for metrics registration.
    pub const ALL: [Opcode; 14] = [
        Opcode::Hello,
        Opcode::UploadRelin,
        Opcode::UploadGalois,
        Opcode::CloseSession,
        Opcode::UploadProgram,
        Opcode::Add,
        Opcode::PtMult,
        Opcode::Mult,
        Opcode::Rotate,
        Opcode::Rescale,
        Opcode::Bsgs,
        Opcode::RunProgram,
        Opcode::Metrics,
        Opcode::TraceDump,
    ];
}

/// Structured error codes carried in the response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame shorter than its header, or the length field lied.
    BadFrame = 1,
    /// The frame's protocol version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion = 2,
    /// The opcode byte names no operation.
    UnknownOpcode = 3,
    /// The session id is unknown (never opened, or closed).
    NoSession = 4,
    /// The operation needs a key the session has not uploaded.
    MissingKey = 5,
    /// The body failed structural validation (bad `MADf` payload,
    /// mismatched lengths, out-of-range field).
    Malformed = 6,
    /// The request queue is full — back off and retry.
    Overloaded = 7,
    /// The request sat in the queue past its deadline.
    DeadlineExceeded = 8,
    /// The operation panicked or otherwise failed server-side.
    Internal = 9,
    /// The frame length exceeds the server's configured maximum.
    FrameTooLarge = 10,
}

impl ErrorCode {
    /// Decodes a status byte (zero is success, not an error code).
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::NoSession,
            5 => ErrorCode::MissingKey,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::Overloaded,
            8 => ErrorCode::DeadlineExceeded,
            9 => ErrorCode::Internal,
            10 => ErrorCode::FrameTooLarge,
            _ => return None,
        })
    }
}

impl ErrorCode {
    /// Whether a client may transparently retry after this error.
    ///
    /// Transient conditions — pushback ([`ErrorCode::Overloaded`]), queue
    /// congestion ([`ErrorCode::DeadlineExceeded`]), an isolated worker
    /// panic ([`ErrorCode::Internal`]), or a lost server-side session
    /// ([`ErrorCode::NoSession`], which additionally needs session
    /// re-setup) — are retryable: every evaluation opcode is a pure
    /// function of its request body, so re-sending the same bytes cannot
    /// double-apply anything. Client-side mistakes (malformed payloads,
    /// missing keys, protocol misuse) are not: resending identical bytes
    /// would fail identically.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::DeadlineExceeded
                | ErrorCode::Internal
                | ErrorCode::NoSession
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::UnknownOpcode => "unknown opcode",
            ErrorCode::NoSession => "no such session",
            ErrorCode::MissingKey => "required key not uploaded",
            ErrorCode::Malformed => "malformed request body",
            ErrorCode::Overloaded => "server overloaded",
            ErrorCode::DeadlineExceeded => "request deadline exceeded",
            ErrorCode::Internal => "internal server error",
            ErrorCode::FrameTooLarge => "frame exceeds size limit",
        };
        f.write_str(s)
    }
}

/// Bytes of frame header in front of every body: `[u32 length][version][tag]`.
pub const FRAME_HEADER_LEN: usize = 6;

/// Starts a frame in `buf`: whatever it held is discarded (its capacity is
/// kept) and room for the header is reserved, so the body can be built in
/// place — serialized straight into the buffer that goes on the wire —
/// and [`finish_frame`] fills the header in once the length is known.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(FRAME_HEADER_LEN, 0);
}

/// Completes a frame started with [`begin_frame`]: everything after the
/// reserved header is the body, `tag` its opcode or status.
///
/// # Panics
///
/// Panics if `buf` is shorter than a header, or its body overflows the
/// `u32` length field (no frame this crate builds comes near it; a peer
/// would refuse it at [`DEFAULT_MAX_FRAME_BYTES`] anyway).
pub fn finish_frame(buf: &mut [u8], tag: u8) {
    let len = u32::try_from(buf.len() - 4).expect("frame body exceeds the u32 length field");
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4] = PROTOCOL_VERSION;
    buf[5] = tag;
}

/// One frame, `[len][version][tag][body]`, as one buffer. Used where a
/// frame exists as bytes before it hits the wire — fuzzers mutating valid
/// frames, tests writing a frame in slices.
pub fn frame_bytes(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    begin_frame(&mut out);
    out.extend_from_slice(body);
    finish_frame(&mut out, tag);
    out
}

/// A decoded frame.
#[derive(Debug)]
pub struct Frame {
    /// The version byte as sent (the reader does not reject mismatches —
    /// that is the server's job, so it can answer with a structured error).
    pub version: u8,
    /// Opcode (requests) or status (responses).
    pub tag: u8,
    /// Frame body.
    pub body: Vec<u8>,
}

/// Outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame arrived.
    Frame(Frame),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The frame's length field exceeds `max_len`; the connection is no
    /// longer in sync and must be dropped after an error response.
    TooLarge(u32),
}

/// Least capacity [`read_into`] keeps ahead of the bytes a buffer holds.
const READ_AHEAD_MIN: usize = 64 << 10;

/// Appends up to `want` bytes from `r` to `buf`, read straight into the
/// buffer's spare capacity — no bounce buffer, no zero-fill. Capacity the
/// buffer already has (a recycled one) is used as it is; *new* capacity is
/// reserved only up to `max(64 KiB, 2 × the bytes held)`, so the memory a
/// peer makes us commit follows the bytes it has sent, not the length it
/// announced. Returns the bytes appended — fewer than `want` means end of
/// stream. On an error whatever arrived before it is already in `buf`.
pub(crate) fn read_into<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    want: usize,
) -> std::io::Result<usize> {
    let start = buf.len();
    while buf.len() - start < want {
        let held = buf.len();
        let ahead = (2 * held).max(READ_AHEAD_MIN).max(buf.capacity()) - held;
        let step = (want - (held - start)).min(ahead);
        buf.reserve_exact(step);
        r.by_ref().take(step as u64).read_to_end(buf)?;
        if buf.len() - held < step {
            break;
        }
    }
    Ok(buf.len() - start)
}

/// Reads one frame. `max_len` bounds the length field; I/O errors
/// (including read timeouts) surface as `Err`.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> std::io::Result<FrameRead> {
    read_frame_into(r, max_len, Vec::new())
}

/// [`read_frame`] with the body read into `body` — cleared first, its
/// capacity reused — so a caller that reads reply after reply allocates
/// for the largest once. The buffer comes back as [`Frame::body`]; on any
/// other outcome it is dropped.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_len: u32,
    mut body: Vec<u8>,
) -> std::io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn frame.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len < 2 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length below header size",
        ));
    }
    if len > max_len {
        return Ok(FrameRead::TooLarge(len));
    }
    let mut head = [0u8; 2];
    r.read_exact(&mut head)?;
    body.clear();
    let want = len as usize - 2;
    if read_into(r, &mut body, want)? < want {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(FrameRead::Frame(Frame {
        version: head[0],
        tag: head[1],
        body,
    }))
}

/// What a read buffer holds at a frame boundary — the buffered analogue
/// of [`FrameRead`], computed without consuming anything. Kept only for
/// the benchmark harness; ROADMAP item 1(d) deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// Not enough buffered bytes for a verdict or a full frame yet.
    Incomplete,
    /// One complete frame is buffered; its total wire size (4-byte
    /// length prefix included) is `wire_len`. [`take_frame`] detaches it.
    Ready {
        /// Bytes the frame occupies at the front of the buffer.
        wire_len: usize,
    },
    /// The length field exceeds the ceiling; the stream is out of sync
    /// and must be closed after an error response, mirroring
    /// [`FrameRead::TooLarge`].
    TooLarge(u32),
    /// The length field is below the 2-byte header minimum — the same
    /// condition [`read_frame`] reports as an `InvalidData` error.
    Corrupt,
}

/// Classifies the front of `buf` without consuming it. `max_len` bounds
/// the length field exactly as in [`read_frame`], so a byte stream fed
/// through a buffer yields the same verdicts as the blocking reader. Kept
/// only for the benchmark harness; ROADMAP item 1(d) deletes it.
#[doc(hidden)]
pub fn peek_frame(buf: &[u8], max_len: u32) -> FrameStatus {
    let Some(len_bytes) = buf.get(..4) else {
        return FrameStatus::Incomplete;
    };
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
    if len < 2 {
        return FrameStatus::Corrupt;
    }
    if len > max_len {
        return FrameStatus::TooLarge(len);
    }
    let wire_len = 4 + len as usize;
    if buf.len() < wire_len {
        return FrameStatus::Incomplete;
    }
    FrameStatus::Ready { wire_len }
}

/// Detaches the complete frame at the front of `buf`, which
/// [`peek_frame`] must have reported [`FrameStatus::Ready`] for. Kept only
/// for the benchmark harness; ROADMAP item 1(d) deletes it.
///
/// # Panics
///
/// Panics if the buffer does not start with a complete frame.
#[doc(hidden)]
pub fn take_frame(buf: &mut Vec<u8>) -> Frame {
    let FrameStatus::Ready { wire_len } = peek_frame(buf, u32::MAX) else {
        panic!("take_frame without a Ready peek");
    };
    let frame = Frame {
        version: buf[4],
        tag: buf[5],
        body: buf[FRAME_HEADER_LEN..wire_len].to_vec(),
    };
    // Whatever follows the frame moves to the front; nothing does when the
    // buffer held exactly one frame.
    buf.drain(..wire_len);
    frame
}

/// Incremental little-endian body writer for multi-payload requests.
#[derive(Default)]
pub struct BodyWriter(pub Vec<u8>);

impl BodyWriter {
    /// An empty body.
    pub fn new() -> Self {
        Self::default()
    }
    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Appends an `f64` as IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }
    /// Appends raw bytes with no length prefix (trailing payload).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }
    /// Appends a `u32` length prefix followed by the bytes.
    pub fn blob(&mut self, bytes: &[u8]) -> &mut Self {
        self.blob_with(|out| out.extend_from_slice(bytes))
    }
    /// Appends a `u32` length prefix followed by whatever `write` appends
    /// — a payload serialized in place, its length filled in afterwards,
    /// instead of serialized elsewhere and copied in.
    pub fn blob_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        let len_at = self.0.len();
        self.u32(0);
        write(&mut self.0);
        let len = (self.0.len() - len_at - 4) as u32;
        self.0[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        self
    }
}

/// Incremental body reader; every method fails `Malformed`-style with
/// `None` on underrun rather than panicking.
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a body slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// Bytes not yet consumed (a trailing payload).
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    /// True when everything was consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Reads (or skips) `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    /// Reads an `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }
    /// Reads an `f64` from IEEE-754 bits.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    /// Reads a `u32`-length-prefixed byte blob.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// A session-scoped body's session id — its first field, which the shard
/// loop routes by — and the op's fields behind it.
pub(crate) fn split_session(body: &[u8]) -> Option<(u64, &[u8])> {
    let (sid, fields) = body.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*sid), fields))
}

/// Bytes one slot value occupies: an `f64` pair.
const SLOT_BYTES: usize = 16;

/// Slot values as [`BodyWriter::slots`] writes them.
pub(crate) fn slot_values(bytes: &[u8]) -> Vec<Complex> {
    let mut r = BodyReader::new(bytes);
    std::iter::from_fn(|| Some(Complex::new(r.f64()?, r.f64()?))).collect()
}

impl BodyWriter {
    /// Appends slot values as `f64` pairs, with no count.
    pub(crate) fn slots(&mut self, values: &[Complex]) -> &mut Self {
        for c in values {
            self.f64(c.re).f64(c.im);
        }
        self
    }
}

/// An evaluation request as a client builds it: fields in wire order,
/// operands the library's own values. [`Call::encode`] writes the bodies
/// [`Request::decode`] and [`ProgramInputs::decode`] read.
pub(crate) enum Call<'a> {
    Add(&'a Ciphertext, &'a Ciphertext),
    PtMult(&'a Ciphertext, &'a Plaintext),
    Mult(&'a Ciphertext, &'a Ciphertext),
    Rotate(i64, &'a Ciphertext),
    Rescale(&'a Ciphertext),
    /// Baby dimension `n1`, the transform, the input.
    Bsgs(usize, &'a LinearTransform, &'a Ciphertext),
    /// Program id and the program's inputs ([`ProgramInputs::bind`]).
    RunProgram(u64, ProgramInputs<&'a Ciphertext, &'a [Complex]>),
}

impl Call<'_> {
    /// The opcode the request goes under.
    pub(crate) fn op(&self) -> Opcode {
        match self {
            Call::Add(..) => Opcode::Add,
            Call::PtMult(..) => Opcode::PtMult,
            Call::Mult(..) => Opcode::Mult,
            Call::Rotate(..) => Opcode::Rotate,
            Call::Rescale(..) => Opcode::Rescale,
            Call::Bsgs(..) => Opcode::Bsgs,
            Call::RunProgram(..) => Opcode::RunProgram,
        }
    }

    /// Appends the body: `session`, then the op's fields, ciphertexts and
    /// plaintexts serialized in place.
    pub(crate) fn encode(&self, session: u64, w: &mut BodyWriter) {
        let ct = |w: &mut BodyWriter, ct: &Ciphertext| {
            w.blob_with(|out| write_ciphertext(ct, out));
        };
        w.u64(session);
        match *self {
            Call::Add(a, b) | Call::Mult(a, b) => {
                ct(w, a);
                ct(w, b);
            }
            Call::PtMult(a, pt) => {
                ct(w, a);
                w.blob_with(|out| write_plaintext(pt, out));
            }
            Call::Rotate(steps, a) => write_ciphertext(a, &mut w.i64(steps).0),
            Call::Rescale(a) => write_ciphertext(a, &mut w.0),
            Call::Bsgs(n1, lt, a) => {
                let offsets = lt.offsets();
                w.u32(n1 as u32).u32(offsets.len() as u32);
                for d in offsets {
                    let diag = lt.diagonal(d).expect("offset listed by the transform");
                    w.u32(d as u32).slots(diag);
                }
                write_ciphertext(a, &mut w.0);
            }
            Call::RunProgram(pid, ref inputs) => {
                w.u64(pid);
                for &c in &inputs.cts {
                    ct(w, c);
                }
                for v in &inputs.pts {
                    w.u32(v.len() as u32).slots(v);
                }
                for diagonal in inputs.mats.iter().flatten() {
                    w.slots(diagonal);
                }
            }
        }
    }
}

/// A program input by its declaration's name.
fn bound<'i, T>(inputs: &'i BTreeMap<String, T>, name: &str) -> Result<&'i T, String> {
    inputs
        .get(name)
        .ok_or_else(|| format!("input `{name}` not bound"))
}

/// An evaluation request as the server decodes it: scalars read, every
/// ciphertext, plaintext and diagonal still the bytes it arrived as — the
/// worker deserializes them once the request's keys are pinned.
#[derive(Debug, PartialEq)]
pub(crate) enum Request<'a> {
    Add(&'a [u8], &'a [u8]),
    PtMult(&'a [u8], &'a [u8]),
    Mult(&'a [u8], &'a [u8]),
    Rotate(i64, &'a [u8]),
    Rescale(&'a [u8]),
    /// `n1`, `(offset, slot values)` per diagonal in increasing offset
    /// order, the input.
    Bsgs(usize, Vec<(usize, &'a [u8])>, &'a [u8]),
    /// Program id and the input section ([`ProgramInputs::decode`]).
    RunProgram(u64, &'a [u8]),
}

impl<'a> Request<'a> {
    /// Reads an evaluation op's `fields` (the body behind its session id)
    /// for a context of `slots` slots. `None` for a truncated body, a
    /// `Bsgs` whose `n1` the program validator refuses
    /// ([`valid_baby_dim`]), whose diagonal count is outside `1..=slots` or
    /// whose offsets are out of range or not strictly increasing (a repeat
    /// would replace a diagonal), and for an op that is not an evaluation.
    pub(crate) fn decode(op: Opcode, fields: &'a [u8], slots: usize) -> Option<Self> {
        let mut r = BodyReader::new(fields);
        Some(match op {
            Opcode::Add => Request::Add(r.blob()?, r.blob()?),
            Opcode::PtMult => Request::PtMult(r.blob()?, r.blob()?),
            Opcode::Mult => Request::Mult(r.blob()?, r.blob()?),
            Opcode::Rotate => Request::Rotate(r.i64()?, r.rest()),
            Opcode::Rescale => Request::Rescale(r.rest()),
            Opcode::RunProgram => Request::RunProgram(r.u64()?, r.rest()),
            Opcode::Bsgs => {
                let (n1, count) = (r.u32()? as usize, r.u32()? as usize);
                if !valid_baby_dim(n1, slots) || count == 0 || count > slots {
                    return None;
                }
                let mut diagonals: Vec<(usize, &[u8])> = Vec::with_capacity(count);
                for _ in 0..count {
                    let d = r.u32()? as usize;
                    if d >= slots || diagonals.last().is_some_and(|&(last, _)| last >= d) {
                        return None;
                    }
                    diagonals.push((d, r.take(slots * SLOT_BYTES)?));
                }
                Request::Bsgs(n1, diagonals, r.rest())
            }
            _ => return None,
        })
    }
}

/// A program's declared inputs in declaration order (per matrix, its
/// declared diagonals): the library's values for the encoder
/// ([`ProgramInputs::bind`]), bytes for the worker ([`InputBytes`]).
pub(crate) struct ProgramInputs<C, V> {
    pub(crate) cts: Vec<C>,
    pub(crate) pts: Vec<V>,
    pub(crate) mats: Vec<Vec<V>>,
}

impl<'a> ProgramInputs<&'a Ciphertext, &'a [Complex]> {
    /// `prog`'s inputs looked up by name in `inputs`. Fails on the first
    /// one left unbound or mis-shaped.
    pub(crate) fn bind(prog: &Program, inputs: &'a ExecInputs) -> Result<Self, String> {
        let cts = prog.ct_inputs.iter().map(|d| bound(&inputs.cts, &d.name));
        let pts = prog.pt_inputs.iter().map(|d| bound(&inputs.pts, &d.name));
        let mut mats = Vec::new();
        for m in &prog.matrices {
            let lt = bound(&inputs.mats, &m.name)?;
            let diagonal = |&d: &usize| lt.diagonal(d).filter(|v| v.len() == m.slots);
            let diagonals = m.offsets.iter().map(diagonal).collect::<Option<_>>();
            mats.push(diagonals.ok_or_else(|| format!("matrix `{}` is mis-shaped", m.name))?);
        }
        Ok(ProgramInputs {
            cts: cts.collect::<Result<_, _>>()?,
            pts: pts
                .map(|v| v.map(Vec::as_slice))
                .collect::<Result<_, _>>()?,
            mats,
        })
    }
}

/// A `RunProgram`'s inputs as the bytes they arrived as.
pub(crate) type InputBytes<'a> = ProgramInputs<&'a [u8], &'a [u8]>;

impl<'a> InputBytes<'a> {
    /// Reads `prog`'s input section for a context of `slots` slots. `None`
    /// when it is truncated, a plaintext vector is longer than `slots`, or
    /// bytes trail the last input.
    pub(crate) fn decode(prog: &Program, slots: usize, bytes: &'a [u8]) -> Option<Self> {
        let mut r = BodyReader::new(bytes);
        let (mut cts, mut pts, mut mats) = (Vec::new(), Vec::new(), Vec::new());
        for _ in &prog.ct_inputs {
            cts.push(r.blob()?);
        }
        for _ in &prog.pt_inputs {
            let n = r.u32()? as usize;
            pts.push(r.take(n * SLOT_BYTES).filter(|_| n <= slots)?);
        }
        for m in &prog.matrices {
            let diagonals = m.offsets.iter().map(|_| r.take(m.slots * SLOT_BYTES));
            mats.push(diagonals.collect::<Option<_>>()?);
        }
        r.is_empty().then_some(ProgramInputs { cts, pts, mats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let buf = frame_bytes(Opcode::Add as u8, b"payload");
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap() {
            FrameRead::Frame(f) => {
                assert_eq!(f.version, PROTOCOL_VERSION);
                assert_eq!(f.tag, Opcode::Add as u8);
                assert_eq!(f.body, b"payload");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A second read on the drained cursor is a clean EOF.
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversize_frames_are_flagged_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[PROTOCOL_VERSION, 0x10]);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor, 1024).unwrap(),
            FrameRead::TooLarge(len) if len == u32::MAX
        ));
    }

    #[test]
    fn torn_length_prefix_is_an_error_not_eof() {
        let mut cursor: &[u8] = &[3u8, 0];
        assert!(read_frame(&mut cursor, 1024).is_err());
    }

    #[test]
    fn opcode_and_error_tables_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
            assert!(!op.name().is_empty());
        }
        assert_eq!(Opcode::from_u8(0xee), None);
        for v in 1..=10u8 {
            let code = ErrorCode::from_u8(v).unwrap();
            assert_eq!(code as u8, v);
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(99), None);
    }

    #[test]
    fn frame_layout_is_length_version_tag_body() {
        let frame = frame_bytes(Opcode::Mult as u8, b"abc");
        assert_eq!(
            frame,
            [5, 0, 0, 0, PROTOCOL_VERSION, 0x13, b'a', b'b', b'c']
        );
        // Built in place over a dirty buffer, the frame is the same bytes.
        let mut buf = vec![0xff; 64];
        begin_frame(&mut buf);
        buf.extend_from_slice(b"abc");
        finish_frame(&mut buf, Opcode::Mult as u8);
        assert_eq!(buf, frame);
    }

    /// A reader that hands out its bytes `step` at a time.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(out.len()).min(self.0.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_into_commits_capacity_only_as_bytes_arrive() {
        let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        // The peer announced 64 MiB and sent 1 MiB in 1000-byte reads.
        let mut r = Dribble(&data, 1000);
        let mut buf = Vec::new();
        let got = read_into(&mut r, &mut buf, 64 << 20).unwrap();
        assert_eq!(got, data.len(), "short count reports end of stream");
        assert_eq!(buf, data);
        assert!(
            buf.capacity() <= 2 * data.len(),
            "capacity {} for {} bytes received",
            buf.capacity(),
            data.len()
        );
        // A recycled buffer's own capacity is used without regrowing.
        buf.clear();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let mut r = Dribble(&data, 70_000);
        assert_eq!(read_into(&mut r, &mut buf, data.len()).unwrap(), data.len());
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        assert_eq!(buf, data);
        // Nothing is read past `want`.
        let mut r = Dribble(&data, 7);
        let mut few = Vec::new();
        assert_eq!(read_into(&mut r, &mut few, 10).unwrap(), 10);
        assert_eq!(r.0.len(), data.len() - 10);
    }

    #[test]
    fn read_frame_into_reuses_the_body_buffer() {
        let big = vec![7u8; 100_000];
        let mut stream = frame_bytes(0, &big);
        stream.extend_from_slice(&frame_bytes(0, b"small"));
        let mut cursor = Dribble(&stream, 4096);
        let FrameRead::Frame(first) =
            read_frame_into(&mut cursor, DEFAULT_MAX_FRAME_BYTES, Vec::new()).unwrap()
        else {
            panic!("first frame");
        };
        assert_eq!(first.body, big);
        let ptr = first.body.as_ptr();
        let FrameRead::Frame(second) =
            read_frame_into(&mut cursor, DEFAULT_MAX_FRAME_BYTES, first.body).unwrap()
        else {
            panic!("second frame");
        };
        assert_eq!(second.body, b"small");
        assert_eq!(second.body.as_ptr(), ptr, "the buffer was reused");
        // A body cut short is an error, not a short frame.
        let torn = &frame_bytes(0, &big)[..5000];
        assert!(read_frame(&mut Dribble(torn, 512), DEFAULT_MAX_FRAME_BYTES).is_err());
    }

    #[test]
    fn retryable_errors_are_exactly_the_transient_ones() {
        for v in 1..=10u8 {
            let code = ErrorCode::from_u8(v).unwrap();
            let transient = matches!(
                code,
                ErrorCode::Overloaded
                    | ErrorCode::DeadlineExceeded
                    | ErrorCode::Internal
                    | ErrorCode::NoSession
            );
            assert_eq!(code.is_retryable(), transient, "{code:?}");
        }
    }

    #[test]
    fn peek_take_mirror_the_blocking_reader() {
        let mut buf = frame_bytes(Opcode::Rotate as u8, b"body bytes");
        buf.extend_from_slice(&frame_bytes(Opcode::Add as u8, b"x"));

        // Every prefix short of the first frame is Incomplete.
        let first_len = 6 + b"body bytes".len();
        for cut in 0..first_len {
            assert_eq!(
                peek_frame(&buf[..cut], 1024),
                FrameStatus::Incomplete,
                "cut {cut}"
            );
        }
        assert_eq!(
            peek_frame(&buf, 1024),
            FrameStatus::Ready {
                wire_len: first_len
            }
        );
        let f = take_frame(&mut buf);
        assert_eq!(f.version, PROTOCOL_VERSION);
        assert_eq!(f.tag, Opcode::Rotate as u8);
        assert_eq!(f.body, b"body bytes");
        // The second frame is now at the front, intact.
        let f = take_frame(&mut buf);
        assert_eq!(f.tag, Opcode::Add as u8);
        assert_eq!(f.body, b"x");
        assert!(buf.is_empty());
        assert_eq!(peek_frame(&buf, 1024), FrameStatus::Incomplete);
    }

    #[test]
    fn peek_flags_oversize_and_corrupt_lengths() {
        let mut oversize = Vec::new();
        oversize.extend_from_slice(&u32::MAX.to_le_bytes());
        oversize.extend_from_slice(&[PROTOCOL_VERSION, 0x10]);
        assert_eq!(peek_frame(&oversize, 1024), FrameStatus::TooLarge(u32::MAX));
        // A length below the 2-byte header can never frame anything.
        let corrupt = 1u32.to_le_bytes();
        assert_eq!(peek_frame(&corrupt, 1024), FrameStatus::Corrupt);
    }

    #[test]
    fn body_reader_fails_closed_on_underrun() {
        let mut w = BodyWriter::new();
        w.u64(7).blob(b"abc").i64(-2).f64(0.5);
        let bytes = w.0.clone();
        // A blob written in place frames the same bytes as one copied in.
        let mut in_place = BodyWriter::new();
        in_place
            .u64(7)
            .blob_with(|out| out.extend_from_slice(b"abc"))
            .i64(-2)
            .f64(0.5);
        assert_eq!(in_place.0, bytes);
        let mut r = BodyReader::new(&bytes);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.blob(), Some(&b"abc"[..]));
        assert_eq!(r.i64(), Some(-2));
        assert_eq!(r.f64(), Some(0.5));
        assert!(r.is_empty());
        // Truncate anywhere: reads return None, never panic.
        for cut in 0..bytes.len() {
            let mut r = BodyReader::new(&bytes[..cut]);
            let _ = r.u64();
            let _ = r.blob();
            let _ = r.i64();
            let _ = r.f64();
        }
    }

    mod codec {
        use super::*;
        use ckks::serialize::{
            deserialize_ciphertext, deserialize_plaintext, serialize_ciphertext,
            serialize_plaintext,
        };
        use ckks::{CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator};
        use fhe_program::program::{CtDecl, MatDecl, PtDecl};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        /// One value of every operand kind an evaluation body carries.
        struct Operands {
            ctx: Arc<CkksContext>,
            ct: Ciphertext,
            other: Ciphertext,
            pt: Plaintext,
            lt: LinearTransform,
            prog: Program,
            inputs: ExecInputs,
        }

        fn operands() -> Operands {
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
            let mut rng = StdRng::seed_from_u64(5);
            let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
            let pt = Encoder::new(ctx.clone())
                .encode(&[Complex::new(0.5, -0.25)], 3, ctx.params().scale())
                .unwrap();
            let encryptor = Encryptor::new(ctx.clone());
            let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
            let other = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
            let diagonal = |d: usize| -> Vec<Complex> {
                let value = |i: usize| Complex::new(i as f64, -(d as f64));
                (0..slots).map(value).collect()
            };
            let diagonals = [1, 2, 5].into_iter().map(|d| (d, diagonal(d)));
            let lt = LinearTransform::from_diagonals(diagonals.collect(), slots);
            let decl = |name: &str| CtDecl {
                name: name.into(),
                level: 3,
            };
            let prog = Program {
                name: "codec".into(),
                ct_inputs: vec![decl("x"), decl("y")],
                pt_inputs: vec![PtDecl { name: "w".into() }],
                matrices: vec![MatDecl {
                    name: "m".into(),
                    slots,
                    offsets: lt.offsets(),
                }],
                ..Program::default()
            };
            let mut inputs = ExecInputs::default();
            inputs.cts.insert("x".into(), ct.clone());
            inputs.cts.insert("y".into(), other.clone());
            inputs.pts.insert("w".into(), diagonal(7)[..3].to_vec());
            inputs.mats.insert("m".into(), lt.clone());
            Operands {
                ctx,
                ct,
                other,
                pt,
                lt,
                prog,
                inputs,
            }
        }

        /// A request of every evaluation opcode.
        fn calls(o: &Operands) -> Vec<Call<'_>> {
            let inputs = ProgramInputs::bind(&o.prog, &o.inputs).expect("every input bound");
            vec![
                Call::Add(&o.ct, &o.other),
                Call::PtMult(&o.ct, &o.pt),
                Call::Mult(&o.other, &o.ct),
                Call::Rotate(-3, &o.ct),
                Call::Rescale(&o.other),
                Call::Bsgs(2, &o.lt, &o.ct),
                Call::RunProgram(11, inputs),
            ]
        }

        fn encode(call: &Call<'_>) -> (Opcode, Vec<u8>) {
            let mut w = BodyWriter::new();
            call.encode(42, &mut w);
            (call.op(), w.0)
        }

        fn slot_bytes(values: &[Complex]) -> Vec<u8> {
            let mut w = BodyWriter::new();
            w.slots(values);
            w.0
        }

        /// For every evaluation opcode, the decoder reads back the session
        /// id, the scalars and every operand's bytes the encoder wrote.
        #[test]
        fn what_a_client_encodes_the_server_decodes() {
            let o = operands();
            let slots = o.ctx.params().slots();
            let (ct, other) = (serialize_ciphertext(&o.ct), serialize_ciphertext(&o.other));
            let pt = serialize_plaintext(&o.pt);
            let diagonals: Vec<(usize, Vec<u8>)> =
                o.lt.offsets()
                    .into_iter()
                    .map(|d| (d, slot_bytes(o.lt.diagonal(d).unwrap())))
                    .collect();
            let mut ops = Vec::new();
            for call in calls(&o) {
                let (op, body) = encode(&call);
                ops.push(op);
                let (sid, fields) = split_session(&body).unwrap();
                assert_eq!(sid, 42);
                let decoded = Request::decode(op, fields, slots).unwrap();
                let want = match call {
                    Call::Add(..) => Request::Add(&ct, &other),
                    Call::PtMult(..) => Request::PtMult(&ct, &pt),
                    Call::Mult(..) => Request::Mult(&other, &ct),
                    Call::Rotate(..) => Request::Rotate(-3, &ct),
                    Call::Rescale(..) => Request::Rescale(&other),
                    Call::Bsgs(..) => {
                        let diagonals = diagonals.iter().map(|(d, v)| (*d, &v[..]));
                        Request::Bsgs(2, diagonals.collect(), &ct)
                    }
                    Call::RunProgram(..) => {
                        let Request::RunProgram(pid, section) = decoded else {
                            panic!("{decoded:?}");
                        };
                        assert_eq!(pid, 11);
                        let inputs = ProgramInputs::decode(&o.prog, slots, section).unwrap();
                        assert_eq!(inputs.cts, [&ct[..], &other[..]]);
                        assert_eq!(slot_values(inputs.pts[0]), o.inputs.pts["w"]);
                        assert_eq!(inputs.pts.len(), 1);
                        let mats: Vec<&[u8]> = diagonals.iter().map(|(_, v)| &v[..]).collect();
                        assert_eq!(inputs.mats, [mats]);
                        continue;
                    }
                };
                assert_eq!(decoded, want);
            }
            use Opcode::*;
            assert_eq!(ops, [Add, PtMult, Mult, Rotate, Rescale, Bsgs, RunProgram]);
        }

        /// Whether `body` decodes whole: its fields, a program's inputs and
        /// every ciphertext and plaintext in them.
        fn decodes(o: &Operands, op: Opcode, body: &[u8]) -> bool {
            let slots = o.ctx.params().slots();
            let ct = |b: &[u8]| deserialize_ciphertext(&o.ctx, b).is_ok();
            let fields = split_session(body).map(|(_, fields)| fields);
            let Some(req) = fields.and_then(|f| Request::decode(op, f, slots)) else {
                return false;
            };
            match req {
                Request::Add(a, b) | Request::Mult(a, b) => ct(a) && ct(b),
                Request::PtMult(a, p) => ct(a) && deserialize_plaintext(&o.ctx, p).is_ok(),
                Request::Rotate(_, a) | Request::Rescale(a) | Request::Bsgs(.., a) => ct(a),
                Request::RunProgram(_, section) => {
                    let inputs = ProgramInputs::decode(&o.prog, slots, section);
                    inputs.is_some_and(|inputs| inputs.cts.into_iter().all(ct))
                }
            }
        }

        /// Every strict prefix of a valid body is refused — by the codec,
        /// or by the operand it cut short — and none panics.
        #[test]
        fn every_strict_prefix_of_a_body_fails_to_decode() {
            let o = operands();
            for call in calls(&o) {
                let (op, body) = encode(&call);
                assert!(decodes(&o, op, &body), "{op:?}");
                for cut in 0..body.len() {
                    assert!(!decodes(&o, op, &body[..cut]), "{op:?} cut at {cut}");
                }
            }
        }

        /// A `RunProgram` whose inputs leave a declaration unbound or
        /// mis-shaped fails client-side, and one with bytes behind its
        /// inputs does not decode.
        #[test]
        fn program_inputs_bind_every_declaration_exactly() {
            let o = operands();
            let bind = |inputs: &ExecInputs| ProgramInputs::bind(&o.prog, inputs).err();
            let mut partial = o.inputs.clone();
            partial.mats.clear();
            assert_eq!(bind(&partial).unwrap(), "input `m` not bound");
            let mut narrow = o.inputs.clone();
            let diagonals = [(1, vec![Complex::new(1.0, 0.0); 3])].into_iter().collect();
            narrow
                .mats
                .insert("m".into(), LinearTransform::from_diagonals(diagonals, 3));
            assert_eq!(bind(&narrow).unwrap(), "matrix `m` is mis-shaped");
            let (op, mut trailing) = encode(&calls(&o)[6]);
            trailing.push(0);
            assert!(!decodes(&o, op, &trailing));
        }
    }
}
