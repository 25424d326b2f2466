//! The wire protocol: length-prefixed JSON frames.
//!
//! Each message is one frame — a big-endian `u32` byte count followed by
//! that many bytes of UTF-8 JSON — written once, prefix and payload, into
//! a buffer its connection keeps, and sent in **one** write. The JSON side
//! is the workspace's one codec, `perforad_obs::json`: it parses every
//! frame and prints every scalar and string, and the typed writers here
//! lay the envelope out around the hex bulk arrays only this module
//! writes.
//!
//! Floats cross the wire **bitwise-intact**, the property `tests/serve.rs`
//! pins, in one of two forms. A *bulk array* (a source trace, a grid, a
//! gradient) is written as one JSON string of 16 lowercase hex digits per
//! value — the IEEE-754 bits, `"3ff0000000000000"` is `[1.0]` — which is
//! 16 bytes per value and costs little more than copying them. On x86-64
//! one SSE2 register holds a value's 16 digits: nibbles split and
//! interleaved on the way out; on the way in nibbles computed, written
//! back as digits and compared with the input, then packed (`to_json` ≈ 2
//! and `from_json` ≈ 5 ns a value on a 2.1 GHz core, parsing included;
//! the scalar codec, the path on other targets, 3 and 7; a digit at a
//! time was 15 and 17). The reader also accepts the plain JSON number
//! array a hand-written client sends (`[1.0]`); there is no version field
//! and no negotiation, the two forms are told apart by their JSON type. A
//! *scalar* (`misfit`, `d`) is a JSON number printed with Rust's
//! `Display`, the shortest string that parses back to the same bits.
//! Non-finite values are rejected in either form.
//!
//! Malformed input never panics the peer: an oversized or non-UTF-8
//! frame is an `io::Error` (the server drops the connection), and a
//! well-framed but unparseable or unknown-typed payload earns a
//! [`Reply::Error`] on the same connection. A frame's buffer grows as its
//! bytes arrive, never on the length prefix alone.

use perforad_obs::json::{self, push_num, push_str, Value};
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

/// Hard cap on one frame (64 MiB); a longer length prefix is corrupt or
/// hostile and is rejected before anything is read. At 16 wire bytes per
/// value a frame holds one bulk array of about 161³ values
/// (`MAX_FRAME_VALUES`) — a 512³ grid would be 2 GiB — so the engine
/// refuses at `Compile` any grid whose gradient reply could not be framed.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// Wire bytes per bulk-array value: 16 hex digits.
const HEX_PER_VALUE: usize = 16;
const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The longest bulk `f64` array one frame carries, leaving 64 KiB for the
/// envelope around it (field names, scalars, a trace rollup).
pub(crate) const MAX_FRAME_VALUES: usize = (MAX_FRAME - (64 << 10)) / HEX_PER_VALUE;

/// What a frame's payload buffer holds before any byte of it has arrived;
/// past that it grows no faster than the payload does (at most twice what
/// has come), so a peer that announces `MAX_FRAME` and stalls costs this,
/// not 64 MiB.
const FIRST_READ: usize = 64 << 10;

/// The most a connection keeps between frames in each of its buffers: one
/// that grew past it for a longer frame is freed once that frame is
/// handled, so an idle connection holds no grid-sized reply.
const KEEP: usize = 1 << 20;

/// Free `buf` if a frame grew it past [`KEEP`]; a connection calls this
/// when it is done with a frame.
pub(crate) fn release_if_long(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP {
        *buf = Vec::new();
    }
}

fn oversize(len: usize) -> String {
    format!(
        "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes, about \
         {MAX_FRAME_VALUES} array values at {HEX_PER_VALUE} bytes each)"
    )
}

/// Fill in the length prefix of `frame` — `PREFIX` placeholder bytes,
/// then the payload; an oversized payload is refused before anything is
/// written.
fn framed(frame: &mut [u8]) -> io::Result<()> {
    let len = frame.len() - PREFIX;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, oversize(len)));
    }
    // `MAX_FRAME` fits a `u32`.
    frame[..PREFIX].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Send a whole frame and flush. Prefix and payload leave in one
/// `write_all`: on a stream socket two writes wake the peer for four
/// bytes, and on TCP the second waits out the first's delayed ACK.
pub(crate) fn send_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Write one `u32`-BE length-prefixed frame around `payload` and flush,
/// in one write. The typed messages frame themselves (`frame_into`); this
/// is for a payload written by hand.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(PREFIX + payload.len());
    frame.extend_from_slice(&[0; PREFIX]);
    frame.extend_from_slice(payload.as_bytes());
    framed(&mut frame)?;
    send_frame(w, &frame)
}

/// Read one frame's length prefix and its payload into `buf[..len]`, and
/// return `len`. `buf` only grows, so a connection that keeps one reads a
/// frame in place once it has held one as long. It grows as the payload
/// arrives, from [`FIRST_READ`] bytes: a truncated frame holds at most
/// that or twice what it sent. Errors on EOF mid-frame (truncation) or an
/// oversized length prefix.
fn read_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut len = [0u8; PREFIX];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, oversize(len)));
    }
    let mut filled = 0;
    while filled < len {
        if buf.len() == filled {
            buf.resize(len.min(FIRST_READ.max(2 * filled)), 0);
        }
        let end = len.min(buf.len());
        r.read_exact(&mut buf[filled..end])?;
        filled = end;
    }
    Ok(len)
}

fn not_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")
}

/// Read one frame into `buf`, a buffer the connection owns and reuses,
/// and return its payload; errors as [`read_frame`].
pub(crate) fn read_payload<'b, R: Read>(r: &mut R, buf: &'b mut Vec<u8>) -> io::Result<&'b str> {
    let len = read_into(r, buf)?;
    std::str::from_utf8(&buf[..len]).map_err(|_| not_utf8())
}

/// Read one frame; errors on EOF mid-frame (truncation), an oversized
/// length prefix, or non-UTF-8 payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<String> {
    let mut buf = Vec::new();
    let len = read_into(r, &mut buf)?;
    buf.truncate(len);
    String::from_utf8(buf).map_err(|_| not_utf8())
}

/// A client request. On the wire: an object whose `"type"` field selects
/// the variant (`"compile"`, `"gradient"`, `"gradient_batch"`, `"stats"`,
/// `"shutdown"`).
#[derive(Clone, Debug)]
pub enum Request {
    Compile(CompileRequest),
    Gradient(GradientRequest),
    GradientBatch(BatchRequest),
    Stats,
    Shutdown,
}

/// `Compile` payload: the seismic driver (warm up a
/// [`perforad_pde::seismic::BatchPlan`] — adjoint transform, autotune,
/// JIT, checkpoint budget — and keep it keyed by fingerprint). Any other
/// `"kernel"` on the wire is refused by name.
#[derive(Clone, Debug)]
pub enum CompileRequest {
    Seismic {
        /// Grid edge (the domain is `n³`).
        n: usize,
        /// Time steps per shot.
        steps: usize,
        /// `(dt/dx)²`.
        d: f64,
        /// Row-major `n³` velocity model; defaults to a uniform medium.
        /// A repeat `Compile` with the same shape and a fresh model swaps
        /// the grid into the cached plan without recompiling.
        c: Option<Vec<f64>>,
        /// Explicit snapshot budget for checkpointed sweeps
        /// (tuner-chosen when absent).
        budget: Option<usize>,
        /// Force checkpointed (`true`) / store-all (`false`) sweeps;
        /// absent applies the step-count threshold rule.
        checkpointed: Option<bool>,
    },
}

/// `Gradient` payload: one shot against a compiled fingerprint.
#[derive(Clone, Debug)]
pub struct GradientRequest {
    /// Hex fingerprint from a prior `Compiled` reply.
    pub fingerprint: String,
    /// Source wavelet, one sample per time step.
    pub source: Vec<f64>,
    /// Observed data, row-major `n³`.
    pub observed: Vec<f64>,
    /// Time budget for this request, measured from server receipt. A
    /// request still *queued* when its budget runs out earns an error
    /// reply instead of a stale gradient (a running sweep is never
    /// interrupted — the check sits between queue and run).
    pub deadline_ms: Option<u64>,
    /// Ask the server to trace this request and return a per-request
    /// [`TraceReport`](perforad_obs::TraceReport) rollup in the reply's
    /// `trace` field. Absent on the wire means `false`; tracing changes
    /// timing only, never the gradient bits.
    pub trace: bool,
}

/// `GradientBatch` payload: a whole survey against one fingerprint.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    pub fingerprint: String,
    /// `(source, observed)` per shot.
    pub shots: Vec<(Vec<f64>, Vec<f64>)>,
    /// Same queue-side time budget as [`GradientRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Same per-request trace rollup opt-in as [`GradientRequest::trace`].
    pub trace: bool,
}

/// A server reply; `"type"` selects the variant, `"error"` carries a
/// message instead of panicking the connection.
#[derive(Clone, Debug)]
pub enum Reply {
    Compiled(CompiledReply),
    Gradient(GradientReply),
    GradientBatch(BatchReply),
    /// The full stats object, kept as parsed JSON — callers navigate
    /// `metrics.counters.*`, `kernels[..]`, `queue_depth` directly.
    Stats(Value),
    Ok,
    /// Admission control turned the request away: the run queue (or the
    /// connection table) is full. Nothing was executed; retry after the
    /// suggested delay. The typed client's retry policy handles this
    /// automatically.
    Busy {
        retry_after_ms: u64,
    },
    Error(String),
}

/// Outcome of a `Compile`.
#[derive(Clone, Debug)]
pub struct CompiledReply {
    /// Hex id to present in `Gradient`/`GradientBatch` requests.
    pub fingerprint: String,
    /// Whether this fingerprint was already warm (no transform, no
    /// tuning, no compile performed).
    pub cached: bool,
    /// Adjoint loop nests behind the schedule.
    pub nests: usize,
    /// `TunedConfig::describe()` of the schedule serving this kernel
    /// (seismic kernels only).
    pub config: Option<String>,
    /// Whether shots run the bounded-memory checkpointed sweep.
    pub checkpointed: Option<bool>,
    /// Snapshot budget for checkpointed sweeps.
    pub budget: Option<usize>,
}

/// Outcome of a single-shot `Gradient`.
#[derive(Clone, Debug)]
pub struct GradientReply {
    pub misfit: f64,
    /// `∂J/∂c`, row-major `n³`, bitwise-identical to the in-process call.
    pub gradient: Vec<f64>,
    pub checkpointed: bool,
    /// Server-assigned request id (sequential per daemon, never 0). The
    /// same id stamps this request's spans, appears in flight-recorder
    /// dumps, and keys the `trace` rollup — quote it when reporting a
    /// slow or degraded request.
    pub request_id: u64,
    /// Per-request trace rollup (`wall_ns`/`phases`/`top_spans`, plus
    /// `request_id`), present when the request set `trace: true`.
    pub trace: Option<Value>,
}

/// Outcome of a `GradientBatch`.
#[derive(Clone, Debug)]
pub struct BatchReply {
    pub misfits: Vec<f64>,
    pub gradients: Vec<Vec<f64>>,
    /// The dispatch strategy that actually ran (`"ShotParallel"` /
    /// `"GridParallel"`).
    pub strategy: String,
    /// Same server-assigned id as [`GradientReply::request_id`].
    pub request_id: u64,
    /// Same opt-in rollup as [`GradientReply::trace`].
    pub trace: Option<Value>,
}

// ---------------------------------------------------------------------
// JSON writing. Scalar f64s go through `json::push_num`: Display's
// shortest round-trip form, so finite values survive the wire bit-for-bit;
// a non-finite scalar becomes null (the reader rejects it). Bulk arrays go
// out as hex bits, written as bytes into the frame itself.

/// A payload as it is written, into the buffer that becomes the frame:
/// the envelope through `fmt::Write` (scalars and strings by
/// `perforad_obs::json`), bulk arrays as hex digits straight into the
/// bytes. Every byte it writes is ASCII or comes from a `&str`.
struct Payload(Vec<u8>);

impl fmt::Write for Payload {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push(s);
        Ok(())
    }
}

impl Payload {
    /// `buf`, emptied, holding `prefix` placeholder bytes and sized up
    /// front — at most one allocation per frame, none when a kept buffer
    /// is long enough — for bulk arrays of the given lengths plus an
    /// envelope of field names and scalars (a trace rollup may still grow
    /// it).
    fn new(
        mut buf: Vec<u8>,
        prefix: usize,
        array_lens: impl IntoIterator<Item = usize>,
    ) -> Payload {
        let arrays: usize = array_lens
            .into_iter()
            .map(|values| HEX_PER_VALUE * values + 32)
            .sum();
        buf.clear();
        buf.reserve(prefix + 256 + arrays);
        buf.resize(prefix, 0);
        Payload(buf)
    }

    fn push(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    /// `key` (the field's name and colon, written as is), then `v` as its
    /// `Display` prints it: an integer, a bool, a JSON `Value`.
    fn field(&mut self, key: &str, v: impl fmt::Display) {
        self.push(key);
        let _ = write!(self, "{v}");
    }

    /// One JSON string, 16 lowercase hex digits (the IEEE-754 bits, most
    /// significant first) per value. Non-finite values are written as
    /// they are; [`f64_array`] refuses them on the way in.
    fn hex_array(&mut self, xs: &[f64]) {
        self.0.push(b'"');
        hex::push_digits(&mut self.0, xs);
        self.0.push(b'"');
    }
}

/// The payload bytes `write` lays out, as the text `to_json` returns.
fn text(payload: Payload) -> String {
    String::from_utf8(payload.0).expect("a payload is ASCII and copied `&str`s")
}

impl Request {
    /// The JSON payload: exactly the bytes its frame carries behind the
    /// length prefix.
    pub fn to_json(&self) -> String {
        text(self.write(Vec::new(), 0))
    }

    /// Write the whole frame, prefix and payload, as it goes on the wire
    /// into `buf` (a buffer the connection keeps), over what it held;
    /// refused when the payload is over `MAX_FRAME`.
    pub(crate) fn frame_into(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        *buf = self.write(std::mem::take(buf), PREFIX).0;
        framed(buf)
    }

    fn write(&self, buf: Vec<u8>, prefix: usize) -> Payload {
        let mut o = match self {
            Request::Compile(CompileRequest::Seismic { c: Some(c), .. }) => {
                Payload::new(buf, prefix, [c.len()])
            }
            Request::Gradient(g) => Payload::new(buf, prefix, [g.source.len(), g.observed.len()]),
            Request::GradientBatch(b) => Payload::new(
                buf,
                prefix,
                b.shots.iter().flat_map(|(s, o)| [s.len(), o.len()]),
            ),
            _ => Payload::new(buf, prefix, []),
        };
        match self {
            Request::Compile(CompileRequest::Seismic {
                n,
                steps,
                d,
                c,
                budget,
                checkpointed,
            }) => {
                o.field("{\"type\":\"compile\",\"kernel\":\"seismic\",\"n\":", n);
                o.field(",\"steps\":", steps);
                o.push(",\"d\":");
                push_num(&mut o, *d);
                if let Some(c) = c {
                    o.push(",\"c\":");
                    o.hex_array(c);
                }
                if let Some(b) = budget {
                    o.field(",\"budget\":", b);
                }
                if let Some(ck) = checkpointed {
                    o.field(",\"checkpointed\":", ck);
                }
                o.push("}");
            }
            Request::Gradient(g) => {
                o.push("{\"type\":\"gradient\",\"fingerprint\":");
                push_str(&mut o, &g.fingerprint);
                o.push(",\"source\":");
                o.hex_array(&g.source);
                o.push(",\"observed\":");
                o.hex_array(&g.observed);
                if let Some(ms) = g.deadline_ms {
                    o.field(",\"deadline_ms\":", ms);
                }
                if g.trace {
                    o.push(",\"trace\":true");
                }
                o.push("}");
            }
            Request::GradientBatch(b) => {
                o.push("{\"type\":\"gradient_batch\",\"fingerprint\":");
                push_str(&mut o, &b.fingerprint);
                o.push(",\"shots\":[");
                for (i, (src, obs)) in b.shots.iter().enumerate() {
                    if i > 0 {
                        o.push(",");
                    }
                    o.push("{\"source\":");
                    o.hex_array(src);
                    o.push(",\"observed\":");
                    o.hex_array(obs);
                    o.push("}");
                }
                o.push("]");
                if let Some(ms) = b.deadline_ms {
                    o.field(",\"deadline_ms\":", ms);
                }
                if b.trace {
                    o.push(",\"trace\":true");
                }
                o.push("}");
            }
            Request::Stats => o.push("{\"type\":\"stats\"}"),
            Request::Shutdown => o.push("{\"type\":\"shutdown\"}"),
        }
        o
    }

    /// Decode a request frame. Every failure is a message for a
    /// [`Reply::Error`], never a panic.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = json::parse(payload).map_err(|e| format!("bad request JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("request has no string \"type\" field")?;
        match ty {
            "compile" => decode_compile(&v).map(Request::Compile),
            "gradient" => Ok(Request::Gradient(GradientRequest {
                fingerprint: req_str(&v, "fingerprint")?,
                source: req_f64_array(&v, "source")?,
                observed: req_f64_array(&v, "observed")?,
                deadline_ms: opt_uint(&v, "deadline_ms")?,
                trace: opt_bool(&v, "trace")?,
            })),
            "gradient_batch" => {
                let fingerprint = req_str(&v, "fingerprint")?;
                let shots = v
                    .get("shots")
                    .and_then(Value::as_array)
                    .ok_or("gradient_batch needs a \"shots\" array")?;
                let mut out = Vec::with_capacity(shots.len());
                for s in shots {
                    out.push((req_f64_array(s, "source")?, req_f64_array(s, "observed")?));
                }
                Ok(Request::GradientBatch(BatchRequest {
                    fingerprint,
                    shots: out,
                    deadline_ms: opt_uint(&v, "deadline_ms")?,
                    trace: opt_bool(&v, "trace")?,
                }))
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

fn decode_compile(v: &Value) -> Result<CompileRequest, String> {
    let kernel = v
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or("compile needs a string \"kernel\" field")?;
    match kernel {
        "seismic" => Ok(CompileRequest::Seismic {
            n: opt_uint(v, "n")?.ok_or("missing non-negative integer field \"n\"")?,
            steps: opt_uint(v, "steps")?.ok_or("missing non-negative integer field \"steps\"")?,
            d: v.get("d")
                .and_then(finite)
                .ok_or("compile seismic needs a finite number \"d\"")?,
            c: match v.get("c") {
                None | Some(Value::Null) => None,
                Some(c) => Some(f64_array(c).ok_or("\"c\" must be an array of numbers")?),
            },
            budget: opt_uint(v, "budget")?,
            checkpointed: match v.get("checkpointed") {
                None | Some(Value::Null) => None,
                Some(b) => Some(b.as_bool().ok_or("\"checkpointed\" must be a bool")?),
            },
        }),
        other => Err(format!("unknown compile kernel {other:?}")),
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string field \"{key}\""))
}

/// A non-negative integer field that fits `T` (absent or `null` →
/// `None`). A number outside `0..=2⁵³` is refused by name, not saturated.
fn opt_uint<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_uint()
            .map(Some)
            .ok_or(format!("\"{key}\" must be a non-negative integer")),
    }
}

/// Absent or `null` means `false` — old clients never send the field.
fn opt_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(b) => b.as_bool().ok_or(format!("\"{key}\" must be a bool")),
    }
}

/// A structured optional field (absent or `null` → `None`).
fn opt_value(v: &Value, key: &str) -> Option<Value> {
    match v.get(key) {
        None | Some(Value::Null) => None,
        Some(t) => Some(t.clone()),
    }
}

/// The bits 16 digits spell, `None` for any digit outside `0-9a-f`.
fn hex_value(digits: &[u8; HEX_PER_VALUE]) -> Option<u64> {
    hex::value(digits)
}

// ---------------------------------------------------------------------
// The bulk-array codec, one per target: SSE2, which every x86-64 target
// has, and the scalar codec everywhere else. `hex` is the one this target
// runs. The scalar codec is compiled on every target, so the tests hold
// the two to each other and to a digit-at-a-time reference.

#[cfg(not(target_arch = "x86_64"))]
use portable as hex;
#[cfg(target_arch = "x86_64")]
use sse2 as hex;

/// The scalar codec: a byte → two-digit table on the way out, eight
/// digits per `u64` decoded in registers on the way in.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod portable {
    use super::{DIGITS, HEX_PER_VALUE};

    /// `HEX[b]` is byte `b` as two lowercase hex digits.
    const HEX: [[u8; 2]; 256] = {
        let mut table = [[0_u8; 2]; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
            b += 1;
        }
        table
    };

    /// Append 16 digits per value of `xs` to `out`.
    pub(super) fn push_digits(out: &mut Vec<u8>, xs: &[f64]) {
        let start = out.len();
        out.resize(start + HEX_PER_VALUE * xs.len(), 0);
        for (digits, v) in out[start..].chunks_exact_mut(HEX_PER_VALUE).zip(xs) {
            for (pair, byte) in digits.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
                pair.copy_from_slice(&HEX[byte as usize]);
            }
        }
    }

    /// The value of eight hex digits at once (`word` holds them, the first
    /// in its top byte); `None` unless each is in `0-9a-f`. A digit's value
    /// is its low nibble, plus 9 for a letter (bit 6). Every byte yields
    /// *some* nibble that way, so the nibbles are written back as digits
    /// and compared with the input — only what this codec writes survives
    /// — before three shift-and-mask rounds close the gaps between them.
    /// No sum leaves its byte.
    fn word(word: u64) -> Option<u64> {
        const ONES: u64 = 0x0101_0101_0101_0101;
        let letters = (word >> 6) & ONES;
        let nibbles = ((word & (0x0f * ONES)) + 9 * letters) & (0x0f * ONES);
        let past_nine = ((nibbles + 6 * ONES) >> 4) & ONES;
        if nibbles + u64::from(b'0') * ONES + u64::from(b'a' - b'9' - 1) * past_nine != word {
            return None;
        }
        let bytes = (nibbles | nibbles >> 4) & 0x00ff_00ff_00ff_00ff;
        let halves = (bytes | bytes >> 8) & 0x0000_ffff_0000_ffff;
        Some((halves | halves >> 16) & 0xffff_ffff)
    }

    /// The bits 16 digits spell, `None` for any digit outside `0-9a-f`.
    pub(super) fn value(digits: &[u8; HEX_PER_VALUE]) -> Option<u64> {
        let (hi, lo) = digits.split_at(8);
        let half = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight digits"));
        Some(word(half(hi))? << 32 | word(half(lo))?)
    }
}

/// The SSE2 codec: one value's 16 digits are one register, written with
/// one store and read with one load.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::HEX_PER_VALUE;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi8, _mm_and_si128, _mm_cmpeq_epi8, _mm_cmpgt_epi8, _mm_cvtsi128_si64,
        _mm_cvtsi64_si128, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_packus_epi16,
        _mm_set1_epi16, _mm_set1_epi8, _mm_slli_epi16, _mm_srli_epi16, _mm_storeu_si128,
        _mm_unpacklo_epi8,
    };

    /// Each byte of `nibbles` (each 0–15) as its lowercase hex digit:
    /// `'0'` plus the nibble, plus `'a' − '0' − 10` past nine.
    #[inline(always)]
    fn ascii(nibbles: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of every x86-64 target, and no operand is memory.
        unsafe {
            let past_nine = _mm_cmpgt_epi8(nibbles, _mm_set1_epi8(9));
            let letters = _mm_and_si128(past_nine, _mm_set1_epi8((b'a' - b'0' - 10) as i8));
            _mm_add_epi8(_mm_add_epi8(nibbles, _mm_set1_epi8(b'0' as i8)), letters)
        }
    }

    /// The 16 digits of `bits`, most significant first: its bytes in
    /// big-endian order, each split into its high and low nibble, the
    /// nibbles interleaved.
    #[inline(always)]
    fn digits(bits: u64) -> __m128i {
        // SAFETY: SSE2 is part of every x86-64 target, and no operand is memory.
        unsafe {
            let bytes = _mm_cvtsi64_si128(bits.swap_bytes() as i64);
            let low = _mm_set1_epi8(0x0f);
            let high = _mm_and_si128(_mm_srli_epi16(bytes, 4), low);
            ascii(_mm_unpacklo_epi8(high, _mm_and_si128(bytes, low)))
        }
    }

    /// Append 16 digits per value of `xs` to `out`.
    pub(super) fn push_digits(out: &mut Vec<u8>, xs: &[f64]) {
        let start = out.len();
        out.resize(start + HEX_PER_VALUE * xs.len(), 0);
        for (dst, v) in out[start..].chunks_exact_mut(HEX_PER_VALUE).zip(xs) {
            let d = digits(v.to_bits());
            // SAFETY: `dst` is 16 writable bytes, the width of one unaligned store.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), d) };
        }
    }

    /// The bits 16 digits spell, `None` for any digit outside `0-9a-f`. A
    /// digit's nibble is its low four bits, after adding 9 to a byte past
    /// `'9'` (a letter). Every byte yields *some* nibble that way, so the
    /// nibbles are written back as digits and compared with the input —
    /// only what this codec writes gets through — before each pair is
    /// packed into its byte.
    pub(super) fn value(hex: &[u8; HEX_PER_VALUE]) -> Option<u64> {
        // SAFETY: `hex` is 16 readable bytes, the width of one unaligned load.
        let x = unsafe { _mm_loadu_si128(hex.as_ptr().cast()) };
        // SAFETY: SSE2 is part of every x86-64 target, and no operand is memory.
        unsafe {
            let letters = _mm_cmpgt_epi8(x, _mm_set1_epi8(b'9' as i8));
            let nine = _mm_and_si128(letters, _mm_set1_epi8(9));
            let nibbles = _mm_and_si128(_mm_add_epi8(x, nine), _mm_set1_epi8(0x0f));
            if _mm_movemask_epi8(_mm_cmpeq_epi8(ascii(nibbles), x)) != 0xffff {
                return None;
            }
            // Lane k of 16 bits holds digit 2k low, digit 2k + 1 high:
            // digit 2k moves up a nibble, 2k + 1 down a byte.
            let pairs = _mm_or_si128(_mm_slli_epi16(nibbles, 4), _mm_srli_epi16(nibbles, 8));
            let pairs = _mm_and_si128(pairs, _mm_set1_epi16(0xff));
            let bytes = _mm_packus_epi16(pairs, pairs);
            Some((_mm_cvtsi128_si64(bytes) as u64).swap_bytes())
        }
    }
}

/// A scalar as the wire admits it: a JSON number that is finite (`1e999`
/// is a JSON number that parses to infinity).
fn finite(v: &Value) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// A bulk array in either wire form: the hex string
/// [`Payload::hex_array`] writes, or a plain array of JSON numbers. `None`
/// for anything else — a hex string of a length not a multiple of 16, a
/// digit outside `0-9a-f` (upper case included), a non-finite value, a
/// non-number item.
fn f64_array(v: &Value) -> Option<Vec<f64>> {
    let hex = match v {
        Value::Str(hex) => hex.as_bytes(),
        other => return other.as_array()?.iter().map(finite).collect(),
    };
    if hex.len() % HEX_PER_VALUE != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / HEX_PER_VALUE);
    for digits in hex.chunks_exact(HEX_PER_VALUE) {
        let bits = hex_value(digits.try_into().expect("sixteen digits"))?;
        out.push(Some(f64::from_bits(bits)).filter(|x| x.is_finite())?);
    }
    Some(out)
}

fn req_f64_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key).and_then(f64_array).ok_or(format!(
        "field \"{key}\" must be an array of finite numbers or a string of \
         16 lowercase hex digits per value"
    ))
}

impl Reply {
    /// The JSON payload: exactly the bytes its frame carries behind the
    /// length prefix.
    pub fn to_json(&self) -> String {
        text(self.write(Vec::new(), 0))
    }

    /// Write the whole frame, prefix and payload, as it goes on the wire
    /// into `buf` (a buffer the connection keeps), over what it held;
    /// refused when the payload is over `MAX_FRAME`.
    pub(crate) fn frame_into(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        *buf = self.write(std::mem::take(buf), PREFIX).0;
        framed(buf)
    }

    fn write(&self, buf: Vec<u8>, prefix: usize) -> Payload {
        let mut o = match self {
            Reply::Gradient(g) => Payload::new(buf, prefix, [g.gradient.len()]),
            Reply::GradientBatch(b) => Payload::new(
                buf,
                prefix,
                b.gradients.iter().map(Vec::len).chain([b.misfits.len()]),
            ),
            _ => Payload::new(buf, prefix, []),
        };
        match self {
            Reply::Compiled(c) => {
                o.push("{\"type\":\"compiled\",\"fingerprint\":");
                push_str(&mut o, &c.fingerprint);
                o.field(",\"cached\":", c.cached);
                o.field(",\"nests\":", c.nests);
                if let Some(cfg) = &c.config {
                    o.push(",\"config\":");
                    push_str(&mut o, cfg);
                }
                if let Some(ck) = c.checkpointed {
                    o.field(",\"checkpointed\":", ck);
                }
                if let Some(b) = c.budget {
                    o.field(",\"budget\":", b);
                }
                o.push("}");
            }
            Reply::Gradient(g) => {
                o.push("{\"type\":\"gradient\",\"misfit\":");
                push_num(&mut o, g.misfit);
                o.push(",\"gradient\":");
                o.hex_array(&g.gradient);
                o.field(",\"checkpointed\":", g.checkpointed);
                o.field(",\"request_id\":", g.request_id);
                if let Some(t) = &g.trace {
                    o.field(",\"trace\":", t);
                }
                o.push("}");
            }
            Reply::GradientBatch(b) => {
                o.push("{\"type\":\"gradient_batch\",\"misfits\":");
                o.hex_array(&b.misfits);
                o.push(",\"gradients\":[");
                for (i, g) in b.gradients.iter().enumerate() {
                    if i > 0 {
                        o.push(",");
                    }
                    o.hex_array(g);
                }
                o.push("],\"strategy\":");
                push_str(&mut o, &b.strategy);
                o.field(",\"request_id\":", b.request_id);
                if let Some(t) = &b.trace {
                    o.field(",\"trace\":", t);
                }
                o.push("}");
            }
            Reply::Stats(v) => {
                o.field("{\"type\":\"stats\",\"stats\":", v);
                o.push("}");
            }
            Reply::Ok => o.push("{\"type\":\"ok\"}"),
            Reply::Busy { retry_after_ms } => {
                o.field("{\"type\":\"busy\",\"retry_after_ms\":", retry_after_ms);
                o.push("}");
            }
            Reply::Error(msg) => {
                o.push("{\"type\":\"error\",\"message\":");
                push_str(&mut o, msg);
                o.push("}");
            }
        }
        o
    }

    pub fn from_json(payload: &str) -> Result<Reply, String> {
        let v = json::parse(payload).map_err(|e| format!("bad reply JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("reply has no string \"type\" field")?;
        match ty {
            "compiled" => Ok(Reply::Compiled(CompiledReply {
                fingerprint: req_str(&v, "fingerprint")?,
                cached: v
                    .get("cached")
                    .and_then(Value::as_bool)
                    .ok_or("compiled reply needs \"cached\"")?,
                nests: opt_uint(&v, "nests")?
                    .ok_or("missing non-negative integer field \"nests\"")?,
                config: v.get("config").and_then(Value::as_str).map(str::to_string),
                checkpointed: v.get("checkpointed").and_then(Value::as_bool),
                budget: opt_uint(&v, "budget")?,
            })),
            "gradient" => Ok(Reply::Gradient(GradientReply {
                misfit: v
                    .get("misfit")
                    .and_then(finite)
                    .ok_or("gradient reply needs a finite number \"misfit\"")?,
                gradient: req_f64_array(&v, "gradient")?,
                checkpointed: v
                    .get("checkpointed")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                request_id: opt_uint(&v, "request_id")?.unwrap_or(0),
                trace: opt_value(&v, "trace"),
            })),
            "gradient_batch" => {
                let gradients = v
                    .get("gradients")
                    .and_then(Value::as_array)
                    .ok_or("gradient_batch reply needs \"gradients\"")?
                    .iter()
                    .map(f64_array)
                    .collect::<Option<Vec<_>>>()
                    .ok_or("\"gradients\" must be arrays of numbers")?;
                Ok(Reply::GradientBatch(BatchReply {
                    misfits: req_f64_array(&v, "misfits")?,
                    gradients,
                    strategy: req_str(&v, "strategy")?,
                    request_id: opt_uint(&v, "request_id")?.unwrap_or(0),
                    trace: opt_value(&v, "trace"),
                }))
            }
            "stats" => Ok(Reply::Stats(v.get("stats").cloned().unwrap_or(Value::Null))),
            "ok" => Ok(Reply::Ok),
            "busy" => Ok(Reply::Busy {
                retry_after_ms: opt_uint(&v, "retry_after_ms")?.unwrap_or(0),
            }),
            "error" => Ok(Reply::Error(req_str(&v, "message")?)),
            other => Err(format!("unknown reply type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_exec::fnv1a64;
    use perforad_obs::fault::xorshift64;

    /// Finite values whose bits a careless writer loses: signed zeros,
    /// non-terminating decimals, both ends of the exponent range,
    /// subnormals.
    const AWKWARD: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        0.1,
        std::f64::consts::PI,
        1e-300,
        -3.9e17,
        f64::MIN_POSITIVE,
        f64::MAX,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
    ];

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The bulk-array writer's bytes (quotes and digits), as text.
    fn push_f64_array(out: &mut String, xs: &[f64]) {
        let mut o = Payload(Vec::new());
        o.hex_array(xs);
        out.push_str(&text(o));
    }

    #[test]
    fn hex_arrays_round_trip_every_bit_pattern() {
        let mut s = String::new();
        push_f64_array(&mut s, &[1.0, -0.0]);
        assert_eq!(s, "\"3ff00000000000008000000000000000\"");

        let mut s = String::new();
        push_f64_array(&mut s, &AWKWARD);
        assert_eq!(s.len(), 16 * AWKWARD.len() + 2, "16 bytes per value");
        let back = f64_array(&json::parse(&s).unwrap()).expect("hex array decodes");
        assert_eq!(bits(&back), bits(&AWKWARD));

        let mut empty = String::new();
        push_f64_array(&mut empty, &[]);
        assert_eq!(empty, "\"\"");
        assert_eq!(f64_array(&json::parse(&empty).unwrap()), Some(vec![]));
    }

    #[test]
    fn decimal_arrays_still_decode_to_the_same_request() {
        let written = Request::Gradient(GradientRequest {
            fingerprint: "ab12".into(),
            source: vec![0.5, -1.25, 0.1],
            observed: AWKWARD.to_vec(),
            deadline_ms: Some(7),
            trace: true,
        });
        // What a hand-written client sends: plain JSON numbers.
        let decimal = |xs: &[f64]| {
            let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", items.join(","))
        };
        let by_hand = format!(
            "{{\"type\":\"gradient\",\"fingerprint\":\"ab12\",\"source\":{},\
             \"observed\":{},\"deadline_ms\":7,\"trace\":true}}",
            decimal(&[0.5, -1.25, 0.1]),
            decimal(&AWKWARD)
        );
        let decode = |json: &str| match Request::from_json(json) {
            Ok(Request::Gradient(g)) => g,
            other => panic!("expected a gradient request, got {other:?}"),
        };
        let (hex, dec) = (decode(&written.to_json()), decode(&by_hand));
        assert_eq!(hex.fingerprint, dec.fingerprint);
        assert_eq!(bits(&hex.source), bits(&dec.source));
        assert_eq!(bits(&hex.observed), bits(&dec.observed));
        assert_eq!(bits(&hex.observed), bits(&AWKWARD));
        assert_eq!((hex.deadline_ms, hex.trace), (dec.deadline_ms, dec.trace));
    }

    #[test]
    fn malformed_hex_arrays_are_errors_not_panics() {
        for (why, observed) in [
            ("odd length", "\"3ff\""),
            ("one digit short", "\"3ff000000000000\""),
            ("not hex", "\"3ff000000000000g\""),
            ("upper case", "\"3FF0000000000000\""),
            ("mixed case", "\"3ff000000000000A\""),
            ("non-ASCII", "\"3ff00000000000é\""),
            ("infinity", "\"7ff0000000000000\""),
            ("NaN", "\"7ff8000000000000\""),
            ("second value bad", "\"3ff0000000000000fff0000000000000\""),
            ("a number", "1.0"),
            ("null in a decimal array", "[1.0,null]"),
            ("infinity in a decimal array", "[1.0,1e999]"),
        ] {
            let frame = format!(
                "{{\"type\":\"gradient\",\"fingerprint\":\"a\",\"source\":[],\
                 \"observed\":{observed}}}"
            );
            let err = Request::from_json(&frame).expect_err(why);
            assert!(err.contains("observed"), "{why}: {err}");
        }
        // The same reader guards replies.
        assert!(Reply::from_json(
            "{\"type\":\"gradient\",\"misfit\":1,\"gradient\":\"7ff0000000000000\"}"
        )
        .is_err());
    }

    /// A fixed n = 8 `Gradient` exchange: xorshift-drawn finite values,
    /// every optional field present.
    fn fixed_exchange() -> (Request, Reply) {
        let mut state = 0x5EED_0022_u64;
        let mut draw = |n: usize, scale: f64| -> Vec<f64> {
            let unit = |s: &mut u64| (xorshift64(s) >> 11) as f64 / (1u64 << 53) as f64;
            (0..n).map(|_| scale * (unit(&mut state) - 0.5)).collect()
        };
        let request = Request::Gradient(GradientRequest {
            fingerprint: "00ab12cd34ef5678".into(),
            source: draw(10, 1.0),
            observed: draw(512, 1e-3),
            deadline_ms: Some(250),
            trace: true,
        });
        let reply = Reply::Gradient(GradientReply {
            misfit: 0.1 + draw(1, 1.0)[0],
            gradient: draw(512, 1e3),
            checkpointed: false,
            request_id: 7,
            trace: None,
        });
        (request, reply)
    }

    /// Recorded at the parent of the table-driven codec (PR 19's tree): the
    /// frames a `Gradient` exchange puts on the wire, byte for byte.
    const GOLDEN_REQUEST_DIGEST: u64 = 0xe8de_c408_057b_022f;
    const GOLDEN_REPLY_DIGEST: u64 = 0xe72f_f102_1113_a2b8;

    #[test]
    fn wire_bytes_of_a_gradient_exchange_are_pinned() {
        let (request, reply) = fixed_exchange();
        let (request, reply) = (request.to_json(), reply.to_json());
        assert_eq!(request.len(), 16 * 522 + 109, "{}", &request[..64]);
        let got = (fnv1a64(request.as_bytes()), fnv1a64(reply.as_bytes()));
        assert_eq!(
            got,
            (GOLDEN_REQUEST_DIGEST, GOLDEN_REPLY_DIGEST),
            "request {:#018x}, reply {:#018x}",
            got.0,
            got.1
        );
    }

    /// The codec this one replaced, kept as the oracle: one digit at a time
    /// on the way out, one nibble at a time on the way in.
    fn reference_push_f64_array(out: &mut String, xs: &[f64]) {
        out.push('"');
        for v in xs {
            let bits = v.to_bits();
            let hex: [u8; HEX_PER_VALUE] =
                std::array::from_fn(|i| DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf]);
            out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
        }
        out.push('"');
    }

    fn hex_digits(bits: u64) -> [u8; HEX_PER_VALUE] {
        format!("{bits:016x}").into_bytes().try_into().unwrap()
    }

    fn reference_hex_value(digits: &[u8; HEX_PER_VALUE]) -> Option<u64> {
        let mut bits = 0_u64;
        for &d in digits {
            let nibble = DIGITS.iter().position(|&c| c == d)?;
            bits = bits << 4 | nibble as u64;
        }
        Some(bits)
    }

    /// Bit patterns a float codec meets: the special ones, then xorshift.
    fn bit_patterns(n: usize) -> Vec<f64> {
        let special = [
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xffff_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let mut state = 0x5EED_C0DE_u64;
        let random = (0..n).map(|_| f64::from_bits(xorshift64(&mut state)));
        special.into_iter().chain(random).collect()
    }

    #[test]
    fn encoder_writes_the_reference_bytes_for_every_bit_pattern() {
        let values = bit_patterns(100_000);
        // Whole blocks, a ragged last block, a lone value, nothing.
        for xs in [&values[..], &values[..64], &values[..65], &values[..1], &[]] {
            let (mut got, mut want) = (String::new(), String::new());
            push_f64_array(&mut got, xs);
            reference_push_f64_array(&mut want, xs);
            assert!(got == want, "{} values encode differently", xs.len());
        }
    }

    #[test]
    fn decoder_agrees_with_the_reference_on_every_byte_and_on_mutations() {
        let valid = hex_digits(0x0123_4567_89ab_cdef);
        let agree = |digits: &[u8; HEX_PER_VALUE]| {
            let (got, want) = (hex_value(digits), reference_hex_value(digits));
            assert_eq!(got, want, "{:?}", String::from_utf8_lossy(digits));
            got
        };
        assert_eq!(agree(&valid), Some(0x0123_4567_89ab_cdef));
        let mut accepted = 0;
        for at in 0..HEX_PER_VALUE {
            for byte in 0..=255_u8 {
                let mut digits = valid;
                digits[at] = byte;
                accepted += agree(&digits).is_some() as usize;
            }
        }
        assert_eq!(accepted, 16 * HEX_PER_VALUE, "exactly 0-9a-f at each place");

        let mut state = 0x5EED_DEC0_u64;
        for round in 0..10_000 {
            let mut digits = hex_digits(xorshift64(&mut state));
            for _ in 0..1 + round % 2 {
                let r = xorshift64(&mut state);
                digits[r as usize % HEX_PER_VALUE] = (r >> 8) as u8;
            }
            agree(&digits);
        }
    }

    /// What a [`Write`] was asked to do: the buffer of each `write` call.
    struct Recorder {
        calls: Vec<Vec<u8>>,
        /// Bytes accepted per call.
        accept: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.accept);
            self.calls.push(buf[..n].to_vec());
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let payload = Reply::Busy { retry_after_ms: 40 }.to_json();
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(payload.as_bytes());

        let mut whole = Recorder {
            calls: Vec::new(),
            accept: usize::MAX,
        };
        write_frame(&mut whole, &payload).unwrap();
        assert_eq!(whole.calls, [framed.clone()], "prefix and payload together");

        // A writer that takes a byte at a time still gets every byte, in order.
        let mut trickle = Recorder {
            calls: Vec::new(),
            accept: 1,
        };
        write_frame(&mut trickle, &payload).unwrap();
        assert_eq!(trickle.calls.len(), framed.len());
        assert_eq!(trickle.calls.concat(), framed);
        assert_eq!(read_frame(&mut &framed[..]).unwrap(), payload);

        // Refused before anything is written.
        let mut refused = Recorder {
            calls: Vec::new(),
            accept: usize::MAX,
        };
        let err = write_frame(&mut refused, &" ".repeat(MAX_FRAME + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(refused.calls.is_empty());
    }

    /// A peer that announces the largest frame and sends ten bytes costs
    /// the reader what arrived, rounded up to the first reservation — not
    /// `MAX_FRAME` of address space per connection.
    #[test]
    fn a_stalled_frame_holds_a_small_buffer() {
        let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[b'x'; 10]);
        let mut buf = Vec::new();
        let err = read_payload(&mut &wire[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() < 1 << 20, "{} bytes held", buf.capacity());
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that hands out at most `step` bytes per call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// One connection buffer reads frames longer and shorter than any
    /// before them, whole or a few bytes per read, and each payload is
    /// exactly what was sent — nothing of a longer frame before it.
    #[test]
    fn a_connection_buffer_reads_each_frame_whole() {
        let lens = [10, 0, 3 * FIRST_READ + 7, 5, FIRST_READ, 1];
        let payloads: Vec<String> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (0..n)
                    .map(|j| char::from(b'a' + ((i + j) % 26) as u8))
                    .collect()
            })
            .collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        for step in [usize::MAX, 4093] {
            let mut r = Trickle { bytes: &wire, step };
            let mut buf = Vec::new();
            for p in &payloads {
                assert_eq!(read_payload(&mut r, &mut buf).unwrap(), p, "step {step}");
            }
            assert!(
                buf.len() < 2 * (3 * FIRST_READ + 7),
                "grown to {}",
                buf.len()
            );
            let err = read_payload(&mut r, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            release_if_long(&mut buf);
            assert!(buf.capacity() >= 3 * FIRST_READ + 7, "kept");
        }
        // A frame past `KEEP` is read whole, and its buffer is not kept.
        let mut wire = Vec::new();
        write_frame(&mut wire, &"x".repeat(KEEP + 1)).unwrap();
        let mut buf = Vec::new();
        assert_eq!(
            read_payload(&mut &wire[..], &mut buf).unwrap().len(),
            KEEP + 1
        );
        release_if_long(&mut buf);
        assert_eq!(buf.capacity(), 0);
        // Not UTF-8: refused, and the next frame still reads.
        let mut wire = vec![0, 0, 0, 2, 0xc3, 0x28];
        write_frame(&mut wire, "ok").unwrap();
        let (mut r, mut buf) = (&wire[..], Vec::new());
        let err = read_payload(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(read_payload(&mut r, &mut buf).unwrap(), "ok");
    }

    /// Every message, one of each variant and optional field: the frame
    /// is the length prefix and exactly the bytes `to_json` returns.
    #[test]
    fn to_json_is_the_frame_payload_for_every_variant() {
        let (gradient_request, gradient_reply) = fixed_exchange();
        let seismic = |c: Option<Vec<f64>>, budget, checkpointed| {
            Request::Compile(CompileRequest::Seismic {
                n: 8,
                steps: 24,
                d: 0.1,
                c,
                budget,
                checkpointed,
            })
        };
        let requests = [
            seismic(None, None, None),
            seismic(Some(AWKWARD.to_vec()), Some(6), Some(true)),
            gradient_request,
            Request::GradientBatch(BatchRequest {
                fingerprint: "f\"p\\".into(),
                shots: vec![(vec![1.0], AWKWARD.to_vec()), (vec![], vec![-0.0])],
                deadline_ms: Some(9),
                trace: true,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        let trace = json::parse("{\"wall_ns\":12,\"phases\":[{\"name\":\"é\"}]}").unwrap();
        let replies = [
            Reply::Compiled(CompiledReply {
                fingerprint: "00ab".into(),
                cached: true,
                nests: 75,
                config: Some("tile 8x8\n".into()),
                checkpointed: Some(false),
                budget: Some(8),
            }),
            gradient_reply,
            Reply::Gradient(GradientReply {
                misfit: -0.0,
                gradient: AWKWARD.to_vec(),
                checkpointed: true,
                request_id: 1 << 53,
                trace: Some(trace.clone()),
            }),
            Reply::GradientBatch(BatchReply {
                misfits: vec![0.5, 0.25],
                gradients: vec![AWKWARD.to_vec(), vec![]],
                strategy: "ShotParallel".into(),
                request_id: 3,
                trace: Some(trace.clone()),
            }),
            Reply::Stats(trace),
            Reply::Ok,
            Reply::Busy { retry_after_ms: 40 },
            Reply::Error("bad \"kernel\"\u{1b}".into()),
        ];
        // One kept buffer for every frame, longer and shorter in turn.
        let mut frame = Vec::new();
        let framed_as = |frame: &[u8], json: &str| {
            assert_eq!(&frame[PREFIX..], json.as_bytes());
            assert_eq!(frame[..PREFIX], (json.len() as u32).to_be_bytes());
            assert_eq!(read_frame(&mut &frame[..]).unwrap(), json);
        };
        for r in &requests {
            r.frame_into(&mut frame).unwrap();
            framed_as(&frame, &r.to_json());
            let back = Request::from_json(&r.to_json()).unwrap();
            assert_eq!(back.to_json(), r.to_json());
        }
        for r in &replies {
            r.frame_into(&mut frame).unwrap();
            framed_as(&frame, &r.to_json());
            let back = Reply::from_json(&r.to_json()).unwrap();
            assert_eq!(back.to_json(), r.to_json());
        }
    }

    type Encode = fn(&mut Vec<u8>, &[f64]);
    type Decode = fn(&[u8; HEX_PER_VALUE]) -> Option<u64>;

    /// The codecs this target compiles: the scalar one everywhere, SSE2 on
    /// x86-64 (the one `hex` selects there).
    fn codecs() -> Vec<(&'static str, Encode, Decode)> {
        let mut codecs = vec![(
            "portable",
            portable::push_digits as Encode,
            portable::value as Decode,
        )];
        #[cfg(target_arch = "x86_64")]
        codecs.push(("sse2", sse2::push_digits, sse2::value));
        codecs
    }

    /// Values whose bits cover the encoder's cases: `AWKWARD`, every
    /// exponent with each sign, every byte at each of the eight places,
    /// and random bits.
    fn covering_values() -> Vec<f64> {
        let mut state = 0x5EED_E4C0_u64;
        let mut values = AWKWARD.to_vec();
        for exponent in 0..2048_u64 {
            for sign in [0, 1_u64 << 63] {
                let mantissa = xorshift64(&mut state) & ((1 << 52) - 1);
                values.push(f64::from_bits(sign | exponent << 52 | mantissa));
            }
        }
        for place in 0..8 {
            for byte in 0..=255_u64 {
                let base = xorshift64(&mut state) & !(0xff << (8 * place));
                values.push(f64::from_bits(base | byte << (8 * place)));
            }
        }
        values.extend(bit_patterns(10_000));
        values
    }

    #[test]
    fn both_encoders_write_the_reference_digits_at_every_offset() {
        let values = covering_values();
        let mut want = String::new();
        reference_push_f64_array(&mut want, &values);
        let want = &want.as_bytes()[1..want.len() - 1];
        for (name, encode, _) in codecs() {
            // After 0..16 bytes already in the buffer: every store alignment.
            for offset in 0..HEX_PER_VALUE {
                let mut out = vec![b'x'; offset];
                encode(&mut out, &values);
                assert!(out[offset..] == *want, "{name} at offset {offset}");
                assert!(out[..offset].iter().all(|&b| b == b'x'), "{name}");
            }
            // Lengths around a pair and nothing at all.
            for n in [0, 1, 2, 3] {
                let mut out = Vec::new();
                encode(&mut out, &values[..n]);
                assert!(out == want[..HEX_PER_VALUE * n], "{name}: {n} values");
            }
        }
    }

    #[test]
    fn both_decoders_agree_with_the_reference_on_every_byte_and_value() {
        let mut state = 0x5EED_D5C0_u64;
        let agree = |digits: &[u8; HEX_PER_VALUE]| {
            let want = reference_hex_value(digits);
            for (name, _, decode) in codecs() {
                let got = decode(digits);
                assert_eq!(got, want, "{name}: {:?}", String::from_utf8_lossy(digits));
            }
            want
        };
        for v in covering_values() {
            assert_eq!(agree(&hex_digits(v.to_bits())), Some(v.to_bits()));
        }
        // Every byte at each of the 16 places, around valid digits of
        // every kind: exactly `0-9a-f` is accepted at each place.
        for base in [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0, u64::MAX] {
            let mut accepted = 0;
            for at in 0..HEX_PER_VALUE {
                for byte in 0..=255_u8 {
                    let mut digits = hex_digits(base);
                    digits[at] = byte;
                    accepted += agree(&digits).is_some() as usize;
                }
            }
            assert_eq!(accepted, 16 * HEX_PER_VALUE, "{base:#x}");
        }
        // Random bytes, and several mutations of a valid value at once.
        for round in 0..20_000 {
            let mut digits = hex_digits(xorshift64(&mut state));
            if round % 4 == 0 {
                digits = std::array::from_fn(|_| xorshift64(&mut state) as u8);
            }
            for _ in 0..round % 4 {
                let r = xorshift64(&mut state);
                digits[r as usize % HEX_PER_VALUE] = (r >> 8) as u8;
            }
            agree(&digits);
        }
        // Loads at every alignment of the array they sit in.
        let mut text = Vec::new();
        portable::push_digits(&mut text, &AWKWARD);
        for offset in 0..HEX_PER_VALUE {
            let mut shifted = vec![b' '; offset];
            shifted.extend_from_slice(&text);
            for (digits, v) in shifted[offset..].chunks_exact(HEX_PER_VALUE).zip(AWKWARD) {
                assert_eq!(agree(digits.try_into().unwrap()), Some(v.to_bits()));
            }
        }
    }

    /// Every bulk value a decoded `Gradient` frame carries (a mutated one
    /// that decodes as anything else — `stats`, `ok` — carries none).
    fn request_values(r: &Request) -> Vec<f64> {
        match r {
            Request::Gradient(g) => [&g.source[..], &g.observed[..]].concat(),
            _ => Vec::new(),
        }
    }

    fn reply_values(r: &Reply) -> Vec<f64> {
        match r {
            Reply::Gradient(g) => g.gradient.iter().copied().chain([g.misfit]).collect(),
            _ => Vec::new(),
        }
    }

    /// Seeded mutations of a valid exchange through both decoders: whatever
    /// the bytes, a decoder returns, and every value it accepts — bulk or
    /// scalar — is finite. (`"misfit":1e999` is a JSON number that parses
    /// to infinity; this fuzzer found `Reply::from_json` letting it through.)
    #[test]
    fn mutated_frames_never_panic_and_never_decode_to_a_non_finite_value() {
        let (request, reply) = fixed_exchange();
        let frames = [request.to_json(), reply.to_json()];
        let mut state = 0x5EED_F022_u64;
        let (mut accepted, mut refused) = (0, 0);
        for round in 0..10_000 {
            let mut bytes = frames[round % 2].clone().into_bytes();
            for _ in 0..1 + round % 3 {
                let r = xorshift64(&mut state);
                // Half the mutations land in the envelope, not the hex runs.
                let span = if r & 1 == 0 { bytes.len() } else { 72 };
                let at = ((r >> 8) as usize % span).min(bytes.len().saturating_sub(1));
                match (r >> 1) % 4 {
                    0 => bytes[at] ^= 1 << ((r >> 40) % 8),
                    1 => bytes.insert(at, (r >> 40) as u8),
                    2 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            // `read_frame` refuses what is not UTF-8 before a decoder sees it.
            let text = String::from_utf8_lossy(&bytes);
            let values = match (Request::from_json(&text), Reply::from_json(&text)) {
                (Ok(request), _) => request_values(&request),
                (_, Ok(reply)) => reply_values(&reply),
                _ => {
                    refused += 1;
                    continue;
                }
            };
            accepted += 1;
            assert!(values.iter().all(|v| v.is_finite()), "round {round}");
        }
        // The mutations are neither all fatal nor all harmless.
        assert!(accepted > 100 && refused > 100, "{accepted} / {refused}");

        // The mutation a byte flip will not find: an overflowing literal
        // in each scalar position, refused in the bulk arrays' words.
        for huge in ["1e999", "-1e999"] {
            let reply = format!("{{\"type\":\"gradient\",\"misfit\":{huge},\"gradient\":[]}}");
            let err = Reply::from_json(&reply).expect_err("non-finite misfit");
            assert!(err.contains("finite number \"misfit\""), "{err}");
            let seismic = format!(
                "{{\"type\":\"compile\",\"kernel\":\"seismic\",\"n\":8,\"steps\":4,\"d\":{huge}}}"
            );
            let err = Request::from_json(&seismic).expect_err("non-finite d");
            assert!(err.contains("finite number \"d\""), "{err}");
        }
    }

    #[test]
    fn deadline_round_trips_and_is_optional_on_the_wire() {
        let req = Request::Gradient(GradientRequest {
            fingerprint: "ab12".into(),
            source: vec![1.0],
            observed: vec![2.0],
            deadline_ms: Some(250),
            trace: false,
        });
        let json = req.to_json();
        assert!(json.contains("\"deadline_ms\":250"));
        let Request::Gradient(back) = Request::from_json(&json).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.deadline_ms, Some(250));

        let req = Request::GradientBatch(BatchRequest {
            fingerprint: "ab12".into(),
            shots: vec![(vec![1.0], vec![2.0])],
            deadline_ms: Some(9),
            trace: false,
        });
        let Request::GradientBatch(back) = Request::from_json(&req.to_json()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.deadline_ms, Some(9));
        // Absent on the wire stays absent — old clients keep working.
        assert!(!Request::GradientBatch(BatchRequest {
            fingerprint: "ab12".into(),
            shots: vec![],
            deadline_ms: None,
            trace: false,
        })
        .to_json()
        .contains("deadline_ms"));
        // A negative deadline is malformed, not a panic.
        assert!(Request::from_json(
            "{\"type\":\"gradient\",\"fingerprint\":\"a\",\"source\":[],\
             \"observed\":[],\"deadline_ms\":-4}"
        )
        .is_err());
    }

    /// `1e300` is a JSON number but no count a client meant: an integer
    /// field outside `0..=2⁵³` is refused at decode, by name, instead of
    /// saturating to a number the client never sent.
    #[test]
    fn an_out_of_range_integer_is_refused_at_decode_by_field_name() {
        let seismic = r#"{"type":"compile","kernel":"seismic","n":N,"steps":4,"d":0.1,"budget":B}"#;
        for huge in ["1e300", "9007199254740994", "-1", "4.5"] {
            let err =
                Request::from_json(&seismic.replace('N', huge).replace('B', "2")).unwrap_err();
            assert!(err.contains("\"n\""), "{huge}: {err}");
            let err =
                Request::from_json(&seismic.replace('N', "8").replace('B', huge)).unwrap_err();
            assert!(err.contains("\"budget\""), "{huge}: {err}");
            let busy = format!(r#"{{"type":"busy","retry_after_ms":{huge}}}"#);
            let err = Reply::from_json(&busy).unwrap_err();
            assert!(err.contains("\"retry_after_ms\""), "{huge}: {err}");
        }
    }

    #[test]
    fn busy_reply_round_trips() {
        let Reply::Busy { retry_after_ms } =
            Reply::from_json(&Reply::Busy { retry_after_ms: 40 }.to_json()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(retry_after_ms, 40);
    }

    #[test]
    fn unknown_type_is_an_error_not_a_panic() {
        assert!(Request::from_json("{\"type\":\"nope\"}").is_err());
        assert!(Request::from_json("not json at all").is_err());
        assert!(Request::from_json("{}").is_err());
    }
}
