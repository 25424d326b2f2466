//! The wire protocol: length-prefixed JSON frames.
//!
//! Each message is one frame — a big-endian `u32` byte count followed by
//! that many bytes of UTF-8 JSON — and leaves in **one** write, prefix and
//! payload together ([`write_frame`]). The JSON side is the workspace's one
//! codec, `perforad_obs::json`: it parses every frame and prints every
//! scalar and string, and the typed writers here lay the envelope out
//! around the hex bulk arrays only this module writes.
//!
//! Floats cross the wire **bitwise-intact**, the property `tests/serve.rs`
//! pins, in one of two forms. A *bulk array* (a source trace, a grid, a
//! gradient) is written as one JSON string of 16 lowercase hex digits per
//! value — the IEEE-754 bits, `"3ff0000000000000"` is `[1.0]` — which is
//! 16 bytes per value and costs little more than copying them: a byte →
//! two-digit table on the way out; on the way in the closing quote found
//! eight bytes at a time, then eight digits per `u64` decoded in registers
//! and checked by re-encoding (≈ 3 and ≈ 7 ns a value; a digit at a time
//! was 15 and 17). The reader also accepts the plain JSON number array a
//! hand-written client sends (`[1.0]`); there is no version field and no
//! negotiation, the two forms are told apart by their JSON type. A
//! *scalar* (`misfit`, `d`, a stencil parameter) is a JSON number printed
//! with Rust's `Display`, the shortest string that parses back to the
//! same bits. Non-finite values are rejected in either form.
//!
//! Malformed input never panics the peer: an oversized or non-UTF-8
//! frame is an `io::Error` (the server drops the connection), and a
//! well-framed but unparseable or unknown-typed payload earns a
//! [`Reply::Error`] on the same connection.

use perforad_obs::json::{self, push_num, push_str, Value};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Hard cap on one frame (64 MiB); a longer length prefix is corrupt or
/// hostile and is rejected before allocation. At 16 wire bytes per value
/// a frame holds one bulk array of about 161³ values
/// (`MAX_FRAME_VALUES`) — a 512³ grid would be 2 GiB — so the engine
/// refuses at `Compile` any grid whose gradient reply could not be framed.
pub const MAX_FRAME: usize = 64 << 20;

/// Wire bytes per bulk-array value: 16 hex digits.
const HEX_PER_VALUE: usize = 16;
const DIGITS: &[u8; 16] = b"0123456789abcdef";

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

/// The longest bulk `f64` array one frame carries, leaving 64 KiB for the
/// envelope around it (field names, scalars, a trace rollup).
pub(crate) const MAX_FRAME_VALUES: usize = (MAX_FRAME - (64 << 10)) / HEX_PER_VALUE;

fn oversize(len: usize) -> String {
    format!(
        "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes, about \
         {MAX_FRAME_VALUES} array values at {HEX_PER_VALUE} bytes each)"
    )
}

/// Write one `u32`-BE length-prefixed frame and flush. Prefix and payload
/// leave in one `write_all`: on a stream socket two writes wake the peer
/// for four bytes, and on TCP the second waits out the first's delayed ACK.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            oversize(bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame; errors on EOF mid-frame (truncation), an oversized
/// length prefix, or non-UTF-8 payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, oversize(len)));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
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

/// `Compile` payload: either the full seismic driver (warm up a
/// [`perforad_pde::seismic::BatchPlan`] — adjoint transform, autotune,
/// JIT, checkpoint budget — and keep it keyed by fingerprint) or a raw
/// stencil-DSL kernel (parse → adjoint → fingerprint, cached, no
/// gradient driver attached).
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
    Stencil {
        /// Stencil DSL source, e.g. `"for i in 1 .. n-1 { r[i] = ... }"`.
        stencil: String,
        /// Size bindings for the symbols in the bounds.
        sizes: Vec<(String, i64)>,
        /// Scalar parameter bindings.
        params: Vec<(String, f64)>,
        /// Arrays to differentiate with respect to.
        active: Vec<String>,
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
// out as hex bits.

/// One JSON string, 16 lowercase hex digits (the IEEE-754 bits, most
/// significant first) per value. Non-finite values are written as they
/// are; [`f64_array`] refuses them on the way in. Digits are looked up a
/// byte at a time and appended a block at a time: one ASCII check and one
/// copy per block, not per value.
fn push_f64_array(out: &mut String, xs: &[f64]) {
    const BLOCK: usize = 64;
    out.reserve(HEX_PER_VALUE * xs.len() + 2);
    out.push('"');
    let mut block = [0_u8; HEX_PER_VALUE * BLOCK];
    for values in xs.chunks(BLOCK) {
        let run = &mut block[..HEX_PER_VALUE * values.len()];
        for (digits, v) in run.chunks_exact_mut(HEX_PER_VALUE).zip(values) {
            for (pair, byte) in digits.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
                pair.copy_from_slice(&HEX[byte as usize]);
            }
        }
        out.push_str(std::str::from_utf8(run).expect("hex digits are ASCII"));
    }
    out.push('"');
}

/// A frame buffer sized up front — one allocation per frame — for bulk
/// arrays of the given lengths plus an envelope of field names and scalars
/// (a long stencil source or trace rollup may still grow it).
fn frame_buffer(array_lens: impl IntoIterator<Item = usize>) -> String {
    let arrays: usize = array_lens
        .into_iter()
        .map(|values| HEX_PER_VALUE * values + 32)
        .sum();
    String::with_capacity(256 + arrays)
}

impl Request {
    pub fn to_json(&self) -> String {
        let mut o = match self {
            Request::Compile(CompileRequest::Seismic { c: Some(c), .. }) => frame_buffer([c.len()]),
            Request::Gradient(g) => frame_buffer([g.source.len(), g.observed.len()]),
            Request::GradientBatch(b) => {
                frame_buffer(b.shots.iter().flat_map(|(s, o)| [s.len(), o.len()]))
            }
            _ => frame_buffer([]),
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
                o.push_str(&format!(
                    "{{\"type\":\"compile\",\"kernel\":\"seismic\",\"n\":{n},\"steps\":{steps},\"d\":"
                ));
                push_num(&mut o, *d);
                if let Some(c) = c {
                    o.push_str(",\"c\":");
                    push_f64_array(&mut o, c);
                }
                if let Some(b) = budget {
                    o.push_str(&format!(",\"budget\":{b}"));
                }
                if let Some(ck) = checkpointed {
                    o.push_str(&format!(",\"checkpointed\":{ck}"));
                }
                o.push('}');
            }
            Request::Compile(CompileRequest::Stencil {
                stencil,
                sizes,
                params,
                active,
            }) => {
                // No bulk array: the whole frame is a `Value`.
                let sizes = sizes.iter().map(|(k, v)| (k.as_str(), (*v).into()));
                let params = params.iter().map(|(k, v)| (k.as_str(), (*v).into()));
                let active = active.iter().map(|a| a.as_str().into()).collect();
                let stencil = Value::obj([
                    ("type", "compile".into()),
                    ("kernel", "stencil".into()),
                    ("stencil", stencil.as_str().into()),
                    ("sizes", Value::obj(sizes)),
                    ("params", Value::obj(params)),
                    ("active", Value::Arr(active)),
                ]);
                let _ = write!(o, "{stencil}");
            }
            Request::Gradient(g) => {
                o.push_str("{\"type\":\"gradient\",\"fingerprint\":");
                push_str(&mut o, &g.fingerprint);
                o.push_str(",\"source\":");
                push_f64_array(&mut o, &g.source);
                o.push_str(",\"observed\":");
                push_f64_array(&mut o, &g.observed);
                if let Some(ms) = g.deadline_ms {
                    o.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if g.trace {
                    o.push_str(",\"trace\":true");
                }
                o.push('}');
            }
            Request::GradientBatch(b) => {
                o.push_str("{\"type\":\"gradient_batch\",\"fingerprint\":");
                push_str(&mut o, &b.fingerprint);
                o.push_str(",\"shots\":[");
                for (i, (src, obs)) in b.shots.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    o.push_str("{\"source\":");
                    push_f64_array(&mut o, src);
                    o.push_str(",\"observed\":");
                    push_f64_array(&mut o, obs);
                    o.push('}');
                }
                o.push(']');
                if let Some(ms) = b.deadline_ms {
                    o.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if b.trace {
                    o.push_str(",\"trace\":true");
                }
                o.push('}');
            }
            Request::Stats => o.push_str("{\"type\":\"stats\"}"),
            Request::Shutdown => o.push_str("{\"type\":\"shutdown\"}"),
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
        "stencil" => {
            let pairs = |key: &str| -> Result<Vec<(String, Value)>, String> {
                match v.get(key) {
                    None | Some(Value::Null) => Ok(Vec::new()),
                    Some(Value::Obj(fields)) => Ok(fields.clone()),
                    Some(_) => Err(format!("\"{key}\" must be an object")),
                }
            };
            let mut sizes = Vec::new();
            for (k, val) in pairs("sizes")? {
                sizes.push((k, val.as_i64().ok_or("sizes values must be integers")?));
            }
            let mut params = Vec::new();
            for (k, val) in pairs("params")? {
                params.push((
                    k,
                    finite(&val).ok_or("params values must be finite numbers")?,
                ));
            }
            let active = match v.get("active").and_then(Value::as_array) {
                Some(items) => items
                    .iter()
                    .map(|a| a.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or("\"active\" must be an array of strings")?,
                None => Vec::new(),
            };
            Ok(CompileRequest::Stencil {
                stencil: req_str(v, "stencil")?,
                sizes,
                params,
                active,
            })
        }
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

/// The value of eight hex digits at once (`word` holds them, the first in
/// its top byte); `None` unless each is in `0-9a-f`. A digit's value is its
/// low nibble, plus 9 for a letter (bit 6). Every byte yields *some* nibble
/// that way, so the nibbles are written back as digits and compared with
/// the input — only what this codec writes survives — before three
/// shift-and-mask rounds close the gaps between them. No sum leaves its byte.
fn hex_word(word: u64) -> Option<u64> {
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
fn hex_value(digits: &[u8; HEX_PER_VALUE]) -> Option<u64> {
    let (hi, lo) = digits.split_at(8);
    let word = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight digits"));
    Some(hex_word(word(hi))? << 32 | hex_word(word(lo))?)
}

/// A scalar as the wire admits it: a JSON number that is finite (`1e999`
/// is a JSON number that parses to infinity).
fn finite(v: &Value) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// A bulk array in either wire form: the hex string [`push_f64_array`]
/// writes, or a plain array of JSON numbers. `None` for anything else —
/// a hex string of a length not a multiple of 16, a digit outside
/// `0-9a-f` (upper case included), a non-finite value, a non-number item.
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
    pub fn to_json(&self) -> String {
        let mut o = match self {
            Reply::Gradient(g) => frame_buffer([g.gradient.len()]),
            Reply::GradientBatch(b) => {
                frame_buffer(b.gradients.iter().map(Vec::len).chain([b.misfits.len()]))
            }
            _ => frame_buffer([]),
        };
        match self {
            Reply::Compiled(c) => {
                o.push_str("{\"type\":\"compiled\",\"fingerprint\":");
                push_str(&mut o, &c.fingerprint);
                o.push_str(&format!(",\"cached\":{},\"nests\":{}", c.cached, c.nests));
                if let Some(cfg) = &c.config {
                    o.push_str(",\"config\":");
                    push_str(&mut o, cfg);
                }
                if let Some(ck) = c.checkpointed {
                    o.push_str(&format!(",\"checkpointed\":{ck}"));
                }
                if let Some(b) = c.budget {
                    o.push_str(&format!(",\"budget\":{b}"));
                }
                o.push('}');
            }
            Reply::Gradient(g) => {
                o.push_str("{\"type\":\"gradient\",\"misfit\":");
                push_num(&mut o, g.misfit);
                o.push_str(",\"gradient\":");
                push_f64_array(&mut o, &g.gradient);
                o.push_str(&format!(",\"checkpointed\":{}", g.checkpointed));
                o.push_str(&format!(",\"request_id\":{}", g.request_id));
                if let Some(t) = &g.trace {
                    o.push_str(",\"trace\":");
                    let _ = write!(o, "{t}");
                }
                o.push('}');
            }
            Reply::GradientBatch(b) => {
                o.push_str("{\"type\":\"gradient_batch\",\"misfits\":");
                push_f64_array(&mut o, &b.misfits);
                o.push_str(",\"gradients\":[");
                for (i, g) in b.gradients.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_f64_array(&mut o, g);
                }
                o.push_str("],\"strategy\":");
                push_str(&mut o, &b.strategy);
                o.push_str(&format!(",\"request_id\":{}", b.request_id));
                if let Some(t) = &b.trace {
                    o.push_str(",\"trace\":");
                    let _ = write!(o, "{t}");
                }
                o.push('}');
            }
            Reply::Stats(v) => {
                o.push_str("{\"type\":\"stats\",\"stats\":");
                let _ = write!(o, "{v}");
                o.push('}');
            }
            Reply::Ok => o.push_str("{\"type\":\"ok\"}"),
            Reply::Busy { retry_after_ms } => {
                o.push_str(&format!(
                    "{{\"type\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}"
                ));
            }
            Reply::Error(msg) => {
                o.push_str("{\"type\":\"error\",\"message\":");
                push_str(&mut o, msg);
                o.push('}');
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
            let stencil = format!(
                "{{\"type\":\"compile\",\"kernel\":\"stencil\",\"stencil\":\"\",\
                 \"params\":{{\"D\":{huge}}}}}"
            );
            let err = Request::from_json(&stencil).expect_err("non-finite param");
            assert!(err.contains("finite numbers"), "{err}");
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
