//! The length-prefixed, versioned wire codec — two negotiated payload
//! encodings behind one frame shape.
//!
//! Every frame on the socket is
//!
//! ```text
//! +--------+--------+------------------------+
//! | magic  | length |       payload          |
//! | 4 bytes| u32 BE | length bytes           |
//! +--------+--------+------------------------+
//! ```
//!
//! The magic selects the payload encoding *per frame*:
//!
//! * `"FVS1"` — one JSON object carrying a `schema_version` field, a
//!   `kind` discriminant and a `body`:
//!   `{"schema_version":1,"kind":"summary","body":{...NodeSummary...}}`
//! * `"FVS2"` — a fixed-layout big-endian binary payload: one kind byte
//!   followed by the fields in declaration order, floats as raw IEEE-754
//!   bits (so NaN payloads survive bit-exactly). See [`WireCodec`] and
//!   the per-kind layouts in this module's binary section.
//!
//! Handshake frames (`hello` / `hello_ack`) are **always** JSON so that
//! peers predating the binary codec can still read the introduction;
//! the hello carries a codec bitmask and the ack picks one, after which
//! each side writes whatever it negotiated. Readers accept both magics
//! unconditionally — negotiation controls only what a peer *writes*.
//!
//! The magic catches stream desynchronisation and non-fvsst peers; the
//! length prefix bounds each read (frames over [`MAX_FRAME_LEN`] are
//! rejected before any allocation); the version field lets a coordinator
//! refuse a newer agent explicitly (see [`WireMsg::HelloAck`]) instead
//! of mis-parsing it. The vendored serde stand-in has no typed
//! deserializer, so decoding walks the [`serde::Value`] tree by hand —
//! every missing field, wrong type, or out-of-range number surfaces as
//! an [`FvsError::Wire`], never a panic. The binary decoder is a
//! bounds-checked cursor with the same guarantee.

use crate::error::FvsError;
use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use serde::{Serialize, Value};

/// Leading bytes of every JSON (`FVS1`) frame.
pub const MAGIC: [u8; 4] = *b"FVS1";

/// Leading bytes of every binary (`FVS2`) frame.
pub const MAGIC_V2: [u8; 4] = *b"FVS2";

/// Wire schema version spoken by this build.
pub const SCHEMA_VERSION: u32 = 1;

/// The payload encoding a transport writes with.
///
/// Advertised in the hello as a bitmask ([`WireCodec::bit`]), chosen by
/// the coordinator in the hello ack ([`WireCodec::id`]). Readers do not
/// care: [`FrameReader`] dispatches on the frame magic, so both
/// encodings are always understood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// `FVS1`: self-describing JSON. The fallback every build speaks.
    #[default]
    Json,
    /// `FVS2`: fixed-layout big-endian binary. Roughly an order of
    /// magnitude cheaper to encode/decode for summaries.
    Binary,
}

impl WireCodec {
    /// Stable one-byte identifier used in the hello ack (1 = JSON,
    /// 2 = binary; 0 is reserved for "unknown" in telemetry).
    pub fn id(self) -> u8 {
        match self {
            WireCodec::Json => 1,
            WireCodec::Binary => 2,
        }
    }

    /// The codec's bit in the hello `codecs` bitmask.
    pub fn bit(self) -> u8 {
        match self {
            WireCodec::Json => CODEC_JSON_BIT,
            WireCodec::Binary => CODEC_BINARY_BIT,
        }
    }

    /// Decode a hello-ack identifier; unknown ids fall back to JSON,
    /// which every peer speaks.
    pub fn from_id(id: u8) -> WireCodec {
        match id {
            2 => WireCodec::Binary,
            _ => WireCodec::Json,
        }
    }

    /// Lowercase name for logs and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }
}

/// Hello bitmask bit advertising `FVS1` JSON support.
pub const CODEC_JSON_BIT: u8 = 0b01;
/// Hello bitmask bit advertising `FVS2` binary support.
pub const CODEC_BINARY_BIT: u8 = 0b10;
/// Bitmask advertising every codec this build speaks.
pub const CODEC_ALL: u8 = CODEC_JSON_BIT | CODEC_BINARY_BIT;

/// Frame header length: 4 bytes magic + 4 bytes big-endian length.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a payload, enforced before buffering it. Generous for
/// summaries (a few dozen bytes per processor) while capping what a
/// corrupt length prefix can make the reader allocate.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Agent → coordinator, first frame on a connection: who am I, how
    /// many processors do I drive, and which schema do I speak.
    Hello {
        /// Node index within the cluster.
        node: usize,
        /// Processor count of the node.
        procs: usize,
        /// Schema version the agent speaks (the one header field read
        /// even when it differs from ours).
        version: u32,
        /// Highest coordinator epoch this agent has acknowledged (0 =
        /// none yet). A coordinator whose own epoch is *lower* is stale
        /// — a pre-crash survivor or a cold restart racing a resumed
        /// one — and must refuse the connection (split-brain guard).
        /// Decodes as 0 when absent, so older peers interoperate.
        last_epoch: u64,
        /// Bitmask of payload codecs the agent can read and write
        /// ([`CODEC_JSON_BIT`] | [`CODEC_BINARY_BIT`]). Decodes as
        /// JSON-only when absent, so agents predating the binary codec
        /// negotiate down automatically.
        codecs: u8,
    },
    /// Coordinator → agent reply to `Hello`: accepted or refused (with
    /// the version the server speaks, so the agent can log why).
    HelloAck {
        /// Whether the coordinator accepted the connection.
        accepted: bool,
        /// Schema version the coordinator speaks.
        version: u32,
        /// The coordinator's epoch. Agents record the highest epoch
        /// ever seen and fence any coordinator presenting a lower one.
        /// Decodes as 0 when absent, so older peers interoperate.
        epoch: u64,
        /// [`WireCodec::id`] of the codec the coordinator chose for
        /// this connection. Decodes as JSON when absent, so acks from
        /// coordinators predating the binary codec keep the connection
        /// on the fallback encoding.
        codec: u8,
    },
    /// Agent → coordinator: one measurement window.
    Summary(NodeSummary),
    /// Coordinator → agent: one frequency-ceiling command.
    Ceiling(FrequencyCommand),
    /// Agent → coordinator: orderly goodbye (distinguishes a drained
    /// node from a crashed one).
    Bye {
        /// Departing node.
        node: usize,
    },
    /// Coordinator → agent: keep-alive for rounds that commanded the
    /// node nothing. Makes dead-link detection time-bounded on the
    /// agent side (no frame for a link-timeout → reconnect) and carries
    /// the epoch so a stale coordinator is fenced mid-connection too.
    Heartbeat {
        /// The sending coordinator's epoch.
        epoch: u64,
    },
}

impl WireMsg {
    /// Stable lowercase kind discriminant (the payload `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::HelloAck { .. } => "hello_ack",
            WireMsg::Summary(_) => "summary",
            WireMsg::Ceiling(_) => "ceiling",
            WireMsg::Bye { .. } => "bye",
            WireMsg::Heartbeat { .. } => "heartbeat",
        }
    }
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn to_payload(msg: &WireMsg) -> Value {
    let (version, body) = match msg {
        WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } => (
            *version,
            obj(vec![
                ("node", Value::UInt(*node as u64)),
                ("procs", Value::UInt(*procs as u64)),
                ("last_epoch", Value::UInt(*last_epoch)),
                ("codecs", Value::UInt(u64::from(*codecs))),
            ]),
        ),
        WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        } => (
            *version,
            obj(vec![
                ("accepted", Value::Bool(*accepted)),
                ("epoch", Value::UInt(*epoch)),
                ("codec", Value::UInt(u64::from(*codec))),
            ]),
        ),
        WireMsg::Summary(s) => (SCHEMA_VERSION, s.to_json()),
        WireMsg::Ceiling(c) => (SCHEMA_VERSION, c.to_json()),
        WireMsg::Bye { node } => (
            SCHEMA_VERSION,
            obj(vec![("node", Value::UInt(*node as u64))]),
        ),
        WireMsg::Heartbeat { epoch } => (SCHEMA_VERSION, obj(vec![("epoch", Value::UInt(*epoch))])),
    };
    obj(vec![
        ("schema_version", Value::UInt(u64::from(version))),
        ("kind", Value::String(msg.kind().to_string())),
        ("body", body),
    ])
}

/// Encode one message as a complete frame (header + JSON payload).
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, FvsError> {
    let payload = serde_json::to_string(&to_payload(msg))?;
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(FvsError::wire(format!(
            "payload of {} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + bytes.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Encode one message under the negotiated codec.
///
/// Handshake frames (`hello` / `hello_ack`) always go out as JSON —
/// they are exchanged *before* negotiation completes, and a peer
/// predating the binary codec must be able to read them.
pub fn encode_with(msg: &WireMsg, codec: WireCodec) -> Result<Vec<u8>, FvsError> {
    match (codec, msg) {
        (WireCodec::Json, _) | (_, WireMsg::Hello { .. }) | (_, WireMsg::HelloAck { .. }) => {
            encode(msg)
        }
        (WireCodec::Binary, _) => encode_binary(msg),
    }
}

// --- FVS2 binary payloads -------------------------------------------------
//
// One kind byte, then fixed-layout fields, everything big-endian:
//
//   kind 1  hello      version u32 · node u64 · procs u64 · last_epoch u64
//                      · codecs u8
//   kind 2  hello_ack  version u32 · accepted u8 · epoch u64 · codec u8
//   kind 3  summary    node u64 · sent_at_s f64 · power_w f64 · nproc u16
//                      · nproc × { flags u8 · [cpi0 f64 · mem f64] ·
//                                  current u32 }
//                      flags bit0 = model present, bit1 = idle
//   kind 4  ceiling    node u64 · n u16 · n × freq u32
//   kind 5  bye        node u64
//   kind 6  heartbeat  epoch u64
//
// Floats travel as raw IEEE-754 bits (`f64::to_bits`), so NaN and
// infinity — which the JSON codec can only collapse to `null`/NaN —
// round-trip bit-exactly. Ingest-side validation stays where it was.

const BK_HELLO: u8 = 1;
const BK_HELLO_ACK: u8 = 2;
const BK_SUMMARY: u8 = 3;
const BK_CEILING: u8 = 4;
const BK_BYE: u8 = 5;
const BK_HEARTBEAT: u8 = 6;

const FLAG_MODEL: u8 = 0b01;
const FLAG_IDLE: u8 = 0b10;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Encode one message as a complete `FVS2` frame.
pub fn encode_binary(msg: &WireMsg) -> Result<Vec<u8>, FvsError> {
    let mut p = Vec::with_capacity(64);
    match msg {
        WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } => {
            p.push(BK_HELLO);
            put_u32(&mut p, *version);
            put_u64(&mut p, *node as u64);
            put_u64(&mut p, *procs as u64);
            put_u64(&mut p, *last_epoch);
            p.push(*codecs);
        }
        WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        } => {
            p.push(BK_HELLO_ACK);
            put_u32(&mut p, *version);
            p.push(u8::from(*accepted));
            put_u64(&mut p, *epoch);
            p.push(*codec);
        }
        WireMsg::Summary(s) => {
            let nproc = s.models.len();
            if s.idle.len() != nproc || s.current.len() != nproc {
                return Err(FvsError::wire(format!(
                    "summary processor arrays disagree: {} models, {} idle, {} current",
                    nproc,
                    s.idle.len(),
                    s.current.len()
                )));
            }
            let nproc = u16::try_from(nproc)
                .map_err(|_| FvsError::wire("more than 65535 processors in one summary"))?;
            p.push(BK_SUMMARY);
            put_u64(&mut p, s.node as u64);
            put_f64(&mut p, s.sent_at_s);
            put_f64(&mut p, s.power_w);
            put_u16(&mut p, nproc);
            for i in 0..usize::from(nproc) {
                let mut flags = 0u8;
                if s.models[i].is_some() {
                    flags |= FLAG_MODEL;
                }
                if s.idle[i] {
                    flags |= FLAG_IDLE;
                }
                p.push(flags);
                if let Some(m) = &s.models[i] {
                    put_f64(&mut p, m.cpi0);
                    put_f64(&mut p, m.mem_time_per_instr);
                }
                put_u32(&mut p, s.current[i].0);
            }
        }
        WireMsg::Ceiling(c) => {
            let n = u16::try_from(c.freqs.len())
                .map_err(|_| FvsError::wire("more than 65535 frequencies in one command"))?;
            p.push(BK_CEILING);
            put_u64(&mut p, c.node as u64);
            put_u16(&mut p, n);
            for f in &c.freqs {
                put_u32(&mut p, f.0);
            }
        }
        WireMsg::Bye { node } => {
            p.push(BK_BYE);
            put_u64(&mut p, *node as u64);
        }
        WireMsg::Heartbeat { epoch } => {
            p.push(BK_HEARTBEAT);
            put_u64(&mut p, *epoch);
        }
    }
    if p.len() > MAX_FRAME_LEN {
        return Err(FvsError::wire(format!(
            "payload of {} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
            p.len()
        )));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + p.len());
    frame.extend_from_slice(&MAGIC_V2);
    frame.extend_from_slice(&(p.len() as u32).to_be_bytes());
    frame.extend_from_slice(&p);
    Ok(frame)
}

/// Bounds-checked reader over a binary payload: every take is length-
/// guarded, so truncated or bit-flipped frames surface as `Err`, never
/// a slice panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FvsError> {
        if self.remaining() < n {
            return Err(FvsError::wire(format!(
                "binary payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FvsError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FvsError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FvsError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FvsError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, FvsError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn index(&mut self) -> Result<usize, FvsError> {
        usize::try_from(self.u64()?).map_err(|_| FvsError::wire("index exceeds usize"))
    }

    fn finish(self) -> Result<(), FvsError> {
        if self.remaining() != 0 {
            return Err(FvsError::wire(format!(
                "{} trailing bytes after binary payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Decode one `FVS2` binary frame *payload*.
pub fn decode_payload_binary(payload: &[u8]) -> Result<WireMsg, FvsError> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    let msg = match kind {
        BK_HELLO => WireMsg::Hello {
            version: c.u32()?,
            node: c.index()?,
            procs: c.index()?,
            last_epoch: c.u64()?,
            codecs: c.u8()?,
        },
        BK_HELLO_ACK => WireMsg::HelloAck {
            version: c.u32()?,
            accepted: c.u8()? != 0,
            epoch: c.u64()?,
            codec: c.u8()?,
        },
        BK_SUMMARY => {
            let node = c.index()?;
            let sent_at_s = c.f64()?;
            let power_w = c.f64()?;
            let nproc = usize::from(c.u16()?);
            // Each processor is at least 5 bytes (flags + current), so a
            // fuzzed count larger than the payload is refused before any
            // allocation sized by it.
            if c.remaining() < nproc * 5 {
                return Err(FvsError::wire(format!(
                    "summary claims {nproc} processors but only {} bytes remain",
                    c.remaining()
                )));
            }
            let mut models = Vec::with_capacity(nproc);
            let mut idle = Vec::with_capacity(nproc);
            let mut current = Vec::with_capacity(nproc);
            for _ in 0..nproc {
                let flags = c.u8()?;
                models.push(if flags & FLAG_MODEL != 0 {
                    Some(CpiModel {
                        cpi0: c.f64()?,
                        mem_time_per_instr: c.f64()?,
                    })
                } else {
                    None
                });
                idle.push(flags & FLAG_IDLE != 0);
                current.push(FreqMhz(c.u32()?));
            }
            WireMsg::Summary(NodeSummary {
                node,
                sent_at_s,
                models,
                idle,
                current,
                power_w,
            })
        }
        BK_CEILING => {
            let node = c.index()?;
            let n = usize::from(c.u16()?);
            if c.remaining() < n * 4 {
                return Err(FvsError::wire(format!(
                    "ceiling claims {n} frequencies but only {} bytes remain",
                    c.remaining()
                )));
            }
            let mut freqs = Vec::with_capacity(n);
            for _ in 0..n {
                freqs.push(FreqMhz(c.u32()?));
            }
            WireMsg::Ceiling(FrequencyCommand { node, freqs })
        }
        BK_BYE => WireMsg::Bye { node: c.index()? },
        BK_HEARTBEAT => WireMsg::Heartbeat { epoch: c.u64()? },
        other => return Err(FvsError::wire(format!("unknown binary kind byte {other}"))),
    };
    c.finish()?;
    Ok(msg)
}

pub(crate) fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, FvsError> {
    match v.get(key) {
        Some(x) if !x.is_null() => Ok(x),
        _ => Err(FvsError::wire(format!("missing field `{key}`"))),
    }
}

pub(crate) fn usize_field(v: &Value, key: &str) -> Result<usize, FvsError> {
    field(v, key)?
        .as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not an index")))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, FvsError> {
    field(v, key)?
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a u32")))
}

pub(crate) fn bool_field(v: &Value, key: &str) -> Result<bool, FvsError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a bool")))
}

/// A float field; JSON `null` decodes as NaN (the encoder maps
/// non-finite floats to `null`, and the coordinator's ingest validation
/// is what rejects them — the codec round-trips faithfully).
pub(crate) fn f64_field(v: &Value, key: &str) -> Result<f64, FvsError> {
    match v.get(key) {
        Some(Value::Null) => Ok(f64::NAN),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a number"))),
        None => Err(FvsError::wire(format!("missing field `{key}`"))),
    }
}

/// A u64 field that defaults when absent or null — schema-version-1
/// compatible field additions (epochs) decode leniently so frames from
/// peers predating the field still parse.
pub(crate) fn u64_field_or(v: &Value, key: &str, default: u64) -> Result<u64, FvsError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a u64"))),
    }
}

pub(crate) fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a Vec<Value>, FvsError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not an array")))
}

fn decode_freq(v: &Value) -> Result<FreqMhz, FvsError> {
    v.as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .map(FreqMhz)
        .ok_or_else(|| FvsError::wire("frequency is not a u32"))
}

fn decode_model(v: &Value) -> Result<Option<CpiModel>, FvsError> {
    if v.is_null() {
        return Ok(None);
    }
    if !v.is_object() {
        return Err(FvsError::wire("model is neither null nor an object"));
    }
    Ok(Some(CpiModel {
        cpi0: f64_field(v, "cpi0")?,
        mem_time_per_instr: f64_field(v, "mem_time_per_instr")?,
    }))
}

pub(crate) fn decode_summary(body: &Value) -> Result<NodeSummary, FvsError> {
    let models = array_field(body, "models")?
        .iter()
        .map(decode_model)
        .collect::<Result<Vec<_>, _>>()?;
    let idle = array_field(body, "idle")?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| FvsError::wire("idle entry is not a bool"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let current = array_field(body, "current")?
        .iter()
        .map(decode_freq)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(NodeSummary {
        node: usize_field(body, "node")?,
        sent_at_s: f64_field(body, "sent_at_s")?,
        models,
        idle,
        current,
        power_w: f64_field(body, "power_w")?,
    })
}

fn decode_command(body: &Value) -> Result<FrequencyCommand, FvsError> {
    Ok(FrequencyCommand {
        node: usize_field(body, "node")?,
        freqs: array_field(body, "freqs")?
            .iter()
            .map(decode_freq)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Decode one frame *payload* (the JSON between headers).
///
/// A `hello` decodes under any schema version — the coordinator must be
/// able to read a newer agent's introduction to refuse it politely —
/// but every other kind requires an exact [`SCHEMA_VERSION`] match.
pub fn decode_payload(payload: &[u8]) -> Result<WireMsg, FvsError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| FvsError::wire("payload is not valid UTF-8"))?;
    let v = serde_json::from_str(text)?;
    let version = u32_field(&v, "schema_version")?;
    let kind = field(&v, "kind")?
        .as_str()
        .ok_or_else(|| FvsError::wire("field `kind` is not a string"))?
        .to_string();
    let body = field(&v, "body")?;
    if kind != "hello" && version != SCHEMA_VERSION {
        return Err(FvsError::wire(format!(
            "schema_version {version} not supported (this build speaks {SCHEMA_VERSION})"
        )));
    }
    match kind.as_str() {
        "hello" => Ok(WireMsg::Hello {
            node: usize_field(body, "node")?,
            procs: usize_field(body, "procs")?,
            version,
            last_epoch: u64_field_or(body, "last_epoch", 0)?,
            // Agents predating FVS2 send no mask: they speak JSON only.
            codecs: u64_field_or(body, "codecs", u64::from(CODEC_JSON_BIT))? as u8,
        }),
        "hello_ack" => Ok(WireMsg::HelloAck {
            accepted: bool_field(body, "accepted")?,
            version,
            epoch: u64_field_or(body, "epoch", 0)?,
            codec: u64_field_or(body, "codec", u64::from(WireCodec::Json.id()))? as u8,
        }),
        "summary" => Ok(WireMsg::Summary(decode_summary(body)?)),
        "ceiling" => Ok(WireMsg::Ceiling(decode_command(body)?)),
        "bye" => Ok(WireMsg::Bye {
            node: usize_field(body, "node")?,
        }),
        "heartbeat" => Ok(WireMsg::Heartbeat {
            epoch: u64_field_or(body, "epoch", 0)?,
        }),
        other => Err(FvsError::wire(format!("unknown frame kind `{other}`"))),
    }
}

/// How a frame failed to parse — telemetry needs the class, not just
/// the error string, so chaos runs can tell an injected bit-flip from
/// an organic one and count oversized length prefixes separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The 4-byte magic was wrong: stream desynchronised or a foreign
    /// peer.
    BadMagic,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize,
    /// The framing was sound but the payload did not decode.
    Payload,
}

/// Incremental frame parser over a byte stream.
///
/// Feed it whatever the socket produced; it buffers partial frames and
/// yields complete messages. Any framing violation (bad magic,
/// oversized length, malformed payload) is returned as an error and
/// poisons nothing — but a desynchronised TCP stream cannot be trusted
/// past the first bad byte, so callers should drop the connection and
/// let the agent's reconnect ladder recover. [`last_fault`] classifies
/// the most recent error so the caller can emit a `wire_fault`
/// telemetry event *before* closing instead of dying silently.
///
/// Parsing is linear in the bytes fed: a frame is consumed by advancing
/// an offset, and [`feed`] moves the unconsumed tail to the front only
/// once the consumed prefix is at least as long as the tail, so every
/// byte is moved at most once per byte consumed before it.
///
/// [`last_fault`]: FrameReader::last_fault
/// [`feed`]: FrameReader::feed
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already parsed into frames.
    start: usize,
    last_fault: Option<FrameFault>,
    last_fault_len: u32,
    last_fault_codec: u8,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket, first compacting away the
    /// consumed prefix when it outweighs the unconsumed tail.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.pending() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Classification of the most recent [`next_frame`] error, cleared
    /// by any successful parse.
    ///
    /// [`next_frame`]: FrameReader::next_frame
    pub fn last_fault(&self) -> Option<FrameFault> {
        self.last_fault
    }

    /// Observed length-prefix of the faulting frame (0 when the header
    /// itself was untrustworthy, e.g. on bad magic). For oversize
    /// faults this is the claimed — rejected — length.
    pub fn last_fault_len(&self) -> u32 {
        self.last_fault_len
    }

    /// Codec of the faulting frame as a [`WireCodec::id`] (0 when the
    /// magic matched neither codec).
    pub fn last_fault_codec(&self) -> u8 {
        self.last_fault_codec
    }

    fn fault(&mut self, kind: FrameFault, len: u32, codec: u8) {
        self.last_fault = Some(kind);
        self.last_fault_len = len;
        self.last_fault_codec = codec;
    }

    /// Try to extract the next complete message. `Ok(None)` means more
    /// bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, FvsError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let codec = if avail[..4] == MAGIC {
            WireCodec::Json
        } else if avail[..4] == MAGIC_V2 {
            WireCodec::Binary
        } else {
            // The length bytes of a desynchronised stream are garbage;
            // report 0 rather than a misleading number.
            let magic = format!("{:02x?}", &avail[..4]);
            self.fault(FrameFault::BadMagic, 0, 0);
            return Err(FvsError::wire(format!(
                "bad magic {magic} (stream desynchronised or not an fvsst peer)"
            )));
        };
        let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        if len > MAX_FRAME_LEN {
            self.fault(FrameFault::Oversize, len as u32, codec.id());
            return Err(FvsError::wire(format!(
                "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
            )));
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..HEADER_LEN + len];
        let msg = match codec {
            WireCodec::Json => decode_payload(payload),
            WireCodec::Binary => decode_payload_binary(payload),
        };
        // Consume the frame whether or not the payload decoded: the
        // framing itself was sound, so the next frame may be fine. An
        // emptied buffer rewinds for free.
        self.start += HEADER_LEN + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        match &msg {
            Ok(_) => {
                self.last_fault = None;
                self.last_fault_len = 0;
                self.last_fault_codec = 0;
            }
            Err(_) => self.fault(FrameFault::Payload, len as u32, codec.id()),
        }
        msg.map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_summary() -> NodeSummary {
        NodeSummary {
            node: 3,
            sent_at_s: 1.25,
            models: vec![
                Some(CpiModel::from_components(1.5, 2.0e-9)),
                None,
                Some(CpiModel::from_components(0.75, 0.0)),
            ],
            idle: vec![false, true, false],
            current: vec![FreqMhz(1000), FreqMhz(250), FreqMhz(850)],
            power_w: 312.5,
        }
    }

    #[test]
    fn summary_round_trips_exactly() {
        let msg = WireMsg::Summary(sample_summary());
        let frame = encode(&msg).unwrap();
        assert_eq!(&frame[..4], &MAGIC);
        let mut r = FrameReader::new();
        r.feed(&frame);
        let back = r.next_frame().unwrap().unwrap();
        assert_eq!(back, msg);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn every_kind_round_trips() {
        let msgs = vec![
            WireMsg::Hello {
                node: 2,
                procs: 4,
                version: SCHEMA_VERSION,
                last_epoch: 3,
                codecs: CODEC_ALL,
            },
            WireMsg::HelloAck {
                accepted: true,
                version: SCHEMA_VERSION,
                epoch: 4,
                codec: WireCodec::Binary.id(),
            },
            WireMsg::Summary(sample_summary()),
            WireMsg::Ceiling(FrequencyCommand {
                node: 1,
                freqs: vec![FreqMhz(600), FreqMhz(1000)],
            }),
            WireMsg::Bye { node: 7 },
            WireMsg::Heartbeat { epoch: 9 },
        ];
        let mut r = FrameReader::new();
        for m in &msgs {
            r.feed(&encode(m).unwrap());
        }
        for m in &msgs {
            assert_eq!(r.next_frame().unwrap().as_ref(), Some(m));
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut r = FrameReader::new();
        let (head, tail) = frame.split_at(frame.len() - 1);
        for chunk in head.chunks(3) {
            r.feed(chunk);
            assert_eq!(r.next_frame().unwrap(), None);
        }
        r.feed(tail);
        assert_eq!(r.next_frame().unwrap(), Some(WireMsg::Bye { node: 1 }));
    }

    #[test]
    fn bad_magic_is_an_error_not_a_panic() {
        let mut frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        frame[0] = b'X';
        let mut r = FrameReader::new();
        r.feed(&frame);
        assert!(matches!(r.next_frame(), Err(FvsError::Wire(_))));
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC);
        junk.extend_from_slice(&u32::MAX.to_be_bytes());
        r.feed(&junk);
        assert!(matches!(r.next_frame(), Err(FvsError::Wire(_))));
    }

    #[test]
    fn corrupt_payload_consumes_the_frame_and_reports() {
        let good = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = b'!'; // break the JSON
        let mut r = FrameReader::new();
        r.feed(&bad);
        r.feed(&good);
        assert!(r.next_frame().is_err());
        // The stream is not poisoned: the following frame still decodes.
        assert_eq!(r.next_frame().unwrap(), Some(WireMsg::Bye { node: 1 }));
    }

    #[test]
    fn non_hello_frames_require_exact_version() {
        let frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":2");
        let err = decode_payload(bumped.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("schema_version 2"), "{err}");
    }

    #[test]
    fn hello_decodes_under_foreign_versions() {
        let frame = encode(&WireMsg::Hello {
            node: 0,
            procs: 4,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: CODEC_ALL,
        })
        .unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":9");
        match decode_payload(bumped.as_bytes()).unwrap() {
            WireMsg::Hello { version, .. } => assert_eq!(version, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The epoch fields are version-1-compatible additions: frames from
    /// peers that predate them (no `last_epoch` / `epoch` key) still
    /// decode, defaulting to epoch 0.
    #[test]
    fn missing_epoch_fields_decode_as_zero() {
        let frame = encode(&WireMsg::Hello {
            node: 5,
            procs: 2,
            version: SCHEMA_VERSION,
            last_epoch: 7,
            codecs: CODEC_ALL,
        })
        .unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let legacy = text.replace(",\"last_epoch\":7", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::Hello {
                node, last_epoch, ..
            } => {
                assert_eq!(node, 5);
                assert_eq!(last_epoch, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let frame = encode(&WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch: 3,
            codec: WireCodec::Json.id(),
        })
        .unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let legacy = text.replace(",\"epoch\":3", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::HelloAck {
                accepted, epoch, ..
            } => {
                assert!(accepted);
                assert_eq!(epoch, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Each error path stamps its classification so the reader's owner
    /// can emit the right `wire_fault` event before dropping the link.
    #[test]
    fn frame_faults_are_classified() {
        // Oversized length prefix.
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC);
        junk.extend_from_slice(&u32::MAX.to_be_bytes());
        r.feed(&junk);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(FrameFault::Oversize));

        // Bad magic.
        let mut r = FrameReader::new();
        let mut frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        frame[0] = b'X';
        r.feed(&frame);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(FrameFault::BadMagic));

        // Corrupt payload, then a clean frame clears the classification.
        let mut r = FrameReader::new();
        let good = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = b'!';
        r.feed(&bad);
        r.feed(&good);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(FrameFault::Payload));
        assert!(r.next_frame().unwrap().is_some());
        assert_eq!(r.last_fault(), None);
    }

    #[test]
    fn binary_every_kind_round_trips() {
        let msgs = vec![
            WireMsg::Hello {
                node: 2,
                procs: 4,
                version: SCHEMA_VERSION,
                last_epoch: 3,
                codecs: CODEC_ALL,
            },
            WireMsg::HelloAck {
                accepted: false,
                version: SCHEMA_VERSION,
                epoch: 4,
                codec: WireCodec::Binary.id(),
            },
            WireMsg::Summary(sample_summary()),
            WireMsg::Ceiling(FrequencyCommand {
                node: 1,
                freqs: vec![FreqMhz(600), FreqMhz(1000)],
            }),
            WireMsg::Bye { node: 7 },
            WireMsg::Heartbeat { epoch: 9 },
        ];
        let mut r = FrameReader::new();
        for m in &msgs {
            let frame = encode_binary(m).unwrap();
            assert_eq!(&frame[..4], &MAGIC_V2);
            r.feed(&frame);
        }
        for m in &msgs {
            assert_eq!(r.next_frame().unwrap().as_ref(), Some(m));
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    /// The binary codec carries floats as raw bits, so even non-finite
    /// values — which JSON collapses to `null` — survive bit-exactly.
    #[test]
    fn binary_non_finite_floats_round_trip_bit_exactly() {
        let mut s = sample_summary();
        s.power_w = f64::NEG_INFINITY;
        s.sent_at_s = f64::from_bits(0x7ff8_dead_beef_0001); // payload NaN
        let bits = (s.power_w.to_bits(), s.sent_at_s.to_bits());
        let frame = encode_binary(&WireMsg::Summary(s)).unwrap();
        let mut r = FrameReader::new();
        r.feed(&frame);
        match r.next_frame().unwrap().unwrap() {
            WireMsg::Summary(back) => {
                assert_eq!(back.power_w.to_bits(), bits.0);
                assert_eq!(back.sent_at_s.to_bits(), bits.1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_codec_stream_decodes_frame_by_frame() {
        let a = WireMsg::Summary(sample_summary());
        let b = WireMsg::Heartbeat { epoch: 12 };
        let mut r = FrameReader::new();
        r.feed(&encode(&a).unwrap());
        r.feed(&encode_binary(&b).unwrap());
        r.feed(&encode_binary(&a).unwrap());
        r.feed(&encode(&b).unwrap());
        assert_eq!(r.next_frame().unwrap(), Some(a.clone()));
        assert_eq!(r.next_frame().unwrap(), Some(b.clone()));
        assert_eq!(r.next_frame().unwrap(), Some(a));
        assert_eq!(r.next_frame().unwrap(), Some(b));
    }

    /// `encode_with` pins the handshake to JSON regardless of the
    /// negotiated codec — a pre-FVS2 peer must be able to read it.
    #[test]
    fn handshake_frames_always_encode_as_json() {
        let hello = WireMsg::Hello {
            node: 1,
            procs: 4,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: CODEC_ALL,
        };
        let ack = WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch: 1,
            codec: WireCodec::Binary.id(),
        };
        for m in [&hello, &ack] {
            let frame = encode_with(m, WireCodec::Binary).unwrap();
            assert_eq!(&frame[..4], &MAGIC);
        }
        let frame = encode_with(&WireMsg::Heartbeat { epoch: 1 }, WireCodec::Binary).unwrap();
        assert_eq!(&frame[..4], &MAGIC_V2);
    }

    /// Frames from peers predating negotiation carry no codec fields;
    /// they decode as JSON-only speakers.
    #[test]
    fn missing_codec_fields_default_to_json() {
        let frame = encode(&WireMsg::Hello {
            node: 5,
            procs: 2,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: CODEC_ALL,
        })
        .unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let legacy = text.replace(&format!(",\"codecs\":{CODEC_ALL}"), "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::Hello { codecs, .. } => assert_eq!(codecs, CODEC_JSON_BIT),
            other => panic!("unexpected {other:?}"),
        }
        let frame = encode(&WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch: 3,
            codec: WireCodec::Binary.id(),
        })
        .unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let legacy = text.replace(",\"codec\":2", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::HelloAck { codec, .. } => assert_eq!(codec, WireCodec::Json.id()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Truncating a binary frame anywhere yields an error (or a wait
    /// for more bytes) — never a panic — and the claimed proc count of
    /// a fuzzed summary cannot force an oversized allocation.
    #[test]
    fn binary_truncation_and_fuzz_are_safe() {
        let frame = encode_binary(&WireMsg::Summary(sample_summary())).unwrap();
        for cut in HEADER_LEN..frame.len() {
            let mut truncated = frame[..cut].to_vec();
            // Patch the length so the reader treats it as complete.
            let len = (cut - HEADER_LEN) as u32;
            truncated[4..8].copy_from_slice(&len.to_be_bytes());
            let mut r = FrameReader::new();
            r.feed(&truncated);
            let _ = r.next_frame(); // must not panic
        }
        // An absurd proc count over a tiny payload is refused.
        let mut p = vec![BK_SUMMARY];
        put_u64(&mut p, 1);
        put_f64(&mut p, 0.0);
        put_f64(&mut p, 100.0);
        put_u16(&mut p, u16::MAX);
        assert!(decode_payload_binary(&p).is_err());
    }

    #[test]
    fn fault_diagnostics_carry_length_and_codec() {
        // Oversize binary frame: claimed length and codec id captured.
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC_V2);
        junk.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        r.feed(&junk);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(FrameFault::Oversize));
        assert_eq!(r.last_fault_len(), (MAX_FRAME_LEN as u32) + 1);
        assert_eq!(r.last_fault_codec(), WireCodec::Binary.id());

        // Bad magic: neither length nor codec is trustworthy.
        let mut r = FrameReader::new();
        r.feed(b"XXXX\x00\x00\x00\x01z");
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault_len(), 0);
        assert_eq!(r.last_fault_codec(), 0);

        // Torn binary payload: observed length + binary codec id.
        let good = encode_binary(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        let mut bad = good.clone();
        bad[HEADER_LEN] = 0xEE; // unknown kind byte
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(FrameFault::Payload));
        assert_eq!(r.last_fault_len(), (good.len() - HEADER_LEN) as u32);
        assert_eq!(r.last_fault_codec(), WireCodec::Binary.id());

        // A clean parse clears all three diagnostics.
        r.feed(&good);
        assert!(r.next_frame().unwrap().is_some());
        assert_eq!(r.last_fault(), None);
        assert_eq!(r.last_fault_len(), 0);
        assert_eq!(r.last_fault_codec(), 0);
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan() {
        let mut s = sample_summary();
        s.power_w = f64::INFINITY;
        s.sent_at_s = f64::NAN;
        let frame = encode(&WireMsg::Summary(s)).unwrap();
        let mut r = FrameReader::new();
        r.feed(&frame);
        match r.next_frame().unwrap().unwrap() {
            WireMsg::Summary(back) => {
                // The JSON encoding maps non-finite to null; decode maps
                // null back to NaN, which ingest validation rejects.
                assert!(back.power_w.is_nan());
                assert!(back.sent_at_s.is_nan());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One data-plane frame drawn from `(kind, x, binary)`, with the
    /// message it must parse back to.
    fn arb_frame(kind: u8, x: u64, binary: bool) -> (WireMsg, Vec<u8>) {
        let node = (x % 64) as usize;
        let msg = match kind {
            0 => WireMsg::Heartbeat { epoch: x },
            1 => WireMsg::Ceiling(FrequencyCommand {
                node,
                freqs: (0..1 + x % 5)
                    .map(|i| FreqMhz(250 + 50 * ((x + i) % 16) as u32))
                    .collect(),
            }),
            2 => WireMsg::Summary(NodeSummary {
                node,
                power_w: (x % 1000) as f64,
                ..sample_summary()
            }),
            _ => WireMsg::Bye { node },
        };
        let codec = if binary {
            WireCodec::Binary
        } else {
            WireCodec::Json
        };
        let frame = encode_with(&msg, codec).unwrap();
        (msg, frame)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A stream of mixed-codec frames fed in arbitrary chunks, with
        /// parses interleaved, yields exactly the one-shot parse, and
        /// `pending()` counts the bytes not yet consumed after every
        /// feed and every parse.
        #[test]
        fn chunked_parse_matches_one_shot(
            frames in prop::collection::vec((0u8..4, any::<u64>(), any::<bool>()), 1..40),
            steps in prop::collection::vec((1usize..300, 0usize..4), 1..20),
        ) {
            let mut stream = Vec::new();
            let mut lens = Vec::new();
            let mut msgs = Vec::new();
            for &(kind, x, binary) in &frames {
                let (msg, frame) = arb_frame(kind, x, binary);
                lens.push(frame.len());
                stream.extend_from_slice(&frame);
                msgs.push(msg);
            }
            let mut one_shot = FrameReader::new();
            one_shot.feed(&stream);
            let mut expected = Vec::new();
            while let Some(msg) = one_shot.next_frame().unwrap() {
                expected.push(msg);
            }
            prop_assert_eq!(&expected, &msgs);
            prop_assert_eq!(one_shot.pending(), 0);

            let mut r = FrameReader::new();
            let mut got = Vec::new();
            let (mut fed, mut consumed) = (0usize, 0usize);
            for &(cut, polls) in steps.iter().cycle() {
                if fed == stream.len() {
                    break;
                }
                let end = (fed + cut).min(stream.len());
                r.feed(&stream[fed..end]);
                fed = end;
                prop_assert_eq!(r.pending(), fed - consumed);
                for _ in 0..polls {
                    if let Some(msg) = r.next_frame().unwrap() {
                        consumed += lens[got.len()];
                        got.push(msg);
                    }
                    prop_assert_eq!(r.pending(), fed - consumed);
                }
            }
            while let Some(msg) = r.next_frame().unwrap() {
                consumed += lens[got.len()];
                got.push(msg);
                prop_assert_eq!(r.pending(), fed - consumed);
            }
            prop_assert_eq!(r.pending(), 0);
            prop_assert_eq!(got, expected);
        }
    }
}
