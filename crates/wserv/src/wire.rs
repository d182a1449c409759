//! The `wserv` wire protocol: length-prefixed binary frames.
//!
//! Every message on a remote connection is one frame:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!       0     4  magic  = "WSRV"
//!       4     1  protocol version (= 3)
//!       5     1  frame kind (Hello / HelloAck / Request / Response /
//!                Bye / Cancel)
//!       6     1  flags (bit 0 = continuation: more frames follow for
//!                this id; other bits must be zero)
//!       7     1  reserved, must be zero
//!       8     8  request id (client-assigned; client id for Hello)
//!      16     4  payload length N (little-endian, bounded)
//!      20     N  payload (kind-specific encoding)
//!    20+N     8  checksum = 4-lane word hash over bytes [0, 20+N)
//!                (see [`checksum`])
//! ```
//!
//! Protocol version 2 repurposed one of version 1's two reserved
//! header bytes as a flags field so a response can span a *sequence*
//! of frames: a progressive header frame (exact LL plane) followed by
//! detail-plane frames ordered by energy, every frame but the last
//! carrying [`FLAG_CONTINUE`]. Version 2 also added
//! [`FrameKind::Cancel`], the client's idempotent "stop sending planes
//! for this id".
//!
//! Protocol version 3 changed only the meaning of the trailer: the
//! byte-serial FNV-1a 64 of versions 1–2 became the four-lane word hash
//! in [`checksum`], which hashes a frame at memory speed and still
//! catches every single-bit flip. The layout is unchanged, so a v2 peer
//! fails on the version byte with a typed error instead of on every
//! checksum.
//!
//! All integers are little-endian; all floating-point payloads are
//! IEEE-754 bit patterns, so encode→decode round-trips *bitwise* — the
//! property tests pin that down. The decoder is incremental (feed it a
//! growing byte buffer) and total: arbitrary input never panics, it
//! yields a typed [`WireError`] or asks for more bytes. A frame whose
//! checksum does not match its bytes is [`WireError::FrameCorrupt`]; a
//! frame whose declared payload exceeds the receive window is
//! [`WireError::FrameTooLarge`] *before* any allocation of that size.
//! Encoding is checked too: a payload or field that cannot fit its
//! wire-format width surfaces as a typed error at *encode* time
//! instead of silently truncating the length field.

use std::fmt;

use crate::request::{DecomposeRequest, DecomposeResponse, Priority, Rejection, ServeResult};
use dwt::lifting::LiftingKind;
use dwt::{Boundary, FilterBank, Matrix, Pyramid, Subbands};

/// Frame magic: `"WSRV"`.
pub const MAGIC: [u8; 4] = *b"WSRV";
/// Protocol version this build speaks. Version 2 added the
/// continuation flag and Cancel; version 3 replaced the FNV-1a trailer
/// with the four-lane [`checksum`], so peers of different versions
/// refuse each other's frames on the version byte.
pub const PROTOCOL_VERSION: u8 = 3;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 20;
/// Trailing checksum bytes after the payload.
pub const TRAILER_LEN: usize = 8;
/// Default receive window for one frame's payload (16 MiB).
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;
/// Header flag bit 0: more frames follow for this request id (a
/// progressive response's header and every detail plane but the last).
pub const FLAG_CONTINUE: u8 = 0x01;
/// Every flag bit this build understands; others must be zero.
pub const FLAG_MASK: u8 = FLAG_CONTINUE;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client handshake: id field is the client id, payload is
    /// [`Hello`].
    Hello = 0,
    /// Server handshake reply, payload is [`Hello`] (the server's view).
    HelloAck = 1,
    /// A [`DecomposeRequest`], id field is the client-assigned request
    /// id (the dedup key for idempotent resubmits).
    Request = 2,
    /// A [`ServeResult`] for the request with the same id — either one
    /// monolithic frame, or a progressive sequence (header + planes)
    /// linked by [`FLAG_CONTINUE`].
    Response = 3,
    /// Clean goodbye before FIN; no payload.
    Bye = 4,
    /// Client asks the server to stop sending plane frames for this id
    /// (its tolerance is met). Idempotent: unknown, finished, or
    /// repeated ids are all no-ops; no payload.
    Cancel = 5,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::HelloAck),
            2 => Some(FrameKind::Request),
            3 => Some(FrameKind::Response),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::Cancel),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// Request id (client id for handshake frames).
    pub id: u64,
    /// Header flags ([`FLAG_CONTINUE`] is the only defined bit).
    pub flags: u8,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no flags set.
    pub fn new(kind: FrameKind, id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            id,
            flags: 0,
            payload,
        }
    }

    /// Set [`FLAG_CONTINUE`]: more frames follow for this id.
    pub fn with_continue(mut self) -> Frame {
        self.flags |= FLAG_CONTINUE;
        self
    }

    /// Whether more frames follow for this id.
    pub fn more_follows(&self) -> bool {
        self.flags & FLAG_CONTINUE != 0
    }
}

/// Typed decode failure. Every malformed, truncated, or adversarial
/// input maps to exactly one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes cannot be a frame: bad magic, unknown version or kind,
    /// nonzero reserved bits, checksum mismatch, truncated input, or a
    /// payload that does not parse as its kind.
    FrameCorrupt {
        /// Human-readable cause.
        detail: String,
    },
    /// The declared payload length exceeds the receive window. Raised
    /// before any payload-sized allocation.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The receive window it exceeded.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameCorrupt { detail } => write!(f, "corrupt frame: {detail}"),
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload {len} B exceeds the {max} B receive window"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn corrupt(detail: impl Into<String>) -> WireError {
    WireError::FrameCorrupt {
        detail: detail.into(),
    }
}

/// Odd multipliers of the checksum round (the xxHash64 primes 1 and 2).
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One lane step: `rotl(acc + w·P2, 31)·P1`. For a fixed `acc` it is a
/// bijection in `w`, and for a fixed `w` a bijection in `acc` — every
/// step is an add, a rotation, or a multiply by an odd constant, and
/// each of those is invertible mod 2^64.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// MurmurHash3's 64-bit finalizer: a bijection that spreads every lane
/// bit over the whole word before the lanes are folded.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The frame checksum (protocol v3): four independent 64-bit lanes over
/// 32-byte stripes of little-endian `u64` words, word `i` of a stripe
/// feeding lane `i`. The remainder is zero-padded into one final
/// stripe, and the lanes fold as `len ⊕ ⨁ᵢ rotl(fmix64(laneᵢ), 16i)`.
/// The four lanes are independent multiply chains, so the loop runs at
/// memory speed instead of one dependent multiply per byte.
///
/// Any corruption confined to one aligned 8-byte word is always
/// detected, which includes every single-bit flip. Two inputs of equal
/// length that differ only in word `k` feed identical words to every
/// lane except lane `k mod 4`, and that lane sees different words at
/// exactly one step. [`round`] is a bijection in the word, so the lane
/// state differs after that step. Every later step is a bijection in
/// the state, so the final lane value differs. `fmix64` and the
/// rotation are bijections, so that lane's fold term differs, and the
/// other terms and `len` are unchanged. So the XOR differs. Zero
/// padding keeps this true for a word in the tail, since both inputs
/// pad with the same bytes.
pub fn checksum(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("slice is 8 bytes"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut absorb = |stripe: &[u8]| {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    };
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        absorb(stripe);
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut pad = [0u8; 32];
        pad[..tail.len()].copy_from_slice(tail);
        absorb(&pad);
    }
    lanes
        .iter()
        .enumerate()
        .fold(bytes.len() as u64, |h, (i, &lane)| {
            h ^ fmix64(lane).rotate_left(16 * i as u32)
        })
}

/// Narrow a `usize` field into its `u32` wire width, or fail typed at
/// encode time — never silently truncate a length field.
fn wire_u32(n: usize, what: &str) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| {
        // FrameTooLarge carries the offending size; the detail of
        // *which* field overflowed matters less than failing typed
        // before a peer sees a mangled frame.
        let _ = what;
        WireError::FrameTooLarge {
            len: n as u64,
            max: u32::MAX as u64,
        }
    })
}

/// Encode one frame to bytes (header, payload, checksum). Fails typed
/// if the payload cannot fit the 32-bit length field (instead of
/// truncating it into a frame the peer must reject as corrupt) or if
/// the frame carries flag bits this protocol version does not define.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let len = wire_u32(frame.payload.len(), "frame payload")?;
    if frame.flags & !FLAG_MASK != 0 {
        return Err(corrupt(format!(
            "undefined flag bits {:#04x} at encode time",
            frame.flags & !FLAG_MASK
        )));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(frame.kind as u8);
    out.push(frame.flags);
    out.push(0);
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Incremental decode: `Ok(None)` means the buffer holds a valid prefix
/// of a frame and more bytes are needed; `Ok(Some((frame, consumed)))`
/// yields one frame and how many bytes it spanned. Errors are terminal
/// for the byte stream (framing is lost once bytes are untrustworthy).
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        // Reject bad magic as soon as the bytes disagree, without
        // waiting for a full header.
        let n = buf.len().min(4);
        if buf[..n] != MAGIC[..n] {
            return Err(corrupt("bad magic"));
        }
        return Ok(None);
    }
    if buf[0..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(corrupt(format!(
            "protocol version {} (this build speaks {PROTOCOL_VERSION})",
            buf[4]
        )));
    }
    let Some(kind) = FrameKind::from_u8(buf[5]) else {
        return Err(corrupt(format!("unknown frame kind {}", buf[5])));
    };
    let flags = buf[6];
    if flags & !FLAG_MASK != 0 {
        return Err(corrupt(format!(
            "undefined flag bits {:#04x}",
            flags & !FLAG_MASK
        )));
    }
    if buf[7] != 0 {
        return Err(corrupt("nonzero reserved bits"));
    }
    let id = u64::from_le_bytes(buf[8..16].try_into().expect("slice is 8 bytes"));
    let len = u32::from_le_bytes(buf[16..20].try_into().expect("slice is 4 bytes"));
    if len > max_payload {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[..HEADER_LEN + len as usize];
    let declared = u64::from_le_bytes(
        buf[HEADER_LEN + len as usize..total]
            .try_into()
            .expect("slice is 8 bytes"),
    );
    if checksum(body) != declared {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Some((
        Frame {
            kind,
            id,
            flags,
            payload: body[HEADER_LEN..].to_vec(),
        },
        total,
    )))
}

/// Decode a buffer that must hold exactly one complete frame (the
/// non-streaming entry point the property tests drive): truncated input
/// and trailing garbage are both [`WireError::FrameCorrupt`].
pub fn decode_complete(buf: &[u8], max_payload: u32) -> Result<Frame, WireError> {
    match decode_frame(buf, max_payload)? {
        None => Err(corrupt("truncated frame")),
        Some((frame, consumed)) if consumed == buf.len() => Ok(frame),
        Some(_) => Err(corrupt("trailing bytes after frame")),
    }
}

// ---------------------------------------------------------------------
// Payload codecs. Each reads through a bounds-checked cursor so short or
// oversized payloads surface as FrameCorrupt, never a panic.
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload shorter than its fields"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `len`-prefixed f64 plane of exactly `n` values.
    fn plane(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let bytes = self.take(n.checked_mul(8).ok_or_else(|| corrupt("plane overflow"))?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes in payload"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    out.extend_from_slice(&wire_u32(s.len(), "string")?.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_plane(out: &mut Vec<u8>, data: &[f64]) {
    let start = out.len();
    out.resize(start + data.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(data) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Guard a decoded `rows x cols` geometry against adversarial sizes:
/// the element count must agree with what the payload can actually
/// hold, which the cursor enforces by refusing short reads.
fn matrix(r: &mut Reader<'_>) -> Result<Matrix, WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| corrupt("matrix dims overflow"))?;
    let data = r.plane(n)?;
    Matrix::from_vec(rows, cols, data).map_err(|e| corrupt(e.to_string()))
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) -> Result<(), WireError> {
    out.extend_from_slice(&wire_u32(m.rows(), "matrix rows")?.to_le_bytes());
    out.extend_from_slice(&wire_u32(m.cols(), "matrix cols")?.to_le_bytes());
    put_plane(out, m.data());
    Ok(())
}

/// Handshake payload: what each side speaks and the windows it offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the sender speaks.
    pub protocol: u32,
    /// Largest frame payload the sender will accept.
    pub max_payload: u32,
    /// In-flight request window the sender honors per connection.
    pub window: u32,
}

/// Encode a handshake frame (`Hello` from clients, `HelloAck` from the
/// server). The frame id carries the client id.
pub fn encode_hello(kind: FrameKind, client_id: u64, hello: &Hello) -> Frame {
    let mut payload = Vec::with_capacity(12);
    payload.extend_from_slice(&hello.protocol.to_le_bytes());
    payload.extend_from_slice(&hello.max_payload.to_le_bytes());
    payload.extend_from_slice(&hello.window.to_le_bytes());
    Frame::new(kind, client_id, payload)
}

/// Decode a handshake payload.
pub fn decode_hello(frame: &Frame) -> Result<Hello, WireError> {
    let mut r = Reader::new(&frame.payload);
    let hello = Hello {
        protocol: r.u32()?,
        max_payload: r.u32()?,
        window: r.u32()?,
    };
    r.done()?;
    Ok(hello)
}

fn encode_bank(out: &mut Vec<u8>, bank: &FilterBank) -> Result<(), WireError> {
    match bank.lifting_kind() {
        Some(LiftingKind::LeGall53) => out.push(1),
        Some(LiftingKind::Cdf97) => out.push(2),
        None => {
            // Orthonormal banks reconstruct exactly from their low-pass
            // taps (the high-pass is the deterministic alternating
            // flip), so ship name + taps bit-exactly.
            out.push(0);
            put_string(out, bank.name())?;
            out.extend_from_slice(&wire_u32(bank.low().len(), "filter taps")?.to_le_bytes());
            put_plane(out, bank.low());
        }
    }
    Ok(())
}

fn decode_bank(r: &mut Reader<'_>) -> Result<FilterBank, WireError> {
    match r.u8()? {
        1 => Ok(FilterBank::cdf53()),
        2 => Ok(FilterBank::cdf97()),
        0 => {
            let name = r.string()?;
            let taps = r.u32()? as usize;
            let low = r.plane(taps)?;
            FilterBank::from_lowpass(name, low).map_err(|e| corrupt(e.to_string()))
        }
        k => Err(corrupt(format!("unknown filter-bank tag {k}"))),
    }
}

fn boundary_tag(mode: Boundary) -> u8 {
    match mode {
        Boundary::Periodic => 0,
        Boundary::Symmetric => 1,
        Boundary::Zero => 2,
    }
}

fn decode_boundary(tag: u8) -> Result<Boundary, WireError> {
    match tag {
        0 => Ok(Boundary::Periodic),
        1 => Ok(Boundary::Symmetric),
        2 => Ok(Boundary::Zero),
        t => Err(corrupt(format!("unknown boundary tag {t}"))),
    }
}

fn priority_tag(p: Priority) -> u8 {
    p as u8
}

fn decode_priority(tag: u8) -> Result<Priority, WireError> {
    match tag {
        0 => Ok(Priority::Batch),
        1 => Ok(Priority::Standard),
        2 => Ok(Priority::Interactive),
        t => Err(corrupt(format!("unknown priority tag {t}"))),
    }
}

/// Encode one request as a [`FrameKind::Request`] frame with id `id`.
/// Fails typed if any geometry field exceeds its 32-bit wire width.
pub fn encode_request(id: u64, req: &DecomposeRequest) -> Result<Frame, WireError> {
    let mut payload = Vec::with_capacity(16 + req.image.data().len() * 8);
    payload.push(priority_tag(req.priority));
    payload.push(boundary_tag(req.mode));
    payload.push(req.deadline.is_some() as u8);
    payload.push(0);
    payload.extend_from_slice(&wire_u32(req.levels, "levels")?.to_le_bytes());
    if let Some(d) = req.deadline {
        payload.extend_from_slice(&d.to_bits().to_le_bytes());
    }
    encode_bank(&mut payload, &req.bank)?;
    put_matrix(&mut payload, &req.image)?;
    Ok(Frame::new(FrameKind::Request, id, payload))
}

/// Decode a [`FrameKind::Request`] payload.
pub fn decode_request(frame: &Frame) -> Result<DecomposeRequest, WireError> {
    let mut r = Reader::new(&frame.payload);
    let priority = decode_priority(r.u8()?)?;
    let mode = decode_boundary(r.u8()?)?;
    let has_deadline = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(corrupt(format!("bad deadline flag {t}"))),
    };
    if r.u8()? != 0 {
        return Err(corrupt("nonzero request padding"));
    }
    let levels = r.u32()? as usize;
    let deadline = if has_deadline { Some(r.f64()?) } else { None };
    let bank = decode_bank(&mut r)?;
    let image = matrix(&mut r)?;
    r.done()?;
    Ok(DecomposeRequest {
        image,
        bank,
        levels,
        mode,
        priority,
        deadline,
    })
}

fn encode_pyramid(out: &mut Vec<u8>, pyr: &Pyramid) -> Result<(), WireError> {
    let (rows, cols) = pyr.image_dims();
    out.extend_from_slice(&wire_u32(rows, "pyramid rows")?.to_le_bytes());
    out.extend_from_slice(&wire_u32(cols, "pyramid cols")?.to_le_bytes());
    out.extend_from_slice(&wire_u32(pyr.levels(), "pyramid levels")?.to_le_bytes());
    put_plane(out, pyr.approx.data());
    for bands in &pyr.detail {
        put_plane(out, bands.lh.data());
        put_plane(out, bands.hl.data());
        put_plane(out, bands.hh.data());
    }
    Ok(())
}

fn decode_pyramid(r: &mut Reader<'_>) -> Result<Pyramid, WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let levels = r.u32()? as usize;
    if levels == 0 || levels >= 32 {
        return Err(corrupt(format!("pyramid depth {levels} out of range")));
    }
    if rows >> levels << levels != rows || cols >> levels << levels != cols {
        return Err(corrupt(format!(
            "pyramid dims {rows}x{cols} do not divide by 2^{levels}"
        )));
    }
    let band = |r: &mut Reader<'_>, h: usize, w: usize| -> Result<Matrix, WireError> {
        let data = r.plane(h.checked_mul(w).ok_or_else(|| corrupt("band overflow"))?)?;
        Matrix::from_vec(h, w, data).map_err(|e| corrupt(e.to_string()))
    };
    let approx = band(r, rows >> levels, cols >> levels)?;
    let mut detail = Vec::with_capacity(levels);
    for level in 1..=levels {
        let (h, w) = (rows >> level, cols >> level);
        detail.push(Subbands {
            lh: band(r, h, w)?,
            hl: band(r, h, w)?,
            hh: band(r, h, w)?,
        });
    }
    Ok(Pyramid { approx, detail })
}

fn encode_rejection(out: &mut Vec<u8>, rej: &Rejection) -> Result<(), WireError> {
    match rej {
        Rejection::QueueFull { depth } => {
            out.push(0);
            out.extend_from_slice(&(*depth as u64).to_le_bytes());
        }
        Rejection::Shed { by } => {
            out.push(1);
            out.push(priority_tag(*by));
        }
        Rejection::DeadlineExpired { deadline, now } => {
            out.push(2);
            out.extend_from_slice(&deadline.to_bits().to_le_bytes());
            out.extend_from_slice(&now.to_bits().to_le_bytes());
        }
        Rejection::Invalid { detail } => {
            out.push(3);
            put_string(out, detail)?;
        }
        Rejection::Draining => out.push(4),
        Rejection::ShardFailed { shard, restarts } => {
            out.push(5);
            out.extend_from_slice(&(*shard as u64).to_le_bytes());
            out.extend_from_slice(&restarts.to_le_bytes());
        }
        Rejection::Requeued { attempts } => {
            out.push(6);
            out.extend_from_slice(&attempts.to_le_bytes());
        }
    }
    Ok(())
}

fn decode_rejection(r: &mut Reader<'_>) -> Result<Rejection, WireError> {
    Ok(match r.u8()? {
        0 => Rejection::QueueFull {
            depth: r.u64()? as usize,
        },
        1 => Rejection::Shed {
            by: decode_priority(r.u8()?)?,
        },
        2 => Rejection::DeadlineExpired {
            deadline: r.f64()?,
            now: r.f64()?,
        },
        3 => Rejection::Invalid {
            detail: r.string()?,
        },
        4 => Rejection::Draining,
        5 => Rejection::ShardFailed {
            shard: r.u64()? as usize,
            restarts: r.u32()?,
        },
        6 => Rejection::Requeued { attempts: r.u32()? },
        t => return Err(corrupt(format!("unknown rejection tag {t}"))),
    })
}

/// Encode one terminal outcome as a [`FrameKind::Response`] frame.
pub fn encode_response(id: u64, result: &ServeResult) -> Result<Frame, WireError> {
    // Outcome fields (32 B), pyramid geometry (12 B), then every
    // coefficient: reserve it all so the payload never regrows.
    let mut payload = match result {
        Ok(resp) => Vec::with_capacity(44 + 8 * resp.pyramid.coefficient_count()),
        Err(_) => Vec::new(),
    };
    match result {
        Ok(resp) => {
            payload.push(0);
            payload.push(resp.cache_hit as u8);
            payload.push(resp.degraded as u8);
            payload.push(0);
            payload.extend_from_slice(&wire_u32(resp.batch_size, "batch size")?.to_le_bytes());
            payload.extend_from_slice(&resp.wait_s.to_bits().to_le_bytes());
            payload.extend_from_slice(&resp.service_s.to_bits().to_le_bytes());
            payload.extend_from_slice(&resp.error_bound.to_bits().to_le_bytes());
            encode_pyramid(&mut payload, &resp.pyramid)?;
        }
        Err(rej) => {
            payload.push(1);
            encode_rejection(&mut payload, rej)?;
        }
    }
    Ok(Frame::new(FrameKind::Response, id, payload))
}

/// Decode a [`FrameKind::Response`] payload that must be a *terminal*
/// outcome (tag 0 or 1). Progressive header/plane payloads are a typed
/// error here; use [`decode_response_body`] to accept all three.
pub fn decode_response(frame: &Frame) -> Result<ServeResult, WireError> {
    let mut r = Reader::new(&frame.payload);
    let result = match r.u8()? {
        0 => {
            let cache_hit = r.u8()? != 0;
            let degraded = r.u8()? != 0;
            if r.u8()? != 0 {
                return Err(corrupt("nonzero response padding"));
            }
            let batch_size = r.u32()? as usize;
            let wait_s = r.f64()?;
            let service_s = r.f64()?;
            let error_bound = r.f64()?;
            let pyramid = decode_pyramid(&mut r)?;
            Ok(DecomposeResponse {
                pyramid,
                cache_hit,
                batch_size,
                wait_s,
                service_s,
                degraded,
                error_bound,
            })
        }
        1 => Err(decode_rejection(&mut r)?),
        t @ (2 | 3) => {
            return Err(corrupt(format!(
                "progressive response tag {t} where a terminal outcome was expected"
            )))
        }
        t => return Err(corrupt(format!("unknown outcome tag {t}"))),
    };
    r.done()?;
    Ok(result)
}

// ---------------------------------------------------------------------
// Progressive response payloads (outcome tags 2 and 3)
// ---------------------------------------------------------------------

/// First frame of a progressive response: all the serving metadata, the
/// geometry, the plane count, and the *exact* LL plane. Carries
/// [`FLAG_CONTINUE`] whenever detail planes follow.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveHeader {
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the server served this in degraded mode.
    pub degraded: bool,
    /// Requests sharing the engine dispatch.
    pub batch_size: usize,
    /// Seconds queued before dispatch.
    pub wait_s: f64,
    /// Seconds of service.
    pub service_s: f64,
    /// The server-side error bound of the *complete* pyramid versus the
    /// exact decomposition (degraded-mode quantization; `0.0` if exact).
    pub base_error_bound: f64,
    /// Original image rows.
    pub rows: usize,
    /// Original image cols.
    pub cols: usize,
    /// Decomposition depth.
    pub levels: usize,
    /// Detail-plane frames that follow (3 per level).
    pub planes_total: usize,
    /// Largest absolute error the on-wire codec may add to any detail
    /// coefficient (`threshold + step / 2`; `0.0` for lossless).
    pub codec_tolerance: f64,
    /// Error bound of the reassembly after this frame alone (missing
    /// detail planes read as zero), *relative to the shipped pyramid*.
    pub bound_after: f64,
    /// The LL plane, always exact.
    pub approx: Matrix,
}

/// Which detail band a plane frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneBand {
    /// Low-high (horizontal detail).
    Lh = 0,
    /// High-low (vertical detail).
    Hl = 1,
    /// High-high (diagonal detail).
    Hh = 2,
}

impl PlaneBand {
    fn from_u8(v: u8) -> Option<PlaneBand> {
        match v {
            0 => Some(PlaneBand::Lh),
            1 => Some(PlaneBand::Hl),
            2 => Some(PlaneBand::Hh),
            _ => None,
        }
    }
}

/// Coefficients of one detail plane, densely or sparsely encoded —
/// whichever is fewer bytes for the plane's post-quantization support.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaneCoeffs {
    /// Every coefficient, row-major.
    Dense(Vec<f64>),
    /// `(row-major index, value)` for the nonzero coefficients, indices
    /// strictly ascending (the canonical order; decode enforces it).
    Sparse(Vec<(u32, f64)>),
}

/// One detail-plane frame of a progressive response.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressivePlane {
    /// 1-based position in the energy-ordered plane sequence.
    pub seq: usize,
    /// Pyramid level (1 = finest).
    pub level: usize,
    /// Which band of that level.
    pub band: PlaneBand,
    /// Plane rows (`image rows >> level`).
    pub rows: usize,
    /// Plane cols (`image cols >> level`).
    pub cols: usize,
    /// Error bound of the reassembly once this plane is applied,
    /// relative to the shipped pyramid: `max(codec tolerance, largest
    /// original |coeff| over the planes still outstanding)`. Monotone
    /// nonincreasing along the sequence by construction.
    pub bound_after: f64,
    /// The (possibly quantized) coefficients.
    pub coeffs: PlaneCoeffs,
}

/// Encode the header frame of a progressive response.
pub fn encode_progressive_header(id: u64, h: &ProgressiveHeader) -> Result<Frame, WireError> {
    let mut payload = Vec::with_capacity(64 + h.approx.data().len() * 8);
    payload.push(2);
    payload.push(h.cache_hit as u8);
    payload.push(h.degraded as u8);
    payload.push(0);
    payload.extend_from_slice(&wire_u32(h.batch_size, "batch size")?.to_le_bytes());
    payload.extend_from_slice(&h.wait_s.to_bits().to_le_bytes());
    payload.extend_from_slice(&h.service_s.to_bits().to_le_bytes());
    payload.extend_from_slice(&h.base_error_bound.to_bits().to_le_bytes());
    payload.extend_from_slice(&wire_u32(h.rows, "pyramid rows")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(h.cols, "pyramid cols")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(h.levels, "pyramid levels")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(h.planes_total, "plane count")?.to_le_bytes());
    payload.extend_from_slice(&h.codec_tolerance.to_bits().to_le_bytes());
    payload.extend_from_slice(&h.bound_after.to_bits().to_le_bytes());
    put_matrix(&mut payload, &h.approx)?;
    let frame = Frame::new(FrameKind::Response, id, payload);
    Ok(if h.planes_total > 0 {
        frame.with_continue()
    } else {
        frame
    })
}

fn decode_progressive_header(r: &mut Reader<'_>) -> Result<ProgressiveHeader, WireError> {
    let cache_hit = r.u8()? != 0;
    let degraded = r.u8()? != 0;
    if r.u8()? != 0 {
        return Err(corrupt("nonzero progressive header padding"));
    }
    let batch_size = r.u32()? as usize;
    let wait_s = r.f64()?;
    let service_s = r.f64()?;
    let base_error_bound = r.f64()?;
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let levels = r.u32()? as usize;
    let planes_total = r.u32()? as usize;
    let codec_tolerance = r.f64()?;
    let bound_after = r.f64()?;
    if levels == 0 || levels >= 32 {
        return Err(corrupt(format!("pyramid depth {levels} out of range")));
    }
    if rows >> levels << levels != rows || cols >> levels << levels != cols {
        return Err(corrupt(format!(
            "pyramid dims {rows}x{cols} do not divide by 2^{levels}"
        )));
    }
    if planes_total != 3 * levels {
        return Err(corrupt(format!(
            "progressive header declares {planes_total} planes for {levels} levels"
        )));
    }
    let approx = matrix(r)?;
    if approx.rows() != rows >> levels || approx.cols() != cols >> levels {
        return Err(corrupt(format!(
            "LL plane is {}x{}, geometry demands {}x{}",
            approx.rows(),
            approx.cols(),
            rows >> levels,
            cols >> levels
        )));
    }
    Ok(ProgressiveHeader {
        cache_hit,
        degraded,
        batch_size,
        wait_s,
        service_s,
        base_error_bound,
        rows,
        cols,
        levels,
        planes_total,
        codec_tolerance,
        bound_after,
        approx,
    })
}

/// Encode one detail-plane frame; `more` sets [`FLAG_CONTINUE`] (clear
/// only on the final plane of the sequence).
pub fn encode_progressive_plane(
    id: u64,
    p: &ProgressivePlane,
    more: bool,
) -> Result<Frame, WireError> {
    let mut payload = Vec::with_capacity(32);
    payload.push(3);
    payload.push(p.band as u8);
    match &p.coeffs {
        PlaneCoeffs::Dense(_) => payload.push(0),
        PlaneCoeffs::Sparse(_) => payload.push(1),
    }
    payload.push(0);
    payload.extend_from_slice(&wire_u32(p.seq, "plane seq")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(p.level, "plane level")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(p.rows, "plane rows")?.to_le_bytes());
    payload.extend_from_slice(&wire_u32(p.cols, "plane cols")?.to_le_bytes());
    payload.extend_from_slice(&p.bound_after.to_bits().to_le_bytes());
    match &p.coeffs {
        PlaneCoeffs::Dense(data) => {
            if data.len() != p.rows * p.cols {
                return Err(corrupt(format!(
                    "dense plane holds {} values, geometry demands {}",
                    data.len(),
                    p.rows * p.cols
                )));
            }
            put_plane(&mut payload, data);
        }
        PlaneCoeffs::Sparse(entries) => {
            payload.extend_from_slice(&wire_u32(entries.len(), "sparse count")?.to_le_bytes());
            for &(ix, v) in entries {
                payload.extend_from_slice(&ix.to_le_bytes());
                payload.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    let frame = Frame::new(FrameKind::Response, id, payload);
    Ok(if more { frame.with_continue() } else { frame })
}

fn decode_progressive_plane(r: &mut Reader<'_>) -> Result<ProgressivePlane, WireError> {
    let band = PlaneBand::from_u8(r.u8()?)
        .ok_or_else(|| corrupt("unknown detail band tag".to_string()))?;
    let encoding = r.u8()?;
    if r.u8()? != 0 {
        return Err(corrupt("nonzero plane padding"));
    }
    let seq = r.u32()? as usize;
    let level = r.u32()? as usize;
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let bound_after = r.f64()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| corrupt("plane dims overflow"))?;
    let coeffs = match encoding {
        0 => PlaneCoeffs::Dense(r.plane(n)?),
        1 => {
            let count = r.u32()? as usize;
            if count > n {
                return Err(corrupt(format!(
                    "sparse plane declares {count} entries in {n} slots"
                )));
            }
            let mut entries = Vec::with_capacity(count);
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let ix = r.u32()?;
                let v = r.f64()?;
                if ix as usize >= n {
                    return Err(corrupt(format!("sparse index {ix} out of {n} slots")));
                }
                if prev.is_some_and(|p| ix <= p) {
                    return Err(corrupt("sparse indices not strictly ascending"));
                }
                prev = Some(ix);
                entries.push((ix, v));
            }
            PlaneCoeffs::Sparse(entries)
        }
        t => return Err(corrupt(format!("unknown plane encoding {t}"))),
    };
    Ok(ProgressivePlane {
        seq,
        level,
        band,
        rows,
        cols,
        bound_after,
        coeffs,
    })
}

/// Every shape a [`FrameKind::Response`] payload can take.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A terminal outcome (monolithic response or rejection).
    Outcome(ServeResult),
    /// The first frame of a progressive sequence.
    Header(ProgressiveHeader),
    /// One detail plane of a progressive sequence.
    Plane(ProgressivePlane),
}

/// Decode any [`FrameKind::Response`] payload — monolithic outcome,
/// progressive header, or progressive plane.
pub fn decode_response_body(frame: &Frame) -> Result<ResponseBody, WireError> {
    match frame.payload.first() {
        Some(2) => {
            let mut r = Reader::new(&frame.payload);
            let _tag = r.u8()?;
            let h = decode_progressive_header(&mut r)?;
            r.done()?;
            Ok(ResponseBody::Header(h))
        }
        Some(3) => {
            let mut r = Reader::new(&frame.payload);
            let _tag = r.u8()?;
            let p = decode_progressive_plane(&mut r)?;
            r.done()?;
            Ok(ResponseBody::Plane(p))
        }
        _ => Ok(ResponseBody::Outcome(decode_response(frame)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> DecomposeRequest {
        let img = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64 - 31.5);
        DecomposeRequest::new(img, FilterBank::haar(), 2)
            .with_priority(Priority::Interactive)
            .with_deadline(0.125)
    }

    #[test]
    fn frames_round_trip_bitwise() {
        let req = sample_request();
        for frame in [
            encode_hello(
                FrameKind::Hello,
                7,
                &Hello {
                    protocol: PROTOCOL_VERSION as u32,
                    max_payload: DEFAULT_MAX_PAYLOAD,
                    window: 4,
                },
            ),
            encode_request(42, &req).unwrap(),
            encode_response(
                42,
                &Err(Rejection::ShardFailed {
                    shard: 2,
                    restarts: 3,
                }),
            )
            .unwrap(),
            Frame::new(FrameKind::Bye, 0, Vec::new()),
            Frame::new(FrameKind::Cancel, 17, Vec::new()),
            Frame::new(FrameKind::Response, 3, vec![9, 9]).with_continue(),
        ] {
            let bytes = encode_frame(&frame).unwrap();
            let decoded = decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
            assert_eq!(decoded, frame);
        }
        let back =
            decode_request(&encode_request(9, &req).unwrap()).expect("valid request payload");
        assert_eq!(back.image, req.image);
        assert_eq!(back.bank, req.bank);
        assert_eq!(back.levels, req.levels);
        assert_eq!(back.deadline, req.deadline);
        assert_eq!(back.priority, req.priority);
    }

    #[test]
    fn undefined_flag_bits_are_rejected_both_ways() {
        let mut frame = Frame::new(FrameKind::Bye, 0, Vec::new());
        frame.flags = 0x82;
        assert!(matches!(
            encode_frame(&frame),
            Err(WireError::FrameCorrupt { .. })
        ));
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[6] = 0x02;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Reserved byte 7 must stay zero too.
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[7] = 1;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::FrameCorrupt { .. })
        ));
    }

    #[test]
    fn continue_flag_round_trips_and_reads_back() {
        let f = Frame::new(FrameKind::Response, 5, vec![1]).with_continue();
        assert!(f.more_follows());
        let bytes = encode_frame(&f).unwrap();
        let got = decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(got.more_follows());
        assert_eq!(got, f);
        assert!(!Frame::new(FrameKind::Response, 5, vec![1]).more_follows());
    }

    #[test]
    fn oversized_matrix_dims_are_typed_at_encode_time() {
        // A Matrix with > u32::MAX rows cannot be built in a test, so
        // exercise the checked helper directly.
        match wire_u32(u32::MAX as usize + 1, "matrix rows") {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64 + 1);
                assert_eq!(max, u32::MAX as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(wire_u32(7, "ok").unwrap(), 7);
    }

    fn sample_progressive() -> (ProgressiveHeader, Vec<ProgressivePlane>) {
        let header = ProgressiveHeader {
            cache_hit: true,
            degraded: false,
            batch_size: 3,
            wait_s: 0.25,
            service_s: 0.5,
            base_error_bound: 0.0,
            rows: 8,
            cols: 8,
            levels: 2,
            planes_total: 6,
            codec_tolerance: 0.05,
            bound_after: 1.5,
            approx: Matrix::from_fn(2, 2, |r, c| (r + c) as f64),
        };
        let planes = vec![
            ProgressivePlane {
                seq: 1,
                level: 2,
                band: PlaneBand::Lh,
                rows: 2,
                cols: 2,
                bound_after: 0.75,
                coeffs: PlaneCoeffs::Dense(vec![1.0, -2.0, 0.0, 0.5]),
            },
            ProgressivePlane {
                seq: 2,
                level: 1,
                band: PlaneBand::Hh,
                rows: 4,
                cols: 4,
                bound_after: 0.05,
                coeffs: PlaneCoeffs::Sparse(vec![(0, 3.0), (5, -1.25), (15, 0.125)]),
            },
        ];
        (header, planes)
    }

    #[test]
    fn progressive_payloads_round_trip() {
        let (header, planes) = sample_progressive();
        let hf = encode_progressive_header(11, &header).unwrap();
        assert!(hf.more_follows(), "planes follow, CONTINUE must be set");
        match decode_response_body(&hf).unwrap() {
            ResponseBody::Header(got) => assert_eq!(got, header),
            other => panic!("expected header, got {other:?}"),
        }
        for (i, p) in planes.iter().enumerate() {
            let more = i + 1 < planes.len();
            let pf = encode_progressive_plane(11, p, more).unwrap();
            assert_eq!(pf.more_follows(), more);
            match decode_response_body(&pf).unwrap() {
                ResponseBody::Plane(got) => assert_eq!(&got, p),
                other => panic!("expected plane, got {other:?}"),
            }
        }
        // decode_response refuses progressive payloads with a typed error.
        assert!(matches!(
            decode_response(&hf),
            Err(WireError::FrameCorrupt { .. })
        ));
        // decode_response_body still passes terminal outcomes through.
        let term = encode_response(11, &Err(Rejection::Draining)).unwrap();
        assert!(matches!(
            decode_response_body(&term).unwrap(),
            ResponseBody::Outcome(Err(Rejection::Draining))
        ));
    }

    #[test]
    fn progressive_decode_rejects_malformed_planes() {
        let (header, planes) = sample_progressive();
        // Sparse indices must be strictly ascending.
        let mut bad = planes[1].clone();
        bad.coeffs = PlaneCoeffs::Sparse(vec![(5, 1.0), (5, 2.0)]);
        let f = encode_progressive_plane(1, &bad, false).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Sparse index out of range.
        let mut bad = planes[1].clone();
        bad.coeffs = PlaneCoeffs::Sparse(vec![(16, 1.0)]);
        let f = encode_progressive_plane(1, &bad, false).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Dense length mismatch is caught at encode time.
        let mut bad = planes[0].clone();
        bad.coeffs = PlaneCoeffs::Dense(vec![1.0]);
        assert!(matches!(
            encode_progressive_plane(1, &bad, false),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Header with inconsistent plane count.
        let mut badh = header.clone();
        badh.planes_total = 5;
        let f = encode_progressive_header(1, &badh).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
    }

    #[test]
    fn banks_round_trip_including_lifting_kinds() {
        for bank in [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::cdf53(),
            FilterBank::cdf97(),
        ] {
            let mut out = Vec::new();
            encode_bank(&mut out, &bank).unwrap();
            let got = decode_bank(&mut Reader::new(&out)).expect("valid bank");
            assert_eq!(got, bank);
            assert_eq!(got.lifting_kind(), bank.lifting_kind());
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        for pos in [4usize, 9, HEADER_LEN + 3, bytes.len() - 12] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let err = decode_complete(&bad, DEFAULT_MAX_PAYLOAD).expect_err("flip must fail");
            assert!(matches!(err, WireError::FrameCorrupt { .. }), "{err}");
        }
    }

    #[test]
    fn every_bit_flip_of_a_request_frame_is_corrupt() {
        // A window of u32::MAX keeps a flipped length field from reading
        // as FrameTooLarge: it must read as truncated or mismatched.
        let bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_complete(&bad, u32::MAX) {
                Err(WireError::FrameCorrupt { .. }) => {}
                other => panic!("flip of bit {bit}: expected FrameCorrupt, got {other:?}"),
            }
        }
    }

    /// SplitMix64: a seeded stream for the corruption sweep.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn corruption_of_one_aligned_word_is_always_caught() {
        let img = Matrix::from_fn(128, 128, |r, c| (r * 128 + c) as f64 * 0.5 - 4096.0);
        let req = DecomposeRequest::new(img, FilterBank::cdf97(), 3);
        let bytes = encode_frame(&encode_request(1, &req).unwrap()).unwrap();
        let body_len = bytes.len() - TRAILER_LEN;
        let clean = checksum(&bytes[..body_len]);
        let mut rng = 1996u64;
        for _ in 0..256 {
            let word = (splitmix(&mut rng) % body_len.div_ceil(8) as u64) as usize;
            let (start, end) = (word * 8, (word * 8 + 8).min(body_len));
            let mask = splitmix(&mut rng).to_le_bytes();
            if mask[..end - start].iter().all(|&m| m == 0) {
                continue;
            }
            let mut bad = bytes.clone();
            for (b, m) in bad[start..end].iter_mut().zip(mask) {
                *b ^= m;
            }
            assert_ne!(checksum(&bad[..body_len]), clean, "word {word}");
            assert!(
                matches!(
                    decode_complete(&bad, u32::MAX),
                    Err(WireError::FrameCorrupt { .. })
                ),
                "word {word} corruption decoded"
            );
        }
    }

    #[test]
    fn checksum_known_answers_pin_the_protocol() {
        // Any change to these values is a wire-protocol change: bump
        // PROTOCOL_VERSION with it. The lengths cover the empty input,
        // partial and whole words, partial and whole stripes, and a
        // long input with a tail.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131 + 7) as u8).collect();
        let got: Vec<(usize, u64)> = [0usize, 1, 7, 8, 31, 32, 33, 1000]
            .into_iter()
            .map(|n| (n, checksum(&data[..n])))
            .collect();
        let want: [(usize, u64); 8] = [
            (0, 0x278d_becb_f64b_6e17),
            (1, 0x75c4_b309_019f_036a),
            (7, 0x1b2c_3af9_4336_b38d),
            (8, 0xcfac_f8a0_ae51_9e52),
            (31, 0x47bc_ec56_00d5_020c),
            (32, 0x6016_ee98_4627_f3c2),
            (33, 0x3265_21a6_64e0_5cd4),
            (1000, 0xc818_b649_930d_a5a6),
        ];
        assert_eq!(got, want, "checksum known answers changed: {got:#018x?}");
    }

    #[test]
    fn a_version_2_frame_is_a_typed_version_error() {
        let mut bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        bytes[4] = 2;
        match decode_complete(&bytes, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::FrameCorrupt { detail }) => {
                assert!(detail.contains("version 2"), "{detail}")
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_payload_is_too_large_before_allocation() {
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes, 1024) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        for cut in [
            0usize,
            3,
            7,
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            bytes.len() - 1,
        ] {
            match decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD) {
                Ok(None) | Err(WireError::FrameCorrupt { .. }) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
            assert!(matches!(
                decode_complete(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::FrameCorrupt { .. })
            ));
        }
    }

    #[test]
    fn streaming_decode_consumes_exactly_one_frame() {
        let a = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        let b = encode_frame(&Frame::new(FrameKind::Bye, 9, Vec::new())).unwrap();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (f1, n1) = decode_frame(&stream, DEFAULT_MAX_PAYLOAD)
            .expect("valid")
            .expect("complete");
        assert_eq!(n1, a.len());
        assert_eq!(f1.kind, FrameKind::Request);
        let (f2, n2) = decode_frame(&stream[n1..], DEFAULT_MAX_PAYLOAD)
            .expect("valid")
            .expect("complete");
        assert_eq!(n2, b.len());
        assert_eq!(f2.kind, FrameKind::Bye);
        assert_eq!(f2.id, 9);
    }
}
