//! Wire primitives: length-prefixed frames and the total byte decoder.
//!
//! Everything on a `CROSNET1` connection after the 8-byte magic exchange
//! is a *frame*: a little-endian `u32` payload length followed by that
//! many payload bytes, the first of which is the message tag. The decoder
//! in this module is **total**: any byte sequence either decodes to a
//! typed message or to a typed [`ProtocolError`] — it never panics and
//! never reads out of bounds (proven by a proptest over arbitrary bytes
//! plus a fixed malformed corpus in `tests/server_net.rs`).

use std::fmt;
use std::io::{self, Read, Write};

use crosse_relational::Value;

/// The 8-byte connection preamble both sides exchange before framing.
pub const MAGIC: &[u8; 8] = b"CROSNET1";

/// Hard ceiling on any frame's payload length, independent of the
/// configured per-connection limit (a corrupt length prefix must never
/// cause a multi-gigabyte allocation).
pub const ABSOLUTE_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Every way a peer's bytes can fail to be a protocol message. One typed
/// case per malformed shape, so tests can assert the decoder's verdict
/// and the server can report precisely what it rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before a field was complete.
    Truncated { needed: usize, have: usize },
    /// The connection preamble was not `CROSNET1`.
    BadMagic([u8; 8]),
    /// A frame length prefix exceeded the limit.
    FrameTooLarge { len: u32, max: u32 },
    /// A zero-length frame (every frame carries at least its tag byte).
    EmptyFrame,
    /// An unknown request tag byte.
    UnknownRequest(u8),
    /// An unknown response tag byte.
    UnknownResponse(u8),
    /// An unknown [`Value`] tag byte.
    BadValueTag(u8),
    /// A boolean encoded as something other than 0 or 1.
    BadBool(u8),
    /// An unknown query-language byte.
    BadLang(u8),
    /// An unknown error-code byte in an error response.
    BadErrorCode(u8),
    /// A string field that is not valid UTF-8.
    BadUtf8,
    /// Bytes left over after a complete message was decoded.
    TrailingBytes { extra: usize },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { needed, have } => {
                write!(f, "truncated message: needed {needed} more bytes, have {have}")
            }
            ProtocolError::BadMagic(m) => write!(f, "bad connection magic {m:?}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::EmptyFrame => write!(f, "zero-length frame"),
            ProtocolError::UnknownRequest(t) => write!(f, "unknown request tag 0x{t:02x}"),
            ProtocolError::UnknownResponse(t) => {
                write!(f, "unknown response tag 0x{t:02x}")
            }
            ProtocolError::BadValueTag(t) => write!(f, "unknown value tag 0x{t:02x}"),
            ProtocolError::BadBool(b) => write!(f, "boolean encoded as 0x{b:02x}"),
            ProtocolError::BadLang(l) => write!(f, "unknown query language 0x{l:02x}"),
            ProtocolError::BadErrorCode(c) => write!(f, "unknown error code 0x{c:02x}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

// ---- encoding ---------------------------------------------------------------

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Append one row: its `u16` column count, then each tagged [`Value`].
pub fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        put_value(buf, v);
    }
}

/// Append one tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

// ---- decoding ---------------------------------------------------------------

/// A bounds-checked cursor over one frame's payload. All `take_*` methods
/// return [`ProtocolError::Truncated`] instead of reading past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The decode succeeded only if the message consumed the whole frame.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ProtocolError::TrailingBytes { extra }),
        }
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { needed: n, have: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take_bytes(1)?[0])
    }

    pub fn take_u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn take_u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn take_u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn take_i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.take_u64()? as i64)
    }

    pub fn take_str(&mut self) -> Result<String, ProtocolError> {
        self.take_str_ref().map(String::from)
    }

    /// A length-prefixed string, borrowed from the frame.
    pub fn take_str_ref(&mut self) -> Result<&'a str, ProtocolError> {
        let len = self.take_u32()? as usize;
        std::str::from_utf8(self.take_bytes(len)?).map_err(|_| ProtocolError::BadUtf8)
    }

    pub fn take_bool(&mut self) -> Result<bool, ProtocolError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ProtocolError::BadBool(b)),
        }
    }

    pub fn take_value(&mut self) -> Result<Value, ProtocolError> {
        match self.take_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.take_bool()?)),
            2 => Ok(Value::Int(self.take_i64()?)),
            3 => Ok(Value::Float(f64::from_bits(self.take_u64()?))),
            4 => Ok(Value::Str(self.take_str_ref()?.into())),
            t => Err(ProtocolError::BadValueTag(t)),
        }
    }
}

// ---- framed I/O -------------------------------------------------------------

/// Start a frame in `buf`: clear it and reserve the 4-byte length prefix,
/// which [`write_frame`] fills in once the payload after it is complete.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
}

/// Send one frame begun with [`begin_frame`]: fill in its length prefix,
/// write prefix and payload with one `write_all`, and flush.
pub fn write_frame(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// The outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly between frames.
    Eof,
}

/// Read one frame, enforcing `max_frame` on the length prefix *before*
/// allocating. A clean EOF before any length byte is `FrameRead::Eof`;
/// an EOF mid-frame is an `UnexpectedEof` I/O error. A too-large or
/// zero-length prefix is returned as a typed [`ProtocolError`] wrapped in
/// `InvalidData` so the caller can answer with a typed error frame.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, ProtocolError::EmptyFrame));
    }
    let max = max_frame.min(ABSOLUTE_MAX_FRAME);
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge { len, max },
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(payload))
}

/// Pull a typed [`ProtocolError`] back out of an I/O error produced by
/// [`read_frame`] (`None` for genuine transport errors).
pub fn protocol_error_of(e: &io::Error) -> Option<ProtocolError> {
    e.get_ref()?.downcast_ref::<ProtocolError>().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("héllo".into()),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            assert_eq!(&r.take_value().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        assert!(matches!(r.take_str(), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut bytes: &[u8] = &[0xff, 0xff, 0xff, 0x7f, 0x00];
        let err = match read_frame(&mut bytes, 1024) {
            Err(e) => e,
            Ok(_) => panic!("oversized frame accepted"),
        };
        assert_eq!(
            protocol_error_of(&err),
            Some(ProtocolError::FrameTooLarge { len: 0x7fffffff, max: 1024 })
        );
    }

    #[test]
    fn empty_frame_is_rejected() {
        let mut bytes: &[u8] = &[0, 0, 0, 0];
        let err = read_frame(&mut bytes, 1024).unwrap_err();
        assert_eq!(protocol_error_of(&err), Some(ProtocolError::EmptyFrame));
    }

    #[test]
    fn clean_eof_between_frames() {
        let mut bytes: &[u8] = &[];
        assert!(matches!(read_frame(&mut bytes, 1024), Ok(FrameRead::Eof)));
    }
}
