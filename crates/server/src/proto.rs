//! Typed protocol messages and their (total) codec.
//!
//! See `crates/server/DESIGN.md` for the full wire specification. Every
//! message encodes to one frame payload (tag byte + fields) and decodes
//! via [`Reader`], so malformed bytes always surface as a typed
//! [`ProtocolError`].

use std::io::{self, Write};

use crosse_relational::{Params, Value};

use crate::frame::{begin_frame, put_row, put_str, put_value, write_frame, ProtocolError, Reader};

/// Which query language a `QUERY` / `PREPARE` frame carries: the
/// engine's own [`Lang`], one byte on the wire.
pub use crosse_core::Lang;

fn lang_to_byte(lang: Lang) -> u8 {
    match lang {
        Lang::Sesql => 0,
        Lang::Sql => 1,
        Lang::Sparql => 2,
    }
}

fn lang_from_byte(b: u8) -> Result<Lang, ProtocolError> {
    match b {
        0 => Ok(Lang::Sesql),
        1 => Ok(Lang::Sql),
        2 => Ok(Lang::Sparql),
        other => Err(ProtocolError::BadLang(other)),
    }
}

/// Typed failure classes a server reports. The robustness-relevant ones
/// (`Busy`, `Cancelled`, `DeadlineExceeded`, `RowBudget`) are distinct
/// codes so clients can react (back off, retry, re-plan) without parsing
/// message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer violated the wire protocol.
    Protocol,
    /// Shed by admission control: in-flight and queue limits are full.
    Busy,
    /// The query was cancelled (client disconnect or server shutdown).
    Cancelled,
    /// The query's deadline passed before it finished.
    DeadlineExceeded,
    /// The query itself failed (parse, plan, eval, constraint, ...).
    Query,
    /// A frame exceeded the connection's size limit.
    TooLarge,
    /// The result exceeded the per-query row budget.
    RowBudget,
    /// The server is draining for shutdown and accepts no new queries.
    ShuttingDown,
}

impl ErrorCode {
    pub fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Busy => 2,
            ErrorCode::Cancelled => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Query => 5,
            ErrorCode::TooLarge => 6,
            ErrorCode::RowBudget => 7,
            ErrorCode::ShuttingDown => 8,
        }
    }

    pub fn from_byte(b: u8) -> Result<ErrorCode, ProtocolError> {
        match b {
            1 => Ok(ErrorCode::Protocol),
            2 => Ok(ErrorCode::Busy),
            3 => Ok(ErrorCode::Cancelled),
            4 => Ok(ErrorCode::DeadlineExceeded),
            5 => Ok(ErrorCode::Query),
            6 => Ok(ErrorCode::TooLarge),
            7 => Ok(ErrorCode::RowBudget),
            8 => Ok(ErrorCode::ShuttingDown),
            other => Err(ProtocolError::BadErrorCode(other)),
        }
    }
}

/// One `(name, value)` binding of an `EXECUTE` frame; an empty name means
/// positional (bindings keep their frame order).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBinding {
    pub name: String,
    pub value: Value,
}

/// Bind an `EXECUTE` frame's parameters as one [`Params`]: an empty
/// name is positional, in frame order.
pub fn params_of(bindings: &[ParamBinding]) -> Params {
    bindings.iter().fold(Params::new(), |params, b| {
        if b.name.is_empty() {
            params.push(b.value.clone())
        } else {
            params.set(&b.name, b.value.clone())
        }
    })
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Must be the first frame on a connection.
    Hello { user: String },
    /// One-shot query. `deadline_ms == 0` means "use the server default".
    Query { lang: Lang, deadline_ms: u32, text: String },
    /// Compile a statement under a client-chosen cursor name.
    Prepare { lang: Lang, name: String, text: String },
    /// Execute a previously prepared statement with bound parameters.
    Execute { name: String, deadline_ms: u32, params: Vec<ParamBinding> },
    /// Render the optimized plan (SESQL/SQL) without executing.
    Explain { text: String },
    /// Lint a statement in the session's knowledge context.
    Lint { text: String },
    /// Server counters (`\server-stats`).
    Stats,
    Ping,
    /// Graceful goodbye; the server closes after acknowledging.
    Close,
}

const REQ_HELLO: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_PREPARE: u8 = 0x03;
const REQ_EXECUTE: u8 = 0x04;
const REQ_EXPLAIN: u8 = 0x05;
const REQ_LINT: u8 = 0x06;
const REQ_STATS: u8 = 0x07;
const REQ_PING: u8 = 0x08;
const REQ_CLOSE: u8 = 0x09;

impl Request {
    /// The message's frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// The whole frame, length prefix included, ready for [`write_frame`].
    pub fn frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Hello { user } => {
                buf.push(REQ_HELLO);
                put_str(buf, user);
            }
            Request::Query { lang, deadline_ms, text } => {
                buf.push(REQ_QUERY);
                buf.push(lang_to_byte(*lang));
                buf.extend_from_slice(&deadline_ms.to_le_bytes());
                put_str(buf, text);
            }
            Request::Prepare { lang, name, text } => {
                buf.push(REQ_PREPARE);
                buf.push(lang_to_byte(*lang));
                put_str(buf, name);
                put_str(buf, text);
            }
            Request::Execute { name, deadline_ms, params } => {
                buf.push(REQ_EXECUTE);
                put_str(buf, name);
                buf.extend_from_slice(&deadline_ms.to_le_bytes());
                buf.extend_from_slice(&(params.len() as u16).to_le_bytes());
                for p in params {
                    put_str(buf, &p.name);
                    put_value(buf, &p.value);
                }
            }
            Request::Explain { text } => {
                buf.push(REQ_EXPLAIN);
                put_str(buf, text);
            }
            Request::Lint { text } => {
                buf.push(REQ_LINT);
                put_str(buf, text);
            }
            Request::Stats => buf.push(REQ_STATS),
            Request::Ping => buf.push(REQ_PING),
            Request::Close => buf.push(REQ_CLOSE),
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = match r.take_u8()? {
            REQ_HELLO => Request::Hello { user: r.take_str()? },
            REQ_QUERY => Request::Query {
                lang: lang_from_byte(r.take_u8()?)?,
                deadline_ms: r.take_u32()?,
                text: r.take_str()?,
            },
            REQ_PREPARE => Request::Prepare {
                lang: lang_from_byte(r.take_u8()?)?,
                name: r.take_str()?,
                text: r.take_str()?,
            },
            REQ_EXECUTE => {
                let name = r.take_str()?;
                let deadline_ms = r.take_u32()?;
                let n = r.take_u16()? as usize;
                let mut params = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    params.push(ParamBinding { name: r.take_str()?, value: r.take_value()? });
                }
                Request::Execute { name, deadline_ms, params }
            }
            REQ_EXPLAIN => Request::Explain { text: r.take_str()? },
            REQ_LINT => Request::Lint { text: r.take_str()? },
            REQ_STATS => Request::Stats,
            REQ_PING => Request::Ping,
            REQ_CLOSE => Request::Close,
            other => return Err(ProtocolError::UnknownRequest(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement (server identity string).
    HelloOk { server: String },
    /// Result-set column names; precedes the row batches.
    Schema { columns: Vec<String> },
    /// One batch of rows (each row: `u16` column count + tagged values).
    RowBatch { rows: Vec<Vec<Value>> },
    /// End of a successful query. `rows_scanned` is `u64::MAX` when the
    /// execution path does not track it (materialised enrichment).
    Done { rows: u64, rows_scanned: u64, elapsed_us: u64 },
    /// Typed failure.
    Error { code: ErrorCode, message: String },
    /// Free-form text result (EXPLAIN, lint findings).
    Text { text: String },
    /// A statement was prepared under `name` with `params` parameters.
    PreparedOk { name: String, params: u16 },
    Pong,
    /// Server counters as ordered key/value pairs.
    StatsReply { entries: Vec<(String, u64)> },
}

const RSP_HELLO_OK: u8 = 0x81;
const RSP_SCHEMA: u8 = 0x82;
const RSP_ROW_BATCH: u8 = 0x83;
const RSP_DONE: u8 = 0x84;
const RSP_ERROR: u8 = 0x85;
const RSP_TEXT: u8 = 0x86;
const RSP_PREPARED_OK: u8 = 0x87;
const RSP_PONG: u8 = 0x88;
const RSP_STATS: u8 = 0x89;

impl Response {
    /// The message's frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// The whole frame, length prefix included, ready for [`write_frame`].
    pub fn frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::HelloOk { server } => {
                buf.push(RSP_HELLO_OK);
                put_str(buf, server);
            }
            Response::Schema { columns } => {
                buf.push(RSP_SCHEMA);
                buf.extend_from_slice(&(columns.len() as u16).to_le_bytes());
                for c in columns {
                    put_str(buf, c);
                }
            }
            Response::RowBatch { rows } => {
                buf.push(RSP_ROW_BATCH);
                buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_row(buf, row);
                }
            }
            Response::Done { rows, rows_scanned, elapsed_us } => {
                buf.push(RSP_DONE);
                buf.extend_from_slice(&rows.to_le_bytes());
                buf.extend_from_slice(&rows_scanned.to_le_bytes());
                buf.extend_from_slice(&elapsed_us.to_le_bytes());
            }
            Response::Error { code, message } => {
                buf.push(RSP_ERROR);
                buf.push(code.to_byte());
                put_str(buf, message);
            }
            Response::Text { text } => {
                buf.push(RSP_TEXT);
                put_str(buf, text);
            }
            Response::PreparedOk { name, params } => {
                buf.push(RSP_PREPARED_OK);
                put_str(buf, name);
                buf.extend_from_slice(&params.to_le_bytes());
            }
            Response::Pong => buf.push(RSP_PONG),
            Response::StatsReply { entries } => {
                buf.push(RSP_STATS);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (k, v) in entries {
                    put_str(buf, k);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload);
        let rsp = match r.take_u8()? {
            RSP_HELLO_OK => Response::HelloOk { server: r.take_str()? },
            RSP_SCHEMA => {
                let n = r.take_u16()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(r.take_str()?);
                }
                Response::Schema { columns }
            }
            RSP_ROW_BATCH => {
                let n = r.take_u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let w = r.take_u16()? as usize;
                    let mut row = Vec::with_capacity(w.min(1024));
                    for _ in 0..w {
                        row.push(r.take_value()?);
                    }
                    rows.push(row);
                }
                Response::RowBatch { rows }
            }
            RSP_DONE => Response::Done {
                rows: r.take_u64()?,
                rows_scanned: r.take_u64()?,
                elapsed_us: r.take_u64()?,
            },
            RSP_ERROR => Response::Error {
                code: ErrorCode::from_byte(r.take_u8()?)?,
                message: r.take_str()?,
            },
            RSP_TEXT => Response::Text { text: r.take_str()? },
            RSP_PREPARED_OK => {
                Response::PreparedOk { name: r.take_str()?, params: r.take_u16()? }
            }
            RSP_PONG => Response::Pong,
            RSP_STATS => {
                let n = r.take_u16()? as usize;
                let mut entries = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    entries.push((r.take_str()?, r.take_u64()?));
                }
                Response::StatsReply { entries }
            }
            other => return Err(ProtocolError::UnknownResponse(other)),
        };
        r.finish()?;
        Ok(rsp)
    }
}

/// A `ROW_BATCH` frame encoded in place as a cursor yields its rows: the
/// bytes of `Response::RowBatch { rows }.frame()` without first collecting
/// the rows. The buffer is reused from one batch to the next.
pub struct RowBatchFrame {
    buf: Vec<u8>,
    rows: u32,
}

/// Where the row count sits in a `ROW_BATCH` frame: after the length
/// prefix and the tag byte.
const ROW_COUNT_AT: usize = 5;

impl RowBatchFrame {
    pub fn new() -> Self {
        let mut batch = RowBatchFrame { buf: Vec::new(), rows: 0 };
        batch.clear();
        batch
    }

    fn clear(&mut self) {
        begin_frame(&mut self.buf);
        self.buf.push(RSP_ROW_BATCH);
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        self.rows = 0;
    }

    pub fn push(&mut self, row: &[Value]) {
        put_row(&mut self.buf, row);
        self.rows += 1;
    }

    /// Rows in the batch so far.
    pub fn len(&self) -> usize {
        self.rows as usize
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Send the batch as one frame and start the next, empty.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<()> {
        self.buf[ROW_COUNT_AT..ROW_COUNT_AT + 4].copy_from_slice(&self.rows.to_le_bytes());
        let sent = write_frame(w, &mut self.buf);
        self.clear();
        sent
    }
}

impl Default for RowBatchFrame {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    fn round_trip_rsp(rsp: Response) {
        assert_eq!(Response::decode(&rsp.encode()), Ok(rsp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Hello { user: "director".into() });
        round_trip_req(Request::Query {
            lang: Lang::Sesql,
            deadline_ms: 250,
            text: "SELECT 1;".into(),
        });
        round_trip_req(Request::Prepare {
            lang: Lang::Sql,
            name: "q1".into(),
            text: "SELECT * FROM t WHERE x = $1".into(),
        });
        round_trip_req(Request::Execute {
            name: "q1".into(),
            deadline_ms: 0,
            params: vec![
                ParamBinding { name: String::new(), value: Value::Int(7) },
                ParamBinding { name: "lim".into(), value: Value::Str("x".into()) },
            ],
        });
        round_trip_req(Request::Explain { text: "SELECT 1".into() });
        round_trip_req(Request::Lint { text: "SELECT 1".into() });
        round_trip_req(Request::Stats);
        round_trip_req(Request::Ping);
        round_trip_req(Request::Close);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_rsp(Response::HelloOk { server: "crosse 0.1".into() });
        round_trip_rsp(Response::Schema { columns: vec!["a".into(), "b".into()] });
        round_trip_rsp(Response::RowBatch {
            rows: vec![vec![Value::Int(1), Value::Null], vec![Value::Bool(true), Value::Float(0.5)]],
        });
        round_trip_rsp(Response::Done { rows: 10, rows_scanned: 1024, elapsed_us: 55 });
        round_trip_rsp(Response::Error {
            code: ErrorCode::Busy,
            message: "server busy".into(),
        });
        round_trip_rsp(Response::Text { text: "Plan".into() });
        round_trip_rsp(Response::PreparedOk { name: "q1".into(), params: 2 });
        round_trip_rsp(Response::Pong);
        round_trip_rsp(Response::StatsReply {
            entries: vec![("accepted".into(), 3), ("shed".into(), 1)],
        });
    }

    #[test]
    fn unknown_tags_are_typed() {
        assert_eq!(Request::decode(&[0x7f]), Err(ProtocolError::UnknownRequest(0x7f)));
        assert_eq!(Response::decode(&[0x10]), Err(ProtocolError::UnknownResponse(0x10)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert_eq!(
            Request::decode(&bytes),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );
    }
}
