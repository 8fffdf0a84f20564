//! Blocking CROSNET1 client, used by the CLI's `--connect` mode, the
//! over-the-wire benchmark, and the chaos harness.
//!
//! One [`Client`] is one connection: it performs the magic exchange on
//! connect, then exchanges frames synchronously. Query results arrive as
//! a [`QueryResult`] that either completed ([`QueryOutcome::Done`]) or
//! ended in a typed server error mid-stream — both carry whatever rows
//! were received first, mirroring how the server streams.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crosse_relational::Value;

use crate::frame::{protocol_error_of, read_frame, write_frame, FrameRead, MAGIC};
use crate::proto::{ErrorCode, Lang, ParamBinding, Request, Response};

/// Client-side failure: transport/protocol trouble (as opposed to a typed
/// server error, which is part of a normal [`QueryResult`]).
#[derive(Debug)]
pub enum ClientError {
    /// Transport I/O failed (includes protocol violations by the server).
    Io(io::Error),
    /// The server answered with a frame the client did not expect here.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => match protocol_error_of(e) {
                Some(p) => write!(f, "protocol error: {p}"),
                None => write!(f, "connection error: {e}"),
            },
            ClientError::Unexpected(what) => write!(f, "unexpected server reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// How a query ended on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The server sent `DONE`.
    Done {
        rows: u64,
        /// `u64::MAX` means the execution path does not track it.
        rows_scanned: u64,
        elapsed_us: u64,
    },
    /// The server sent a typed error (possibly mid-stream).
    Error { code: ErrorCode, message: String },
}

/// A complete query exchange: schema + rows received before the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub outcome: QueryOutcome,
}

impl QueryResult {
    /// The typed error, if the query did not complete.
    pub fn error(&self) -> Option<(ErrorCode, &str)> {
        match &self.outcome {
            QueryOutcome::Error { code, message } => Some((*code, message)),
            QueryOutcome::Done { .. } => None,
        }
    }
}

/// One CROSNET1 connection. Replies are read through a buffer, so a
/// small frame costs one `read`, not one for its length and one for its
/// payload.
pub struct Client {
    stream: BufReader<TcpStream>,
    max_frame: u32,
}

impl Client {
    /// Connect and exchange magic. No session yet — call [`Client::hello`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(MAGIC)?;
        stream.flush()?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if &echo != MAGIC {
            return Err(ClientError::Unexpected(format!(
                "bad magic echo {echo:?} — not a CROSNET1 server"
            )));
        }
        Ok(Client { stream: BufReader::new(stream), max_frame: crate::frame::ABSOLUTE_MAX_FRAME })
    }

    /// Limit how long any single receive may block (useful in tests and
    /// the chaos harness; the default is to block indefinitely).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(self.stream.get_mut(), &mut req.frame())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream, self.max_frame)? {
            FrameRead::Frame(payload) => Response::decode(&payload)
                .map_err(|e| ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, e))),
            FrameRead::Eof => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Open a session as `user`. Returns the server identity string, or a
    /// typed error message.
    pub fn hello(&mut self, user: &str) -> Result<String, ClientError> {
        self.send(&Request::Hello { user: user.into() })?;
        match self.recv()? {
            Response::HelloOk { server } => Ok(server),
            Response::Error { code, message } => {
                Err(ClientError::Unexpected(format!("{code:?}: {message}")))
            }
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Run a query and collect its streamed result. `deadline_ms == 0`
    /// asks for the server's default deadline.
    pub fn query(
        &mut self,
        lang: Lang,
        text: &str,
        deadline_ms: u32,
    ) -> Result<QueryResult, ClientError> {
        self.send(&Request::Query { lang, deadline_ms, text: text.into() })?;
        self.collect_result()
    }

    /// Prepare a statement under a client-chosen cursor name. Returns the
    /// server-reported parameter count, or the typed error message.
    pub fn prepare(
        &mut self,
        lang: Lang,
        name: &str,
        text: &str,
    ) -> Result<Result<u16, String>, ClientError> {
        self.send(&Request::Prepare { lang, name: name.into(), text: text.into() })?;
        match self.recv()? {
            Response::PreparedOk { params, .. } => Ok(Ok(params)),
            Response::Error { message, .. } => Ok(Err(message)),
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Execute a prepared statement with bound parameters.
    pub fn execute(
        &mut self,
        name: &str,
        params: Vec<ParamBinding>,
        deadline_ms: u32,
    ) -> Result<QueryResult, ClientError> {
        self.send(&Request::Execute { name: name.into(), deadline_ms, params })?;
        self.collect_result()
    }

    /// `EXPLAIN` a statement; `Err(message)` is the server's typed error.
    pub fn explain(&mut self, text: &str) -> Result<Result<String, String>, ClientError> {
        self.send(&Request::Explain { text: text.into() })?;
        match self.recv()? {
            Response::Text { text } => Ok(Ok(text)),
            Response::Error { message, .. } => Ok(Err(message)),
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Lint a statement; the reply is the rendered diagnostics (possibly
    /// empty).
    pub fn lint(&mut self, text: &str) -> Result<Result<String, String>, ClientError> {
        self.send(&Request::Lint { text: text.into() })?;
        match self.recv()? {
            Response::Text { text } => Ok(Ok(text)),
            Response::Error { message, .. } => Ok(Err(message)),
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Fetch the server's counter snapshot.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::StatsReply { entries } => Ok(entries),
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(describe(&other))),
        }
    }

    /// Polite goodbye (the server closes after acknowledging).
    pub fn close(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Close)?;
        let _ = self.recv();
        Ok(())
    }

    /// Drain one query's reply stream: optional `SCHEMA`, any number of
    /// `ROW_BATCH`es, then `DONE` or `ERROR`.
    fn collect_result(&mut self) -> Result<QueryResult, ClientError> {
        let mut columns = Vec::new();
        let mut rows = Vec::new();
        loop {
            match self.recv()? {
                Response::Schema { columns: c } => columns = c,
                Response::RowBatch { rows: mut batch } => rows.append(&mut batch),
                Response::Done { rows: n, rows_scanned, elapsed_us } => {
                    return Ok(QueryResult {
                        columns,
                        rows,
                        outcome: QueryOutcome::Done { rows: n, rows_scanned, elapsed_us },
                    })
                }
                Response::Error { code, message } => {
                    return Ok(QueryResult {
                        columns,
                        rows,
                        outcome: QueryOutcome::Error { code, message },
                    })
                }
                other => return Err(ClientError::Unexpected(describe(&other))),
            }
        }
    }
}

fn describe(rsp: &Response) -> String {
    match rsp {
        Response::HelloOk { .. } => "HELLO_OK".into(),
        Response::Schema { .. } => "SCHEMA".into(),
        Response::RowBatch { .. } => "ROW_BATCH".into(),
        Response::Done { .. } => "DONE".into(),
        Response::Error { code, message } => format!("ERROR({code:?}: {message})"),
        Response::Text { .. } => "TEXT".into(),
        Response::PreparedOk { .. } => "PREPARED_OK".into(),
        Response::Pong => "PONG".into(),
        Response::StatsReply { .. } => "STATS_REPLY".into(),
    }
}
