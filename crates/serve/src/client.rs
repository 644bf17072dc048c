//! Synchronous client: one request in flight at a time.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{read_frame, write_frame, ProgramResult, Request, Response, WireDiagnostic};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Frame decoded but made no sense.
    Proto(String),
    /// Server answered with an error response.
    Server {
        /// One of the [`crate::protocol::code`] constants.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connection to a dmac-serve server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connect, retrying for up to `timeout` — covers the gap between
    /// spawning a server process and its listener coming up.
    pub fn connect_retry(addr: impl ToSocketAddrs + Clone, timeout: Duration) -> Result<Client> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if std::time::Instant::now() > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    /// Send one request, wait for its response. Error responses come
    /// back as [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &req.to_json())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Proto("server closed the connection".into()))?;
        match Response::from_json(&payload).map_err(ClientError::Proto)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Submit a script; returns the program result.
    pub fn submit(
        &mut self,
        session: &str,
        script: &str,
        deadline_ms: Option<u64>,
    ) -> Result<ProgramResult> {
        match self.request(&Request::Submit {
            session: session.into(),
            script: script.into(),
            deadline_ms,
        })? {
            Response::Result(r) => Ok(r),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }

    /// EXPLAIN a script.
    pub fn explain(&mut self, session: &str, script: &str) -> Result<String> {
        self.explain_full(session, script).map(|(text, _)| text)
    }

    /// EXPLAIN a script, also returning the analyzer's advisory
    /// diagnostics (warnings/infos — errors reject the request).
    pub fn explain_full(
        &mut self,
        session: &str,
        script: &str,
    ) -> Result<(String, Vec<WireDiagnostic>)> {
        match self.request(&Request::Explain {
            session: session.into(),
            script: script.into(),
        })? {
            Response::Explain { text, diagnostics } => Ok((text, diagnostics)),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }

    /// Lint a script server-side without planning or executing it.
    /// Returns `(ok, diagnostics)`; `ok` is false when any diagnostic
    /// has error severity.
    pub fn lint(&mut self, script: &str) -> Result<(bool, Vec<WireDiagnostic>)> {
        match self.request(&Request::Lint {
            script: script.into(),
        })? {
            Response::Lint { ok, diagnostics } => Ok((ok, diagnostics)),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetch a stored matrix, bit-exact: `(rows, cols, f64 bit patterns)`.
    pub fn fetch(&mut self, name: &str) -> Result<(usize, usize, Vec<u64>)> {
        match self.request(&Request::FetchMatrix { name: name.into() })? {
            Response::Matrix {
                rows, cols, bits, ..
            } => Ok((rows, cols, bits)),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetch the stats document.
    pub fn stats(&mut self) -> Result<dmac_cluster::jsonin::Json> {
        match self.request(&Request::Stats)? {
            Response::Stats(v) => Ok(v),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Proto(format!("unexpected response {other:?}"))),
        }
    }
}
