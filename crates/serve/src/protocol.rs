//! The `ssp-serve` wire protocol: text-line requests, JSON-line
//! responses, and the length-prefixed frame codec for the unix-socket
//! transport.
//!
//! # Requests
//!
//! One request per line, in either of two forms:
//!
//! * a **workload name** (`em3d`, `treeadd.df`, … — exactly the names
//!   of [`ssp_workloads::NAMES`]): adapt that workload and simulate the
//!   four Figure-8 configurations;
//! * a **tune request** (`tune <workload-name>`): run the closed-loop
//!   `ssp-tune` auto-tuner on that workload, both machine models;
//! * a **raw `CaseSpec` line** (`seed=1 chase=48 loads=2 …`): run the
//!   full differential adaptation oracle on the generated program.
//!
//! Blank lines and `#` comments are skipped, so a fuzz corpus file can
//! be piped to the daemon verbatim.
//!
//! # Responses
//!
//! One JSON object per line, in request order (see
//! [`crate::server::Server::handle_batch`]). Unparseable request lines
//! produce `{"kind": "error", …}` responses rather than killing the
//! batch.
//!
//! # Framing (socket transport)
//!
//! The stdin transport is newline-delimited. The unix-socket transport
//! wraps each batch in a frame: a 4-byte little-endian payload length
//! followed by the payload bytes. One request frame (a batch of request
//! lines) yields exactly one response frame (the response lines).

use ssp_fuzz::spec::CaseSpec;
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB) — a corrupt length prefix
/// must not look like an instruction to allocate gigabytes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// One parsed request line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Adapt + simulate one named benchmark workload.
    Workload(String),
    /// Auto-tune one named benchmark workload on both machine models.
    Tune(String),
    /// Run the differential oracle on one generated case.
    Case(CaseSpec),
}

/// Why a request line could not be parsed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestError {
    /// The offending line.
    pub line: String,
    /// What went wrong (deterministic text; it is echoed in the error
    /// response, which the determinism tests byte-diff).
    pub reason: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request {:?}: {}", self.line, self.reason)
    }
}

impl std::error::Error for RequestError {}

/// Parse one request line. Returns `None` for blank lines and `#`
/// comments (the corpus-file conventions), `Some(Err(..))` for a line
/// that is neither a known workload name nor a valid `CaseSpec`.
pub fn parse_line(line: &str) -> Option<Result<Request, RequestError>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    if ssp_workloads::NAMES.contains(&line) {
        return Some(Ok(Request::Workload(line.to_owned())));
    }
    if let Some(rest) = line.strip_prefix("tune ") {
        let name = rest.trim();
        if ssp_workloads::NAMES.contains(&name) {
            return Some(Ok(Request::Tune(name.to_owned())));
        }
        return Some(Err(RequestError {
            line: line.to_owned(),
            reason: format!("tune takes a workload name ({})", ssp_workloads::NAMES.join(", ")),
        }));
    }
    match CaseSpec::parse(line) {
        Ok(spec) => Some(Ok(Request::Case(spec))),
        Err(e) => Some(Err(RequestError {
            line: line.to_owned(),
            reason: format!(
                "neither a workload name ({}) nor a case spec ({e})",
                ssp_workloads::NAMES.join(", ")
            ),
        })),
    }
}

/// Write one frame: 4-byte little-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on clean EOF (no length bytes at
/// all); a truncated length or payload is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // Only a hang-up before the first length byte is clean.
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workloads_cases_comments_and_garbage() {
        assert_eq!(parse_line("em3d"), Some(Ok(Request::Workload("em3d".to_owned()))));
        assert_eq!(
            parse_line("  treeadd.df  "),
            Some(Ok(Request::Workload("treeadd.df".to_owned())))
        );
        let spec = CaseSpec::parse("seed=1 chase=48 loads=2").unwrap();
        assert_eq!(parse_line("seed=1 chase=48 loads=2"), Some(Ok(Request::Case(spec))));
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("# a comment"), None);
        assert!(matches!(parse_line("not-a-thing"), Some(Err(_))));
    }

    #[test]
    fn parses_tune_requests() {
        assert_eq!(parse_line("tune em3d"), Some(Ok(Request::Tune("em3d".to_owned()))));
        assert_eq!(
            parse_line("  tune   treeadd.df "),
            Some(Ok(Request::Tune("treeadd.df".to_owned())))
        );
        let err = parse_line("tune nonesuch").unwrap().unwrap_err();
        assert!(err.reason.contains("tune takes a workload name"), "{}", err.reason);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut bad = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(b"x");
        assert!(read_frame(&mut &bad[..]).is_err());
        let truncated = 10u32.to_le_bytes().to_vec(); // promises 10 bytes, has 0
        assert!(read_frame(&mut &truncated[..]).is_err());
        for cut in 1..4 {
            let err = read_frame(&mut &truncated[..cut]).expect_err("a cut length is not EOF");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut}-byte length prefix");
        }
    }
}
