//! A minimal, dependency-free HTTP/1.1 layer: enough of RFC 9112 for the
//! campaign service — request parsing with hard size caps (the socket is a
//! hostile boundary), fixed-length responses, and chunked transfer encoding
//! for the progress-event stream. Connections are `Connection: close`: one
//! request per connection keeps the worker pool's state machine trivial, and
//! the service's clients (CLI scripts, curl, tests) don't need keep-alive.

use std::io::{BufRead, Write};

/// Upper bound on the request line and any single header line.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on header count.
const MAX_HEADERS: usize = 100;
/// Upper bound on a request body (campaign specs are kilobytes; anything
/// megabytes-large is hostile or a mistake).
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, query string excluded.
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw headers (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }
}

/// Why a request could not be parsed, each mapping to one response status.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line, header, or encoding → 400.
    Bad(String),
    /// Request line, header block, or body over the caps → 413.
    TooLarge(String),
    /// Socket-level failure (peer vanished mid-request).
    Io(std::io::Error),
}

/// Reads one request from the stream. `Ok(None)` means the peer closed the
/// connection before sending anything (the graceful no-request case — and
/// the shape of the server's own shutdown wake-up connections).
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<Request>, RequestError> {
    let line = match read_line(stream, "request line")? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Bad("empty request line".to_owned()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Bad("request line has no target".to_owned()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Bad("request line has no version".to_owned()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!("unsupported version {version}")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| RequestError::Bad("malformed percent-encoding in path".to_owned()))?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|pair| !pair.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            let decode = |text: &str| {
                percent_decode(&text.replace('+', " ")).ok_or_else(|| {
                    RequestError::Bad("malformed percent-encoding in query".to_owned())
                })
            };
            query.push((decode(key)?, decode(value)?));
        }
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, "header")?
            .ok_or_else(|| RequestError::Bad("connection closed mid-headers".to_owned()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Bad(format!("header without ':': {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| RequestError::Bad(format!("bad Content-Length '{value}'")))
        })
        .transpose()?;
    if let Some(length) = content_length {
        if length > MAX_BODY {
            return Err(RequestError::TooLarge(format!(
                "body of {length} bytes exceeds the {MAX_BODY}-byte cap"
            )));
        }
        body.resize(length, 0);
        stream.read_exact(&mut body).map_err(RequestError::Io)?;
    }

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, capped at [`MAX_LINE`].
/// `Ok(None)` only on immediate EOF.
fn read_line(stream: &mut impl BufRead, what: &str) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(RequestError::Bad(format!("EOF inside {what}")));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| RequestError::Bad(format!("non-UTF-8 {what}")));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(RequestError::TooLarge(format!(
                        "{what} exceeds {MAX_LINE} bytes"
                    )));
                }
            }
            Err(error) => return Err(RequestError::Io(error)),
        }
    }
}

/// Decodes `%XX` escapes; `None` on truncated or non-hex escapes or non-UTF-8
/// results.
fn percent_decode(text: &str) -> Option<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The reason phrase for every status the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A fixed-length response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond Content-Type/Content-Length/Connection.
    pub headers: Vec<(String, String)>,
    /// Content-Type.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the service's default shape).
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (table/CSV query renderings).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Writes the full response; the caller closes the connection after.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The streaming side: chunked transfer encoding for the JSON-lines event
/// feed, one chunk per event so clients observe progress live.
pub struct ChunkedWriter<W: Write> {
    stream: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and switches the connection to chunked mode.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn begin(mut stream: W, status: u16, content_type: &str) -> std::io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type
        )?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one chunk (flushed, so it is observable immediately).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the normal way an event stream ends
    /// early: the client hung up).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            "POST /campaigns?figure=fig%2012&x=a+b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        )
        .expect("parses")
        .expect("a request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.query_param("figure"), Some("fig 12"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn immediate_eof_is_none_but_truncation_is_an_error() {
        assert!(parse("").expect("clean").is_none());
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nHos"),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: zonk\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            parse("GET /x FTP/9\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn size_caps_are_enforced() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(matches!(parse(&long_line), Err(RequestError::TooLarge(_))));
        let big_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&big_body), Err(RequestError::TooLarge(_))));
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(&many_headers),
            Err(RequestError::TooLarge(_))
        ));
    }

    #[test]
    fn responses_and_chunks_render_to_spec() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_owned())
            .with_header("Retry-After", "2")
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        let mut chunked = ChunkedWriter::begin(&mut out, 200, "application/jsonl").expect("begin");
        chunked.chunk(b"hello\n").expect("chunk");
        chunked.finish().expect("finish");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("6\r\nhello\n\r\n0\r\n\r\n"));
    }
}
