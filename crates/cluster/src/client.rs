//! The tiny blocking HTTP/1.1 client shared across the workspace: the
//! router forwards and scrapes with it, and the load generator, CLI and
//! integration tests drive daemons with it. One request per connection
//! (`connection: close`), no async runtime — the same hand-rolled
//! `std::net` stack as the server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use specrepair_core::CancelToken;

/// Writes an HTTP request to `stream` and reads back `(status, body)`.
///
/// # Errors
///
/// Propagates connection and read errors; a malformed status line is an
/// `InvalidData` error.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: specrepaird\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Reads one HTTP response from a buffered stream.
///
/// # Errors
///
/// `InvalidData` for malformed status lines or bodies, plus socket errors.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| bad("response body is not utf-8"))
}

/// One complete call over a fresh connection with a read timeout.
///
/// # Errors
///
/// Propagates connect, write and read errors as [`roundtrip`].
pub fn call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    read_timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)?;
    roundtrip(&mut stream, method, path, body)
}

/// Connects with a bounded deterministic retry loop: up to `attempts`
/// connect tries spaced by `backoff`, each wait polled through the
/// [`CancelToken`] so a deadline or cancellation cuts the loop short
/// instead of blocking the thread. Returns the stream together with how
/// many retries (attempts beyond the first) it took — the boot-race fix
/// for probing a daemon that is still binding its listener.
///
/// # Errors
///
/// The last connect error once the attempt budget (or the cancel token)
/// is exhausted.
pub fn connect_with_retry(
    addr: &str,
    attempts: usize,
    backoff: Duration,
    cancel: &CancelToken,
) -> Result<(TcpStream, usize), std::io::Error> {
    let attempts = attempts.max(1);
    let mut retries = 0usize;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok((stream, retries)),
            Err(e) => {
                if retries + 1 >= attempts || !cancel.sleep(backoff) {
                    return Err(e);
                }
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn roundtrip_parses_a_minimal_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("GET /healthz"));
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .unwrap();
        });
        let (status, body) = call(&addr, "GET", "/healthz", "", Duration::from_secs(5)).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
        server.join().unwrap();
    }

    #[test]
    fn read_response_rejects_garbage() {
        let mut bad = BufReader::new(&b"not a status line\r\n\r\n"[..]);
        assert!(read_response(&mut bad).is_err());
    }

    #[test]
    fn connect_retry_is_bounded_and_counts_retries() {
        // A port with (almost surely) no listener: bind-and-drop reserves
        // one the OS will refuse connections to.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let cancel = CancelToken::none();
        let err = connect_with_retry(&addr, 3, Duration::from_millis(1), &cancel);
        assert!(err.is_err(), "no listener means the budget runs out");
        // A live listener connects on the first try: zero retries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap().to_string();
        let (_stream, retries) =
            connect_with_retry(&live, 3, Duration::from_millis(1), &cancel).unwrap();
        assert_eq!(retries, 0);
    }
}
