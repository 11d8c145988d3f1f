//! Blocking HTTP/1.1 framing over `std::net` — just enough protocol for
//! a keep-alive JSON prediction API: request-line + headers +
//! `Content-Length` bodies in, status + headers + body out. No chunked
//! encoding, no TLS, no upgrades; malformed input yields a structured
//! error, never a panic.

use std::io::{self, Read, Write};
use std::ops::Range;

/// Caps keeping a hostile peer from ballooning worker memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request: where its method, path and body lie in the read
/// buffer it was parsed from. Nothing is copied out of the buffer.
#[derive(Debug)]
pub struct Request {
    method: Range<usize>,
    path: Range<usize>,
    body: Range<usize>,
    /// True when the client asked to close the connection after this
    /// response (`Connection: close` or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub fn method<'b>(&self, buf: &'b [u8]) -> &'b str {
        head_str(buf, &self.method)
    }

    /// Request target path, e.g. `/predict` (query string included).
    pub fn path<'b>(&self, buf: &'b [u8]) -> &'b str {
        head_str(buf, &self.path)
    }

    /// Body bytes (empty when no `Content-Length`).
    pub fn body<'b>(&self, buf: &'b [u8]) -> &'b [u8] {
        &buf[self.body.clone()]
    }

    /// Where this request's bytes, head and body, end in its buffer.
    pub fn end(&self) -> usize {
        self.body.end
    }
}

/// A piece of a head [`read_request`] checked to be UTF-8 and cut at
/// ASCII spaces, so it is UTF-8 on its own.
fn head_str<'b>(buf: &'b [u8], at: &Range<usize>) -> &'b str {
    std::str::from_utf8(&buf[at.clone()]).unwrap_or_default()
}

/// Why reading a request stopped.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out before a complete request arrived. `started`
    /// tells whether any request bytes had been read (mid-request
    /// timeouts are errors; idle keep-alive timeouts are not).
    TimedOut {
        /// True when the timeout hit mid-request.
        started: bool,
    },
    /// The request was malformed or over limits; the connection must be
    /// answered with the status and closed.
    Bad(&'static str),
}

/// Read one HTTP/1.1 request from `conn`. `buf` is the caller's
/// reusable scratch: the request this returns lies at its front, with
/// any pipelined bytes read past it behind. The caller drains the
/// request (`buf.drain(..request.end())`) once done with it, before the
/// next call. `max_body` bounds acceptable `Content-Length`.
pub fn read_request(
    conn: &mut impl Read,
    buf: &mut Vec<u8>,
    max_body: usize,
) -> io::Result<ReadOutcome> {
    let mut chunk = [0u8; 4096];
    // Accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Ok(ReadOutcome::Bad("request head too large"));
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                return Ok(if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Bad("connection closed mid-request")
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return Ok(ReadOutcome::TimedOut {
                    started: !buf.is_empty(),
                });
            }
            Err(e) => return Err(e),
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Ok(ReadOutcome::Bad("non-utf8 request head")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Bad("malformed request line"));
    };
    if parts.next().is_some() || method.is_empty() || !path.starts_with('/') {
        return Ok(ReadOutcome::Bad("malformed request line"));
    }
    // Both sit in the request line, which starts the buffer.
    let method = 0..method.len();
    let path = method.end + 1..method.end + 1 + path.len();

    let mut content_length: Option<usize> = None;
    let mut close = version.eq_ignore_ascii_case("HTTP/1.0");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: `1*DIGIT` (`usize::from_str` also takes a
            // leading `+`), and a repeated header must agree, or a proxy
            // and this server could frame the stream differently.
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Ok(ReadOutcome::Bad("bad content-length")),
            };
            if content_length.is_some_and(|seen| seen != n) {
                return Ok(ReadOutcome::Bad("bad content-length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Ok(ReadOutcome::Bad("transfer-encoding unsupported"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Ok(ReadOutcome::Bad("body too large"));
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        match conn.read(&mut chunk) {
            Ok(0) => return Ok(ReadOutcome::Bad("connection closed mid-body")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::TimedOut { started: true }),
            Err(e) => return Err(e),
        }
    }

    Ok(ReadOutcome::Request(Request {
        method,
        path,
        body: body_start..body_start + content_length,
        close,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Write one response with a JSON body in one send and flush it: a
/// one-off [`send_response`] through a buffer sized for the reply.
pub fn write_response(
    conn: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    // Besides the reason, the head is at most 113 bytes.
    let mut out = Vec::with_capacity(128 + reason.len() + body.len());
    send_response(conn, &mut out, status, reason, body, close)
}

/// Assemble one response — status line, headers, JSON body — in `out`,
/// then send it with one `write_all` and flush. One send is one segment
/// on a `TCP_NODELAY` socket, so the peer never wakes for a head whose
/// body is still to come. Once `out` has grown to the largest reply,
/// nothing here allocates.
pub fn send_response(
    conn: &mut impl Write,
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    out.clear();
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    out.extend_from_slice(body.as_bytes());
    conn.write_all(out)?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The outcome of reading `raw`, with the buffer it lies in.
    fn read_all(raw: &[u8]) -> (ReadOutcome, Vec<u8>) {
        let mut cursor = io::Cursor::new(raw.to_vec());
        let mut buf = Vec::new();
        (read_request(&mut cursor, &mut buf, 1024).unwrap(), buf)
    }

    #[test]
    fn parses_post_with_body() {
        let (out, buf) = read_all(
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        );
        let ReadOutcome::Request(r) = out else {
            panic!("{out:?}")
        };
        assert_eq!(r.method(&buf), "POST");
        assert_eq!(r.path(&buf), "/predict");
        assert_eq!(r.body(&buf), b"abcd");
        assert!(!r.close);
    }

    /// A second request read off the same bytes lies where the first
    /// one lay once the caller drains the first.
    #[test]
    fn pipelined_requests_stay_buffered() {
        let raw =
            b"GET /health HTTP/1.1\r\n\r\nPOST /metrics HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
        let mut cursor = io::Cursor::new(raw.to_vec());
        let mut buf = Vec::new();
        let ReadOutcome::Request(r1) = read_request(&mut cursor, &mut buf, 2).unwrap() else {
            panic!()
        };
        assert_eq!(r1.path(&buf), "/health");
        buf.drain(..r1.end());
        let ReadOutcome::Request(r2) = read_request(&mut cursor, &mut buf, 2).unwrap() else {
            panic!()
        };
        assert_eq!(r2.path(&buf), "/metrics");
        assert_eq!(r2.body(&buf), b"{}");
        assert_eq!(r2.method(&buf), "POST");
        buf.drain(..r2.end());
        assert!(matches!(
            read_request(&mut cursor, &mut buf, 2).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn connection_close_and_http10_are_honoured() {
        let (ReadOutcome::Request(r), _) =
            read_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!()
        };
        assert!(r.close);
        let (ReadOutcome::Request(r), _) = read_all(b"GET / HTTP/1.0\r\n\r\n") else {
            panic!()
        };
        assert!(r.close);
    }

    #[test]
    fn malformed_heads_are_rejected() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde",
            b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(matches!(read_all(raw).0, ReadOutcome::Bad(_)), "{raw:?}");
        }
        assert!(matches!(
            read_all(b"GET / HTTP/1.1\r\nHo").0,
            ReadOutcome::Bad(_)
        ));
        // Identical duplicates frame the body the same way either way.
        let (ReadOutcome::Request(r), buf) =
            read_all(b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd")
        else {
            panic!()
        };
        assert_eq!(r.body(&buf), b"abcd");
    }

    /// The parser faces the network: every truncation and flipped bit of
    /// a valid request is an outcome, never a panic, and what it accepts
    /// lies inside the bytes that arrived.
    #[test]
    fn damaged_requests_are_an_outcome_and_never_read_past_the_buffer() {
        let valid = b"POST /predict HTTP/1.1\r\nContent-Length: 12\r\nConnection: close\r\n\r\n{\"ids\":[1]} ";
        bellwether_prop::sweep(valid, |raw, damage| match read_all(raw) {
            (ReadOutcome::Request(r), buf) => {
                let held = r.method(&buf).len() + r.path(&buf).len() + r.body(&buf).len();
                assert!(r.path(&buf).starts_with('/') && held < raw.len(), "{damage:?}: {r:?}");
                assert!(r.end() <= buf.len() && buf.len() <= raw.len(), "{damage:?}: {r:?}");
            }
            (ReadOutcome::Bad(_), _) => {}
            (ReadOutcome::Closed, _) => assert!(raw.is_empty(), "{damage:?}"),
            (timed_out, _) => panic!("{damage:?}: {timed_out:?} from a stream that ended"),
        });
    }

    #[test]
    fn response_has_framing_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "{\"a\":1}", false).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("content-length: 7\r\n"));
        assert!(s.ends_with("\r\n\r\n{\"a\":1}"));
    }

    /// A peer that takes every byte offered and counts the `write` calls
    /// it took them in.
    #[derive(Default)]
    struct CountingPeer {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every shape the server answers leaves in one send, byte for byte
    /// the wire format below, whether through a reused buffer (the
    /// workers) or a one-off one (the acceptor's 503).
    #[test]
    fn every_response_is_one_send_of_pinned_bytes() {
        let cases: [(u16, &str, &str, bool, &str); 4] = [
            (
                200,
                "OK",
                r#"{"method":"basic","predictions":[5.0,null],"count":2}"#,
                false,
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 53\r\nconnection: keep-alive\r\n\r\n{\"method\":\"basic\",\"predictions\":[5.0,null],\"count\":2}",
            ),
            (
                400,
                "Bad Request",
                r#"{"error":"malformed request line"}"#,
                true,
                "HTTP/1.1 400 Bad Request\r\ncontent-type: application/json\r\ncontent-length: 34\r\nconnection: close\r\n\r\n{\"error\":\"malformed request line\"}",
            ),
            (
                408,
                "Request Timeout",
                r#"{"error":"request timed out"}"#,
                true,
                "HTTP/1.1 408 Request Timeout\r\ncontent-type: application/json\r\ncontent-length: 29\r\nconnection: close\r\n\r\n{\"error\":\"request timed out\"}",
            ),
            (
                503,
                "Service Unavailable",
                r#"{"error":"server busy, retry later"}"#,
                true,
                "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 36\r\nconnection: close\r\n\r\n{\"error\":\"server busy, retry later\"}",
            ),
        ];
        let mut reused = Vec::new();
        for (status, reason, body, close, wire) in cases {
            let mut peer = CountingPeer::default();
            write_response(&mut peer, status, reason, body, close).unwrap();
            assert_eq!(peer.writes, 1, "{status}: one send per response");
            assert_eq!(String::from_utf8(peer.bytes).unwrap(), wire, "{status}");

            let mut peer = CountingPeer::default();
            send_response(&mut peer, &mut reused, status, reason, body, close).unwrap();
            assert_eq!(peer.writes, 1, "{status}: one send per response");
            assert_eq!(String::from_utf8(peer.bytes).unwrap(), wire, "{status}");
        }
    }
}
