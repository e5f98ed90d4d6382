//! A small HTTP/1.1 client: reads the head, then exactly `Content-Length`
//! body bytes, and keeps the connection unless the server says
//! `Connection: close` or the socket reaches EOF. The server closes after
//! every response today; the client counts connects so that a keep-alive
//! change shows without editing the benchmark.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the previous response (a pipelining server could
    /// send them early; they belong to the next response).
    pending: Vec<u8>,
    pub connects: u64,
    pub requests: u64,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            pending: Vec::new(),
            connects: 0,
            requests: 0,
        }
    }

    /// One GET. A kept connection the server has meanwhile closed is
    /// retried once on a fresh one; nothing else is.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.requests += 1;
        let reused = self.conn.is_some();
        match self.exchange(path) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(path)
            }
            other => other,
        }
    }

    fn exchange(&mut self, path: &str) -> io::Result<Response> {
        let result = self.exchange_on_conn(path);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange_on_conn(&mut self, path: &str) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.set_write_timeout(Some(Duration::from_secs(10)))?;
            self.conn = Some(stream);
            self.pending.clear();
            self.connects += 1;
        }
        let stream = self.conn.as_mut().expect("connected above");
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: dtbench\r\n\r\n").as_bytes())?;

        let mut buf = std::mem::take(&mut self.pending);
        let mut chunk = [0u8; 16 * 1024];
        let mut eof = false;
        let head_end = loop {
            if let Some(at) = find(&buf, b"\r\n\r\n") {
                break at + 4;
            }
            match stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed before the response head ended")),
                n => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1."))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }

        let mut body = buf.split_off(head_end);
        match content_length {
            Some(len) => {
                while body.len() < len {
                    match stream.read(&mut chunk)? {
                        0 => return Err(bad("connection closed inside the body")),
                        n => body.extend_from_slice(&chunk[..n]),
                    }
                }
                self.pending = body.split_off(len);
            }
            // No length: the body runs to EOF, so the connection is spent.
            None => {
                stream.read_to_end(&mut body)?;
                eof = true;
            }
        }
        if close || eof {
            self.conn = None;
        }
        Ok(Response { status, body })
    }
}

/// Percent-encode one path segment or query value.
pub fn encode(component: &str) -> String {
    let mut out = String::with_capacity(component.len());
    for b in component.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve `script` (one response per request, in order) on one
    /// accepted connection per inner list.
    fn serve(script: Vec<Vec<&'static str>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for responses in script {
                let (mut stream, _) = listener.accept().unwrap();
                for response in responses {
                    let mut seen = Vec::new();
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap() == 0 {
                            return;
                        }
                        seen.push(byte[0]);
                    }
                    stream.write_all(response.as_bytes()).unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn keeps_the_connection_until_told_to_close() {
        let (addr, server) = serve(vec![
            vec![
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab",
                "HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\nConnection: close\r\n\r\nxyz",
            ],
            vec!["HTTP/1.1 200 OK\r\n\r\nto the end"],
        ]);
        let mut client = Client::new(addr);
        assert_eq!(
            client.get("/a").unwrap(),
            Response {
                status: 200,
                body: b"ab".to_vec()
            }
        );
        assert_eq!(
            client.get("/b").unwrap(),
            Response {
                status: 404,
                body: b"xyz".to_vec()
            }
        );
        assert_eq!(client.connects, 1, "second request reused the connection");
        assert_eq!(client.get("/c").unwrap().body, b"to the end".to_vec());
        assert_eq!((client.connects, client.requests), (2, 3));
        server.join().unwrap();
    }

    #[test]
    fn a_kept_connection_closed_by_the_server_is_retried_once() {
        let (addr, server) = serve(vec![
            vec!["HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"],
            vec!["HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"],
        ]);
        let mut client = Client::new(addr);
        assert_eq!(client.get("/1").unwrap().body, b"a".to_vec());
        assert_eq!(client.get("/2").unwrap().body, b"b".to_vec());
        assert_eq!(client.connects, 2);
        server.join().unwrap();
    }

    #[test]
    fn encodes_everything_but_unreserved_bytes() {
        assert_eq!(encode("PRICE>=30"), "PRICE%3E%3D30");
        assert_eq!(encode("a b/c~d"), "a%20b%2Fc~d");
    }
}
