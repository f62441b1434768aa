//! A keep-alive loopback HTTP/1.1 client whose reader also works on a
//! non-blocking socket and on pipelined responses.

use dpmg_server::api_types::parse_json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    /// An unsigned field of the JSON body, e.g. `accepted` or `epoch`.
    pub fn field(&self, name: &str) -> Option<u64> {
        parse_json(&self.body).ok()?.get(name)?.as_u64()
    }
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unparsed bytes in `buf`.
    start: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server bug must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self::over(stream))
    }

    fn over(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// A second client on the same connection, for a thread that only
    /// reads the replies this one's requests produce.
    pub fn reader(&self) -> io::Result<Self> {
        Ok(Self::over(self.stream.try_clone()?))
    }

    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.stream.set_nonblocking(on)
    }

    pub fn send(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    pub fn request(&mut self, raw: &[u8]) -> io::Result<Reply> {
        self.send(raw)?;
        self.read_reply()
    }

    /// Blocks until one whole reply is buffered and returns it.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(reply) = self.take_reply()? {
                return Ok(reply);
            }
            if self.fill()? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// One `read` into the buffer: the bytes read, 0 at end of stream, or
    /// `WouldBlock` on a non-blocking socket with nothing to read.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Parses one complete reply out of the buffer, if there is one.
    pub fn take_reply(&mut self) -> io::Result<Option<Reply>> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&pending[..head_len]).map_err(|_| bad("non-utf8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let body_len = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("reply without Content-Length"))?;
        let body_start = head_len + 4;
        if pending.len() < body_start + body_len {
            return Ok(None);
        }
        let body = pending[body_start..body_start + body_len].to_vec();
        self.start += body_start + body_len;
        Ok(Some(Reply { status, body }))
    }
}
