//! Raw protocol access for the load generator.
//!
//! Requests are encoded to frames before the clock starts, so the
//! generator's own encoding cost stays out of the timed loop; replies
//! are read and decoded with the daemon's own `proto` functions.

use crate::oracle::{check, Expect};
use ruleserv::proto::{encode_frame, read_frame};
use ruleserv::{Reply, Request};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One pre-encoded request and the reply it must get.
pub struct Call {
    pub frame: Vec<u8>,
    pub expect: Expect,
}

impl Call {
    pub fn new(request: &Request, expect: Expect) -> Call {
        let (op, payload) = request.encode();
        Call {
            frame: encode_frame(op, &payload),
            expect,
        }
    }
}

/// The write half of a connection.
pub struct Sender(TcpStream);

/// The read half of a connection.
pub struct Receiver(BufReader<TcpStream>);

pub fn connect(addr: SocketAddr) -> Result<(Sender, Receiver), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((Sender(s), Receiver(BufReader::with_capacity(1 << 16, r))))
}

impl Sender {
    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.0.write_all(frame).map_err(|e| format!("send: {e}"))
    }
}

impl Receiver {
    /// The next reply, skipping pushed subscription frames.
    pub fn recv(&mut self) -> Result<Reply, String> {
        loop {
            let (op, payload) = read_frame(&mut self.0)
                .map_err(|e| format!("receive: {e}"))?
                .ok_or("daemon closed the connection")?;
            match Reply::decode(op, &payload).map_err(|e| format!("decode: {e}"))? {
                Reply::Event(_) | Reply::Lagged(_) => continue,
                reply => return Ok(reply),
            }
        }
    }
}

/// Sends `calls` over one connection, at most `window` in flight (the
/// daemon's engine queue holds 1024), checking every reply.
pub fn pipelined(
    tx: &mut Sender,
    rx: &mut Receiver,
    calls: &[Call],
    window: usize,
) -> Result<(), String> {
    for chunk in calls.chunks(window) {
        let mut burst = Vec::new();
        for c in chunk {
            burst.extend_from_slice(&c.frame);
        }
        tx.send(&burst)?;
        for c in chunk {
            check(&c.expect, &rx.recv()?)?;
        }
    }
    Ok(())
}
