//! The application on top of one stream: a closed-loop writer of seeded
//! pattern bytes and the check a reader applies to what comes out. Shared by
//! the pipe and the mux workloads so "closed loop" means one thing.

use crate::pattern;
use crate::run::{names::STREAM_SEND, Layer, Violation};
use crate::span::Spans;
use qtp_core::session::SessionEvent;
use qtp_core::stream::{SendStream, StreamError};
use std::time::Instant;

/// Sends fixed-size writes until the stream answers `Full`, resumes on
/// `Writable`, finishes the stream after the last write.
pub struct Writer {
    key: u64,
    buf: Vec<u8>,
    writes: u64,
    /// Message mode: the first eight bytes of a write carry its index, so a
    /// reader can place a message that arrives out of order.
    stamped: bool,
    /// Fault injection for the correctness gate's own test: flip one bit of
    /// the byte at this stream position before it is submitted.
    corrupt_at: Option<u64>,
    filled: bool,
    blocked: bool,
    /// When each accepted write was submitted, by write index.
    sent_at: Vec<Instant>,
}

impl Writer {
    pub fn new(key: u64, write_len: usize, writes: u64, stamped: bool) -> Self {
        Writer {
            key,
            buf: vec![0u8; write_len],
            writes,
            stamped,
            corrupt_at: None,
            filled: false,
            blocked: false,
            sent_at: Vec::with_capacity(writes as usize),
        }
    }

    pub fn corrupt_at(mut self, at: Option<u64>) -> Self {
        self.corrupt_at = at;
        self
    }

    /// Writes accepted so far.
    pub fn sent(&self) -> u64 {
        self.sent_at.len() as u64
    }

    pub fn sent_at(&self, index: u64) -> Instant {
        self.sent_at[index as usize]
    }

    pub fn on_event(&mut self, ev: &SessionEvent) {
        self.blocked &= *ev != SessionEvent::Writable;
    }

    /// Submit as much as the stream takes right now.
    pub fn pump(
        &mut self,
        send: &SendStream,
        spans: &mut Spans,
        layer: &mut Layer,
    ) -> Result<(), Violation> {
        let len = self.buf.len() as u64;
        while !self.blocked && self.sent() < self.writes {
            let (index, pos) = (self.sent(), self.sent() * len);
            if !self.filled {
                pattern::fill(self.key, pos, &mut self.buf);
                if self.stamped {
                    self.buf[..8].copy_from_slice(&index.to_le_bytes());
                }
                if let Some(at) = self.corrupt_at.filter(|at| (pos..pos + len).contains(at)) {
                    self.buf[(at - pos) as usize] ^= 0x01;
                }
                self.filled = true;
            }
            layer.sends += 1;
            let t = spans.enter(STREAM_SEND);
            let res = send.send(&self.buf);
            spans.exit(t);
            match res {
                Ok(()) => {
                    self.sent_at.push(Instant::now());
                    self.filled = false;
                }
                Err(StreamError::Full) => {
                    layer.refused += 1;
                    self.blocked = true;
                }
                Err(e) => return Err(Violation::new(format!("send refused: {e}"), pos)),
            }
        }
        if self.sent() == self.writes && !send.is_finished() {
            send.finish();
        }
        Ok(())
    }
}

/// Check that `msg` is write number `index` of the stream keyed `key`,
/// recomputing what it should hold. `stamped` writes carry their index in
/// the first eight bytes (see [`stamp_of`]).
pub fn check(
    key: u64,
    write_len: usize,
    index: u64,
    msg: &[u8],
    stamped: bool,
) -> Result<(), Violation> {
    let pos = index * write_len as u64;
    if msg.len() != write_len {
        return Err(Violation::new(
            format!("message of {} bytes, {write_len} expected", msg.len()),
            pos,
        ));
    }
    let skip = if stamped { 8 } else { 0 };
    pattern::verify(key, pos + skip as u64, &msg[skip..]).map_err(|at| {
        Violation::new(
            "payload differs from the seeded pattern (or arrived out of order)",
            at,
        )
    })
}

/// The write index a stamped message claims.
pub fn stamp_of(msg: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(msg.get(..8)?.try_into().ok()?))
}
