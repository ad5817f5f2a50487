//! On-the-wire framing of QTP datagrams for real UDP transport.
//!
//! Inside the simulator a packet carries metadata the network "knows" for
//! free: the flow id, the accounted wire size (simulated payload is never
//! materialized) and the opaque transport header. Over a real socket those
//! must be explicit, so every UDP datagram is one frame:
//!
//! ```text
//!  0      2      3        7           15          19          21
//! +------+------+--------+-----------+-----------+-----------+----------+
//! | magic| ver  | flow   | seq (uid) | wire_size | header_len| header…  |
//! | u16  | u8   | u32    | u64       | u32       | u16       | bytes    |
//! +------+------+--------+-----------+-----------+-----------+----------+
//! ```
//!
//! All integers are big-endian. `seq` is a per-driver datagram counter
//! (the real-I/O analogue of the simulator's packet uid, for tracing).
//! `wire_size` is the *accounted* size — transport header + simulated
//! payload + IP overhead — which the receiving endpoint uses for payload
//! and rate bookkeeping exactly as in the simulator; the UDP datagram
//! itself stays header-sized, so loopback tests don't shovel bulk data.
//! `header_len` must match the remaining bytes exactly: trailing garbage
//! is rejected rather than ignored.

/// Frame magic: "QT" big-endian.
pub const MAGIC: u16 = 0x5154;
/// Current frame version.
pub const VERSION: u8 = 1;
/// Fixed bytes before the variable-length header.
pub const FIXED_LEN: usize = 2 + 1 + 4 + 8 + 4 + 2;
/// Largest encoded frame (and therefore UDP datagram) the protocol will
/// produce or accept. QTP transport headers are tens of bytes; anything
/// approaching this bound is foreign or hostile traffic and is rejected
/// *before* any length field is trusted.
pub const MAX_FRAME_LEN: usize = 2048;

/// A decoded datagram frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Flow the datagram belongs to (data vs feedback direction).
    pub flow: u32,
    /// Per-driver datagram counter (tracing only; endpoints don't read it).
    pub seq: u64,
    /// Accounted on-wire size (header + simulated payload + IP overhead).
    pub wire_size: u32,
    /// Encoded transport header.
    pub header: Vec<u8>,
}

/// Frame decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed prologue, or header bytes missing.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic(u16),
    /// Unknown version byte.
    BadVersion(u8),
    /// `header_len` disagrees with the actual remaining length.
    LengthMismatch { declared: u16, actual: usize },
    /// Transport header longer than [`MAX_FRAME_LEN`] allows.
    HeaderTooLong(usize),
    /// Input longer than [`MAX_FRAME_LEN`] (never a QTP frame).
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "header length {declared} declared, {actual} present")
            }
            FrameError::HeaderTooLong(n) => write!(f, "transport header of {n} bytes unframable"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "datagram of {n} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A datagram frame borrowing its transport header: what the drivers frame
/// outgoing datagrams from and dispatch incoming ones on, without copying
/// the header. [`Frame`] is its owned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// See [`Frame::flow`].
    pub flow: u32,
    /// See [`Frame::seq`].
    pub seq: u64,
    /// See [`Frame::wire_size`].
    pub wire_size: u32,
    /// Encoded transport header.
    pub header: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// Append the encoded datagram to `out` (untouched on error). `out`
    /// grows amortized, so appending frame after frame into one buffer (the
    /// mux's tx arena) reallocates only while it outgrows its high-water mark.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        if FIXED_LEN + self.header.len() > MAX_FRAME_LEN {
            return Err(FrameError::HeaderTooLong(self.header.len()));
        }
        let header_len = u16::try_from(self.header.len())
            .map_err(|_| FrameError::HeaderTooLong(self.header.len()))?;
        out.reserve(FIXED_LEN + self.header.len());
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(VERSION);
        out.extend_from_slice(&self.flow.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.wire_size.to_be_bytes());
        out.extend_from_slice(&header_len.to_be_bytes());
        out.extend_from_slice(self.header);
        Ok(())
    }

    /// Parse one UDP datagram. Total: never panics, whatever the input —
    /// adversarial, truncated, or oversized buffers all map to an error.
    pub fn parse(buf: &'a [u8]) -> Result<Self, FrameError> {
        if buf.len() > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(buf.len()));
        }
        // Each field is split off as an array, so no index can go out of
        // bounds: a buffer too short for the prologue is `Truncated`.
        let mut rest = buf;
        let fields = (
            take(&mut rest),
            take(&mut rest),
            take(&mut rest),
            take(&mut rest),
            take(&mut rest),
            take(&mut rest),
        );
        let (Some(magic), Some([version]), Some(flow), Some(seq), Some(wire_size), Some(declared)) =
            fields
        else {
            return Err(FrameError::Truncated);
        };
        let magic = u16::from_be_bytes(magic);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let flow = u32::from_be_bytes(flow);
        let seq = u64::from_be_bytes(seq);
        let wire_size = u32::from_be_bytes(wire_size);
        let declared = u16::from_be_bytes(declared);
        let header = rest;
        if header.len() != declared as usize {
            // Distinguish truncation from trailing garbage only in the
            // error detail; both are rejected.
            return Err(FrameError::LengthMismatch {
                declared,
                actual: header.len(),
            });
        }
        Ok(FrameRef {
            flow,
            seq,
            wire_size,
            header,
        })
    }

    /// The owned frame.
    pub fn to_owned(&self) -> Frame {
        Frame {
            flow: self.flow,
            seq: self.seq,
            wire_size: self.wire_size,
            header: self.header.to_vec(),
        }
    }
}

/// Split the first `N` bytes off `buf` as an array, if it holds that many.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = (buf.get(..N)?, buf.get(N..)?);
    *buf = rest;
    head.try_into().ok()
}

impl Frame {
    /// Encode into a fresh datagram buffer.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let mut out = Vec::new();
        FrameRef {
            flow: self.flow,
            seq: self.seq,
            wire_size: self.wire_size,
            header: &self.header,
        }
        .encode_into(&mut out)?;
        Ok(out)
    }

    /// Decode one UDP datagram. Total, like [`FrameRef::parse`].
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        FrameRef::parse(buf).map(|f| f.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            flow: 7,
            seq: 123_456_789,
            wire_size: 1049,
            header: vec![3, 0, 0, 0, 0, 0, 0, 0, 42],
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.len(), FIXED_LEN + f.header.len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_header_roundtrips() {
        let f = Frame {
            flow: 0,
            seq: 0,
            wire_size: 0,
            header: Vec::new(),
        };
        assert_eq!(Frame::decode(&f.encode().unwrap()).unwrap(), f);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().encode().unwrap();
        for cut in 0..FIXED_LEN {
            assert_eq!(Frame::decode(&bytes[..cut]), Err(FrameError::Truncated));
        }
        // Cutting into the header is a length mismatch.
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().encode().unwrap();
        bytes.push(0xFF);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().encode().unwrap();
        bytes[0] = 0xAB;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = sample().encode().unwrap();
        bytes[2] = 99;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadVersion(99)));
    }

    #[test]
    fn oversized_header_unencodable() {
        let f = Frame {
            flow: 1,
            seq: 1,
            wire_size: 1,
            header: vec![0; usize::from(u16::MAX) + 1],
        };
        assert_eq!(
            f.encode(),
            Err(FrameError::HeaderTooLong(usize::from(u16::MAX) + 1))
        );
        // A refused frame leaves a driver's tx arena as it was.
        let mut scratch = vec![1, 2, 3];
        let view = FrameRef {
            flow: f.flow,
            seq: f.seq,
            wire_size: f.wire_size,
            header: &f.header,
        };
        assert!(view.encode_into(&mut scratch).is_err());
        assert_eq!(scratch, [1, 2, 3]);
        // The bound is MAX_FRAME_LEN, well below what u16 could declare.
        let f = Frame {
            header: vec![0; MAX_FRAME_LEN - FIXED_LEN + 1],
            ..f
        };
        assert!(matches!(f.encode(), Err(FrameError::HeaderTooLong(_))));
        // Exactly at the bound still encodes and round-trips.
        let f = Frame {
            header: vec![7; MAX_FRAME_LEN - FIXED_LEN],
            ..f
        };
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.len(), MAX_FRAME_LEN);
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn oversized_datagrams_rejected_before_parsing() {
        // A giant buffer is rejected on length alone, even if it starts
        // with valid magic/version bytes.
        let mut bytes = sample().encode().unwrap();
        bytes.resize(MAX_FRAME_LEN + 1, 0);
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
        );
    }
}
