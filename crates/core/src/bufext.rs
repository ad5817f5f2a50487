//! Minimal big-endian buffer read/write helpers for the wire codecs.
//!
//! The tiny subset of the `bytes` crate the codecs use (`put_*` on
//! `Vec<u8>`, advancing `get_*` on `&[u8]`), so the runtime crates stay
//! zero-dependency. Unlike `bytes`, a read past the end is `None`, not a
//! panic: the decoders turn it into a typed error.

pub(crate) trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

/// Advancing big-endian reads over a byte slice. A read past the end
/// returns `None` and leaves the slice where it was.
pub(crate) trait Buf {
    fn get_u8(&mut self) -> Option<u8>;
    fn get_u16(&mut self) -> Option<u16>;
    fn get_u32(&mut self) -> Option<u32>;
    fn get_u64(&mut self) -> Option<u64>;
}

/// The next `N` bytes, advancing past them.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = (buf.get(..N)?, buf.get(N..)?);
    *buf = rest;
    head.try_into().ok()
}

impl Buf for &[u8] {
    fn get_u8(&mut self) -> Option<u8> {
        take(self).map(u8::from_be_bytes)
    }

    fn get_u16(&mut self) -> Option<u16> {
        take(self).map(u16::from_be_bytes)
    }

    fn get_u32(&mut self) -> Option<u32> {
        take(self).map(u32::from_be_bytes)
    }

    fn get_u64(&mut self) -> Option<u64> {
        take(self).map(u64::from_be_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u16(0xBEEF);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(u64::MAX - 1);
        let mut buf: &[u8] = &out;
        assert_eq!(buf.len(), 15);
        assert_eq!(buf.get_u8(), Some(7));
        assert_eq!(buf.get_u16(), Some(0xBEEF));
        assert_eq!(buf.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(buf.get_u64(), Some(u64::MAX - 1));
        assert!(buf.is_empty());
        assert_eq!(buf.get_u8(), None);
    }

    #[test]
    fn big_endian_layout() {
        let mut out = Vec::new();
        out.put_u32(1);
        assert_eq!(out, [0, 0, 0, 1]);
    }
}
