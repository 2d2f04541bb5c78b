//! Hand-rolled binary wire codec.
//!
//! Every RPC message and data-transfer frame in the system is encoded with
//! this little-endian, length-prefixed format. A hand-written codec (rather
//! than a serde backend) keeps the wire format explicit, versionable and
//! allocation-conscious: payload bytes travel as [`bytes::Bytes`] and are
//! never copied during encode.
//!
//! Framing: each message on a stream is `u32 length ‖ body`, where `length`
//! is the body size in bytes. [`write_frame`]/[`read_frame`] implement this
//! over any `io`-like byte channel via the [`FrameIo`] trait.

use crate::error::{DfsError, DfsResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame body, a defence against corrupt length prefixes.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Serialization sink.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte payload without copying when the
    /// source is already a `Bytes`.
    pub fn put_bytes(&mut self, b: &Bytes) {
        self.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_u32(x);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Deserialization source over a `Bytes` body.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    fn need(&self, n: usize) -> DfsResult<()> {
        if self.buf.remaining() < n {
            Err(DfsError::codec(format!(
                "truncated frame: wanted {n} more bytes, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    pub fn get_u8(&mut self) -> DfsResult<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn get_bool(&mut self) -> DfsResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DfsError::codec(format!("invalid bool byte {other}"))),
        }
    }

    pub fn get_u16(&mut self) -> DfsResult<u16> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    pub fn get_u32(&mut self) -> DfsResult<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> DfsResult<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_f64(&mut self) -> DfsResult<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn get_str(&mut self) -> DfsResult<String> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let raw = self.buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec())
            .map_err(|e| DfsError::codec(format!("invalid utf-8 string: {e}")))
    }

    /// Zero-copy read of a length-prefixed byte payload.
    pub fn get_bytes(&mut self) -> DfsResult<Bytes> {
        let len = self.get_u32()? as usize;
        if len > MAX_FRAME {
            return Err(DfsError::codec(format!("byte field too large: {len}")));
        }
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len))
    }

    pub fn get_u32_vec(&mut self) -> DfsResult<Vec<u32>> {
        let n = self.get_u32()? as usize;
        self.need(n.saturating_mul(4))?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Fails unless the whole body was consumed — catches schema drift.
    pub fn expect_end(&self) -> DfsResult<()> {
        if self.remaining() != 0 {
            Err(DfsError::codec(format!(
                "{} trailing bytes after message",
                self.remaining()
            )))
        } else {
            Ok(())
        }
    }
}

/// A type that can be encoded to / decoded from the wire.
pub trait Wire: Sized {
    fn encode(&self, w: &mut WireWriter);
    fn decode(r: &mut WireReader) -> DfsResult<Self>;

    /// Encodes into a standalone body.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes from a standalone body, requiring full consumption.
    fn from_bytes(b: Bytes) -> DfsResult<Self> {
        let mut r = WireReader::new(b);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Byte-channel abstraction so framing works over both fabric streams and
/// in-process test buffers.
pub trait FrameIo {
    /// Writes all of `buf` or fails.
    fn write_all(&mut self, buf: &[u8]) -> DfsResult<()>;
    /// Reads exactly `buf.len()` bytes or fails.
    fn read_exact(&mut self, buf: &mut [u8]) -> DfsResult<()>;
    /// Writes all of a shared buffer; a transport that queues `Bytes`
    /// takes slices of it instead of copies.
    fn write_bytes(&mut self, buf: &Bytes) -> DfsResult<()> {
        self.write_all(buf)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(io: &mut impl FrameIo, body: &Bytes) -> DfsResult<()> {
    if body.len() > MAX_FRAME {
        return Err(DfsError::codec(format!("frame too large: {}", body.len())));
    }
    io.write_all(&(body.len() as u32).to_le_bytes())?;
    io.write_bytes(body)
}

/// Reads one length-prefixed frame.
pub fn read_frame(io: &mut impl FrameIo) -> DfsResult<Bytes> {
    let mut len_buf = [0u8; 4];
    io.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(DfsError::codec(format!("frame length {len} exceeds cap")));
    }
    let mut body = vec![0u8; len];
    io.read_exact(&mut body)?;
    Ok(Bytes::from(body))
}

/// Convenience: encode a message and send it as one frame.
pub fn send_message<M: Wire>(io: &mut impl FrameIo, msg: &M) -> DfsResult<()> {
    write_frame(io, &msg.to_bytes())
}

/// Convenience: read one frame and decode it as `M`.
pub fn recv_message<M: Wire>(io: &mut impl FrameIo) -> DfsResult<M> {
    M::from_bytes(read_frame(io)?)
}

/// In-memory `FrameIo` over a growable buffer — the unit-test transport.
#[derive(Debug, Default)]
pub struct MemPipe {
    data: Vec<u8>,
    read_pos: usize,
}

impl MemPipe {
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrameIo for MemPipe {
    fn write_all(&mut self, buf: &[u8]) -> DfsResult<()> {
        self.data.extend_from_slice(buf);
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> DfsResult<()> {
        let available = self.data.len() - self.read_pos;
        if available < buf.len() {
            return Err(DfsError::connection_lost(format!(
                "mem pipe exhausted: wanted {}, have {available}",
                buf.len()
            )));
        }
        buf.copy_from_slice(&self.data[self.read_pos..self.read_pos + buf.len()]);
        self.read_pos += buf.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65535);
        w.put_u32(123_456);
        w.put_u64(u64::MAX);
        w.put_f64(216.5);
        w.put_str("hello/путь");
        w.put_bytes(&Bytes::from_static(b"payload"));
        w.put_u32_slice(&[1, 2, 3]);

        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), 216.5);
        assert_eq!(r.get_str().unwrap(), "hello/путь");
        assert_eq!(r.get_bytes().unwrap(), Bytes::from_static(b"payload"));
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = WireWriter::new();
        w.put_u32(9);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_u64().is_err());

        // String claiming more bytes than present.
        let mut w = WireWriter::new();
        w.put_u32(1000);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_str().is_err());
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(2);
        let mut r = WireReader::new(w.finish());
        assert!(matches!(r.get_bool(), Err(DfsError::Codec(_))));
    }

    #[test]
    fn expect_end_catches_trailing_bytes() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let mut r = WireReader::new(w.finish());
        r.get_u32().unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn framing_roundtrip_over_mem_pipe() {
        let mut pipe = MemPipe::new();
        write_frame(&mut pipe, &Bytes::from_static(b"first")).unwrap();
        write_frame(&mut pipe, &Bytes::from_static(b"")).unwrap();
        write_frame(&mut pipe, &Bytes::from_static(b"third-frame")).unwrap();
        assert_eq!(read_frame(&mut pipe).unwrap(), "first");
        assert_eq!(read_frame(&mut pipe).unwrap(), "");
        assert_eq!(read_frame(&mut pipe).unwrap(), "third-frame");
        assert!(read_frame(&mut pipe).is_err(), "no fourth frame");
    }

    #[test]
    fn write_bytes_defaults_to_write_all() {
        let body = Bytes::from((0u8..=255).collect::<Vec<u8>>()).slice(3..200);
        let (mut by_slice, mut by_bytes) = (MemPipe::new(), MemPipe::new());
        by_slice.write_all(&body).unwrap();
        by_bytes.write_bytes(&body).unwrap();
        assert_eq!(by_bytes.data, by_slice.data);
        assert_eq!(by_bytes.data, &body[..]);
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut pipe = MemPipe::new();
        pipe.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        assert!(matches!(read_frame(&mut pipe), Err(DfsError::Codec(_))));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        a: u64,
        b: String,
        c: Vec<u32>,
        d: Bytes,
    }

    impl Wire for Sample {
        fn encode(&self, w: &mut WireWriter) {
            w.put_u64(self.a);
            w.put_str(&self.b);
            w.put_u32_slice(&self.c);
            w.put_bytes(&self.d);
        }
        fn decode(r: &mut WireReader) -> DfsResult<Self> {
            Ok(Sample {
                a: r.get_u64()?,
                b: r.get_str()?,
                c: r.get_u32_vec()?,
                d: r.get_bytes()?,
            })
        }
    }

    proptest! {
        #[test]
        fn wire_trait_roundtrip(a in any::<u64>(),
                                b in ".{0,64}",
                                c in proptest::collection::vec(any::<u32>(), 0..32),
                                d in proptest::collection::vec(any::<u8>(), 0..256)) {
            let s = Sample { a, b, c, d: Bytes::from(d) };
            let decoded = Sample::from_bytes(s.to_bytes()).unwrap();
            prop_assert_eq!(decoded, s);
        }

        /// Arbitrary byte garbage must never panic the decoder.
        #[test]
        fn decoder_is_panic_free_on_garbage(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Sample::from_bytes(Bytes::from(raw));
        }
    }
}
