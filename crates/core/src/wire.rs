//! Binary wire codec: leaves written once, records declared once.
//!
//! Every RPC message and data-transfer frame in the system is encoded with
//! this little-endian, length-prefixed format. [`Wire`] is implemented by
//! hand only for the leaves below (integers, `bool`, `f64`, `String`,
//! `Bytes`, `Option`, `Vec`, `Box`; the id newtypes in [`crate::ids`]).
//! Every record is *declared* through [`wire_struct!`] or [`wire_enum!`]
//! (see [`crate::proto`]), which emit the type, `encode`, `decode` and a
//! test sampler from one description. What the tables guarantee:
//!
//! * **declaration order is wire order** — a struct's fields, and a
//!   variant's fields after its tag byte, go out exactly as listed;
//! * **tags are explicit and never reused** — each variant names its `u8`
//!   tag in the table, an unknown tag decodes to `unknown <Name> tag`, and
//!   a retired tag stays retired;
//! * `Option<T>` is a `bool` then the value, `Vec<T>` a `u32` count (at
//!   most [`MAX_VEC_LEN`]) then the items, ids their raw integer, and
//!   payload bytes travel as [`bytes::Bytes`], never copied on the way in
//!   or out;
//! * a decoder that also *validates* names its check in the table
//!   (`field: Type where check_fn`), so the check is part of the
//!   description and the sampler only draws values that pass it.
//!
//! `crates/core/tests/golden/wire.hex` pins the bytes of one value per
//! variant and record; each enum table also emits, under test, the list of
//! its variants, and a variant with no line there fails the golden test.
//!
//! Framing: each message on a stream is `u32 length ‖ body`, where `length`
//! is the body size in bytes. [`write_frame`]/[`read_frame`] implement this
//! over any `io`-like byte channel via the [`FrameIo`] trait.

use crate::error::{DfsError, DfsResult};
use crate::proto::Packet;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame body, a defence against corrupt length prefixes.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Largest item count any `Vec<T>` field may claim on the wire.
pub const MAX_VEC_LEN: usize = 1 << 20;

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

// ---------------------------------------------------------------------------
// Leaves: the only hand-written `Wire` impls
// ---------------------------------------------------------------------------

macro_rules! wire_scalar {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader) -> DfsResult<Self> {
                r.$get()
            }
        }
    )*};
}

wire_scalar! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    f64: put_f64, get_f64;
    bool: put_bool, get_bool;
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        r.get_str()
    }
}

/// A payload: a slice of the frame on the way in, one copy into the
/// frame on the way out.
impl Wire for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        r.get_bytes()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(if r.get_bool()? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    /// The claimed count is bounded before anything is allocated, and the
    /// vector grows only as items actually decode.
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        let n = r.get_u32()? as usize;
        if n > MAX_VEC_LEN {
            return Err(DfsError::codec(format!("vector length {n} unreasonable")));
        }
        (0..n).map(|_| T::decode(r)).collect()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, w: &mut WireWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        T::decode(r).map(Box::new)
    }
}

// ---------------------------------------------------------------------------
// Record tables
// ---------------------------------------------------------------------------

/// Declares a struct and its codec from one field list: fields go on the
/// wire in declaration order. `field: Type where check` runs
/// `check(&value) -> DfsResult<()>` after the field decodes. The
/// `impl Name { field: Type, … }` form gives the same codec to a struct
/// defined elsewhere.
macro_rules! wire_struct {
    (impl $name:ident { $($field:ident: $ty:ty $(where $check:path)?),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::wire::Wire::encode(&self.$field, w);)*
            }
            fn decode(r: &mut $crate::wire::WireReader) -> $crate::error::DfsResult<Self> {
                Ok($name {
                    $($field: $crate::wire::wire_field!(r, $ty $(, $check)?),)*
                })
            }
        }

        #[cfg(test)]
        impl $crate::wire::testing::WireSample for $name {
            fn sample(rng: &mut $crate::wire::testing::SampleRng) -> Self {
                $name {
                    $($field: $crate::wire::wire_field!(sample rng, $ty $(, $check)?),)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty $(where $check:path)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        $crate::wire::wire_struct!(impl $name { $($field: $ty $(where $check)?),* });
    };
}
pub(crate) use wire_struct;

/// Declares a tagged enum and its codec from one table of
/// `<tag> => Variant`, `<tag> => Variant(Type)` or
/// `<tag> => Variant { field: Type, … }` lines: the `u8` tag, then the
/// fields in declaration order. An unlisted tag decodes to
/// `unknown <Name> tag`. The `impl Name { … }` form gives the same codec to
/// an enum defined elsewhere.
macro_rules! wire_enum {
    (impl $name:ident {
        $($tag:literal => $variant:ident
            $(($tty:ty))?
            $({ $($field:ident: $fty:ty $(where $check:path)?),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                match self {$(
                    $name::$variant
                        $(($crate::wire::wire_field!(bind inner, $tty)))?
                        $({ $($field),* })?
                    => {
                        w.put_u8($tag);
                        $(<$tty as $crate::wire::Wire>::encode(inner, w);)?
                        $($($crate::wire::Wire::encode($field, w);)*)?
                    }
                )*}
            }
            // A tag listed twice is a compile error, not a dead arm.
            #[deny(unreachable_patterns)]
            fn decode(r: &mut $crate::wire::WireReader) -> $crate::error::DfsResult<Self> {
                Ok(match r.get_u8()? {
                    $($tag => $name::$variant
                        $(($crate::wire::wire_field!(r, $tty)))?
                        $({ $($field: $crate::wire::wire_field!(r, $fty $(, $check)?)),* })?,
                    )*
                    x => {
                        return Err($crate::error::DfsError::codec(format!(
                            concat!("unknown ", stringify!($name), " tag {}"),
                            x
                        )))
                    }
                })
            }
        }

        #[cfg(test)]
        impl $crate::wire::testing::WireVariants for $name {
            const NAME: &'static str = stringify!($name);
            const VARIANTS: &'static [&'static str] = &[$(stringify!($variant)),*];
        }

        #[cfg(test)]
        impl $crate::wire::testing::WireSample for $name {
            /// Every variant is drawn with equal probability.
            #[allow(unused_variables)]
            fn sample(rng: &mut $crate::wire::testing::SampleRng) -> Self {
                let variants: &[fn(&mut $crate::wire::testing::SampleRng) -> $name] = &[$(
                    |rng| $name::$variant
                        $(($crate::wire::wire_field!(sample rng, $tty)))?
                        $({ $($field: $crate::wire::wire_field!(sample rng, $fty $(, $check)?)),* })?,
                )*];
                variants[$crate::wire::testing::Rng::gen_range(rng, 0..variants.len())](rng)
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $tag:literal => $variant:ident
                $(($tty:ty))?
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty $(where $check:path)?),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant
                $(($tty))?
                $({ $($(#[$fmeta])* $field: $fty,)* })?,
            )*
        }

        $crate::wire::wire_enum!(impl $name {
            $($tag => $variant $(($tty))? $({ $($field: $fty $(where $check)?),* })?),*
        });
    };
}
pub(crate) use wire_enum;

/// One field of a table, in the three places a table mentions it:
/// decoding (with the optional validity check), sampling under test (only
/// values the check accepts), and the binding of a tuple variant's
/// payload in a `match` pattern.
macro_rules! wire_field {
    ($r:ident, $ty:ty) => {
        <$ty as $crate::wire::Wire>::decode($r)?
    };
    ($r:ident, $ty:ty, $check:path) => {{
        let value = <$ty as $crate::wire::Wire>::decode($r)?;
        $check(&value)?;
        value
    }};
    (sample $rng:ident, $ty:ty) => {
        <$ty as $crate::wire::testing::WireSample>::sample($rng)
    };
    (sample $rng:ident, $ty:ty, $check:path) => {
        loop {
            let value = <$ty as $crate::wire::testing::WireSample>::sample($rng);
            if $check(&value).is_ok() {
                break value;
            }
        }
    };
    (bind $binding:ident, $ty:ty) => {
        $binding
    };
}
pub(crate) use wire_field;

/// Byte-channel abstraction so framing works over both fabric streams and
/// in-process test buffers.
pub trait FrameIo {
    /// Writes all of `buf` or fails.
    fn write_all(&mut self, buf: &[u8]) -> DfsResult<()>;
    /// Reads exactly `buf.len()` bytes or fails.
    fn read_exact(&mut self, buf: &mut [u8]) -> DfsResult<()>;
    /// Writes `head` then `body` as one message. A transport that queues
    /// `Bytes` takes slices of `body` instead of copies, and one that
    /// wakes its peer per queued piece sends a small pair as one piece.
    fn write_vectored(&mut self, head: &[u8], body: &Bytes) -> DfsResult<()> {
        self.write_all(head)?;
        self.write_all(body)
    }
    /// Appends exactly `len` bytes to `buf` or fails; a transport that
    /// holds the bytes already appends them without zeroing first.
    fn read_append(&mut self, buf: &mut Vec<u8>, len: usize) -> DfsResult<()> {
        let at = buf.len();
        buf.resize(at + len, 0);
        self.read_exact(&mut buf[at..])
    }
}

fn check_frame_len(len: usize) -> DfsResult<()> {
    if len > MAX_FRAME {
        return Err(DfsError::codec(format!("frame too large: {len}")));
    }
    Ok(())
}

/// Writes one length-prefixed frame.
pub fn write_frame(io: &mut impl FrameIo, body: &Bytes) -> DfsResult<()> {
    check_frame_len(body.len())?;
    io.write_vectored(&(body.len() as u32).to_le_bytes(), body)
}

/// Reads one length-prefixed frame: the one copy a hop makes of it.
pub fn read_frame(io: &mut impl FrameIo) -> DfsResult<Bytes> {
    let mut len_buf = [0u8; 4];
    io.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    check_frame_len(len)?;
    let mut body = Vec::with_capacity(len);
    io.read_append(&mut body, len)?;
    Ok(Bytes::from(body))
}

/// Convenience: encode a message and send it as one frame.
pub fn send_message<M: Wire>(io: &mut impl FrameIo, msg: &M) -> DfsResult<()> {
    write_frame(io, &msg.to_bytes())
}

/// Sends a packet as the frame [`send_message`] would send, without
/// building it: the frame length and every field before the payload go
/// into one small buffer, and the payload follows as the `Bytes` it is.
pub fn send_packet(io: &mut impl FrameIo, pkt: &Packet) -> DfsResult<()> {
    let head_len = 8 + 8 + 1 + 4 + 4 * pkt.checksums.len() + 4;
    check_frame_len(head_len + pkt.payload.len())?;
    let mut head = WireWriter::with_capacity(4 + head_len);
    head.put_u32((head_len + pkt.payload.len()) as u32);
    pkt.seq.encode(&mut head);
    pkt.offset_in_block.encode(&mut head);
    pkt.last_in_block.encode(&mut head);
    pkt.checksums.encode(&mut head);
    head.put_u32(pkt.payload.len() as u32);
    debug_assert_eq!(head.len(), 4 + head_len);
    io.write_vectored(&head.finish(), &pkt.payload)
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

/// Test support the tables emit into: a seeded sampler per record and
/// the one property every record is held to.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) use rand::{Rng, RngCore, SeedableRng};
    pub(crate) use rand_chacha::ChaCha8Rng as SampleRng;

    /// A type the sampler can draw a value of.
    pub(crate) trait WireSample: Sized {
        fn sample(rng: &mut SampleRng) -> Self;
    }

    /// What a `wire_enum!` table lists, so a test can tell that no variant
    /// was left without a golden line.
    pub(crate) trait WireVariants {
        const NAME: &'static str;
        const VARIANTS: &'static [&'static str];
    }

    macro_rules! sample_int {
        ($($ty:ty),*) => {$(
            impl WireSample for $ty {
                /// Edge values one draw in four, else uniform.
                fn sample(rng: &mut SampleRng) -> Self {
                    match rng.gen_range(0..8) {
                        0 => 0,
                        1 => <$ty>::MAX,
                        _ => rng.next_u64() as $ty,
                    }
                }
            }
        )*};
    }
    sample_int!(u8, u32, u64);

    impl WireSample for bool {
        fn sample(rng: &mut SampleRng) -> Self {
            rng.gen_range(0..2) == 1
        }
    }

    impl WireSample for f64 {
        /// Finite, so a round trip compares equal.
        fn sample(rng: &mut SampleRng) -> Self {
            rng.gen_range(0..1u64 << 40) as f64 / 8.0
        }
    }

    impl WireSample for String {
        fn sample(rng: &mut SampleRng) -> Self {
            const ALPHABET: [char; 8] = ['a', 'Z', '/', '-', '0', 'é', '路', '\n'];
            (0..rng.gen_range(0..12)).map(|_| ALPHABET[rng.gen_range(0..8usize)]).collect()
        }
    }

    impl WireSample for Bytes {
        fn sample(rng: &mut SampleRng) -> Self {
            (0..rng.gen_range(0..48)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>().into()
        }
    }

    impl<T: WireSample> WireSample for Option<T> {
        fn sample(rng: &mut SampleRng) -> Self {
            bool::sample(rng).then(|| T::sample(rng))
        }
    }

    impl<T: WireSample> WireSample for Vec<T> {
        fn sample(rng: &mut SampleRng) -> Self {
            (0..rng.gen_range(0..4)).map(|_| T::sample(rng)).collect()
        }
    }

    impl<T: WireSample> WireSample for Box<T> {
        fn sample(rng: &mut SampleRng) -> Self {
            Box::new(T::sample(rng))
        }
    }

    /// The property: a sampled value encodes and decodes back to itself,
    /// and every strict prefix of its encoding is a codec error, never a
    /// panic and never a shorter value.
    pub(crate) fn round_trips_and_rejects_prefixes<T>(seed: u64)
    where
        T: Wire + WireSample + PartialEq + std::fmt::Debug,
    {
        let mut rng = SampleRng::seed_from_u64(seed);
        for _ in 0..64 {
            let value = T::sample(&mut rng);
            let bytes = value.to_bytes();
            assert_eq!(T::from_bytes(bytes.clone()).unwrap(), value);
            for cut in 0..bytes.len() {
                let prefix = T::from_bytes(bytes.slice(..cut));
                assert!(
                    matches!(prefix, Err(DfsError::Codec(_))),
                    "{cut} of {} bytes of {value:?} decoded to {prefix:?}",
                    bytes.len()
                );
            }
        }
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
        w.put_u32(123_456);
        w.put_u64(u64::MAX);
        w.put_f64(216.5);
        w.put_str("hello/путь");
        w.put_bytes(&Bytes::from_static(b"payload"));

        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), 216.5);
        assert_eq!(r.get_str().unwrap(), "hello/путь");
        assert_eq!(r.get_bytes().unwrap(), Bytes::from_static(b"payload"));
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

    /// The transports' defaults: a vectored write is head then body, an
    /// appending read leaves what the `Vec` already held alone.
    #[test]
    fn vectored_write_and_appending_read_default_to_the_plain_ones() {
        let body = Bytes::from((0u8..=255).collect::<Vec<u8>>()).slice(3..200);
        let mut pipe = MemPipe::new();
        pipe.write_vectored(b"head", &body).unwrap();
        let sent = [b"head", &body[..]].concat();
        assert_eq!(pipe.data, sent);
        let mut got = b"kept".to_vec();
        pipe.read_append(&mut got, sent.len()).unwrap();
        assert_eq!(got, [&b"kept"[..], &sent].concat());
        assert!(pipe.read_append(&mut got, 1).is_err(), "pipe is drained");
    }

    /// The copy-free packet writer puts on the wire exactly the frame the
    /// generic codec builds, whatever the payload and checksum count.
    #[test]
    fn send_packet_emits_the_frame_send_message_would() {
        use testing::{SampleRng, SeedableRng, WireSample};
        let mut rng = SampleRng::seed_from_u64(23);
        let mut sampled: Vec<Packet> = (0..64).map(|_| Packet::sample(&mut rng)).collect();
        sampled.push(Packet {
            seq: 9,
            offset_in_block: 1 << 20,
            last_in_block: true,
            checksums: vec![],
            payload: Bytes::new(),
        });
        sampled.push(Packet {
            seq: 0,
            offset_in_block: 0,
            last_in_block: false,
            checksums: (0..128).collect(),
            payload: Bytes::from(vec![0xA5; 64 * 1024]).slice(7..),
        });
        for pkt in &sampled {
            let (mut generic, mut copy_free) = (MemPipe::new(), MemPipe::new());
            write_frame(&mut generic, &pkt.to_bytes()).unwrap();
            send_packet(&mut copy_free, pkt).unwrap();
            assert_eq!(copy_free.data, generic.data, "{pkt:?}");
            assert_eq!(&recv_message::<Packet>(&mut copy_free).unwrap(), pkt);
        }
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut pipe = MemPipe::new();
        pipe.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        assert!(matches!(read_frame(&mut pipe), Err(DfsError::Codec(_))));
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Sample {
            pub a: u64,
            pub b: String,
            pub c: Vec<u32>,
            pub d: Bytes,
        }
    }

    #[test]
    fn vec_length_is_bounded_before_anything_is_allocated() {
        let mut w = WireWriter::new();
        w.put_u32(MAX_VEC_LEN as u32 + 1);
        let claimed = Vec::<u64>::from_bytes(w.finish());
        assert!(matches!(claimed, Err(DfsError::Codec(m)) if m.contains("unreasonable")));
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
