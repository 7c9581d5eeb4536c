//! The `Wire` codec: hand-rolled, deterministic little-endian encoding.
//!
//! The build container has no crates.io access, so there is no serde:
//! a regular record declares its field list once through
//! [`wire_record!`](crate::wire_record), and the few whose two directions
//! differ on purpose implement [`Wire`] by hand. The format is
//! position-based (no field names, no varints, no padding):
//!
//! * fixed-width integers are little-endian;
//! * `f32`/`f64` are their IEEE-754 bit patterns, little-endian — decode
//!   reproduces the *bit-exact* value, which is what makes TCP runs
//!   bitwise-identical to in-proc runs;
//! * `bool` and `Option` discriminants are single tag bytes (0/1), a
//!   unit enum is the tag byte its [`wire_enum!`](crate::wire_enum) list
//!   gives each variant;
//! * `usize` is a `u64` (a count means the same on every host; one this
//!   host cannot hold is refused);
//! * sequences are a `u32` count followed by the elements; a fixed-size
//!   array is its elements alone.
//!
//! Laws (tested here and property-tested in `tests/wire_transport.rs`):
//!
//! 1. **Round trip**: `decode(encode(x)) == x` (bitwise for floats);
//! 2. **Self-delimiting**: decode consumes exactly the bytes encode
//!    produced, so values concatenate without separators;
//! 3. **Determinism**: encoding the same value twice yields identical
//!    bytes (no maps, no addresses, no ambient state).

use crate::error::NetError;

/// A cursor over received bytes. Decoders pull from the front; running
/// past the end is a typed [`NetError::Truncated`], never a panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, NetError> {
        let s = self.take(1)?;
        Ok(s[0])
    }

    /// Fails unless the reader is fully consumed — the "exactly the bytes
    /// encode produced" law, enforced at every frame boundary.
    pub fn finish(self) -> Result<(), NetError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(NetError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }
}

/// Deterministic little-endian encode/decode for mesh-crossing types.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError>;

    /// Convenience: encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode a value that must occupy `buf` exactly.
    fn from_wire(buf: &[u8]) -> Result<Self, NetError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Implements [`Wire`] for a struct from **one** ordered field list: the
/// fields are encoded, and decoded, in the order written.
///
/// `encode` opens `let Self { a, b, … } = self` without `..` and `decode`
/// builds `Self { a: …, b: … }`, so a field missing from the list — or a
/// name that is not a field — does not compile, and the two directions
/// cannot disagree because there is only the one list (DESIGN.md §13).
/// Every listed field's type must itself be [`Wire`]; a record whose two
/// directions are *meant* to differ (a hardened decode, a payload that
/// depends on a tag) keeps a hand-written impl.
///
/// ```
/// use lazygraph_net::{wire_record, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Pair { a: u32, b: Option<u64> }
/// wire_record!(Pair { a, b });
///
/// let p = Pair { a: 7, b: Some(9) };
/// assert_eq!(p.to_wire(), [7, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(Pair::from_wire(&p.to_wire()).unwrap(), p);
/// ```
///
/// The same record with a field left out of its list is rejected by rustc
/// on both sides — `encode`'s pattern does not cover `b`, and `decode` is
/// E0063, "missing field `b` in initializer of `Pair`":
///
/// ```compile_fail
/// use lazygraph_net::{wire_record, Wire};
///
/// struct Pair { a: u32, b: Option<u64> }
/// wire_record!(Pair { a });
/// ```
///
/// A type generic over one bounded parameter names it after `where`:
/// `wire_record!(Snapshot<P> where P: Program { … })`.
#[macro_export]
macro_rules! wire_record {
    (@impl [$($generics:tt)*] $T:ty { $($field:ident),+ }) => {
        impl<$($generics)*> $crate::Wire for $T {
            fn encode(&self, out: &mut Vec<u8>) {
                let Self { $($field),+ } = self;
                $($crate::Wire::encode($field, out);)+
            }
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::NetError> {
                Ok(Self { $($field: $crate::Wire::decode(r)?),+ })
            }
        }
    };
    ($T:ty { $($field:ident),+ $(,)? }) => {
        $crate::wire_record!(@impl [] $T { $($field),+ });
    };
    ($T:ty where $P:ident: $Bound:path { $($field:ident),+ $(,)? }) => {
        $crate::wire_record!(@impl [$P: $Bound] $T { $($field),+ });
    };
}

/// Implements [`Wire`] for a field-less enum from **one** `Variant = tag`
/// list: a value is its one tag byte. Both directions come from the list,
/// `encode`'s `match` has no wildcard — a variant missing from the list
/// does not compile — and a byte that is no variant's tag decodes to
/// [`NetError::BadTag`] naming the type.
///
/// ```
/// use lazygraph_net::{wire_enum, NetError, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Eager, Lazy }
/// wire_enum!(Mode { Eager = 0, Lazy = 1 });
///
/// assert_eq!(Mode::Lazy.to_wire(), [1]);
/// assert_eq!(Mode::from_wire(&[0]).unwrap(), Mode::Eager);
/// assert_eq!(Mode::from_wire(&[2]).unwrap_err(), NetError::BadTag { tag: 2, ty: "Mode" });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($T:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Wire for $T {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self { $($T::$variant => $tag),+ });
            }
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::NetError> {
                match r.take_u8()? {
                    $($tag => Ok($T::$variant),)+
                    tag => Err($crate::NetError::BadTag { tag, ty: stringify!($T) }),
                }
            }
        }
    };
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
                let n = std::mem::size_of::<$t>();
                let s = r.take(n)?;
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(s);
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

/// A count or index. Shipped as `u64` whatever the host's word size; a
/// value the decoding host cannot index with is malformed, not truncated.
impl Wire for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let x = u64::decode(r)?;
        usize::try_from(x).map_err(|_| NetError::Malformed {
            ty: "usize",
            detail: format!("{x} does not fit this host's usize"),
        })
    }
}

impl Wire for f32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Wire for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(NetError::BadTag { tag, ty: "bool" }),
        }
    }
}

impl Wire for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(NetError::BadTag { tag, ty: "Option" }),
        }
    }
}

/// A fixed-size array is its elements in order, without a count: the
/// length is part of the type. Decoded in place over a default-initialised
/// array, hence the `Default` bound.
impl<T: Wire + Default, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for v in out.iter_mut() {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        // A corrupt length prefix must not drive a giant allocation:
        // reserve no more than the bytes actually present can justify.
        let mut out = Vec::with_capacity(len.min(r.remaining()).min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadTag {
            tag: 0xff,
            ty: "String (utf-8)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).unwrap();
        assert_eq!(back, v);
        // Determinism: re-encoding yields identical bytes.
        assert_eq!(back.to_wire(), bytes);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-1i8);
        round_trip(i16::MIN);
        round_trip(-123_456i32);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        assert_eq!(7usize.to_wire(), 7u64.to_wire(), "a usize is a u64 on the wire");
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY] {
            let back = f64::from_wire(&v.to_wire()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payloads survive too (PartialEq would hide this).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::from_wire(&nan.to_wire()).unwrap().to_bits(), nan.to_bits());
        let nan32 = f32::from_bits(0x7fc0_1234);
        assert_eq!(f32::from_wire(&nan32.to_wire()).unwrap().to_bits(), nan32.to_bits());
    }

    #[test]
    fn little_endian_layout() {
        assert_eq!(0x0102_0304u32.to_wire(), vec![4, 3, 2, 1]);
        assert_eq!(1.0f64.to_wire(), vec![0, 0, 0, 0, 0, 0, 0xf0, 0x3f]);
    }

    #[test]
    fn compounds_round_trip() {
        round_trip((7u32, -2.5f64));
        round_trip((1u8, 2u16, 3u32));
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<f64>::new());
        round_trip("héllo wörld".to_string());
        round_trip(vec![(3u32, 1.25f32), (9, -0.5)]);
        round_trip([7u16, 8, 9]);
        assert_eq!([7u16, 8].to_wire(), vec![7, 0, 8, 0], "an array has no count prefix");
    }

    #[test]
    fn concatenation_is_self_delimiting() {
        let mut buf = Vec::new();
        5u32.encode(&mut buf);
        (-1.5f64).encode(&mut buf);
        vec![1u8, 2].encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(u32::decode(&mut r).unwrap(), 5);
        assert_eq!(f64::decode(&mut r).unwrap(), -1.5);
        assert_eq!(Vec::<u8>::decode(&mut r).unwrap(), vec![1, 2]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = 0xAABB_CCDDu32.to_wire();
        let err = u32::from_wire(&bytes[..3]).unwrap_err();
        assert!(matches!(err, NetError::Truncated { needed: 4, have: 3 }));
        let err = Vec::<u64>::from_wire(&[2, 0, 0, 0, 1]).unwrap_err();
        assert!(matches!(err, NetError::Truncated { .. }));
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            bool::from_wire(&[2]).unwrap_err(),
            NetError::BadTag { tag: 2, ty: "bool" }
        ));
        assert!(matches!(
            Option::<u8>::from_wire(&[9, 0]).unwrap_err(),
            NetError::BadTag { tag: 9, .. }
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u32.to_wire();
        bytes.push(0);
        assert!(matches!(
            u32::from_wire(&bytes).unwrap_err(),
            NetError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        // Length claims 4 billion elements; only 4 bytes follow.
        let mut bytes = u32::MAX.to_wire();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let err = Vec::<u64>::from_wire(&bytes).unwrap_err();
        assert!(matches!(err, NetError::Truncated { .. }));
    }
}
