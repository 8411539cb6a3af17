//! Memcmp-comparable composite key encoding.
//!
//! Index keys are byte strings compared lexicographically. The encoders here
//! guarantee that the byte order matches the logical order of the encoded
//! tuple of values:
//!
//! * integers: big-endian with the sign bit flipped,
//! * doubles: IEEE-754 total-order trick,
//! * byte strings: `0x00` escaped as `0x00 0xFF`, terminated by `0x00 0x00`
//!   (so no encoded string is a strict prefix of another).

/// Bytes a [`KeyBuf`] holds without touching the heap. TPC-C's keys are at
/// most 25 bytes and the index suffix adds 8, so every engine key fits.
pub const KEY_INLINE: usize = 40;

/// A composite key under construction, built on the stack: the first
/// [`KEY_INLINE`] bytes live inline, and only a longer key spills to a heap
/// buffer. This is the one encoder of the order-preserving format; the
/// by-value [`KeyBuilder`] wraps it.
#[derive(Clone)]
pub struct KeyBuf {
    len: usize,
    inline: [u8; KEY_INLINE],
    /// Non-empty exactly when the key outgrew `inline` (then it holds the
    /// whole key and `inline` is unused).
    spill: Vec<u8>,
}

impl Default for KeyBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for KeyBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyBuf({:02x?})", self.as_bytes())
    }
}

impl AsRef<[u8]> for KeyBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl KeyBuf {
    /// Empty key.
    #[inline]
    pub fn new() -> Self {
        KeyBuf { len: 0, inline: [0; KEY_INLINE], spill: Vec::new() }
    }

    /// The encoded bytes so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Append raw bytes (already in key order, e.g. a big-endian suffix).
    #[inline]
    pub fn push_raw(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if self.spill.is_empty() && end <= KEY_INLINE {
            self.inline[self.len..end].copy_from_slice(bytes);
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.extend_from_slice(bytes);
        }
        self.len = end;
    }

    /// Append an `i64` component.
    #[inline]
    pub fn push_i64(&mut self, v: i64) {
        self.push_raw(&((v as u64) ^ (1 << 63)).to_be_bytes());
    }

    /// Append an `i32` component.
    #[inline]
    pub fn push_i32(&mut self, v: i32) {
        self.push_raw(&((v as u32) ^ (1 << 31)).to_be_bytes());
    }

    /// Append an `i16` component.
    #[inline]
    pub fn push_i16(&mut self, v: i16) {
        self.push_raw(&((v as u16) ^ (1 << 15)).to_be_bytes());
    }

    /// Append an `i8` component.
    #[inline]
    pub fn push_i8(&mut self, v: i8) {
        self.push_raw(&[(v as u8) ^ (1 << 7)]);
    }

    /// Append an `f64` component (total order; NaNs sort high).
    #[inline]
    pub fn push_f64(&mut self, v: f64) {
        let bits = v.to_bits();
        // If negative, flip all bits; if positive, flip the sign bit.
        let ordered = if bits & (1 << 63) != 0 { !bits } else { bits ^ (1 << 63) };
        self.push_raw(&ordered.to_be_bytes());
    }

    /// Append a byte-string component (escaped and terminated).
    pub fn push_bytes(&mut self, s: &[u8]) {
        let mut rest = s;
        while let Some(zero) = rest.iter().position(|&b| b == 0x00) {
            self.push_raw(&rest[..=zero]);
            self.push_raw(&[0xFF]);
            rest = &rest[zero + 1..];
        }
        self.push_raw(rest);
        self.push_raw(&[0x00, 0x00]);
    }
}

/// Incremental by-value builder for composite keys (a [`KeyBuf`] that
/// finishes into an owned `Vec`).
#[derive(Debug, Default, Clone)]
pub struct KeyBuilder {
    buf: KeyBuf,
}

impl KeyBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        KeyBuilder { buf: KeyBuf::new() }
    }

    /// Append an `i64` component.
    pub fn add_i64(mut self, v: i64) -> Self {
        self.buf.push_i64(v);
        self
    }

    /// Append an `i32` component.
    pub fn add_i32(mut self, v: i32) -> Self {
        self.buf.push_i32(v);
        self
    }

    /// Append an `i16` component.
    pub fn add_i16(mut self, v: i16) -> Self {
        self.buf.push_i16(v);
        self
    }

    /// Append an `i8` component.
    pub fn add_i8(mut self, v: i8) -> Self {
        self.buf.push_i8(v);
        self
    }

    /// Append an `f64` component (total order; NaNs sort high).
    pub fn add_f64(mut self, v: f64) -> Self {
        self.buf.push_f64(v);
        self
    }

    /// Append a byte-string component (escaped and terminated).
    pub fn add_bytes(mut self, s: &[u8]) -> Self {
        self.buf.push_bytes(s);
        self
    }

    /// Finish into the key bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf.as_bytes().to_vec()
    }
}

/// The exclusive upper bound for a prefix scan: the shortest key strictly
/// greater than every key starting with `prefix` (last non-`0xFF` byte
/// incremented, trailing `0xFF`s dropped). `None` means "unbounded above"
/// (the prefix is all `0xFF`s).
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut hi = prefix.to_vec();
    while let Some(&last) = hi.last() {
        if last == 0xFF {
            hi.pop();
        } else {
            *hi.last_mut().unwrap() = last + 1;
            return Some(hi);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(f: impl FnOnce(KeyBuilder) -> KeyBuilder) -> Vec<u8> {
        f(KeyBuilder::new()).finish()
    }

    #[test]
    fn i64_order_preserved() {
        let vals = [i64::MIN, -100, -1, 0, 1, 100, i64::MAX];
        let keys: Vec<_> = vals.iter().map(|&v| k(|b| b.add_i64(v))).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn mixed_width_ints() {
        for vals in [[-5i64, 3], [0, 1], [-1, 0]] {
            assert!(k(|b| b.add_i32(vals[0] as i32)) < k(|b| b.add_i32(vals[1] as i32)));
            assert!(k(|b| b.add_i16(vals[0] as i16)) < k(|b| b.add_i16(vals[1] as i16)));
            assert!(k(|b| b.add_i8(vals[0] as i8)) < k(|b| b.add_i8(vals[1] as i8)));
        }
    }

    #[test]
    fn f64_order_preserved() {
        let vals = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1.0, f64::INFINITY];
        let keys: Vec<_> = vals.iter().map(|&v| k(|b| b.add_f64(v))).collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "{w:?}");
        }
        assert!(k(|b| b.add_f64(-1.0)) < k(|b| b.add_f64(1.0)));
    }

    #[test]
    fn strings_not_prefix_confusable() {
        // "ab" < "ab\0" < "abc" logically; encoded order must match.
        let ab = k(|b| b.add_bytes(b"ab"));
        let ab0 = k(|b| b.add_bytes(b"ab\0"));
        let abc = k(|b| b.add_bytes(b"abc"));
        assert!(ab < ab0);
        assert!(ab0 < abc);
    }

    #[test]
    fn composite_component_order_dominates() {
        // (1, "zzz") < (2, "aaa")
        let a = k(|b| b.add_i32(1).add_bytes(b"zzz"));
        let b_ = k(|b| b.add_i32(2).add_bytes(b"aaa"));
        assert!(a < b_);
        // Same first component: second decides.
        let c = k(|b| b.add_i32(1).add_bytes(b"aaa"));
        assert!(c < a);
    }

    #[test]
    fn prefix_bound_covers_extensions() {
        let prefix = KeyBuilder::new().add_i32(7).finish();
        let hi = prefix_upper_bound(&prefix).unwrap();
        let inside = KeyBuilder::new().add_i32(7).add_i64(i64::MAX).finish();
        let outside = KeyBuilder::new().add_i32(8).finish();
        assert!(inside >= prefix && inside < hi);
        assert!(outside >= hi);
    }

    #[test]
    fn keybuf_spills_without_changing_bytes() {
        let long = vec![7u8; KEY_INLINE + 5];
        let mut buf = KeyBuf::new();
        buf.push_i32(3);
        buf.push_bytes(b"a\0b");
        assert_eq!(buf.as_bytes(), &k(|b| b.add_i32(3).add_bytes(b"a\0b"))[..]);
        assert_eq!(buf.as_bytes()[4..], [b'a', 0, 0xFF, b'b', 0, 0]);
        buf.push_bytes(&long);
        buf.push_raw(&[9]);
        let mut want = k(|b| b.add_i32(3).add_bytes(b"a\0b").add_bytes(&long));
        want.push(9);
        assert_eq!(buf.as_bytes(), &want[..]);
    }

    #[test]
    fn prefix_bound_carries_and_saturates() {
        assert_eq!(prefix_upper_bound(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(&[]), None);
    }
}
