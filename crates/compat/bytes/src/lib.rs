//! Offline stand-in for the `bytes` crate.
//!
//! Provides the subset of the real crate the workspace uses:
//! [`Bytes`], an immutable, cheaply-clonable byte container backed by
//! `Arc<[u8]>`, and [`BytesMut`], a growable accumulation buffer whose
//! allocation survives [`clear`](BytesMut::clear) — the piece that lets
//! hot paths refill one buffer per destination instead of allocating a
//! fresh `Vec` per message.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, LazyLock};

/// An immutable, reference-counted byte buffer.
///
/// Clones share the underlying allocation, matching the cost model of the
/// real `bytes::Bytes` for the operations this workspace performs. Every
/// empty buffer shares one allocation, as the real crate's static empty
/// buffer does; equality, ordering and hashing are by content.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Bytes(Arc<[u8]>);

/// The one allocation behind every empty [`Bytes`].
static EMPTY: LazyLock<Arc<[u8]>> = LazyLock::new(|| Arc::from(&[][..]));

impl Bytes {
    /// An empty buffer (allocates nothing).
    pub fn new() -> Self {
        Bytes(EMPTY.clone())
    }

    /// Copies the slice into a fresh buffer (the shared empty one when
    /// `data` is empty).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes(Arc::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

/// A growable, reusable byte buffer.
///
/// Unlike [`Bytes`], the backing allocation is exclusively owned and
/// kept across [`clear`](Self::clear), so a long-lived `BytesMut` filled
/// and drained in a loop stops allocating once it reaches its high-water
/// mark. [`freeze`](Self::freeze) converts the accumulated contents into
/// an immutable [`Bytes`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Appends `data` to the buffer.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Appends one byte to the buffer.
    pub fn put_u8(&mut self, byte: u8) {
        self.0.push(byte);
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Truncates the buffer to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Capacity of the backing allocation.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Converts the contents into an immutable [`Bytes`] (one copy into
    /// a shared allocation; the real crate's zero-copy freeze is an
    /// optimisation this stand-in forgoes).
    pub fn freeze(self) -> Bytes {
        Bytes(Arc::from(self.0))
    }

    /// Takes the accumulated contents as a `Vec`, leaving the buffer
    /// empty (the allocation moves out with the contents).
    pub fn take_vec(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut(v)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut(v.to_vec())
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_mut_accumulates_and_freezes() {
        let mut b = BytesMut::with_capacity(8);
        b.extend_from_slice(b"ab");
        b.put_u8(b'c');
        assert_eq!(&*b, b"abc");
        assert_eq!(b.len(), 3);
        b.truncate(2);
        assert_eq!(&*b, b"ab");
        assert_eq!(b.clone().freeze(), Bytes::from(&b"ab"[..]));
    }

    #[test]
    fn clear_keeps_the_allocation() {
        let mut b = BytesMut::new();
        b.extend_from_slice(&[0u8; 256]);
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "clear must not shrink");
        b.reserve(cap); // no-op: capacity already there
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.take_vec().capacity(), cap, "allocation moves out");
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn roundtrip_and_sharing() {
        let b = Bytes::copy_from_slice(b"abc");
        let c = b.clone();
        assert_eq!(&*b, b"abc");
        assert_eq!(b, c);
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::from(vec![1u8, 2]).as_ref(), &[1, 2]);
    }

    #[test]
    fn every_empty_buffer_is_one_allocation_and_compares_by_content() {
        use std::hash::{BuildHasher, RandomState};
        let a = Bytes::new();
        for b in [
            Bytes::default(),
            Bytes::from(&[][..]),
            Bytes::from(Vec::new()),
        ] {
            assert!(Arc::ptr_eq(&a.0, &b.0));
        }
        // An empty buffer of an allocation of its own is the same value.
        let built = BytesMut::new().freeze();
        assert!(!Arc::ptr_eq(&a.0, &built.0));
        assert_eq!(a, built);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&built));
        assert!(a < Bytes::from(&b"a"[..]));
    }
}
