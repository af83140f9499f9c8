//! Tiny little-endian byte codec shared by the WAL record formats.
//!
//! Every durable record in the workspace (storage deltas, consensus
//! ballot state, snapshots) is encoded by hand with these helpers —
//! there is no serialization framework in the offline build, and the
//! formats are small enough that explicit encoding doubles as
//! documentation of exactly what each protocol persists.

/// Append-only record writer.
#[derive(Clone, Debug, Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed sequence of `u64`s (the prefix is
    /// written as a placeholder and patched once the items are counted,
    /// so no intermediate collection is built).
    pub fn u64s(&mut self, vs: impl IntoIterator<Item = u64>) -> &mut Self {
        let at = self.0.len();
        self.u64(0);
        let mut n = 0u64;
        for v in vs {
            self.u64(v);
            n += 1;
        }
        self.0[at..at + 8].copy_from_slice(&n.to_le_bytes());
        self
    }

    /// The bytes encoded so far — for writers that keep one encoder and
    /// [`clear`](Self::clear) it between records instead of allocating a
    /// `Vec` per record.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Empties the encoder, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The encoded record.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Sequential record reader. Every read returns `None` past the end or
/// on a malformed length — callers treat that as a corrupt record.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A reader over one record.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, at: 0 }
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let end = self.at.checked_add(8)?;
        if end > self.bytes.len() {
            return None;
        }
        let v = u64::from_le_bytes(self.bytes[self.at..end].try_into().ok()?);
        self.at = end;
        Some(v)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u64()? as usize;
        let end = self.at.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        let v = self.bytes[self.at..end].to_vec();
        self.at = end;
        Some(v)
    }

    /// Reads a length-prefixed sequence of `u64`s.
    pub fn u64s(&mut self) -> Option<Vec<u64>> {
        let len = self.u64()? as usize;
        if len > self.bytes.len().saturating_sub(self.at) / 8 {
            return None;
        }
        (0..len).map(|_| self.u64()).collect()
    }

    /// `true` iff the whole record was consumed.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut e = Enc::new();
        e.u64(7).bytes(b"abc").u64s([1, 2, 3]);
        let rec = e.finish();
        let mut d = Dec::new(&rec);
        assert_eq!(d.u64(), Some(7));
        assert_eq!(d.bytes().as_deref(), Some(&b"abc"[..]));
        assert_eq!(d.u64s(), Some(vec![1, 2, 3]));
        assert!(d.done());
        assert_eq!(d.u64(), None);
    }

    #[test]
    fn cleared_encoder_is_reusable() {
        let mut e = Enc::new();
        e.u64s([9, 9]);
        e.clear();
        assert!(e.as_bytes().is_empty());
        e.u64(1).u64s(std::iter::empty());
        let mut d = Dec::new(e.as_bytes());
        assert_eq!(d.u64(), Some(1));
        assert_eq!(d.u64s(), Some(vec![]));
        assert!(d.done());
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.bytes(b"hello");
        let rec = e.finish();
        let mut d = Dec::new(&rec[..rec.len() - 1]);
        assert_eq!(d.bytes(), None);
        // Absurd length prefixes do not allocate or panic.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let rec = e.finish();
        assert_eq!(Dec::new(&rec).u64s(), None);
        assert_eq!(Dec::new(&rec).bytes(), None);
    }
}
