//! Object identities and the shard map.
//!
//! The KV service multiplexes many independent SWMR registers ("objects")
//! over one server set. Keys hash to objects, and every object is owned by
//! exactly one client — the only process allowed to write it — so the
//! paper's single-writer assumption holds *per object* while the service
//! as a whole has many concurrent writers.

use core::fmt;

/// Identifier of one logical object (one SWMR register).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Zero-based index (objects are numbered densely from 0).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Static partition of the key space into objects and of the objects into
/// per-client ownership ranges.
///
/// Ownership is round-robin (`object i` belongs to `client i mod clients`),
/// so the owned sets are disjoint and cover all objects — the structural
/// guarantee that keeps each object SWMR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    objects: usize,
    clients: usize,
}

impl ShardMap {
    /// A shard map over `objects` objects owned by `clients` clients.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(objects: usize, clients: usize) -> Self {
        assert!(objects > 0, "need at least one object");
        assert!(clients > 0, "need at least one client");
        ShardMap { objects, clients }
    }

    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Maps a string key to its object (64-bit FNV-1a hash mod object
    /// count).
    pub fn object_of_key(&self, key: &str) -> ObjectId {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        ObjectId(h % self.objects as u64)
    }

    /// The client owning (allowed to write) `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is outside the map.
    pub fn owner(&self, obj: ObjectId) -> usize {
        assert!(obj.index() < self.objects, "object {obj} out of range");
        obj.index() % self.clients
    }

    /// All objects owned by `client`, in ascending order.
    pub fn owned_by(&self, client: usize) -> Vec<ObjectId> {
        (0..self.objects)
            .filter(|o| o % self.clients == client)
            .map(|o| ObjectId(o as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_partitions_objects() {
        let map = ShardMap::new(16, 4);
        let mut seen = [false; 16];
        for c in 0..4 {
            for obj in map.owned_by(c) {
                assert_eq!(map.owner(obj), c);
                assert!(!seen[obj.index()], "object owned twice");
                seen[obj.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every object owned");
    }

    #[test]
    fn keys_hash_stably_and_in_range() {
        let map = ShardMap::new(7, 2);
        for key in ["a", "b", "user:42", ""] {
            let o1 = map.object_of_key(key);
            let o2 = map.object_of_key(key);
            assert_eq!(o1, o2);
            assert!(o1.index() < 7);
        }
    }

    #[test]
    fn display_and_index() {
        assert_eq!(ObjectId(3).to_string(), "o3");
        assert_eq!(ObjectId(3).index(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_objects_rejected() {
        ShardMap::new(0, 1);
    }
}
