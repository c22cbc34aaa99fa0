//! A sorted-vector map for small hot-path tables.

/// A map backed by a single vector kept sorted by key.
///
/// Per-peer protocol tables (in-flight searches, outstanding probes,
/// neighbor digests) hold a handful of entries but are probed on nearly
/// every delivered message, so lookup constant factors dominate: a binary
/// search over one contiguous allocation beats a `HashMap`'s hash + bucket
/// chase, and iteration order is the key order — deterministic by
/// construction, where a `HashMap`'s order is per-instance random.
///
/// Inserts and removes memmove the tail, which is exactly the trade the
/// hot path wants while `len` stays small (tens of entries); anything
/// population-sized belongs in a dense `Vec` indexed by id instead (see
/// the server's membership tables).
///
/// # Examples
///
/// ```
/// use socialtube::VecMap;
///
/// let mut a = VecMap::new();
/// a.insert(7u32, "seven");
/// a.insert(3, "three");
/// let mut b = VecMap::new();
/// b.insert(3u32, "three");
/// assert_eq!(b.insert(7, "SEVEN"), None);
/// assert_eq!(b.insert(7, "seven"), Some("SEVEN"));
/// assert_eq!(a, b, "entries sit in key order, whatever the insert order");
/// assert_eq!(a.remove(&3), Some("three"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// A reference to the value at `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|at| &self.entries[at].1)
    }

    /// A mutable reference to the value at `key`.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(at) => Some(&mut self.entries[at].1),
            Err(_) => None,
        }
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(at) => Some(self.entries.remove(at).1),
            Err(_) => None,
        }
    }

    /// Removes every entry (capacity kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps only the entries for which `f` returns `true`.
    pub(crate) fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Iterates entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = VecMap::new();
        assert!(m.entries.is_empty());
        assert_eq!(m.insert(2u64, 'b'), None);
        assert_eq!(m.insert(1, 'a'), None);
        assert_eq!(m.insert(3, 'c'), None);
        assert_eq!(m.entries.len(), 3);
        assert_eq!(m.get(&2), Some(&'b'));
        assert_eq!(m.insert(2, 'B'), Some('b'));
        assert_eq!(m.remove(&2), Some('B'));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.get(&2), None);
        assert_eq!(m.entries.len(), 2);
    }

    #[test]
    fn iterates_in_key_order() {
        let mut m = VecMap::new();
        for k in [5u32, 1, 4, 2, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        let by_ref: Vec<u32> = (&m).into_iter().map(|(_, v)| *v).collect();
        assert_eq!(by_ref, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn get_mut_and_retain() {
        let mut m = VecMap::new();
        for k in 0..6u8 {
            m.insert(k, u32::from(k));
        }
        *m.get_mut(&4).unwrap() = 99;
        m.retain(|k, v| *k % 2 == 0 && *v != 99);
        let left: Vec<(u8, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(left, vec![(0, 0), (2, 2)]);
        m.clear();
        assert!(m.entries.is_empty());
    }
}
