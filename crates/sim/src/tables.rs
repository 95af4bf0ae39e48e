//! The open-addressed hash table of the per-access hot path.
//!
//! The machine keeps two populations in a [`LineTable`]: in-flight DRAM
//! fills keyed by line (probed at least once per L2 miss and once per
//! prefetch candidate), and LLC pollution victims keyed by 4 KB page, each
//! holding a 64-bit mask of the page's victim lines (probed on every demand
//! that leaves the L2 while any victim is tracked).
//!
//! A [`LineTable`] is the simplest structure that serves 8-byte keys: a
//! power-of-two slab of `u64` keys (multiply-shift hashed), linear probing,
//! and backward-shift deletion (no tombstones, so heavy insert/remove churn
//! — millions of fills over a few hundred live entries — never degrades
//! probe lengths). Capacity is seeded by the caller and doubles at 1/2
//! load — plain linear probing wants the headroom (there is no SIMD group
//! scan to ride out long clusters).
//!
//! Keys are cache-line numbers (byte address >> 6) or page numbers (byte
//! address >> 12), neither of which can equal the reserved `EMPTY`
//! sentinel of `u64::MAX`.

/// Reserved key marking an unoccupied slot.
const EMPTY: u64 = u64::MAX;

/// Multiplicative hash constant (same mix the RR-table and PHT hashes use).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of probing a [`LineTable`] for a key that may need inserting.
pub enum Slot<'a, V> {
    /// The key is present; the value can be updated in place.
    Occupied(&'a mut V),
    /// The key is absent.
    Vacant(VacantSlot<'a, V>),
}

/// An insertion point returned by [`LineTable::slot`] for an absent key.
pub struct VacantSlot<'a, V> {
    table: &'a mut LineTable<V>,
    key: u64,
    index: usize,
}

impl<V: Copy + Default> VacantSlot<'_, V> {
    /// Inserts `value` for the probed key.
    pub fn insert(self, value: V) {
        self.table.keys[self.index] = self.key;
        self.table.vals[self.index] = value;
        self.table.len += 1;
        if self.table.len * 2 > self.table.keys.len() {
            self.table.grow();
        }
    }
}

/// An open-addressed `u64 → V` map specialized for line- and page-number
/// keys.
#[derive(Debug, Clone)]
pub struct LineTable<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    /// `keys.len() - 1`; the capacity is always a power of two.
    mask: usize,
    /// Right-shift applied to the hash product: `64 - log2(capacity)`.
    shift: u32,
    len: usize,
}

impl<V: Copy + Default> LineTable<V> {
    /// Creates a table with room for at least `capacity` entries before the
    /// first growth (sized up to the next power of two at 1/2 load). Vacant
    /// slots hold `V::default()`.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two();
        Self {
            keys: vec![EMPTY; slots],
            vals: vec![V::default(); slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocated capacity. O(capacity);
    /// used at sampling-interval boundaries and checkpoint restores.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MIX) >> self.shift) as usize
    }

    /// Index of `key`'s slot if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY, "line key aliases the empty sentinel");
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Mutable access to `key`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Probes `key`, returning either the occupied value or an insertion
    /// point — one hash, one probe sequence, like the `HashMap` entry API.
    #[inline]
    pub fn slot(&mut self, key: u64) -> Slot<'_, V> {
        debug_assert_ne!(key, EMPTY, "line key aliases the empty sentinel");
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Slot::Occupied(&mut self.vals[i]);
            }
            if k == EMPTY {
                return Slot::Vacant(VacantSlot {
                    table: self,
                    key,
                    index: i,
                });
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `value` under `key`, replacing (and returning) any previous
    /// value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.slot(key) {
            Slot::Occupied(v) => Some(std::mem::replace(v, value)),
            Slot::Vacant(slot) => {
                slot.insert(value);
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion: the probe chain after the hole is compacted
    /// so no tombstone is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find(key)?;
        let value = self.vals[slot];
        self.keys[slot] = EMPTY;
        self.len -= 1;
        // Compact the cluster following the hole.
        let mut hole = slot;
        let mut i = (slot + 1) & self.mask;
        while self.keys[i] != EMPTY {
            let home = self.home(self.keys[i]);
            // Move the entry into the hole unless its home position lies in
            // the cyclic range (hole, i] — in which case the hole does not
            // break its probe chain.
            let in_range = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !in_range {
                self.keys[hole] = self.keys[i];
                self.vals[hole] = self.vals[i];
                self.keys[i] = EMPTY;
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        Some(value)
    }

    #[cold]
    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_slots]);
        self.mask = new_slots - 1;
        self.shift = 64 - new_slots.trailing_zeros();
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key == EMPTY {
                continue;
            }
            let mut i = self.home(key);
            while self.keys[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = key;
            self.vals[i] = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Differential-tests the table against `std::collections::HashMap`
    /// through a long, deterministic insert/remove/update churn with a
    /// deliberately clustered key distribution.
    #[test]
    fn behaves_like_a_hash_map_under_churn() {
        let mut table: LineTable<u64> = LineTable::with_capacity(16);
        let mut reference = std::collections::HashMap::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..200_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Cluster keys into a small range so probe chains actually form.
            let key = (state >> 48) % 4096;
            match state % 4 {
                0 | 1 => {
                    assert_eq!(table.insert(key, step), reference.insert(key, step));
                }
                2 => {
                    assert_eq!(table.remove(key), reference.remove(&key));
                }
                _ => match table.slot(key) {
                    Slot::Occupied(v) => {
                        *v += 1;
                        *reference.get_mut(&key).expect("reference agrees") += 1;
                    }
                    Slot::Vacant(slot) => {
                        assert!(!reference.contains_key(&key));
                        slot.insert(step);
                        reference.insert(key, step);
                    }
                },
            }
            assert_eq!(table.len(), reference.len());
        }
        for (&key, &val) in &reference {
            assert_eq!(table.get_mut(key).copied(), Some(val));
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Force one probe cluster: capacity 16 stays fixed (no growth at 8
        // entries), keys engineered to collide would need hash inversion, so
        // instead fill enough keys that clusters arise, then delete from the
        // middle and verify every survivor is still found.
        let mut table: LineTable<usize> = LineTable::with_capacity(64);
        let keys: Vec<u64> = (0..56).map(|i| i * 131).collect();
        for (i, &k) in keys.iter().enumerate() {
            table.insert(k, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(table.remove(k), Some(i));
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(table.get_mut(k), None);
            } else {
                assert_eq!(table.get_mut(k).copied(), Some(i));
            }
        }
    }

    #[test]
    fn growth_preserves_contents() {
        let mut table: LineTable<u64> = LineTable::with_capacity(8);
        for i in 0..10_000u64 {
            table.insert(i, i * 2);
        }
        assert_eq!(table.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(table.get_mut(i).copied(), Some(i * 2));
        }
    }
}
