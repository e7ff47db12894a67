//! Bounded least-recently-used caches: the single-lock [`LruCache`]
//! primitive and the mutex-striped [`ShardedLru`] built on top of it.
//!
//! Backs the [`crate::scan::Scanner`] verdict cache: bulk scans over
//! realistic corpora are dominated by near-duplicate bytecode (ERC-1167
//! minimal proxies above all), so a small LRU keyed by skeleton hash
//! absorbs most of the lift-and-score work. Implemented as a slab of
//! doubly-linked entries indexed by a `HashMap` — every operation is
//! O(1) amortised, with no allocation after the slab reaches capacity.
//!
//! The scanner (and the serving daemon's worker threads on top of it)
//! touch the cache from many threads at once, so the concurrent form is
//! [`ShardedLru`]: N independent `Mutex<LruCache>` shards selected by
//! key hash. Threads working distinct skeletons contend only when they
//! hash to the same shard, and a poisoned shard recovers instead of
//! permanently wedging the process.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{Mutex, MutexGuard};

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map. Capacity 0 disables the cache entirely
/// (every insert is dropped, every lookup misses).
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
}

impl<K, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&self.entries[idx].value)
    }

    /// Looks up `key` without disturbing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.entries[idx].value)
    }

    /// `true` when `key` is cached (recency untouched).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key → value`, evicting the least recently used entry if
    /// the cache is full. Overwrites (and refreshes) an existing key.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx].value = value;
            self.touch(idx);
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Recycle the LRU slot.
            let idx = self.tail;
            self.unlink(idx);
            let old = &mut self.entries[idx];
            self.map.remove(&old.key);
            old.key = key.clone();
            old.value = value;
            idx
        } else {
            self.entries.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    /// Links `idx` as the most recently used entry.
    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Moves an existing entry to the front.
    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }
}

/// A mutex-striped concurrent LRU: `shards` independent
/// [`Mutex<LruCache>`] stripes selected by key hash.
///
/// The total capacity is split evenly across stripes (rounded up), so
/// worst-case residency can exceed the requested capacity by at most
/// `shards - 1` entries. Capacity 0 disables caching entirely, exactly
/// like [`LruCache`].
///
/// # Lock poisoning
///
/// A thread that panics while holding a shard lock poisons only that
/// shard, and the next access **recovers** instead of propagating the
/// panic: the shard is cleared (its interior state may be mid-mutation,
/// so the only safe value is the empty one) and service continues. A
/// long-running serving replica therefore cannot be permanently wedged
/// by one crashed worker — it just re-misses on 1/Nth of its keys.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    capacity: usize,
    hasher: RandomState,
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Default stripe count for scanner caches: enough that a machine-sized
/// worker pool rarely collides, small enough that per-shard LRU state
/// stays meaningful at modest capacities.
pub const DEFAULT_SHARDS: usize = 16;

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache of `capacity` total entries striped over
    /// `shards` locks. `shards` is clamped to `1..=capacity` (a cache
    /// of 4 entries never spreads over 16 near-empty stripes); capacity
    /// 0 keeps one disabled shard.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(if capacity == 0 { 0 } else { per_shard })))
                .collect(),
            capacity,
            hasher: RandomState::new(),
        }
    }

    /// Total configured capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of mutex stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard owning `key`, recovering (and clearing) it if a
    /// previous holder panicked.
    fn shard(&self, key: &K) -> MutexGuard<'_, LruCache<K, V>> {
        let idx = (self.hasher.hash_one(key) as usize) % self.shards.len();
        Self::lock_recovering(&self.shards[idx])
    }

    /// Poison-recovering lock: a shard whose holder panicked is cleared
    /// — mid-mutation state must not be served — and returned usable.
    fn lock_recovering<'a>(shard: &'a Mutex<LruCache<K, V>>) -> MutexGuard<'a, LruCache<K, V>> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                shard.clear_poison();
                guard
            }
        }
    }

    /// Looks up `key`, marking it most recently used within its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).get(key).cloned()
    }

    /// Inserts `key → value`, evicting within the owning shard if full.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).insert(key, value);
    }

    /// Entries currently cached, summed across shards. Each shard is
    /// locked in turn, so the sum is exact only when no concurrent
    /// writer is active (fine for its uses: tests and metrics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_recovering(s).len())
            .sum()
    }

    /// `true` when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry in every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock_recovering(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "a" now MRU
        c.insert("c", 3); // evicts "b"
        assert!(c.contains(&"a"));
        assert!(!c.contains(&"b"));
        assert!(c.contains(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_refreshes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh "a": "b" becomes LRU
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.peek(&"a"), Some(&10));
        assert!(!c.contains(&"b"));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn capacity_one_churns() {
        let mut c = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
        assert!(!c.contains(&8));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.peek(&"a"), Some(&1)); // recency unchanged: "a" stays LRU
        c.insert("c", 3); // evicts "a"
        assert!(!c.contains(&"a"));
        assert!(c.contains(&"b"));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert!(c.is_empty());
        c.insert(3, 3);
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    fn long_churn_is_consistent() {
        let mut c = LruCache::new(8);
        for i in 0usize..1000 {
            c.insert(i % 13, i);
            assert!(c.len() <= 8);
            if i % 3 == 0 {
                c.get(&(i % 7));
            }
        }
        // The 8 cached keys must all resolve to their latest values.
        for k in 0..13 {
            if let Some(&v) = c.peek(&k) {
                assert_eq!(v % 13, k);
            }
        }
    }

    #[test]
    fn sharded_basic_and_clear() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(64, 4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.capacity(), 64);
        // A per-process random seed picks each key's shard: only one
        // shard's capacity (16) of keys is sure to fit without evicting.
        for i in 0..16u64 {
            c.insert(i, i * 3);
        }
        assert_eq!(c.len(), 16);
        for i in 0..16u64 {
            assert_eq!(c.get(&i), Some(i * 3));
        }
        assert_eq!(c.get(&999), None);
        // Past that, a shard may evict: the bound and the values still hold.
        for i in 16..48u64 {
            c.insert(i, i * 3);
        }
        assert!(c.len() <= c.capacity());
        for i in 0..48u64 {
            if let Some(v) = c.get(&i) {
                assert_eq!(v, i * 3);
            }
        }
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_zero_capacity_disables() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(0, 16);
        c.insert(1, 1);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_shard_count_clamped_to_capacity() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(3, 16);
        assert!(c.shard_count() <= 3);
        // Residency never exceeds capacity + (shards - 1).
        for i in 0..100u64 {
            c.insert(i, i);
        }
        assert!(c.len() <= 3 + (c.shard_count() - 1));
    }

    #[test]
    fn sharded_bounded_under_concurrent_churn() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(32, 8);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 1000 + i) % 97;
                        c.insert(k, k * 2);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2);
                        }
                    }
                });
            }
        });
        // Per-shard caps hold: at most ceil(32/8) = 4 per shard.
        assert!(c.len() <= 32 + (c.shard_count() - 1));
    }

    #[test]
    fn sharded_poison_recovers_instead_of_wedging() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(16, 1);
        c.insert(1, 10);
        // Poison the single shard by panicking while its lock is held.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = c.shards[0].lock().unwrap();
                    panic!("worker crash while holding the cache lock");
                })
                .join()
        });
        assert!(poisoner.is_err(), "the poisoning thread must panic");
        // Every operation still works; the poisoned shard was cleared.
        assert_eq!(c.get(&1), None);
        c.insert(2, 20);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
