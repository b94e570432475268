//! Timing-only set-associative cache model with true-LRU replacement.
//!
//! Caches track tags and coherence state, never data (data lives in
//! [`Memory`](crate::mem::Memory)), which is sufficient for a timing model
//! and keeps the functional result of a simulation independent of
//! replacement noise.

use crate::config::CacheConfig;

/// Coherence/validity state of a cached line.
///
/// L1 instruction caches and the shared L2/L3 only use `Shared`; L1 data
/// caches use the full MSI set, with the directory (in
/// `coherence`) as the authority on who owns what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, potentially replicated.
    Shared,
    /// Exclusive and dirty.
    Modified,
}

/// Fold the word `v` into an FNV-style hash.
pub(crate) fn fnv_mix(hash: &mut u64, v: u64) {
    *hash = (*hash ^ v).wrapping_mul(0x0100_0000_01b3);
    *hash ^= *hash >> 29;
}

/// Sentinel for an unoccupied way. Real line addresses are line-aligned and
/// far below `u64::MAX`, so the sentinel can never match a lookup.
const EMPTY_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    state: LineState,
    /// Higher = more recently used. Ticks are unique across the cache, so
    /// the LRU victim in a set is always unambiguous.
    lru: u64,
}

const EMPTY_WAY: Way = Way {
    line: EMPTY_LINE,
    state: LineState::Shared,
    lru: 0,
};

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills (require writeback).
    pub dirty_evictions: u64,
    /// Lines removed by explicit invalidation (`icbi`/`dcbi`/coherence).
    pub invalidations: u64,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative, true-LRU, timing-only cache.
///
/// Storage is one flat way arena with a fixed per-set stride (no per-set
/// `Vec`), so a lookup touches a single contiguous slab — this sits on the
/// simulator's per-memory-op hot path. Within a set, way order carries no
/// meaning: lines are unique per set and LRU ticks are unique per cache, so
/// hit, victim, and eviction decisions are identical to any other layout.
#[derive(Debug)]
pub struct Cache {
    /// `sets * ways` entries; set `s` occupies `s*ways .. (s+1)*ways`.
    slots: Vec<Way>,
    ways: usize,
    set_mask: u64,
    latency: u64,
    tick: u64,
    /// Placement generation: bumped whenever a line can appear, move, or
    /// disappear (`insert`, `invalidate`) — NOT on `lookup`/`set_state`,
    /// which leave every line in its slot. The fused-memory executor's
    /// per-core line memo ([`crate::decode`]) caches `(line, slot, gen)`
    /// and stays valid exactly while the generation matches.
    generation: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets() as usize;
        let ways = config.ways as usize;
        Cache {
            slots: vec![EMPTY_WAY; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            latency: config.latency,
            tick: 0,
            generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current placement generation (see the field docs).
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    fn set_of(&self, line: u64) -> usize {
        // `line` is a line-aligned byte address; the set index comes from
        // the line number, not the raw address.
        ((line / sim_isa::LINE_BYTES) & self.set_mask) as usize
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let start = self.set_of(line) * self.ways;
        start..start + self.ways
    }

    /// Look up `line` (a line-aligned byte address). On a hit the LRU
    /// position is refreshed and the state returned.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        self.lookup_slot(line)
            .map(|slot| self.slots[slot as usize].state)
    }

    /// [`lookup`](Cache::lookup), additionally returning the hit slot's
    /// arena index so the fused-memory executor can memoize it. Performs
    /// *exactly* the same simulated mutations (tick, LRU refresh, hit/miss
    /// counters) — `lookup` delegates here, so the two cannot drift.
    #[inline]
    pub(crate) fn lookup_slot(&mut self, line: u64) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let start = range.start;
        match self.slots[range]
            .iter_mut()
            .enumerate()
            .find(|(_, w)| w.line == line)
        {
            Some((i, w)) => {
                w.lru = tick;
                self.stats.hits += 1;
                Some((start + i) as u32)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Refresh an already-validated hit at `slot` — the fused-memory
    /// executor's line-memo fast path. Mutates exactly what the hit arm of
    /// [`lookup_slot`](Cache::lookup_slot) would (tick, that way's LRU,
    /// the hit counter) without the set walk. Callers must hold a memo
    /// validated against [`generation`](Cache::generation); the debug
    /// assert pins the contract.
    #[inline]
    pub(crate) fn touch(&mut self, slot: u32, line: u64) {
        debug_assert_eq!(
            self.slots[slot as usize].line, line,
            "stale fused-memory line memo"
        );
        self.tick += 1;
        self.slots[slot as usize].lru = self.tick;
        self.stats.hits += 1;
    }

    /// Credit `n` hits on the resident line at `slot`, as `n` consecutive
    /// [`touch`](Cache::touch)es would: the spin pool's bulk replay of a
    /// parked core's loads, applied when the core wakes.
    pub(crate) fn credit_hits(&mut self, slot: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        self.slots[slot as usize].lru = self.tick;
        self.stats.hits += n;
    }

    /// Credit `n` lookup hits alternating between two resident slots and
    /// ending on `last`, as `n` consecutive lookups would (a spin loop
    /// whose two instructions sit on two I-cache lines).
    pub(crate) fn credit_alternating(&mut self, last: u32, other: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        self.slots[last as usize].lru = self.tick;
        if n >= 2 {
            self.slots[other as usize].lru = self.tick - 1;
        }
        self.stats.hits += n;
    }

    /// Arena index of `line` if resident, without disturbing LRU or stats.
    pub(crate) fn probe_slot(&self, line: u64) -> Option<u32> {
        let range = self.set_range(line);
        let start = range.start;
        self.slots[range]
            .iter()
            .position(|w| w.line == line)
            .map(|i| (start + i) as u32)
    }

    /// Fold every occupied way's position, tag, state and LRU tick, and
    /// the cache's tick counter, into a hash (the machine's test-only
    /// state fingerprint).
    pub(crate) fn fingerprint(&self, hash: &mut u64) {
        fnv_mix(hash, self.tick);
        for (i, w) in self.slots.iter().enumerate() {
            if w.line != EMPTY_LINE {
                fnv_mix(hash, i as u64);
                fnv_mix(hash, w.line);
                fnv_mix(hash, matches!(w.state, LineState::Modified) as u64);
                fnv_mix(hash, w.lru);
            }
        }
    }

    /// Check for presence without disturbing LRU or counting stats.
    pub fn probe(&self, line: u64) -> Option<LineState> {
        let range = self.set_range(line);
        self.slots[range]
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// Insert (fill) `line` in `state`, returning the evicted victim, if
    /// any, as `(line, state)`.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<(u64, LineState)> {
        self.generation += 1;
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let set = &mut self.slots[range];
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            // Fill of an already-present line just refreshes it.
            w.state = state;
            w.lru = tick;
            return None;
        }
        if let Some(w) = set.iter_mut().find(|w| w.line == EMPTY_LINE) {
            *w = Way {
                line,
                state,
                lru: tick,
            };
            return None;
        }
        // Every way occupied: evict the (unique) least recently used one.
        let victim_way = set
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("nonzero associativity");
        let victim = *victim_way;
        *victim_way = Way {
            line,
            state,
            lru: tick,
        };
        self.stats.evictions += 1;
        if victim.state == LineState::Modified {
            self.stats.dirty_evictions += 1;
        }
        Some((victim.line, victim.state))
    }

    /// Remove `line` if present, returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        self.generation += 1;
        let range = self.set_range(line);
        let w = self.slots[range].iter_mut().find(|w| w.line == line)?;
        let state = w.state;
        *w = EMPTY_WAY;
        self.stats.invalidations += 1;
        Some(state)
    }

    /// Change the state of a resident line (e.g. S→M on upgrade, M→S on a
    /// remote read). No-op if the line is absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let range = self.set_range(line);
        if let Some(w) = self.slots[range].iter_mut().find(|w| w.line == line) {
            w.state = state;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines (diagnostics).
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|w| w.line != EMPTY_LINE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines, 2 ways => 2 sets
        Cache::new(CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            latency: 1,
        })
    }

    /// Line-aligned byte address of line number `i`.
    fn ln(i: u64) -> u64 {
        i * 64
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(ln(0)), None);
        assert_eq!(c.insert(ln(0), LineState::Shared), None);
        assert_eq!(c.lookup(ln(0)), Some(LineState::Shared));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // lines 0, 2, 4 all map to set 0 (2 sets => even lines to set 0)
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        c.lookup(ln(0)); // make line 2 the LRU
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim, Some((ln(2), LineState::Shared)));
        assert!(c.probe(ln(0)).is_some());
        assert!(c.probe(ln(4)).is_some());
        assert!(c.probe(ln(2)).is_none());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(ln(0), LineState::Modified);
        c.insert(ln(2), LineState::Shared);
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim, Some((ln(0), LineState::Modified)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(ln(1), LineState::Shared);
        assert_eq!(c.invalidate(ln(1)), Some(LineState::Shared));
        assert_eq!(c.invalidate(ln(1)), None);
        assert_eq!(c.lookup(ln(1)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = tiny();
        c.insert(ln(3), LineState::Shared);
        c.set_state(ln(3), LineState::Modified);
        assert_eq!(c.probe(ln(3)), Some(LineState::Modified));
        // absent line: no-op
        c.set_state(ln(5), LineState::Modified);
        assert_eq!(c.probe(ln(5)), None);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = tiny();
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        assert_eq!(c.insert(ln(0), LineState::Modified), None);
        assert_eq!(c.probe(ln(0)), Some(LineState::Modified));
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = tiny();
        c.insert(ln(0), LineState::Shared);
        c.insert(ln(2), LineState::Shared);
        let before = c.stats();
        c.probe(ln(0));
        assert_eq!(c.stats(), before);
        // line 0 is still LRU (insert order), so probing it must not save it
        let victim = c.insert(ln(4), LineState::Shared);
        assert_eq!(victim.map(|(l, _)| l), Some(ln(0)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.insert(ln(0), LineState::Shared); // set 0
        c.insert(ln(1), LineState::Shared); // set 1
        c.insert(ln(2), LineState::Shared); // set 0
        c.insert(ln(3), LineState::Shared); // set 1
        assert_eq!(c.resident(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn credited_hits_match_repeated_touches() {
        let (mut a, mut b) = (tiny(), tiny());
        for c in [&mut a, &mut b] {
            c.insert(ln(0), LineState::Shared);
            c.insert(ln(2), LineState::Shared);
            c.insert(ln(1), LineState::Shared);
        }
        let (s0, s2) = (a.probe_slot(ln(0)).unwrap(), a.probe_slot(ln(2)).unwrap());
        for i in 0..7 {
            a.touch(
                if i % 2 == 0 { s2 } else { s0 },
                if i % 2 == 0 { ln(2) } else { ln(0) },
            );
        }
        a.touch(s2, ln(2));
        a.touch(s2, ln(2));
        b.credit_alternating(s2, s0, 7);
        b.credit_hits(s2, 2);
        let (mut ha, mut hb) = (0, 0);
        a.fingerprint(&mut ha);
        b.fingerprint(&mut hb);
        assert_eq!(ha, hb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn consecutive_line_addresses_fill_distinct_sets() {
        // regression: the set index must come from the line number, so a
        // contiguous array larger than one set's worth of ways does not
        // thrash two ways forever
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64 * 64, // 64 lines, 2-way, 32 sets
            ways: 2,
            latency: 1,
        });
        for i in 0..64u64 {
            c.insert(ln(i), LineState::Shared);
        }
        assert_eq!(c.resident(), 64, "all 64 lines must be resident");
        assert_eq!(c.stats().evictions, 0);
    }
}
