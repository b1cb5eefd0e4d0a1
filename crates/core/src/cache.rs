//! The decision cache behind [`DecisionEngine`](crate::DecisionEngine): a
//! sharded, lock-striped LRU of full [`Decision`]s keyed on the region, the
//! device scope, the policy partition, the calibration epoch and the
//! resolved values of the region's required parameters.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::attributes::{RegionAttributes, RegionId};
use crate::fleet::DeviceId;
use crate::selector::{Decision, Device, Policy};
use hetsel_ir::Binding;
use parking_lot::Mutex;

/// Hit/miss statistics and occupancy of a
/// [`DecisionEngine`](crate::DecisionEngine)'s cache,
/// aggregated over every shard. Counters are shard-local atomics summed at
/// read time — taking a snapshot never stops the world; each shard's lock
/// is taken briefly and one at a time only for `len` and `evictions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache.
    pub hits: u64,
    /// Decisions computed by model evaluation.
    pub misses: u64,
    /// Entries currently cached, summed over shards.
    pub len: usize,
    /// Maximum entries the cache holds in total. Sharding never inflates
    /// the memory bound: per-shard capacities sum to exactly this value.
    pub capacity: usize,
    /// Entries evicted to make room since the engine was built.
    pub evictions: u64,
    /// Number of lock-striped shards the cache is split into.
    pub shards: usize,
}

/// Number of parameter slots a [`CacheKey`] stores inline. Polybench
/// regions need at most three; eight covers any realistic region without
/// touching the heap.
const INLINE_KEY_SLOTS: usize = 8;

/// The engine's own configured policy — the default [`CacheKey`]
/// partition every plain `decide`/`decide_for` call lives in.
const OWN_POLICY: u8 = 0;

/// Stable non-zero partition tag for a per-request policy override.
/// Distinct from [`OWN_POLICY`] even when the override names the policy
/// the engine is already configured with: the cheap constant tag keeps
/// the plain path free of a comparison, at the cost of (at most) one
/// duplicate cache entry per key for redundant overrides.
fn policy_code(policy: Policy) -> u8 {
    match policy {
        Policy::AlwaysHost => 1,
        Policy::AlwaysOffload => 2,
        Policy::ModelDriven => 3,
    }
}

/// Key of a cached decision: the region's dense [`RegionId`], the
/// [`DeviceId`] scope the decision was taken under ([`DeviceId::FLEET`]
/// for the default whole-fleet `decide`, a concrete device id for
/// `decide_for`), a policy-partition tag (0 for the engine's configured
/// policy, a [`policy_code`] for per-request overrides), plus the
/// resolved values of exactly the parameters that region requires, in
/// declaration order, with the hash precomputed at construction. Bindings that differ only in irrelevant symbols share an
/// entry; an unbound required parameter is part of the key too (`None`),
/// so fallback decisions are cached with the same fidelity as successful
/// ones.
///
/// Keys with at most [`INLINE_KEY_SLOTS`] parameters are built, hashed and
/// compared without a single heap allocation — this is what makes the
/// cache-hit `decide` path allocation-free. Longer parameter lists spill to
/// a boxed slice.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    region: RegionId,
    /// Decision scope: whole fleet or one device.
    scope: DeviceId,
    /// Policy partition: 0 for the engine's own configured policy, a
    /// [`policy_code`] for a per-request override. Overridden decisions
    /// are cached too, but in their own partition — they can never
    /// answer (or be answered by) a plain request.
    policy: u8,
    /// Calibration epoch the decision was taken under: the calibrator's
    /// epoch in Active mode, 0 otherwise. A published correction bumps
    /// the epoch, so every cached verdict that might depend on it is
    /// lazily invalidated (its key no longer matches) without touching
    /// the cache — and *only* then: per-sample churn never invalidates.
    epoch: u64,
    /// Number of inline slots in use (only meaningful when `spill` is
    /// `None`; always `<= INLINE_KEY_SLOTS`).
    len: u8,
    inline: [Option<i64>; INLINE_KEY_SLOTS],
    spill: Option<Box<[Option<i64>]>>,
    /// FNV-1a over the region id and slots, computed once at construction.
    /// `Hash` writes this value verbatim and shard selection masks it
    /// directly, so a key is hashed exactly once in its life.
    hash: u64,
}

impl CacheKey {
    /// The key of the decision for `region` (whose attributes are `attrs`)
    /// under `binding`, taken among the candidates `scope` names, under a
    /// per-request `policy` override (`None` = the engine's own policy)
    /// and calibration `epoch`.
    pub(crate) fn new(
        region: RegionId,
        scope: DeviceId,
        policy: Option<Policy>,
        epoch: u64,
        attrs: &RegionAttributes,
        binding: &Binding,
    ) -> CacheKey {
        let policy = policy.map_or(OWN_POLICY, policy_code);
        let params = &attrs.required_params;
        let mut inline = [None; INLINE_KEY_SLOTS];
        let mut spill = None;
        if params.len() <= INLINE_KEY_SLOTS {
            for (slot, p) in inline.iter_mut().zip(params) {
                *slot = binding.get(p);
            }
        } else {
            spill = Some(params.iter().map(|p| binding.get(p)).collect());
        }
        let mut key = CacheKey {
            region,
            scope,
            policy,
            epoch,
            len: params.len().min(INLINE_KEY_SLOTS) as u8,
            inline,
            spill,
            hash: 0,
        };
        key.hash = key.compute_hash();
        key
    }

    /// The resolved parameter values, in the region's declaration order.
    fn slots(&self) -> &[Option<i64>] {
        match &self.spill {
            Some(slots) => slots,
            None => &self.inline[..self.len as usize],
        }
    }

    fn compute_hash(&self) -> u64 {
        // FNV-1a with the standard constants: cheap, allocation-free, and
        // deterministic within and across processes (shard placement and
        // therefore per-shard accounting are reproducible).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        mix(u64::from(self.region.0));
        mix(u64::from(self.scope.0));
        mix(u64::from(self.policy));
        // Folded only when nonzero so epoch-0 keys (Off/Shadow mode, or
        // Active before any publication) hash — and therefore shard —
        // exactly as they did before calibration existed. FNV-1a folds a
        // zero too (the multiply still runs), which would silently reshuffle
        // every cached entry's placement.
        if self.epoch != 0 {
            mix(self.epoch);
        }
        for slot in self.slots() {
            // Distinct tags keep `Some(0)` and `None` from colliding.
            match slot {
                Some(v) => {
                    mix(1);
                    mix(*v as u64);
                }
                None => mix(2),
            }
        }
        // MurmurHash3 finalizer: raw FNV concentrates its entropy in the
        // high bits, but shard selection masks the *low* bits — fmix64
        // gives them full avalanche.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash
            && self.region == other.region
            && self.scope == other.scope
            && self.policy == other.policy
            && self.epoch == other.epoch
            && self.slots() == other.slots()
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Pass-through hasher for [`CacheKey`]-keyed maps: the key's `hash` field
/// is already a well-mixed 64-bit value (fmix64-finalised FNV-1a), so
/// running it through SipHash again would only add latency to the hot
/// path. `CacheKey::hash` feeds exactly one `write_u64`.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("CacheKey hashes via write_u64 only");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PrehashedBuild = std::hash::BuildHasherDefault<Prehashed>;

/// Sentinel index for "no node" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct LruNode {
    key: CacheKey,
    decision: Decision,
    prev: u32,
    next: u32,
}

/// A bounded LRU map backed by an intrusive doubly linked list threaded
/// through a slab of nodes: a hit relinks two `u32` indices and clones the
/// cached decision — no key clone, no queue record, no allocation at all —
/// and an insert at capacity reuses the evicted node's slot, so a full
/// cache stops allocating entirely. Eviction order is exact LRU.
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, u32, PrehashedBuild>,
    nodes: Vec<LruNode>,
    free: Vec<u32>,
    /// Most recently used node, or [`NIL`] when empty.
    head: u32,
    /// Least recently used node, or [`NIL`] when empty.
    tail: u32,
    evictions: u64,
}

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Decision> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.nodes[idx as usize].decision.clone())
    }

    /// Inserts `decision` under `key` as the most recent entry, evicting
    /// the least recent one at capacity — unless `key` is already cached,
    /// in which case nothing is inserted and the cached decision is
    /// returned (and touched) instead.
    fn insert(&mut self, key: CacheKey, decision: &Decision) -> Option<Decision> {
        if let Some(cached) = self.get(&key) {
            return Some(cached);
        }
        while self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty map must have a tail");
            if lru == NIL {
                break;
            }
            self.unlink(lru);
            self.map.remove(&self.nodes[lru as usize].key);
            self.free.push(lru);
            self.evictions += 1;
            hetsel_obs::static_counter!("hetsel.core.cache.eviction").inc();
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                n.key = key.clone();
                n.decision = decision.clone();
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(LruNode {
                    key: key.clone(),
                    decision: decision.clone(),
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        None
    }
}

/// Default decision-cache capacity: generous for a program with tens of
/// regions and a handful of binding regimes each.
pub const DEFAULT_DECISION_CACHE: usize = 1024;

/// Default shard count for the decision cache: a power of two sized for the
/// core counts this runtime targets (the build environment is offline, so
/// this is a constant rather than a `num_cpus` probe). Sixteen stripes keep
/// eight to sixteen deciding threads almost always on disjoint locks.
pub const DEFAULT_DECISION_SHARDS: usize = 16;

/// One lock stripe of the sharded cache: a bounded LRU behind its own
/// mutex, with the hit/miss tallies kept *outside* the lock so the
/// aggregated [`DecisionCacheStats`] never needs a stop-the-world pass.
#[derive(Debug)]
struct CacheShard {
    lru: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheShard {
    fn hit(&self, cached: &Decision, binding_hash: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        hetsel_obs::static_counter!("hetsel.core.cache.hit").inc();
        record_decide_event(cached, binding_hash, true);
    }
}

/// Emits one flight-recorder event for an engine verdict. The disabled
/// path is a single relaxed atomic load inside
/// [`hetsel_obs::record_event`] — the closure (and therefore every field
/// read below) runs only while recording is on, and even then allocates
/// nothing: the event is a fixed-size stack value serialized into the
/// recorder's preallocated ring.
#[inline]
fn record_decide_event(decision: &Decision, binding_hash: u64, cache_hit: bool) {
    hetsel_obs::record_event(|| {
        let mut ev =
            hetsel_obs::DecisionEvent::new(hetsel_obs::EventKind::Decide, &decision.region);
        ev.binding_hash = binding_hash;
        ev.device = decision.device_id.0;
        ev.verdict_accel = decision.device == Device::Gpu;
        ev.cache_hit = cache_hit;
        ev.predicted_cpu_s = decision.predicted_cpu_s.unwrap_or(f64::NAN);
        ev.predicted_accel_s = decision.predicted_gpu_s.unwrap_or(f64::NAN);
        ev
    });
    // A calibration flip on a *freshly evaluated* verdict gets its own
    // event (cached copies of a flipped decision do not re-announce it):
    // `detail` 1 = the correction was applied (Active), 0 = a shadow-mode
    // would-flip; the predicted fields carry the raw predictions the flip
    // was measured against.
    if !cache_hit {
        if let Some(tag) = decision.calibration.filter(|t| t.flipped) {
            hetsel_obs::record_event(|| {
                let mut ev = hetsel_obs::DecisionEvent::new(
                    hetsel_obs::EventKind::CalibrationFlip,
                    &decision.region,
                );
                ev.binding_hash = binding_hash;
                ev.device = decision.device_id.0;
                ev.verdict_accel = decision.device == Device::Gpu;
                ev.detail = u8::from(tag.applied);
                ev.predicted_cpu_s = tag.raw_cpu_s.unwrap_or(f64::NAN);
                ev.predicted_accel_s = tag.raw_gpu_s.unwrap_or(f64::NAN);
                ev
            });
        }
    }
}

/// A sharded, lock-striped decision cache: `CacheKey`s are hashed onto a
/// power-of-two number of independent [`LruCache`]s so concurrent
/// `decide()` calls for different keys almost never contend on the same
/// mutex. The total memory bound is unchanged by sharding — per-shard
/// capacities are carved out of the requested capacity and sum to exactly
/// it.
#[derive(Debug)]
pub(crate) struct ShardedCache {
    shards: Box<[CacheShard]>,
    mask: usize,
}

impl ShardedCache {
    /// Builds `shards` stripes (rounded down to a power of two, clamped to
    /// `[1, capacity]` so every shard holds at least one entry and the
    /// stripes sum to exactly `capacity`).
    pub(crate) fn new(capacity: usize, shards: usize) -> ShardedCache {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        // Round down to a power of two so shard selection is a mask.
        let shards = 1usize << shards.ilog2();
        let base = capacity / shards;
        let extra = capacity % shards;
        let stripes: Vec<CacheShard> = (0..shards)
            .map(|i| CacheShard {
                lru: Mutex::new(LruCache::new(base + usize::from(i < extra))),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        ShardedCache {
            shards: stripes.into_boxed_slice(),
            mask: shards - 1,
        }
    }

    /// The shard a key lives in: a mask over the key's precomputed FNV-1a
    /// hash — no hasher runs here, so shard selection costs two
    /// instructions and placement is deterministic within and across
    /// processes.
    fn shard(&self, key: &CacheKey) -> &CacheShard {
        &self.shards[(key.hash as usize) & self.mask]
    }

    /// Answers `key` from its shard, or runs `eval` and inserts the
    /// result, counting the hit or miss and emitting the flight-recorder
    /// `Decide` event. `eval` runs with no lock held, so another thread
    /// may complete the same miss meanwhile; the insert then finds its
    /// entry, and the loser takes that cached copy (bit-identical — the
    /// models are deterministic in the key) and counts a late hit, so
    /// `misses == insertions` holds exactly even under concurrent
    /// duplicate misses.
    pub(crate) fn get_or_insert_with(
        &self,
        key: CacheKey,
        eval: impl FnOnce() -> Decision,
    ) -> Decision {
        let shard = self.shard(&key);
        let binding_hash = key.hash;
        if let Some(cached) = shard.lru.lock().get(&key) {
            shard.hit(&cached, binding_hash);
            return cached;
        }
        let decision = eval();
        let late = shard.lru.lock().insert(key, &decision);
        if let Some(cached) = late {
            shard.hit(&cached, binding_hash);
            return cached;
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        hetsel_obs::static_counter!("hetsel.core.cache.miss").inc();
        record_decide_event(&decision, binding_hash, false);
        decision
    }

    /// True iff a decision for `key` is cached (without touching its
    /// recency).
    pub(crate) fn contains(&self, key: &CacheKey) -> bool {
        self.shard(key).lru.lock().contains(key)
    }

    /// See [`DecisionEngine::stats`](crate::DecisionEngine::stats).
    pub(crate) fn stats(&self) -> DecisionCacheStats {
        let mut stats = DecisionCacheStats {
            hits: 0,
            misses: 0,
            len: 0,
            capacity: 0,
            evictions: 0,
            shards: self.shards.len(),
        };
        for shard in self.shards.iter() {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            let lru = shard.lru.lock();
            stats.len += lru.map.len();
            stats.capacity += lru.capacity;
            stats.evictions += lru.evictions;
        }
        stats
    }

    /// See [`DecisionEngine::publish_stats`](crate::DecisionEngine::publish_stats).
    pub(crate) fn publish(&self) -> DecisionCacheStats {
        let stats = self.stats();
        let registry = hetsel_obs::registry();
        registry
            .gauge("hetsel.core.cache.hits")
            .set(saturating_i64(stats.hits));
        registry
            .gauge("hetsel.core.cache.misses")
            .set(saturating_i64(stats.misses));
        registry
            .gauge("hetsel.core.cache.len")
            .set(saturating_i64(stats.len as u64));
        registry
            .gauge("hetsel.core.cache.capacity")
            .set(saturating_i64(stats.capacity as u64));
        registry
            .gauge("hetsel.core.cache.evictions")
            .set(saturating_i64(stats.evictions));
        registry
            .gauge("hetsel.core.cache.shards")
            .set(saturating_i64(stats.shards as u64));
        for (i, shard) in self.shards.iter().enumerate() {
            let (len, evictions) = {
                let lru = shard.lru.lock();
                (lru.map.len() as u64, lru.evictions)
            };
            for (leaf, value) in [
                ("hits", shard.hits.load(Ordering::Relaxed)),
                ("misses", shard.misses.load(Ordering::Relaxed)),
                ("len", len),
                ("evictions", evictions),
            ] {
                registry
                    .gauge(&hetsel_obs::metrics::shard_metric_name(
                        "hetsel.core.cache.shard",
                        i,
                        leaf,
                    ))
                    .set(saturating_i64(value));
            }
        }
        stats
    }
}

/// Narrows a counter value into a gauge without wrapping: values above
/// `i64::MAX` clamp to `i64::MAX` instead of going negative.
fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_capacities_sum_to_the_requested_capacity() {
        for capacity in [1, 2, 3, 7, 16, 100, 1000, 1024] {
            for shards in [1, 2, 3, 5, 8, 16, 64] {
                let cache = ShardedCache::new(capacity, shards);
                assert!(cache.shards.len().is_power_of_two());
                assert!(cache.shards.len() <= capacity.max(1));
                let total: usize = cache.shards.iter().map(|s| s.lru.lock().capacity).sum();
                assert_eq!(
                    total, capacity,
                    "capacity {capacity} over {shards} shards inflated to {total}"
                );
                assert!(cache.shards.iter().all(|s| s.lru.lock().capacity >= 1));
            }
        }
    }

    #[test]
    fn saturating_i64_clamps_instead_of_wrapping() {
        assert_eq!(saturating_i64(0), 0);
        assert_eq!(saturating_i64(42), 42);
        assert_eq!(saturating_i64(i64::MAX as u64), i64::MAX);
        assert_eq!(saturating_i64(i64::MAX as u64 + 1), i64::MAX);
        assert_eq!(saturating_i64(u64::MAX), i64::MAX);
    }
}
