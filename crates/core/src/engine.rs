//! The compile-once decision engine: a [`Selector`] over a precompiled
//! [`AttributeDatabase`] with a decision cache in front of it. Every
//! cached decision — plain, scoped, policy-overridden, batched — goes
//! through one path that keys, probes, evaluates and inserts.

use std::time::Instant;

use crate::attributes::{AttributeDatabase, RegionAttributes, RegionId};
use crate::cache::{
    CacheKey, DecisionCacheStats, ShardedCache, DEFAULT_DECISION_CACHE, DEFAULT_DECISION_SHARDS,
};
use crate::calib::CalibrationMode;
use crate::fleet::DeviceId;
use crate::request::DecisionRequest;
use crate::selector::{Decision, Policy, Selector};
use hetsel_ir::{Binding, Kernel};
use hetsel_models::ModelError;

/// The compile-once decision engine: a [`Selector`] bound to a precompiled
/// [`AttributeDatabase`] plus a bounded LRU cache of decisions.
///
/// This is the paper's runtime component in full: regions were compiled
/// once (models, IPDA, loadouts all precomputed); at execution time
/// [`DecisionEngine::decide`] binds the runtime values, and because a
/// program re-reaches the same region with the same extents over and over,
/// the decision itself is memoized on `(region, resolved parameter values)`.
/// Cached and freshly evaluated decisions are identical — the cache stores
/// the full [`Decision`], evidence and errors included.
#[derive(Debug)]
pub struct DecisionEngine {
    selector: Selector,
    database: AttributeDatabase,
    cache: ShardedCache,
}

impl DecisionEngine {
    /// Compiles `kernels` under `selector`'s configuration and wraps the
    /// result with a decision cache of [`DEFAULT_DECISION_CACHE`] entries
    /// striped over [`DEFAULT_DECISION_SHARDS`] shards.
    pub fn new(selector: Selector, kernels: &[Kernel]) -> DecisionEngine {
        DecisionEngine::with_capacity(selector, kernels, DEFAULT_DECISION_CACHE)
    }

    /// As [`DecisionEngine::new`] with an explicit cache capacity
    /// (minimum 1).
    pub fn with_capacity(
        selector: Selector,
        kernels: &[Kernel],
        capacity: usize,
    ) -> DecisionEngine {
        let database = AttributeDatabase::compile(kernels, &selector);
        DecisionEngine::from_database(selector, database, capacity)
    }

    /// Wraps an already-compiled database. The database must have been
    /// compiled with this selector's configuration for decisions to match
    /// cold [`Selector::decide`] calls on the bare kernels.
    pub fn from_database(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
    ) -> DecisionEngine {
        DecisionEngine::from_database_sharded(selector, database, capacity, DEFAULT_DECISION_SHARDS)
    }

    /// As [`DecisionEngine::from_database`] with an explicit shard count.
    /// `shards` is rounded down to a power of two and clamped to
    /// `[1, capacity]`; `shards == 1` reproduces the old single-mutex cache
    /// (the baseline the contention benchmark compares against).
    pub fn from_database_sharded(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
        shards: usize,
    ) -> DecisionEngine {
        DecisionEngine {
            selector,
            database,
            cache: ShardedCache::new(capacity, shards),
        }
    }

    /// The selector the engine decides with.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The compiled attribute database.
    pub fn database(&self) -> &AttributeDatabase {
        &self.database
    }

    /// Takes (or recalls) the offloading decision for `region` under
    /// `binding`. Returns `None` only for a region the database does not
    /// know. A cached decision is bit-identical to what evaluation would
    /// produce, because the models are deterministic in the key.
    pub fn decide(&self, region: &str, binding: &Binding) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        self.cached(region, binding, DeviceId::FLEET, None)
    }

    /// Takes (or recalls) the decision for `region` with the candidate set
    /// restricted to the host plus the one device `device` names
    /// ([`DeviceId::HOST`] restricts to the host alone). Returns `None`
    /// for an unknown region, a device id the fleet does not register, or
    /// an accelerator the database carries no compiled model for.
    ///
    /// Scoped decisions share the engine's cache under a
    /// `(RegionId, DeviceId, values)` key and are as allocation-free on a
    /// hit as [`DecisionEngine::decide`] (proven by
    /// `core/tests/zero_alloc.rs`). With the fleet's primary accelerator
    /// as scope the answer is bit-identical to `decide` on a pair fleet.
    pub fn decide_for(
        &self,
        region: &str,
        binding: &Binding,
        device: DeviceId,
    ) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        self.cached(region, binding, device, None)
    }

    /// The cache key of a decision: the region, the candidate `scope`, the
    /// policy partition (`None` = the engine's own policy) and the
    /// calibration epoch, plus the region's resolved parameter values.
    /// The epoch is the calibrator's in Active mode (one relaxed atomic
    /// load) and 0 in Off and Shadow modes: those verdicts never depend on
    /// corrections, so their entries must survive publications.
    fn key(
        &self,
        id: RegionId,
        attrs: &RegionAttributes,
        binding: &Binding,
        scope: DeviceId,
        policy: Option<Policy>,
    ) -> CacheKey {
        let epoch = match self.selector.calibration {
            CalibrationMode::Active => self.selector.calibrator.epoch(),
            _ => 0,
        };
        CacheKey::new(id, scope, policy, epoch, attrs, binding)
    }

    /// The one cached decision path: resolves the region, keys the
    /// decision, answers it from the cache or evaluates it with
    /// [`Selector::decide_among`] under `policy` (`None` = the engine's
    /// own) and inserts it — counted and flight-recorded by the cache, so
    /// every caller is observable by construction. Returns `None` for an
    /// unknown region, or for a `scope` that is neither the whole fleet,
    /// the host, nor a registered accelerator the database carries a
    /// compiled model for.
    fn cached(
        &self,
        region: &str,
        binding: &Binding,
        scope: DeviceId,
        policy: Option<Policy>,
    ) -> Option<Decision> {
        let (id, attrs) = self.database.region_entry(region)?;
        let known_scope = match self.selector.fleet.accel_index(scope) {
            Some(idx) => attrs.accel_model(idx).is_some(),
            None => scope == DeviceId::FLEET || scope.is_host(),
        };
        if !known_scope {
            return None;
        }
        let key = self.key(id, attrs, binding, scope, policy);
        Some(self.cache.get_or_insert_with(key, || {
            let policy = policy.unwrap_or(self.selector.policy);
            self.selector.decide_among(policy, attrs, binding, scope)
        }))
    }

    /// Takes (or recalls) the decision for one [`DecisionRequest`],
    /// honouring its policy override and deadline. Returns `None` only for
    /// a region the database does not know.
    ///
    /// * No override, no deadline: exactly [`DecisionEngine::decide`]
    ///   (cache included) — a plain request adds nothing to the hot path.
    /// * Policy override: decided under the overridden policy in its own
    ///   policy-tagged cache partition — warm, recorded in the flight
    ///   recorder, and never cross-answering a plain request.
    /// * Deadline: a zero budget skips model evaluation entirely; a missed
    ///   budget degrades the reply to the compiler default (offload) with
    ///   [`ModelError::DeadlineExceeded`] recorded on both sides. The
    ///   degraded reply itself is never cached, but a late *computed*
    ///   answer already went into the cache before the budget check, so a
    ///   retry of the same key is a warm hit instead of a second blown
    ///   budget.
    pub fn decide_request(&self, request: &DecisionRequest) -> Option<Decision> {
        let start = Instant::now();
        let deadline = request.deadline();
        if deadline.is_some_and(|d| d.is_zero()) {
            // No budget at all: don't even evaluate, but still refuse
            // unknown regions.
            self.database.region(request.region())?;
            return Some(self.deadline_degraded(request.region()));
        }
        let decision = {
            let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
            self.cached(
                request.region(),
                request.binding(),
                DeviceId::FLEET,
                request.policy_override(),
            )?
        };
        // The computed decision is cached above, so a blown budget does not
        // waste the ~µs cold evaluation: the reply degrades, but a retry of
        // the same key is a warm hit.
        if deadline.is_some_and(|d| start.elapsed() > d) {
            return Some(self.deadline_degraded(request.region()));
        }
        Some(decision)
    }

    /// The decision a deadline miss degrades to: the compiler default
    /// (offload to the primary accelerator; the host for a host-only
    /// fleet) with the reason recorded on both model sides — nothing was
    /// predicted, not because the models failed, but because the budget
    /// ran out before they could answer.
    fn deadline_degraded(&self, region: &str) -> Decision {
        hetsel_obs::static_counter!("hetsel.core.decide.deadline_exceeded").inc();
        let primary = self.selector.fleet.primary_accelerator().map(|_| (0, None));
        let (decision, _) = self.selector.verdict(
            Policy::AlwaysOffload,
            region,
            None,
            &mut primary.into_iter(),
            None,
        );
        Decision {
            cpu_error: Some(ModelError::DeadlineExceeded),
            gpu_error: Some(ModelError::DeadlineExceeded),
            ..decision
        }
    }

    /// Takes (or recalls) the decisions for a whole batch of requests,
    /// returning one slot per request in request order. Each slot is
    /// answered exactly as issuing the requests one by one through
    /// [`DecisionEngine::decide_request`] would answer it — same
    /// decisions, same cache hit/miss accounting, same flight events, and
    /// `None` for unknown regions. Plain slots stay out of the
    /// `hetsel.core.decide.ns` histogram, which times individual calls.
    pub fn decide_batch(&self, requests: &[DecisionRequest]) -> Vec<Option<Decision>> {
        requests
            .iter()
            .map(
                |request| match (request.policy_override(), request.deadline()) {
                    (None, None) => {
                        self.cached(request.region(), request.binding(), DeviceId::FLEET, None)
                    }
                    _ => self.decide_request(request),
                },
            )
            .collect()
    }

    /// Produces the full [`Explanation`](crate::explain::Explanation) for a
    /// known region under `binding`, without consulting or populating the
    /// decision cache (the `cached` field reports whether a decision for
    /// this key is currently cached). Returns `None` for an unknown region.
    pub fn explain(&self, region: &str, binding: &Binding) -> Option<crate::explain::Explanation> {
        let (id, attrs) = self.database.region_entry(region)?;
        let mut explanation = self.selector.explain(attrs, binding);
        let key = self.key(id, attrs, binding, DeviceId::FLEET, None);
        explanation.cached = self.cache.contains(&key);
        Some(explanation)
    }

    /// Cache statistics so far, aggregated over every shard. Hit and miss
    /// tallies are shard-local atomics summed without taking any lock; each
    /// shard's mutex is held briefly, one at a time, only to read its
    /// occupancy and eviction count.
    pub fn stats(&self) -> DecisionCacheStats {
        self.cache.stats()
    }

    /// Publishes the current cache statistics as gauges in the process-wide
    /// metrics registry: the aggregates under
    /// `hetsel.core.cache.{hits,misses,len,capacity,evictions,shards}` plus
    /// per-shard occupancy under
    /// `hetsel.core.cache.shard.<i>.{hits,misses,len,evictions}`, so a
    /// metrics snapshot taken by a harness reflects this engine — shard
    /// balance included — without holding a reference to it. Counter values
    /// saturate at `i64::MAX` instead of wrapping negative.
    pub fn publish_stats(&self) -> DecisionCacheStats {
        self.cache.publish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::platform::Platform;
    use crate::selector::Device;
    use hetsel_polybench::{find_kernel, Dataset};
    use std::time::Duration;

    fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    fn engine_with(kernels: &[Kernel], capacity: usize) -> DecisionEngine {
        DecisionEngine::with_capacity(selector(), kernels, capacity)
    }

    #[test]
    fn cached_decision_identical_to_uncached() {
        // Acceptance criterion: for every suite kernel, the engine's cached
        // answer equals both its own first (uncached) answer and what a cold
        // selector computes from scratch.
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let engine = DecisionEngine::new(selector(), &kernels);
        let s = selector();
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let b = (bench.binding)(ds);
                for k in &bench.kernels {
                    let first = engine.decide(&k.name, &b).unwrap();
                    let second = engine.decide(&k.name, &b).unwrap();
                    assert_eq!(first, second, "{} {:?} cache changed answer", k.name, ds);
                    let cold = s.decide(k, &b);
                    assert_eq!(first, cold, "{} {:?} engine != cold path", k.name, ds);
                }
            }
        }
        let stats = engine.stats();
        assert!(
            stats.hits >= stats.misses,
            "every miss was re-hit: {stats:?}"
        );
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (2, 1, 1));
        // Unknown regions neither decide nor touch the counters.
        assert!(engine.decide("missing", &b).is_none());
        assert_eq!(engine.stats().hits, 2);
    }

    #[test]
    fn distinct_bindings_get_distinct_entries() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d_small = engine.decide("gemm", &binding(Dataset::Mini)).unwrap();
        let d_large = engine.decide("gemm", &binding(Dataset::Benchmark)).unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_ne!(d_small.predicted_cpu_s, d_large.predicted_cpu_s);
        // Irrelevant extra symbols do not split the cache key.
        let mut padded = binding(Dataset::Mini);
        padded = padded.with("unrelated", 999);
        let d_padded = engine.decide("gemm", &padded).unwrap();
        assert_eq!(d_padded, d_small);
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn unresolved_bindings_cache_the_fallback() {
        let (k, _) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d1 = engine.decide("gemm", &Binding::new()).unwrap();
        let d2 = engine.decide("gemm", &Binding::new()).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.device, Device::Gpu);
        assert!(d1.cpu_error.is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_stays_bounded_and_evicts_lru() {
        // Recency ordering is a per-stripe guarantee, so this test pins the
        // engine to a single shard to observe it end to end.
        let (k, binding) = find_kernel("gemm").unwrap();
        let sel = selector();
        let db = AttributeDatabase::compile(std::slice::from_ref(&k), &sel);
        let engine = DecisionEngine::from_database_sharded(sel, db, 2, 1);
        let mini = binding(Dataset::Mini);
        let test = binding(Dataset::Test);
        let bench = binding(Dataset::Benchmark);
        engine.decide("gemm", &mini).unwrap();
        engine.decide("gemm", &test).unwrap();
        // Touch `mini` so `test` is the least recently used...
        engine.decide("gemm", &mini).unwrap();
        // ...then overflow: `test` must be the one evicted.
        engine.decide("gemm", &bench).unwrap();
        assert_eq!(engine.stats().len, 2);
        engine.decide("gemm", &mini).unwrap();
        assert_eq!(engine.stats().misses, 3, "mini survived eviction");
        engine.decide("gemm", &test).unwrap();
        assert_eq!(engine.stats().misses, 4, "test was evicted");
        assert!(engine.stats().len <= 2);
        assert!(
            engine.stats().evictions >= 2,
            "both overflows evicted a live entry: {:?}",
            engine.stats()
        );
    }

    #[test]
    fn stats_publish_to_the_metrics_registry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        engine.decide("gemm", &b).unwrap();
        engine.decide("gemm", &b).unwrap();
        let stats = engine.publish_stats();
        assert_eq!(stats.evictions, 0);
        let registry = hetsel_obs::registry();
        assert_eq!(
            registry.gauge("hetsel.core.cache.hits").get(),
            stats.hits as i64
        );
        assert_eq!(
            registry.gauge("hetsel.core.cache.misses").get(),
            stats.misses as i64
        );
        // (`hetsel.core.cache.len` is also written by concurrent tests'
        // engines, so only the single-writer gauges are asserted on.)
    }

    #[test]
    fn decide_for_restricts_the_candidate_set() {
        let kernels: Vec<Kernel> = vec![find_kernel("gemm").unwrap().0];
        let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "v100")
            .with_accelerator_from("k80", &Platform::power8_k80());
        let sel = Selector::new(Platform::power9_v100()).with_fleet(fleet);
        let engine = DecisionEngine::new(sel, &kernels);
        let (_, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let full = engine.decide("gemm", &b).unwrap();
        // Restricting to the primary accelerator is the classic pair.
        let primary = engine.decide_for("gemm", &b, DeviceId(1)).unwrap();
        assert_eq!(&*primary.device_name, full.device_name.as_ref());
        // A host-scoped decision cannot offload.
        let host = engine.decide_for("gemm", &b, DeviceId::HOST).unwrap();
        assert_eq!(host.device, Device::Host);
        assert!(host.predicted_cpu_s.is_some());
        // The k80 scope carries the true fleet identity.
        let k80 = engine.decide_for("gemm", &b, DeviceId(2)).unwrap();
        if k80.device == Device::Gpu {
            assert_eq!((&*k80.device_name, k80.device_id), ("k80", DeviceId(2)));
        }
        // Scoped and whole-fleet decisions are cached under distinct keys.
        let stats = engine.stats();
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(engine.decide_for("gemm", &b, DeviceId(2)).unwrap(), k80);
        assert_eq!(engine.stats().hits, 1);
        // Unregistered ids refuse rather than guess.
        assert!(engine.decide_for("gemm", &b, DeviceId(9)).is_none());
    }

    #[test]
    fn sharded_engine_reports_shard_count_and_stays_bounded() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 8);
        let stats = engine.stats();
        assert_eq!(stats.shards, 8, "8 entries cap the stripes at 8");
        assert_eq!(stats.capacity, 8);
        // Thrash with far more distinct bindings than capacity.
        let mut base = binding(Dataset::Mini);
        for n in 1..200 {
            base.set("n", n);
            engine.decide("gemm", &base).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.len <= stats.capacity, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 199, "{stats:?}");
    }

    #[test]
    fn decide_batch_matches_one_by_one_decides() {
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let batch_engine = DecisionEngine::new(selector(), &kernels);
        let solo_engine = DecisionEngine::new(selector(), &kernels);
        let mut requests: Vec<(String, Binding)> = Vec::new();
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Benchmark] {
                for k in &bench.kernels {
                    requests.push((k.name.clone(), (bench.binding)(ds)));
                }
            }
        }
        // Unknown regions produce `None` slots without disturbing others;
        // a duplicate of the first request exercises intra-batch reuse.
        requests.push(("no-such-region".to_string(), Binding::new()));
        requests.push(requests[0].clone());
        let built: Vec<DecisionRequest> = requests
            .iter()
            .map(|(r, b)| DecisionRequest::new(r.clone(), b.clone()))
            .collect();
        let batched = batch_engine.decide_batch(&built);
        assert_eq!(batched.len(), requests.len());
        for (i, (region, b)) in requests.iter().enumerate() {
            let solo = solo_engine.decide(region, b);
            assert_eq!(batched[i], solo, "slot {i} ({region}) diverged");
        }
        // Identical traffic, identical accounting.
        let (bs, ss) = (batch_engine.stats(), solo_engine.stats());
        assert_eq!((bs.hits, bs.misses), (ss.hits, ss.misses));
        let decided = batched.iter().filter(|d| d.is_some()).count() as u64;
        assert_eq!(bs.hits + bs.misses, decided);
        // A second identical batch is all hits.
        let again = batch_engine.decide_batch(&built);
        assert_eq!(again, batched);
        assert_eq!(batch_engine.stats().misses, bs.misses);
    }

    #[test]
    fn cache_queue_compaction_keeps_hits_working() {
        // Hammer a single entry far past the compaction threshold; the
        // entry must remain a hit throughout and the cache stay bounded.
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 2);
        let b = binding(Dataset::Test);
        for _ in 0..500 {
            assert!(engine.decide("gemm", &b).is_some());
        }
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (499, 1, 1));
    }

    #[test]
    fn plain_requests_match_decide_exactly() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone());
        let via_request = engine.decide_request(&request).unwrap();
        let via_decide = engine.decide("gemm", &b).unwrap();
        assert_eq!(via_request, via_decide);
        // The plain request went through the cache like any decide call.
        assert_eq!(engine.stats().hits, 1);
        // Unknown regions refuse, deadline or not.
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b.clone()))
            .is_none());
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b).with_deadline(Duration::ZERO))
            .is_none());
    }

    #[test]
    fn policy_overrides_use_a_scoped_cache_partition() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone()).with_policy(Policy::AlwaysHost);
        let host = engine.decide_request(&request).unwrap();
        assert_eq!(
            (host.device, host.policy),
            (Device::Host, Policy::AlwaysHost)
        );
        // The override populated its own policy partition...
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 1));
        // ...which a repeat of the same override answers warm...
        let again = engine.decide_request(&request).unwrap();
        assert_eq!(again, host);
        assert_eq!(engine.stats().hits, 1);
        // ...while the engine's own policy still evaluates independently:
        // the foreign-policy entry can never answer a plain decide.
        let own = engine.decide("gemm", &b).unwrap();
        assert_eq!(own.policy, Policy::ModelDriven);
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.len), (2, 2));
    }

    #[test]
    fn deadline_missed_computation_is_cached_for_retry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        // One nanosecond is a budget no cold evaluation can meet, but —
        // unlike zero — it does not short-circuit evaluation, so the
        // computed decision exists by the time the deadline check fires.
        let tight = DecisionRequest::new("gemm", b.clone()).with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        // The blown budget did not waste the evaluation: the computed
        // decision went into the cache before the reply degraded, so the
        // retry (with or without a deadline) is a warm hit.
        assert_eq!((engine.stats().misses, engine.stats().len), (1, 1));
        let retried = engine
            .decide_request(&DecisionRequest::new("gemm", b.clone()))
            .unwrap();
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(retried.policy, Policy::ModelDriven);
        assert_eq!(retried.cpu_error, None);
        // Same story for the override branch: tight-deadline override
        // misses its budget, but warms its policy partition for the retry.
        let tight_host = DecisionRequest::new("gemm", b)
            .with_policy(Policy::AlwaysHost)
            .with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight_host).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!((engine.stats().misses, engine.stats().len), (2, 2));
        let retried = engine
            .decide_request(&tight_host.clone().with_deadline(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(retried.device, Device::Host);
        assert_eq!(retried.policy, Policy::AlwaysHost);
    }

    #[test]
    fn overridden_decisions_reach_the_flight_recorder() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        hetsel_obs::set_flight_recording(true);
        engine
            .decide_request(&DecisionRequest::new("gemm", b).with_policy(Policy::AlwaysOffload))
            .unwrap();
        hetsel_obs::set_flight_recording(false);
        // The override went through the recorded path: at least one
        // Decide event for this region sits in the (process-global) ring.
        // Other tests may be recording concurrently, so scan rather than
        // count.
        let seen = hetsel_obs::flight_recorder()
            .snapshot()
            .iter()
            .any(|ev| ev.kind == hetsel_obs::EventKind::Decide && ev.region_str() == "gemm");
        assert!(seen, "override emitted no flight-recorder Decide event");
    }

    #[test]
    fn zero_deadline_degrades_to_the_compiler_default() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b).with_deadline(Duration::ZERO);
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.device, Device::Gpu);
        assert_eq!(d.policy, Policy::AlwaysOffload);
        assert_eq!(d.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.gpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.predicted_speedup(), None);
        // Degraded decisions are not cached.
        assert_eq!(engine.stats().len, 0);
        // A generous deadline decides normally.
        let request = request.with_deadline(Duration::from_secs(3600));
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.policy, Policy::ModelDriven);
    }
}
