//! The decision server: admission control → coalescing window → batch
//! decide → (optional) dispatch → reply.
//!
//! One batcher thread owns the engine-facing side. It drains coalescing
//! windows from the [`AdmissionQueue`] and evaluates each window with a
//! single [`DecisionEngine::decide_batch`](hetsel_core::DecisionEngine::decide_batch)
//! call, which decides the window's requests in order. A
//! separate [`DeadlineTimer`] thread answers deadline-carrying requests
//! the moment their budget expires — requests handed to the engine have
//! their deadlines stripped
//! ([`DecisionRequest::without_deadline`](hetsel_core::DecisionRequest::without_deadline)),
//! so the engine never second-guesses the timer with its own post-hoc
//! elapsed check.
//!
//! Admission control has two modes, mirroring the dispatcher's
//! breaker/fallback vocabulary one layer up:
//!
//! * [`ServerHandle::submit`] **load-sheds**: a full queue turns into an
//!   immediate [`ShedReason::QueueFull`] reply carrying the degraded
//!   compiler-default decision.
//! * [`ServerHandle::submit_wait`] **backpressures**: the caller blocks
//!   until the queue has room (or the server shuts down).
//!
//! Either way every admitted or refused request gets exactly one reply —
//! the serve-layer analogue of the dispatcher's "the host is never fully
//! load-shed" rule: admission may refuse to spend evaluation budget, but
//! it always answers, and a shed reply's degraded decision is always
//! runnable.

use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use hetsel_core::{DecisionRequest, Dispatcher};
use hetsel_obs::{DecisionEvent, EventKind};

use crate::pending::PendingRequest;
use crate::proto::{ServeReply, ServeRequest, ShedReason};
use crate::queue::{Admission, AdmissionQueue};
use crate::timer::DeadlineTimer;

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Queued requests admitted before `submit` starts shedding
    /// (`submit_wait` blocks instead).
    pub queue_capacity: usize,
    /// Most requests one coalescing window evaluates together.
    pub max_batch: usize,
    /// How long a window stays open for stragglers after its first
    /// request. Zero degenerates to "drain whatever is queued right now"
    /// — still batched under load, minimal added latency when idle.
    pub window: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4096,
            max_batch: 512,
            window: Duration::from_micros(100),
        }
    }
}

impl ServeConfig {
    /// Builder: admission queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Builder: max requests per coalescing window.
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch;
        self
    }

    /// Builder: coalescing window length.
    pub fn with_window(mut self, window: Duration) -> ServeConfig {
        self.window = window;
        self
    }
}

/// Shared server state. The timer's expiry callback holds a `Weak` back
/// to this (not an `Arc`) so the `Inner → timer → callback` chain is not
/// a reference cycle.
struct Inner {
    dispatcher: Dispatcher,
    queue: AdmissionQueue<Arc<PendingRequest>>,
    timer: OnceLock<DeadlineTimer>,
}

impl Inner {
    fn publish_depth(&self) {
        hetsel_obs::static_gauge!("hetsel.serve.queue.depth").set(self.queue.depth() as i64);
    }

    /// The degraded compiler-default decision a shed reply carries,
    /// obtained through the engine's zero-budget path (no model
    /// evaluation, the deadline reason recorded on both model sides).
    /// Unknown regions shed as typed errors instead.
    fn shed_reply(&self, pending: &PendingRequest, reason: ShedReason) -> ServeReply {
        let request = &pending.serve.request;
        let zero_budget = request.clone().with_deadline(Duration::ZERO);
        let reply = match self.dispatcher.engine().decide_request(&zero_budget) {
            Some(degraded) => ServeReply::shed(pending.serve.id, reason, &degraded),
            None => ServeReply::error(
                pending.serve.id,
                format!("unknown region {:?}", request.region()),
            ),
        };
        hetsel_obs::registry()
            .counter(&format!("hetsel.serve.shed.{}", reason.metric_key()))
            .inc();
        hetsel_obs::record_event(|| {
            let mut ev = DecisionEvent::new(EventKind::Shed, request.region());
            ev.detail = reason.code();
            ev
        });
        reply
    }

    fn shed(&self, pending: &PendingRequest, reason: ShedReason) {
        let reply = self.shed_reply(pending, reason);
        pending.done.complete(reply);
    }
}

/// Cloneable submission handle; every transport thread holds one.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Admits `serve` (or refuses it), returning the pending request to
    /// wait on. Admission arms the deadline timer for deadline-carrying
    /// requests. The reply slot is *already completed* when admission
    /// refused the request — a full queue sheds with
    /// [`ShedReason::QueueFull`], a stopped server with
    /// [`ShedReason::ShuttingDown`], an unknown region errors — so
    /// callers can unconditionally `wait()`.
    pub fn submit(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        self.admit(serve, false)
    }

    /// As [`ServerHandle::submit`], but blocks for queue space instead of
    /// shedding (backpressure). Still sheds with
    /// [`ShedReason::ShuttingDown`] if the server stops while waiting.
    pub fn submit_wait(&self, serve: ServeRequest) -> Arc<PendingRequest> {
        self.admit(serve, true)
    }

    fn admit(&self, serve: ServeRequest, wait: bool) -> Arc<PendingRequest> {
        let inner = &self.inner;
        let pending = Arc::new(PendingRequest::new(serve));
        // Refuse unknown regions before they consume queue space: the
        // typed error reply is the transport's "bad request", not a shed.
        if inner
            .dispatcher
            .engine()
            .database()
            .region(pending.serve.request.region())
            .is_none()
        {
            hetsel_obs::static_counter!("hetsel.serve.bad_request").inc();
            pending.done.complete(ServeReply::error(
                pending.serve.id,
                format!("unknown region {:?}", pending.serve.request.region()),
            ));
            return pending;
        }
        let admission = if wait {
            inner.queue.push_wait(Arc::clone(&pending))
        } else {
            inner.queue.try_push(Arc::clone(&pending))
        };
        match admission {
            Admission::Admitted => {
                hetsel_obs::static_counter!("hetsel.serve.admitted").inc();
                inner.publish_depth();
                if let Some(timer) = inner.timer.get() {
                    timer.schedule(&pending);
                }
            }
            Admission::QueueFull => inner.shed(&pending, ShedReason::QueueFull),
            Admission::Closed => inner.shed(&pending, ShedReason::ShuttingDown),
        }
        pending
    }

    /// Convenience: submit (load-shedding admission) and block for the
    /// reply.
    pub fn call(&self, serve: ServeRequest) -> ServeReply {
        self.submit(serve).done.wait()
    }

    /// Convenience: submit with backpressure admission and block for the
    /// reply.
    pub fn call_wait(&self, serve: ServeRequest) -> ServeReply {
        self.submit_wait(serve).done.wait()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }
}

/// The running server: batcher thread + deadline-timer thread around a
/// [`Dispatcher`].
pub struct DecisionServer {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
}

impl DecisionServer {
    /// Starts the batcher and timer threads over `dispatcher`.
    pub fn start(dispatcher: Dispatcher, config: ServeConfig) -> DecisionServer {
        let inner = Arc::new(Inner {
            dispatcher,
            queue: AdmissionQueue::new(config.queue_capacity),
            timer: OnceLock::new(),
        });
        let timer_inner: Weak<Inner> = Arc::downgrade(&inner);
        let timer = DeadlineTimer::start(move |pending| {
            // The server outlives its timer thread except during the
            // final teardown, where expiries no longer matter.
            if let Some(inner) = timer_inner.upgrade() {
                inner.shed(pending, ShedReason::DeadlineExpired);
            }
        });
        inner.timer.set(timer).ok().expect("timer set once");
        let batch_inner = Arc::clone(&inner);
        let batcher = std::thread::Builder::new()
            .name("hetsel-serve-batcher".to_string())
            .spawn(move || run_batcher(&batch_inner, config))
            .expect("spawn batcher thread");
        DecisionServer {
            inner,
            batcher: Some(batcher),
        }
    }

    /// A cloneable submission handle for transport threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The dispatcher the server evaluates through.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.inner.dispatcher
    }

    /// Stops accepting requests, sheds everything still queued with
    /// [`ShedReason::ShuttingDown`], and joins both threads. Every
    /// admitted request has been answered when this returns.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        let orphans = self.inner.queue.close();
        for pending in &orphans {
            self.inner.shed(pending, ShedReason::ShuttingDown);
        }
        self.inner.publish_depth();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        if let Some(timer) = self.inner.timer.get() {
            timer.shutdown();
        }
    }
}

impl Drop for DecisionServer {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The batcher loop: drain a window, evaluate it with one `decide_batch`
/// call, answer (and optionally dispatch) every request in it.
fn run_batcher(inner: &Arc<Inner>, config: ServeConfig) {
    while let Some(window) = inner.queue.next_batch(config.max_batch, config.window) {
        inner.publish_depth();
        // Deadline-expired (or shutdown-shed) requests are already
        // answered; spend no evaluation budget on them.
        let live: Vec<&Arc<PendingRequest>> = window.iter().filter(|p| !p.done.is_done()).collect();
        hetsel_obs::static_histogram!("hetsel.serve.window.batch").record(live.len() as u64);
        if live.is_empty() {
            continue;
        }
        // Strip deadlines: the timer owns them. Cloning here is fine —
        // the batcher amortises it over the window, far off the engine's
        // zero-alloc hot path.
        let requests: Vec<DecisionRequest> = live
            .iter()
            .map(|p| p.serve.request.clone().without_deadline())
            .collect();
        let decisions = inner.dispatcher.engine().decide_batch(&requests);
        for ((pending, request), decision) in live.iter().zip(&requests).zip(decisions) {
            let reply = match decision {
                None => ServeReply::error(
                    pending.serve.id,
                    format!("unknown region {:?}", request.region()),
                ),
                Some(decision) => {
                    if pending.serve.dispatch {
                        // Dispatch re-enters the engine with the stripped
                        // request: a warm cache hit (the batch pass above
                        // just inserted it), then the fault-tolerant
                        // execution path.
                        match inner.dispatcher.dispatch(request) {
                            Ok(outcome) => {
                                ServeReply::ok(pending.serve.id, &decision, false, Some(&outcome))
                            }
                            Err(e) => {
                                ServeReply::error(pending.serve.id, format!("dispatch failed: {e}"))
                            }
                        }
                    } else {
                        ServeReply::ok(pending.serve.id, &decision, false, None)
                    }
                }
            };
            if pending.done.complete(reply) {
                hetsel_obs::static_counter!("hetsel.serve.replies").inc();
            } else {
                // The timer answered while we were evaluating; the work
                // is not wasted — the decision is in the cache for the
                // retry.
                hetsel_obs::static_counter!("hetsel.serve.late_result").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_core::{DecisionEngine, DispatcherConfig, Platform, Selector};
    use hetsel_polybench::{find_kernel, Dataset};

    fn server(config: ServeConfig) -> DecisionServer {
        let (kernel, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        );
        DecisionServer::start(Dispatcher::new(engine, DispatcherConfig::default()), config)
    }

    /// A gemm request whose cache key varies with `n` (the extra binding
    /// slot perturbs the key without touching the model inputs).
    fn gemm(n: i64) -> ServeRequest {
        let (_, binding) = find_kernel("gemm").unwrap();
        ServeRequest::new(DecisionRequest::new(
            "gemm",
            binding(Dataset::Benchmark).with("n", n),
        ))
    }

    #[test]
    fn serves_decisions_end_to_end() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        let reply = handle.call(gemm(1024).with_id(11));
        match reply {
            ServeReply::Ok {
                id,
                decision,
                degraded,
                dispatched,
            } => {
                assert_eq!(id, Some(11));
                assert_eq!(decision.region, "gemm");
                assert!(!degraded);
                assert!(dispatched.is_none());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn dispatch_flag_returns_execution_evidence() {
        let server = server(ServeConfig::default());
        let reply = server.handle().call(gemm(512).with_dispatch());
        match reply {
            ServeReply::Ok { dispatched, .. } => {
                let d = dispatched.expect("dispatch evidence");
                assert!(d.attempts >= 1);
                assert!(d.simulated_s >= 0.0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_region_is_a_typed_error_not_a_shed() {
        let server = server(ServeConfig::default());
        let reply = server.handle().call(ServeRequest::new(DecisionRequest::new(
            "definitely-not-a-kernel",
            hetsel_ir::Binding::new(),
        )));
        assert_eq!(reply.status(), "error");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_sheds_with_a_runnable_default() {
        // A window long enough that the 1 ns deadline always fires first.
        let server = server(ServeConfig::default().with_window(Duration::from_millis(200)));
        let mut serve = gemm(64);
        serve.request = serve.request.with_deadline(Duration::from_nanos(1));
        let reply = server.handle().call(serve);
        match reply {
            ServeReply::Shed {
                reason, decision, ..
            } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                // The degraded default is still a runnable decision.
                assert!(!decision.device.is_empty());
                assert_eq!(decision.policy, "always_offload");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_sheds_queued_requests_with_typed_reason() {
        let server = server(ServeConfig::default());
        let handle = server.handle();
        server.shutdown();
        let reply = handle.call(gemm(128));
        match reply {
            ServeReply::Shed { reason, .. } => {
                assert_eq!(reason, ShedReason::ShuttingDown)
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn concurrent_submitters_coalesce_and_all_get_replies() {
        let server = server(ServeConfig::default().with_window(Duration::from_millis(2)));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let handle = server.handle();
                std::thread::spawn(move || {
                    (0..50)
                        .map(|i| handle.call(gemm(64 + (t * 50 + i)).with_id(t as u64)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for reply in t.join().unwrap() {
                assert_eq!(reply.status(), "ok");
            }
        }
        server.shutdown();
    }
}
