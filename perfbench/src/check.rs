//! Off-the-clock correctness and decision quality: every reply is checked
//! against a reference decision, and the hot mix is scored as regret
//! against the simulator oracle.

use std::collections::HashMap;

use hetsel_core::{Device, Selector};
use hetsel_serve::ServeReply;

use crate::gen::{Req, Suite};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `ok`, and bit-equal to the reference decision.
    Ok { device: String },
    /// `ok`, but not what the reference decided (or the id did not echo).
    Mismatch(String),
    /// Shed, with the wire spelling of its reason.
    Shed(String),
    /// A typed error reply, or a reply line that does not parse.
    Error(String),
    /// No reply arrived.
    Missing,
}

/// Requests attempted and how each ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    pub attempted: u64,
    pub ok: u64,
    pub mismatched: u64,
    pub shed_queue_full: u64,
    pub shed_deadline_expired: u64,
    pub shed_shutting_down: u64,
    pub error: u64,
    pub missing: u64,
}

impl Census {
    pub fn add(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok { .. } => self.ok += 1,
            Outcome::Mismatch(_) => self.mismatched += 1,
            Outcome::Shed(reason) => match reason.as_str() {
                "queue_full" => self.shed_queue_full += 1,
                "deadline_expired" => self.shed_deadline_expired += 1,
                _ => self.shed_shutting_down += 1,
            },
            Outcome::Error(_) => self.error += 1,
            Outcome::Missing => self.missing += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn error_pct(&self) -> f64 {
        100.0 * self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"attempted\":{},\"ok\":{},\"mismatched\":{},\"shed_queue_full\":{},\"shed_deadline_expired\":{},\"shed_shutting_down\":{},\"error\":{},\"missing\":{}}}",
            self.attempted,
            self.ok,
            self.mismatched,
            self.shed_queue_full,
            self.shed_deadline_expired,
            self.shed_shutting_down,
            self.error,
            self.missing
        )
    }
}

/// The reference a reply must match: device and both predicted times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub device: Device,
    pub cpu: Option<f64>,
    pub gpu: Option<f64>,
}

/// Reference decisions from the bare kernel: `Selector::decide` on the
/// `Kernel` compiles the models on every call and touches neither the
/// attribute database nor the decision cache. Memoised per exact input.
pub struct Reference<'a> {
    suite: &'a Suite,
    selector: Selector,
    memo: HashMap<(usize, Vec<(String, i64)>), Expected>,
}

impl<'a> Reference<'a> {
    pub fn new(suite: &'a Suite) -> Reference<'a> {
        Reference {
            suite,
            selector: crate::selector(),
            memo: HashMap::new(),
        }
    }

    pub fn expected(&mut self, req: &Req) -> Expected {
        let key = (
            req.region,
            req.binding
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
        );
        let (suite, selector) = (self.suite, &self.selector);
        *self.memo.entry(key).or_insert_with(|| {
            let d = selector.decide(&suite.regions[req.region].kernel, &req.binding);
            Expected {
                device: d.device,
                cpu: d.predicted_cpu_s,
                gpu: d.predicted_gpu_s,
            }
        })
    }

    /// Classifies `reply` (`None`: no reply) to `req`.
    pub fn check(&mut self, req: &Req, reply: Option<&str>) -> Outcome {
        let Some(line) = reply else {
            return Outcome::Missing;
        };
        let parsed = match serde_json::from_str::<ServeReply>(line) {
            Ok(parsed) => parsed,
            Err(e) => return Outcome::Error(format!("unparsable reply: {e}")),
        };
        if parsed.id() != Some(req.id) {
            return Outcome::Mismatch(format!("reply id {:?} for request {}", parsed.id(), req.id));
        }
        match parsed {
            ServeReply::Ok { decision, .. } => {
                let want = self.expected(req);
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                let region = &self.suite.regions[req.region].kernel.name;
                if decision.device != want.device.name()
                    || bits(decision.predicted_cpu_s) != bits(want.cpu)
                    || bits(decision.predicted_gpu_s) != bits(want.gpu)
                    || &decision.region != region
                {
                    Outcome::Mismatch(format!(
                        "{region}: got {} {:?}/{:?}, reference {} {:?}/{:?}",
                        decision.device,
                        decision.predicted_cpu_s,
                        decision.predicted_gpu_s,
                        want.device.name(),
                        want.cpu,
                        want.gpu
                    ))
                } else {
                    Outcome::Ok {
                        device: decision.device,
                    }
                }
            }
            ServeReply::Shed { reason, .. } => Outcome::Shed(reason.metric_key().to_string()),
            ServeReply::Error { message, .. } => Outcome::Error(message),
        }
    }
}

/// Checks every request of every log on `threads` threads, returning one
/// outcome per request in log order.
pub fn check_all(suite: &Suite, logs: &[&crate::client::Log], threads: usize) -> Vec<Vec<Outcome>> {
    logs.iter()
        .map(|log| {
            let n = log.reqs.len();
            let chunk = n.div_ceil(threads.max(1)).max(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|lo| {
                        scope.spawn(move || {
                            let mut reference = Reference::new(suite);
                            (lo..(lo + chunk).min(n))
                                .map(|i| reference.check(&log.reqs[i], log.reply(i)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("checker thread panicked"))
                    .collect()
            })
        })
        .collect()
}

/// Regret of the hot mix: `100 × Σ w·(t_chosen − t_oracle) / Σ w·t_oracle`
/// over the hot inputs with a device in `chosen`, where `w` is each
/// input's Zipf probability and the times come from the cpusim/gpusim
/// oracle (`Selector::measure`). Weighting by probability rather than by
/// sampled count keeps the figure independent of how many requests a run
/// completed.
pub fn hot_regret_pct(suite: &Suite, chosen: &[Option<String>], threads: usize) -> f64 {
    let inputs: Vec<usize> = (0..suite.hot_count())
        .filter(|&i| chosen[i].is_some())
        .collect();
    let chunk = inputs.len().div_ceil(threads.max(1)).max(1);
    let terms: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let selector = crate::selector();
                    part.iter()
                        .map(|&i| {
                            let (region, binding) = suite.hot(i);
                            let m = selector
                                .measure(&suite.regions[region].kernel, binding)
                                .expect("every Polybench input simulates");
                            let t = if chosen[i].as_deref() == Some("host") {
                                m.cpu_s
                            } else {
                                m.gpu_s
                            };
                            let oracle = m.cpu_s.min(m.gpu_s);
                            let w = suite.hot_weight[i];
                            (w * (t - oracle), w * oracle)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let lost: f64 = terms.iter().map(|t| t.0).sum();
    let oracle: f64 = terms.iter().map(|t| t.1).sum();
    100.0 * lost / oracle.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Workload};
    use hetsel_serve::ServeReply;

    fn reply_for(suite: &Suite, req: &Req, tamper: impl Fn(&mut Option<f64>)) -> String {
        let engine = hetsel_core::DecisionEngine::new(
            crate::selector(),
            std::slice::from_ref(&suite.regions[req.region].kernel),
        );
        let mut decision = engine
            .decide(&suite.regions[req.region].kernel.name, &req.binding)
            .unwrap();
        tamper(&mut decision.predicted_cpu_s);
        serde_json::to_string(&ServeReply::ok(Some(req.id), &decision, false, None)).unwrap()
    }

    #[test]
    fn engine_replies_match_the_reference() {
        let suite = Suite::polybench();
        let mut generator = Generator::new(&suite, Workload::Sweep, 5, 0);
        let mut reference = Reference::new(&suite);
        for _ in 0..40 {
            let req = generator.next_req();
            let line = reply_for(&suite, &req, |_| {});
            assert!(matches!(
                reference.check(&req, Some(&line)),
                Outcome::Ok { .. }
            ));
        }
    }

    #[test]
    fn a_planted_mismatch_is_caught() {
        let suite = Suite::polybench();
        let req = Generator::new(&suite, Workload::Launch, 1, 0).next_req();
        let mut reference = Reference::new(&suite);
        // One ulp off in the host prediction.
        let line = reply_for(&suite, &req, |cpu| {
            *cpu = cpu.map(|v| f64::from_bits(v.to_bits() + 1));
        });
        assert!(matches!(
            reference.check(&req, Some(&line)),
            Outcome::Mismatch(_)
        ));
        // A wrong id is a mismatch too, a missing reply is missing.
        let mut other = req.clone();
        other.id += 1;
        let good = reply_for(&suite, &req, |_| {});
        assert!(matches!(
            reference.check(&other, Some(&good)),
            Outcome::Mismatch(_)
        ));
        assert_eq!(reference.check(&req, None), Outcome::Missing);
        let mut census = Census::default();
        census.add(&reference.check(&req, Some(&line)));
        census.add(&reference.check(&req, Some(&good)));
        assert_eq!((census.attempted, census.ok, census.failed()), (2, 1, 1));
    }
}
