//! Differential test across every decision path on synthesized kernels.
//!
//! Every path that reaches a verdict goes through one pure step
//! (`Selector::verdict`), so they must agree bit for bit on any kernel,
//! not just the 24 Polybench regions. This sweeps 500 `ir::synth` seeds on
//! the classic pair fleet and on a three-accelerator fleet, with
//! calibration Off and with warm Active corrections, and checks that
//!
//! * `Selector::decide(&Kernel)` (models compiled on the spot),
//! * `DecisionEngine::decide` (precompiled models, cache miss),
//! * the request's slot of one `DecisionEngine::decide_batch` call,
//! * `DecisionEngine::decide_for(primary)` (pair fleet only), and
//! * `DecisionEngine::explain(..).describes(..)`
//!
//! all tell the same story.

use std::collections::BTreeSet;
use std::sync::Arc;

use hetsel_core::{
    AttributeDatabase, CalibrationMode, Calibrator, CalibratorConfig, Decision, DecisionEngine,
    DecisionRequest, Device, DeviceId, Fleet, Platform, Selector,
};
use hetsel_ir::synth::{generate, Rng};
use hetsel_ir::{Binding, Kernel};

const SEEDS: u64 = 500;

/// One kernel per seed, bound at a seed-drawn size so the sweep covers
/// host-bound, transfer-bound and offload-friendly extents.
fn cases() -> Vec<(Kernel, Binding)> {
    (0..SEEDS)
        .map(|seed| {
            let synth = generate(seed);
            let mut rng = Rng::new(seed ^ 0x5eed);
            let n = 1i64 << (4 + rng.below(17));
            let m = 1 + rng.below(512) as i64;
            let mut binding = Binding::new();
            for p in &synth.params {
                binding.set(*p, if *p == "n" { n } else { m });
            }
            (synth.kernel, binding)
        })
        .collect()
}

fn pair_fleet() -> Fleet {
    Fleet::pair(&Platform::power9_v100())
}

fn three_accelerator_fleet() -> Fleet {
    Fleet::pair_labeled(&Platform::power9_v100(), "v100")
        .with_accelerator_from("k80", &Platform::power8_k80())
        .with_accelerator_from("p100", &Platform::power8_p100())
}

/// Publishes a correction for every device on every case: a factor drawn
/// from {1/8, 1/2, 2, 8} per (seed, device), so warm Active verdicts flip
/// away from the raw ones on a good share of the kernels.
fn warm(selector: &Selector, cases: &[(Kernel, Binding)]) {
    let labels: Vec<String> = selector
        .fleet()
        .device_ids()
        .map(|id| selector.fleet().label(id).unwrap().to_string())
        .collect();
    for (seed, (kernel, binding)) in cases.iter().enumerate() {
        let class = selector
            .decide(kernel, binding)
            .calibration
            .expect("Active mode tags model-driven decisions")
            .class;
        let mut rng = Rng::new(seed as u64);
        for label in &labels {
            let factor = [0.125, 0.5, 2.0, 8.0][rng.below(4) as usize];
            selector
                .calibrator()
                .observe(&kernel.name, label, class, 1.0, factor);
        }
    }
}

/// A decision with its predictions as raw bits, so `==` is bit-for-bit.
fn exact(d: &Decision) -> (&Decision, Option<u64>, Option<u64>) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    (d, bits(d.predicted_cpu_s), bits(d.predicted_gpu_s))
}

/// What one sweep decided, to show it exercised every branch.
struct Census {
    /// Verdicts that went to the host.
    host: usize,
    /// Verdicts flipped by calibration.
    flips: usize,
    /// Distinct accelerators chosen.
    accelerators: BTreeSet<DeviceId>,
}

/// Runs every decision path over `cases` and checks they agree.
fn sweep(fleet: Fleet, mode: CalibrationMode, cases: &[(Kernel, Binding)]) -> Census {
    let selector = Selector::new(Platform::power9_v100())
        .with_fleet(fleet)
        .with_calibration(mode)
        .with_calibrator(Arc::new(Calibrator::new(CalibratorConfig {
            min_samples: 1,
            max_abs_log: f64::INFINITY,
            epoch_threshold: 0.0,
            capacity: 4 * cases.len(),
        })));
    if mode == CalibrationMode::Active {
        warm(&selector, cases);
    }
    let kernels: Vec<Kernel> = cases.iter().map(|(k, _)| k.clone()).collect();
    let database = AttributeDatabase::compile(&kernels, &selector);
    let capacity = 4 * cases.len();
    let engine = DecisionEngine::from_database(selector.clone(), database.clone(), capacity);
    let batch_engine = DecisionEngine::from_database(selector.clone(), database, capacity);
    let requests: Vec<DecisionRequest> = cases
        .iter()
        .map(|(k, b)| DecisionRequest::new(k.name.clone(), b.clone()))
        .collect();
    let batch = batch_engine.decide_batch(&requests);
    let primary = selector.fleet().primary_accelerator().expect("accelerator");
    let pair = selector.fleet().accelerator_count() == 1;

    let mut census = Census {
        host: 0,
        flips: 0,
        accelerators: BTreeSet::new(),
    };
    for ((kernel, binding), batched) in cases.iter().zip(&batch) {
        let region = kernel.name.as_str();
        let cold = selector.decide(kernel, binding);
        let mut paths = vec![
            ("engine decide", engine.decide(region, binding)),
            ("decide_batch slot", batched.clone()),
        ];
        if pair {
            paths.push((
                "decide_for(primary)",
                engine.decide_for(region, binding, primary),
            ));
        }
        for (path, decision) in &paths {
            let decision = decision.as_ref().expect("known region");
            assert_eq!(exact(decision), exact(&cold), "{region}: {path}");
        }
        let explanation = engine.explain(region, binding).expect("known region");
        assert!(
            explanation.describes(&cold),
            "{region}: explanation diverged\n{explanation:?}\n{cold:?}"
        );
        census.flips += usize::from(cold.calibration.is_some_and(|t| t.flipped));
        if cold.device == Device::Host {
            census.host += 1;
        } else {
            census.accelerators.insert(cold.device_id);
        }
    }
    census
}

#[test]
fn every_decision_path_agrees_on_synthesized_kernels() {
    let cases = cases();
    for (name, fleet) in [
        ("pair", pair_fleet()),
        ("three-accelerator", three_accelerator_fleet()),
    ] {
        let accelerators = fleet.accelerator_count();
        for mode in [CalibrationMode::Off, CalibrationMode::Active] {
            let census = sweep(fleet.clone(), mode, &cases);
            let at = format!("{name}/{}", mode.name());
            assert!(
                census.host > 0 && census.host < cases.len(),
                "{at}: the sweep must exercise both sides (host = {})",
                census.host
            );
            assert_eq!(
                census.flips > 0,
                mode == CalibrationMode::Active,
                "{at}: only warm Active corrections flip verdicts"
            );
            // Without corrections the fastest generation wins every
            // offload; warm corrections reorder the accelerators.
            let want = match mode {
                CalibrationMode::Active => accelerators,
                _ => 1,
            };
            assert_eq!(
                census.accelerators.len(),
                want,
                "{at}: distinct accelerators chosen"
            );
        }
    }
}
