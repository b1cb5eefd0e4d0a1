//! Seeded request generation. The server only ever sees the request lines
//! built here; the seed decides every draw, so one seed gives the same
//! lines byte for byte.

use hetsel_core::DecisionRequest;
use hetsel_ir::{Binding, Kernel};
use hetsel_polybench::{all_kernels, Dataset};
use hetsel_serve::ServeRequest;

/// Zipf exponent of the hot mix's popularity ranking.
pub const ZIPF_S: f64 = 1.1;
/// One hot-mix request in this many carries an extra `variant` binding key.
pub const VARIANT_EVERY: u64 = 16;
/// Requests one `sweep` connection writes before it reads their replies.
pub const BURST: usize = 256;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one request in flight per connection, hot mix.
    Launch,
    /// Open loop on a rate ladder, hot mix.
    Stream,
    /// Closed loop in bursts over fresh problem sizes.
    Sweep,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "launch" => Some(Workload::Launch),
            "stream" => Some(Workload::Stream),
            "sweep" => Some(Workload::Sweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Launch => "launch",
            Workload::Stream => "stream",
            Workload::Sweep => "sweep",
        }
    }
}

/// splitmix64-seeded xorshift64*: deterministic and cheap.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of generator `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per
    /// second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// One Polybench region with the bindings of the paper's two input sizes.
pub struct Region {
    pub kernel: Kernel,
    pub test: Binding,
    pub bench: Binding,
}

/// The 24 regions and the 48 (region, dataset) hot inputs.
pub struct Suite {
    pub regions: Vec<Region>,
    /// Zipf probability of each hot input, indexed like [`Suite::hot`].
    pub hot_weight: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Suite {
    pub fn polybench() -> Suite {
        let regions: Vec<Region> = all_kernels()
            .into_iter()
            .map(|(_, kernel, binding)| Region {
                kernel,
                test: binding(Dataset::Test),
                bench: binding(Dataset::Benchmark),
            })
            .collect();
        // Popularity rank r is hot input r: suite order, Test before
        // Benchmark. The ranking is fixed; the seed only drives the draws.
        let raw: Vec<f64> = (1..=2 * regions.len())
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = raw.iter().sum();
        let hot_weight: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let mut acc = 0.0;
        let cumulative = hot_weight
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Suite {
            regions,
            hot_weight,
            cumulative,
        }
    }

    pub fn hot_count(&self) -> usize {
        2 * self.regions.len()
    }

    /// Hot input `i`: region index and its binding.
    pub fn hot(&self, i: usize) -> (usize, &Binding) {
        let region = &self.regions[i / 2];
        (
            i / 2,
            if i.is_multiple_of(2) {
                &region.test
            } else {
                &region.bench
            },
        )
    }

    fn draw_hot(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.hot_count() - 1)
    }
}

/// One generated request, kept beside its line for the off-clock checks.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    pub region: usize,
    pub binding: Binding,
}

/// Renders the request line the client writes (without the newline).
pub fn render(suite: &Suite, req: &Req) -> String {
    let name = suite.regions[req.region].kernel.name.clone();
    let serve = ServeRequest::new(DecisionRequest::new(name, req.binding.clone())).with_id(req.id);
    serde_json::to_string(&serve).expect("requests always serialize")
}

/// The request stream of one connection of one workload.
pub struct Generator<'a> {
    suite: &'a Suite,
    workload: Workload,
    rng: Rng,
    conn: u64,
    seq: u64,
}

impl<'a> Generator<'a> {
    pub fn new(suite: &'a Suite, workload: Workload, seed: u64, conn: u64) -> Generator<'a> {
        Generator {
            suite,
            workload,
            rng: Rng::new(seed, 1 + conn),
            conn,
            seq: 0,
        }
    }

    /// The next request; ids carry the connection in their high bits.
    pub fn next_req(&mut self) -> Req {
        let id = (self.conn << 40) | self.seq;
        self.seq += 1;
        match self.workload {
            Workload::Launch | Workload::Stream => {
                let hot = self.suite.draw_hot(&mut self.rng);
                let (region, base) = self.suite.hot(hot);
                let mut binding = base.clone();
                if self.rng.below(VARIANT_EVERY) == 0 {
                    binding.set("variant", self.rng.below(4096) as i64);
                }
                Req {
                    id,
                    region,
                    binding,
                }
            }
            Workload::Sweep => {
                let region = self.rng.below(self.suite.regions.len() as u64) as usize;
                let r = &self.suite.regions[region];
                let mut binding = Binding::new();
                for (name, a) in r.test.iter() {
                    let b = r.bench.get(name).unwrap_or(a);
                    let (lo, hi) = (a.min(b), a.max(b));
                    binding.set(name, lo + self.rng.below((hi - lo + 1) as u64) as i64);
                }
                Req {
                    id,
                    region,
                    binding,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` request lines of connection `conn`.
    pub fn lines(suite: &Suite, workload: Workload, seed: u64, conn: u64, n: usize) -> Vec<String> {
        let mut generator = Generator::new(suite, workload, seed, conn);
        (0..n)
            .map(|_| render(suite, &generator.next_req()))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        let suite = Suite::polybench();
        for workload in [Workload::Launch, Workload::Stream, Workload::Sweep] {
            let a = lines(&suite, workload, 7, 1, 500);
            let b = lines(&suite, workload, 7, 1, 500);
            assert_eq!(a, b, "{workload:?}");
            assert_ne!(a, lines(&suite, workload, 8, 1, 500), "{workload:?}");
        }
    }

    #[test]
    fn sweep_bindings_stay_between_the_two_datasets() {
        let suite = Suite::polybench();
        let mut generator = Generator::new(&suite, Workload::Sweep, 3, 0);
        for _ in 0..5000 {
            let req = generator.next_req();
            let r = &suite.regions[req.region];
            assert_eq!(req.binding.len(), r.test.len());
            for (name, v) in req.binding.iter() {
                let (a, b) = (r.test.get(name).unwrap(), r.bench.get(name).unwrap());
                assert!(
                    a.min(b) <= v && v <= a.max(b),
                    "{name}={v} outside [{a}, {b}]"
                );
            }
        }
    }

    #[test]
    fn hot_mix_follows_the_ranking_and_varies_one_in_sixteen() {
        let suite = Suite::polybench();
        assert_eq!(suite.hot_count(), 48);
        let mut rng = Rng::new(11, 0);
        let mut counts = vec![0usize; 48];
        let n = 48_000;
        for _ in 0..n {
            counts[suite.draw_hot(&mut rng)] += 1;
        }
        let mut generator = Generator::new(&suite, Workload::Launch, 11, 0);
        let variants = (0..n)
            .filter(|_| generator.next_req().binding.get("variant").is_some())
            .count();
        assert!(counts[0] > counts[10] && counts[10] > counts[47]);
        let expected = suite.hot_weight[0] * n as f64;
        assert!((counts[0] as f64 - expected).abs() < 0.1 * expected);
        assert!((variants as f64 - n as f64 / 16.0).abs() < 0.15 * n as f64 / 16.0);
    }
}
