//! Seeded input generation. The workload seed only orders or draws inputs;
//! the program under test sees nothing but the generated specs.

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `POST /jobs` spec on a100 (the only platform serve-mix uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub model: &'static str,
    pub backend: &'static str,
    pub batch: u64,
    pub measured: bool,
    pub seed: u64,
}

impl JobSpec {
    pub fn body(&self) -> String {
        format!(
            r#"{{"model":"{}","backend":"{}","hardware":"a100","batch":{},"mode":"{}","seed":{}}}"#,
            self.model,
            self.backend,
            self.batch,
            if self.measured {
                "measured"
            } else {
                "predicted"
            },
            self.seed
        )
    }

    /// The same prefix (model, backend, batch, seed) under the other metric
    /// mode: the daemon's stage cache serves compile/profile/map.
    pub fn other_mode(self) -> JobSpec {
        JobSpec {
            measured: !self.measured,
            ..self
        }
    }
}

/// Simulation seed of the hot set; cold seeds never take this value.
pub const HOT_SEED: u64 = 1;

/// The hot set: pre-warmed in set-up, small enough for the daemon's stage
/// cache (32 prefixes) and memory tier (64 MiB) to hold all of it.
pub const HOT: [JobSpec; 6] = [
    JobSpec {
        model: "resnet-50",
        backend: "trt",
        batch: 8,
        measured: false,
        seed: HOT_SEED,
    },
    JobSpec {
        model: "mobilenetv2-1.0",
        backend: "ort",
        batch: 8,
        measured: false,
        seed: HOT_SEED,
    },
    JobSpec {
        model: "efficientnet-b0",
        backend: "trt",
        batch: 1,
        measured: true,
        seed: HOT_SEED,
    },
    JobSpec {
        model: "vit-tiny",
        backend: "ort",
        batch: 8,
        measured: false,
        seed: HOT_SEED,
    },
    JobSpec {
        model: "resnet-50",
        backend: "ort",
        batch: 1,
        measured: true,
        seed: HOT_SEED,
    },
    JobSpec {
        model: "distilbert-base",
        backend: "trt",
        batch: 1,
        measured: false,
        seed: HOT_SEED,
    },
];

/// Models a cold request draws from: trt/ort graphs of at most ~600 nodes.
pub const COLD_MODELS: [&str; 5] = [
    "mobilenetv2-1.0",
    "resnet-50",
    "efficientnet-b0",
    "vit-tiny",
    "distilbert-base",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Exact repeat of a hot spec: served from the memory tier.
    Hot,
    /// A completed cold spec under the other metric mode: the stage-cache
    /// prefix hits, only `metrics` and `assemble` run.
    Warm,
    /// A never-seen simulation seed: the whole pipeline runs.
    Cold,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Hot, Class::Warm, Class::Cold];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Cold => "cold",
        }
    }
}

/// Most recent cold specs a client remembers as warm candidates; the
/// newest is always still in the daemon's stage cache.
const WARM_POOL: usize = 8;

/// One client thread's request stream: ~80 % hot, ~10 % warm, ~10 % cold.
/// A warm draw with no cold spec yet to pair with becomes a cold request.
pub struct MixGen {
    rng: Rng,
    thread: u64,
    seed_base: u64,
    colds: u64,
    warm_pool: Vec<JobSpec>,
}

impl MixGen {
    pub fn new(workload_seed: u64, thread: u64) -> MixGen {
        MixGen {
            rng: Rng::new(workload_seed ^ thread.wrapping_mul(0xA24B_AED4_963E_E407)),
            thread,
            // distinct per workload seed, below 2^53, never HOT_SEED
            seed_base: 1_000 + (workload_seed % 1_000_000) * 1_000_000,
            colds: 0,
            warm_pool: Vec::new(),
        }
    }

    pub fn next_request(&mut self) -> (Class, JobSpec) {
        let u = self.rng.unit();
        if u < 0.8 {
            return (Class::Hot, HOT[self.rng.below(HOT.len())]);
        }
        if u < 0.9 {
            if let Some(spec) = self.warm_pool.pop() {
                return (Class::Warm, spec.other_mode());
            }
        }
        let spec = JobSpec {
            model: COLD_MODELS[self.rng.below(COLD_MODELS.len())],
            backend: if self.rng.below(2) == 0 { "trt" } else { "ort" },
            batch: if self.rng.below(2) == 0 { 1 } else { 8 },
            measured: self.rng.below(2) == 0,
            seed: self.seed_base + 2 * self.colds + self.thread,
        };
        self.colds += 1;
        if self.warm_pool.len() == WARM_POOL {
            self.warm_pool.remove(0);
        }
        self.warm_pool.push(spec);
        (Class::Cold, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, thread: u64, n: usize) -> Vec<(Class, JobSpec)> {
        let mut g = MixGen::new(seed, thread);
        (0..n).map(|_| g.next_request()).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_differs() {
        assert_eq!(draw(7, 0, 500), draw(7, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(8, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(7, 1, 500), "threads draw apart");
    }

    #[test]
    fn mix_proportions_are_near_80_10_10() {
        for seed in [1, 2, 3] {
            let reqs = draw(seed, 0, 20_000);
            let share =
                |c: Class| reqs.iter().filter(|(k, _)| *k == c).count() as f64 / reqs.len() as f64;
            assert!(
                (share(Class::Hot) - 0.8).abs() < 0.02,
                "hot {}",
                share(Class::Hot)
            );
            assert!(
                (share(Class::Warm) - 0.1).abs() < 0.02,
                "warm {}",
                share(Class::Warm)
            );
            assert!(
                (share(Class::Cold) - 0.1).abs() < 0.02,
                "cold {}",
                share(Class::Cold)
            );
        }
    }

    #[test]
    fn cold_specs_are_never_seen_and_warm_pairs_a_prior_cold() {
        let reqs = draw(11, 1, 5_000);
        let mut seen = std::collections::HashSet::new();
        for (class, spec) in &reqs {
            match class {
                Class::Hot => assert!(HOT.contains(spec)),
                Class::Cold => {
                    assert_ne!(spec.seed, HOT_SEED);
                    assert!(seen.insert(spec.seed), "cold seed reused");
                }
                Class::Warm => assert!(seen.contains(&spec.seed), "warm before its cold"),
            }
        }
        // each cold spec is warmed at most once, so warm specs are distinct
        let warm: Vec<_> = reqs.iter().filter(|(c, _)| *c == Class::Warm).collect();
        let distinct: std::collections::HashSet<_> = warm.iter().map(|(_, s)| s.seed).collect();
        assert_eq!(distinct.len(), warm.len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..54).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..54).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
