//! Workloads and the inputs generated for them from `--seed`.
//!
//! Everything the program under test receives — lattice seeds, job seeds,
//! the serve request mix — comes from [`Plan::new`], a pure function of
//! the seed: every workload runs every section on the same inputs and only
//! decides where the time goes. The generator uses its own SplitMix64 so
//! the inputs stay fixed when the library's RNGs change.
//!
//! The serve mix is chosen, not measured from real traffic: it takes the
//! parameters the repository's own serve load test uses (`scripts/loadtest.sh`
//! runs `loadtest_serve --hot-frac 0.5`, whose hot set is four specs), so
//! the benchmark and the load test describe the same traffic.

/// The workloads. The workload's own section gets `--seconds`; the other
/// sections run a fixed quota, one after another, so every run reports
/// every metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One large 520×520 trajectory per arm: kernel/ca/dmc/parallel/shard.
    Lattice520,
    /// Sequential canonical jobs through ca, core session and engine, plus
    /// a 64-replica lockstep ensemble.
    Jobs48,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Lattice520, Workload::Jobs48];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lattice520 => "lattice-520",
            Workload::Jobs48 => "jobs-48",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// ZGB point every workload runs: reactive at L=48 for 6000 steps.
pub const ZGB_Y: f64 = 0.48;
/// ZGB reaction rate constant.
pub const ZGB_K: f64 = 5.0;
/// Large-lattice side: divisible by 5 (five-colouring), 4 (fskmc 4×4
/// blocks) and 2 (2×1 shard grid).
pub const BIG_SIDE: u32 = 520;
/// Canonical job: NDCA, L=48, 6000 steps, default cadence of 10 checkpoints.
pub const JOB_SIDE: u32 = 48;
/// Canonical job length in NDCA steps.
pub const JOB_STEPS: u64 = 6000;
/// Replicas in the lockstep ensemble.
pub const ENSEMBLE: usize = 64;
/// Specs in the serve hot set (the hot set of `loadtest_serve`).
pub const HOT_SET: usize = 4;
/// Share of serve submissions that are unique-seed colds, in percent
/// (`scripts/loadtest.sh` runs `--hot-frac 0.5`).
pub const COLD_PERCENT: u64 = 50;
/// Pooled client connections in the serve loop (= nproc on the reference host).
pub const CLIENTS: usize = 2;

/// The canonical job spec as `psr-serve` accepts it.
pub fn job_body(seed: u64) -> String {
    format!("model = zgb {ZGB_Y} {ZGB_K}\nalgorithm = ndca\nside = {JOB_SIDE}\nseed = {seed}\nsteps = {JOB_STEPS}\n")
}

/// One serve submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// Index into the hot set (a cache read once warm).
    Hot(usize),
    /// A unique seed (a cold job: queue, engine, cache put).
    Cold(u64),
}

/// SplitMix64 step: the benchmark's own input generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generated inputs of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Seed of the NDCA warm-up that produces the shared 520 lattice.
    pub warm_seed: u64,
    /// Seed every 520 arm runs with.
    pub arm_seed: u64,
    /// Ensemble replica seeds `base..base+64`; jobs take them in order.
    pub job_seeds: Vec<u64>,
    /// Hot-set seeds (the first job seeds, so their results are checked
    /// against the job ladder).
    pub hot_seeds: Vec<u64>,
    cold_base: u64,
    mix_key: u64,
}

impl Plan {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Plan {
        let key = mix(seed ^ 0x7073_725f_6265_6e63);
        // Small, readable seeds: job seeds below 2^32, colds in a disjoint
        // range above it.
        let base = (mix(key ^ 1) % 1_000_000) * 1000;
        let job_seeds: Vec<u64> = (0..ENSEMBLE as u64).map(|r| base + r).collect();
        Plan {
            warm_seed: mix(key ^ 2) % 1_000_000_007,
            arm_seed: mix(key ^ 3) % 1_000_000_007,
            hot_seeds: job_seeds[..HOT_SET].to_vec(),
            job_seeds,
            cold_base: (1 << 40) + (mix(key ^ 4) % 1_000_000) * 1_000_000,
            mix_key: mix(key ^ 5),
        }
    }

    /// The `i`-th submission of client `c`: half hot reads, half unique colds.
    pub fn submission(&self, client: usize, i: u64) -> Submit {
        let r = mix(self.mix_key ^ mix(((client as u64) << 48) ^ i));
        if r % 100 < COLD_PERCENT {
            Submit::Cold(self.cold_base + ((client as u64) << 32) + i)
        } else {
            Submit::Hot(((r >> 8) % HOT_SET as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let subs = |p: &Plan| -> Vec<Submit> {
            (0..CLIENTS)
                .flat_map(|c| (0..200).map(move |i| (c, i)))
                .map(|(c, i)| p.submission(c, i))
                .collect()
        };
        for seed in [0u64, 1, 42, u64::MAX] {
            let (a, b) = (Plan::new(seed), Plan::new(seed));
            assert_eq!(a, b);
            assert_eq!(subs(&a), subs(&b));
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = Plan::new(1);
        let b = Plan::new(2);
        assert_ne!(a.job_seeds, b.job_seeds);
        assert_ne!(a.warm_seed, b.warm_seed);
        let sa: Vec<Submit> = (0..100).map(|i| a.submission(0, i)).collect();
        let sb: Vec<Submit> = (0..100).map(|i| b.submission(0, i)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn colds_are_unique_and_disjoint_from_job_seeds() {
        let p = Plan::new(9);
        let mut colds = Vec::new();
        let mut hot = 0;
        for c in 0..CLIENTS {
            for i in 0..5000 {
                match p.submission(c, i) {
                    Submit::Cold(s) => colds.push(s),
                    Submit::Hot(h) => {
                        assert!(h < HOT_SET);
                        hot += 1;
                    }
                }
            }
        }
        let n = colds.len();
        colds.sort_unstable();
        colds.dedup();
        assert_eq!(colds.len(), n, "cold seeds repeat");
        assert!(colds.iter().all(|s| !p.job_seeds.contains(s)));
        // Half colds within sampling noise.
        let share = n as f64 / (n + hot) as f64;
        let want = COLD_PERCENT as f64 / 100.0;
        assert!((share - want).abs() < 0.02, "cold share {share}");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
