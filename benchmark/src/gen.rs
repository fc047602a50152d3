//! Input generation. Problem *sets* (the gateway catalog, the churn
//! reference sample, the sweep and the bulk shapes) are fixed, so every
//! run measures the same workload; `--seed` drives what varies between
//! runs: the request sequence, the never-seen churn problems, the sweep
//! order and the tensor contents.

use std::collections::HashSet;
use ttlg_tensor::generator::all_permutations_suite;
use ttlg_tensor::rng::StdRng;
use ttlg_tensor::{Permutation, Shape};

/// Seed of the fixed problem sets. Not the workload seed: changing it
/// changes the workload itself.
const CATALOG_SEED: u64 = 0x7e57_ca7a_109e_0001;

/// Gateway traffic: problems per catalog, shapes they share, and the
/// volume range in elements.
const CATALOG_PROBLEMS: usize = 256;
const CATALOG_SHAPES: usize = 32;
const SMALL_VOLUME: (usize, usize) = (64, 32_768);
const CHURN_VOLUME: (usize, usize) = (4_096, 32_768);

/// The sweep: every `SIM_STRIDE`-th permutation of the 720 (in the
/// paper's scaled-rank order) at each of the paper's three extents.
const SIM_EXTENTS: [usize; 3] = [15, 16, 17];
const SIM_STRIDE: usize = 10;
/// Extent of the executed correctness copy of the sweep.
pub const SIM_CHECK_EXTENT: usize = 8;

/// The bulk shapes: five 2^26-element f64 tensors (512 MiB each).
const CPU_BULK: [(&[usize], &[usize]); 5] = [
    (&[256, 512, 512], &[0, 2, 1]),
    (&[8, 2048, 4096], &[0, 2, 1]),
    (&[8192, 8192], &[1, 0]),
    (&[16, 16, 16, 16, 16, 64], &[5, 4, 3, 2, 1, 0]),
    (&[32, 128, 128, 128], &[2, 0, 3, 1]),
];

/// One transposition problem.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Problem {
    pub extents: Vec<usize>,
    pub perm: Vec<usize>,
}

impl Problem {
    pub fn new(extents: &[usize], perm: &[usize]) -> Problem {
        Problem {
            extents: extents.to_vec(),
            perm: perm.to_vec(),
        }
    }

    pub fn volume(&self) -> usize {
        self.extents.iter().product()
    }

    pub fn shape(&self) -> Shape {
        Shape::new(&self.extents).expect("generated extents are valid")
    }

    pub fn permutation(&self) -> Permutation {
        Permutation::new(&self.perm).expect("generated permutations are valid")
    }

    /// The `POST /v1/transpose` body.
    pub fn body(&self) -> String {
        format!(
            "{{\"extents\":{:?},\"perm\":{:?}}}",
            self.extents, self.perm
        )
    }

    /// The same rank and permutation with the largest extent halved
    /// until the volume is at most `cap` elements.
    pub fn shrunk(&self, cap: usize) -> Problem {
        let mut extents = self.extents.clone();
        while extents.iter().product::<usize>() > cap {
            let (i, _) = extents
                .iter()
                .enumerate()
                .max_by_key(|&(i, &e)| (e, std::cmp::Reverse(i)))
                .expect("rank >= 1");
            extents[i] = (extents[i] / 2).max(1);
        }
        Problem {
            extents,
            perm: self.perm.clone(),
        }
    }
}

/// Extents of the given rank whose volume lies in `[lo, hi]`.
fn random_extents(rng: &mut StdRng, rank: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let e_hi = ((2.0 * (hi as f64).powf(1.0 / rank as f64)).round() as usize).max(4);
    loop {
        let e: Vec<usize> = (0..rank).map(|_| rng.gen_range(2..=e_hi)).collect();
        if (lo..=hi).contains(&e.iter().product::<usize>()) {
            return e;
        }
    }
}

fn random_perm(rng: &mut StdRng, rank: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..rank).collect();
    rng.shuffle(&mut p);
    p
}

/// The gateway-small catalog: 256 distinct problems over 32 shapes of
/// ranks 2-6 and 64-32 768 elements. Index 0 is the most popular.
pub fn catalog() -> Vec<Problem> {
    let mut rng = StdRng::seed_from_u64(CATALOG_SEED);
    let shapes: Vec<Vec<usize>> = (0..CATALOG_SHAPES)
        .map(|i| random_extents(&mut rng, 2 + i % 5, SMALL_VOLUME))
        .collect();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(CATALOG_PROBLEMS);
    while out.len() < CATALOG_PROBLEMS {
        let extents = &shapes[rng.gen_range(0..CATALOG_SHAPES)];
        let p = Problem::new(extents, &random_perm(&mut rng, extents.len()));
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// Never-repeating problems of rank 4-6 and 4 096-32 768 elements.
pub struct ChurnStream {
    rng: StdRng,
    seen: HashSet<Problem>,
}

impl ChurnStream {
    pub fn new(seed: u64) -> ChurnStream {
        ChurnStream {
            rng: StdRng::seed_from_u64(seed ^ 0xc4u64.rotate_left(56)),
            seen: HashSet::new(),
        }
    }
}

impl Iterator for ChurnStream {
    type Item = Problem;

    fn next(&mut self) -> Option<Problem> {
        loop {
            let rank = self.rng.gen_range(4..=6);
            let extents = random_extents(&mut self.rng, rank, CHURN_VOLUME);
            let p = Problem::new(&extents, &random_perm(&mut self.rng, rank));
            if self.seen.insert(p.clone()) {
                return Some(p);
            }
        }
    }
}

/// A fixed sample of the churn distribution: what the churn workload's
/// simulated-bandwidth metrics and ladder are computed on, so they do not
/// vary with the seed.
pub fn churn_reference() -> Vec<Problem> {
    ChurnStream::new(CATALOG_SEED)
        .take(CATALOG_PROBLEMS)
        .collect()
}

/// The seeded gateway-small request sequence: catalog indices drawn
/// Zipf(s = 1), rank 1 = catalog index 0.
pub struct ZipfStream {
    rng: StdRng,
    /// Cumulative probability of each rank.
    cdf: Vec<f64>,
}

impl ZipfStream {
    pub fn new(seed: u64) -> ZipfStream {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=CATALOG_PROBLEMS)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5au64.rotate_left(56)),
            cdf,
        }
    }
}

impl Iterator for ZipfStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let u = self.rng.gen_f64();
        Some(
            self.cdf
                .partition_point(|&c| c <= u)
                .min(self.cdf.len() - 1),
        )
    }
}

/// The sweep's permutations: every `SIM_STRIDE`-th of the 720 6D
/// permutations, in the paper's order.
fn sim_perms() -> Vec<Vec<usize>> {
    all_permutations_suite(6, 2)
        .into_iter()
        .step_by(SIM_STRIDE)
        .map(|c| c.perm.as_slice().to_vec())
        .collect()
}

/// The sweep at one extent.
pub fn sim_problems(extent: usize) -> Vec<Problem> {
    sim_perms()
        .iter()
        .map(|p| Problem::new(&[extent; 6], p))
        .collect()
}

/// One sweep repeat: the permutations at every paper extent.
pub fn sim_ops() -> Vec<Problem> {
    SIM_EXTENTS.iter().flat_map(|&e| sim_problems(e)).collect()
}

/// The sweep order of one run: a seeded shuffle of `n` op indices.
pub fn sim_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(seed ^ 0x51u64.rotate_left(56)).shuffle(&mut order);
    order
}

pub fn cpu_bulk() -> Vec<Problem> {
    CPU_BULK.iter().map(|(e, p)| Problem::new(e, p)).collect()
}

/// Seeded tensor contents.
pub fn fill(data: &mut [f64], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd4u64.rotate_left(56));
    for x in data {
        *x = rng.gen_f64();
    }
}

/// At most `max` problems of `mix`, taken at an even stride.
pub fn subset(mix: &[Problem], max: usize) -> Vec<Problem> {
    mix.iter()
        .step_by(mix.len().div_ceil(max).max(1))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_fixed_and_within_limits() {
        let c = catalog();
        assert_eq!(c, catalog());
        assert_eq!(c.len(), CATALOG_PROBLEMS);
        let shapes: HashSet<&Vec<usize>> = c.iter().map(|p| &p.extents).collect();
        assert!(shapes.len() <= CATALOG_SHAPES);
        assert_eq!(c.iter().collect::<HashSet<_>>().len(), c.len());
        for p in &c {
            assert!((2..=6).contains(&p.extents.len()));
            assert!((SMALL_VOLUME.0..=SMALL_VOLUME.1).contains(&p.volume()));
            p.permutation();
        }
    }

    #[test]
    fn request_streams_are_deterministic_per_seed_and_change_with_it() {
        let zipf = |seed| ZipfStream::new(seed).take(500).collect::<Vec<_>>();
        assert_eq!(zipf(1), zipf(1));
        assert_ne!(zipf(1), zipf(2));
        let churn = |seed| ChurnStream::new(seed).take(200).collect::<Vec<_>>();
        assert_eq!(churn(1), churn(1));
        assert_ne!(churn(1), churn(2));
        assert_eq!(sim_order(1, 216), sim_order(1, 216));
        assert_ne!(sim_order(1, 216), sim_order(2, 216));
        let data = |seed| {
            let mut d = vec![0.0; 64];
            fill(&mut d, seed);
            d
        };
        assert_eq!(data(1), data(1));
        assert_ne!(data(1), data(2));
    }

    #[test]
    fn churn_never_repeats_and_stays_in_range() {
        let problems: Vec<Problem> = ChurnStream::new(7).take(2000).collect();
        assert_eq!(problems.iter().collect::<HashSet<_>>().len(), 2000);
        for p in &problems {
            assert!((4..=6).contains(&p.extents.len()));
            assert!((CHURN_VOLUME.0..=CHURN_VOLUME.1).contains(&p.volume()));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut counts = vec![0usize; CATALOG_PROBLEMS];
        for i in ZipfStream::new(3).take(100_000) {
            counts[i] += 1;
        }
        // Rank 1 gets 1/H(256) ~ 16% of draws, rank 2 half of that.
        assert!((14_000..18_000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }

    #[test]
    fn sweep_and_shrink() {
        assert_eq!(sim_perms().len(), 72);
        assert_eq!(sim_ops().len(), 216);
        let p = Problem::new(&[16; 6], &[5, 4, 3, 2, 1, 0]);
        assert_eq!(p.shrunk(1 << 18).extents, vec![8; 6]);
        let q = Problem::new(&[8192, 8192], &[1, 0]).shrunk(1 << 18);
        assert_eq!(q.extents, vec![512, 512]);
        assert!(cpu_bulk().iter().all(|p| p.volume() == 1 << 26));
    }
}
