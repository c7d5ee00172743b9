//! Seeded inputs: the corpus, the op orders, and the patch-version pool.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives the same corpus bytes and the same op sequence.

use fetch_binary::{write_elf, Binary, ElfView, TestCase};
use fetch_synth::corpus::{dataset2_configs, CorpusScale};
use fetch_synth::{patch_function, synthesize, PatchKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Dataset 2 at `--scale 8 --funcs 1.0`: 174 binaries at the paper's
/// function counts.
pub fn bench_scale() -> CorpusScale {
    CorpusScale {
        bin_divisor: 8,
        func_scale: 1.0,
    }
}

/// SplitMix64 finalizer: decorrelates a workload seed from the corpus's
/// per-binary seeds and from each sampling stream.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream ids for [`mix`], so each sampler draws independent numbers.
pub const STREAM_ORDER: u64 = 1;
pub const STREAM_POOL: u64 = 2;
const STREAM_RANKS: u64 = 3;

/// FNV-1a over bytes (content identity for dedup and reply checks).
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The synthesized corpus and each binary's ELF image.
pub struct Corpus {
    pub cases: Vec<TestCase>,
    pub elves: Vec<Vec<u8>>,
}

impl Corpus {
    /// Synthesizes the corpus, reseeding every binary from `seed`.
    /// Single-threaded, so set-up time does not depend on core count.
    pub fn build(seed: u64) -> Corpus {
        let cases: Vec<TestCase> = dataset2_configs(&bench_scale())
            .into_iter()
            .map(|mut cfg| {
                cfg.seed = mix(cfg.seed, seed);
                synthesize(&cfg)
            })
            .collect();
        let elves = cases.iter().map(|c| write_elf(&c.binary)).collect();
        Corpus { cases, elves }
    }

    pub fn len(&self) -> usize {
        self.cases.len()
    }

    pub fn bytes(&self) -> usize {
        self.elves.iter().map(Vec::len).sum()
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Endless passes over `0..n`, each pass a fresh seeded permutation:
/// every stretch of ops holds each input at most once more than any
/// other, so the mix does not depend on where a run stops.
pub struct PassOrder {
    rng: StdRng,
    perm: Vec<usize>,
    pos: usize,
}

impl PassOrder {
    pub fn new(n: usize, seed: u64) -> PassOrder {
        PassOrder {
            rng: StdRng::seed_from_u64(mix(seed, STREAM_ORDER)),
            perm: (0..n).collect(),
            pos: n,
        }
    }
}

impl Iterator for PassOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.perm.is_empty() {
            return None;
        }
        if self.pos == self.perm.len() {
            shuffle(&mut self.perm, &mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.perm[self.pos - 1])
    }
}

/// Independent Zipf(`s`) draws over `0..n`. Popularity ranks are one
/// fixed permutation of the corpus positions, not drawn from the seed:
/// each position keeps its program and function count across seeds, so
/// the hot set's request sizes, which set most of a request's cost, do
/// not change with the seed. The seed drives the draws.
pub struct Zipf {
    rng: StdRng,
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut by_rank: Vec<usize> = (0..n).collect();
        shuffle(&mut by_rank, &mut StdRng::seed_from_u64(STREAM_RANKS));
        let rng = StdRng::seed_from_u64(mix(seed, STREAM_ORDER));
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { rng, cdf, by_rank }
    }
}

impl Iterator for Zipf {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let u: f64 = self.rng.gen();
        let rank = self
            .cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1);
        Some(self.by_rank[rank])
    }
}

/// One distinct patched version of a corpus binary: regenerated on
/// demand from `(base, kind, seed)`, sent as the base ELF image with
/// `diff` applied.
#[derive(Debug, Clone)]
pub struct Version {
    pub base: usize,
    pub kind: PatchKind,
    pub seed: u64,
    /// `(offset, byte)` changes against the base ELF image.
    pub diff: Vec<(u32, u8)>,
}

impl Version {
    /// The version's ELF image.
    pub fn elf(&self, corpus: &Corpus) -> Vec<u8> {
        let mut bytes = corpus.elves[self.base].clone();
        for &(off, b) in &self.diff {
            bytes[off as usize] = b;
        }
        bytes
    }

    /// The version's test case (binary and ground truth).
    pub fn case(&self, corpus: &Corpus) -> TestCase {
        let patch = patch_function(&corpus.cases[self.base], self.seed, self.kind)
            .expect("pool versions were generated from this seed");
        TestCase {
            binary: patch.binary,
            truth: patch.truth,
        }
    }
}

/// The `(offset, byte)` changes that turn `old`'s ELF image (`view`)
/// into `new`'s; `None` when a section changed length.
fn section_diff(old: &Binary, new: &Binary, view: &ElfView<'_>) -> Option<Vec<(u32, u8)>> {
    let mut diff = Vec::new();
    for (a, b) in old.sections.iter().zip(&new.sections) {
        if a.bytes[..] == b.bytes[..] {
            continue;
        }
        if a.kind != b.kind || a.bytes.len() != b.bytes.len() {
            return None;
        }
        let at = view.section_range(a.kind)?.start;
        diff.extend(
            a.bytes
                .iter()
                .zip(b.bytes.iter())
                .enumerate()
                .filter(|(_, (x, y))| x != y)
                .map(|(i, (_, y))| ((at + i) as u32, *y)),
        );
    }
    Some(diff)
}

/// The patch kinds a rebuild sends, one third each.
pub const PATCH_KINDS: [PatchKind; 3] =
    [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize];

/// Up to `per_kind` distinct one-function versions of every binary for
/// each patch kind, deduplicated by content (against each other and the
/// originals), in rounds: round `r` holds the `r`-th version of every
/// (binary, kind) pair that has one, in a seeded shuffled order. Each
/// round keeps the pairs' shares, so the op mix is the same wherever a
/// run stops.
pub fn version_pool(corpus: &Corpus, per_kind: usize, seed: u64) -> Vec<Version> {
    let mut seen: HashSet<(usize, Vec<(u32, u8)>)> = HashSet::new();
    let mut pairs: Vec<Vec<Version>> = Vec::new();
    for (base, case) in corpus.cases.iter().enumerate() {
        let view = ElfView::parse(&corpus.elves[base]).expect("corpus ELF parses");
        for kind in PATCH_KINDS {
            let mut versions = Vec::new();
            let mut patch_seed = mix(seed, base as u64 * 4 + kind as u64);
            for _ in 0..per_kind * 4 {
                if versions.len() == per_kind {
                    break;
                }
                patch_seed = patch_seed.wrapping_add(1);
                let Some(patch) = patch_function(case, patch_seed, kind) else {
                    break;
                };
                // A patch rewrites section bytes in place, so the new
                // image is the old one with those bytes changed.
                let Some(diff) = section_diff(&case.binary, &patch.binary, &view) else {
                    continue;
                };
                if diff.is_empty() || !seen.insert((base, diff.clone())) {
                    continue;
                }
                versions.push(Version {
                    base,
                    kind,
                    seed: patch_seed,
                    diff,
                });
            }
            pairs.push(versions);
        }
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, STREAM_POOL));
    let mut pool = Vec::new();
    for round in 0..per_kind {
        let mut open: Vec<&Version> = pairs.iter().filter_map(|v| v.get(round)).collect();
        shuffle(&mut open, &mut rng);
        pool.extend(open.into_iter().cloned());
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_orders() {
        let a: Vec<usize> = PassOrder::new(17, 5).take(100).collect();
        let b: Vec<usize> = PassOrder::new(17, 5).take(100).collect();
        let c: Vec<usize> = PassOrder::new(17, 6).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let z1: Vec<usize> = Zipf::new(50, 1.0, 9).take(500).collect();
        let z2: Vec<usize> = Zipf::new(50, 1.0, 9).take(500).collect();
        assert_eq!(z1, z2);
        assert_ne!(z1, Zipf::new(50, 1.0, 10).take(500).collect::<Vec<_>>());
    }

    #[test]
    fn passes_are_permutations() {
        let order: Vec<usize> = PassOrder::new(13, 1).take(13 * 4).collect();
        for pass in order.chunks(13) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..13).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0, 3);
        let top = z.by_rank[0];
        let tail = z.by_rank[99];
        let draws: Vec<usize> = z.take(20_000).collect();
        let count = |i| draws.iter().filter(|d| **d == i).count();
        assert!(
            count(top) > 10 * count(tail).max(1),
            "{} vs {}",
            count(top),
            count(tail)
        );
    }

    #[test]
    fn same_seed_same_corpus_and_pool() {
        // The full corpus is large; its first two binaries and their
        // versions stand in for the rest (same code path per binary).
        let small = |seed| {
            let full = Corpus::build(seed);
            Corpus {
                cases: full.cases[..2].to_vec(),
                elves: full.elves[..2].to_vec(),
            }
        };
        let (a, b, c) = (small(7), small(7), small(8));
        assert_eq!(a.elves, b.elves);
        assert_ne!(a.elves, c.elves);
        let (pa, pb) = (version_pool(&a, 2, 7), version_pool(&b, 2, 7));
        assert!(!pa.is_empty());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(
                (x.base, x.kind, x.seed, &x.diff),
                (y.base, y.kind, y.seed, &y.diff)
            );
            // The stored diff reproduces the regenerated version.
            assert_eq!(x.elf(&a), write_elf(&x.case(&a).binary));
        }
        let distinct: HashSet<u64> = pa.iter().map(|v| fnv(&v.elf(&a))).collect();
        assert_eq!(distinct.len(), pa.len());
    }
}
