//! Apriori association mining — extension application.
//!
//! §2.2 of the paper names apriori association mining as one of the
//! algorithms whose generalized-reduction structure FREERIDE-G supports;
//! it is not part of the five-application evaluation, so we provide it as
//! an extension exercising the middleware's multi-pass path with a
//! candidate-generation state machine.
//!
//! Pass `p` counts the support of the candidate `p`-itemsets broadcast in
//! the state; the master keeps the frequent ones and joins them into the
//! next generation of candidates. The run ends when no candidates remain
//! or the itemset size limit is reached.
//!
//! Classes: the reduction object is a count vector over candidates —
//! **constant** (parameter-sized); merging `c` of them is
//! **linear-constant**.

use crate::common::{chunk_sizes, physical_elements};
use fg_chunks::{codec, Chunk, Dataset, DatasetBuilder};
use fg_middleware::{ObjSize, PassOutcome, ReductionApp, ReductionObject, WorkMeter};
use fg_sim::rng::stream_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Item alphabet size.
pub const NUM_ITEMS: u32 = 64;
/// Items per transaction (average; the wire format is length-prefixed).
pub const AVG_ITEMS: usize = 8;
/// Bytes per transaction on the wire (length word + items).
pub const BYTES_PER_TXN: usize = (AVG_ITEMS + 1) * 4;
/// Logical chunk size.
const CHUNK_BYTES: u64 = 2_000_000;

/// Generate a transaction dataset with planted frequent patterns: each of
/// `patterns` 3-item sets appears (as a unit) in a fixed fraction of
/// transactions, over a background of uniform noise items.
pub fn generate(
    id: &str,
    nominal_mb: f64,
    scale: f64,
    seed: u64,
    patterns: &[[u32; 3]],
) -> Dataset {
    let total = physical_elements(nominal_mb, scale, BYTES_PER_TXN);
    let mut rng = stream_rng(seed, "apriori-data");
    let per_chunk = (CHUNK_BYTES as f64 * scale / BYTES_PER_TXN as f64).max(1.0) as u64;
    let mut builder = DatasetBuilder::new(id, "transactions", scale);
    for count in chunk_sizes(total, per_chunk, 16) {
        let mut words: Vec<u32> = Vec::with_capacity(count as usize * (AVG_ITEMS + 1));
        for _ in 0..count {
            let mut items: Vec<u32> = Vec::with_capacity(AVG_ITEMS);
            // 40% of transactions contain a planted pattern.
            if !patterns.is_empty() && rng.gen_bool(0.4) {
                items.extend_from_slice(&patterns[rng.gen_range(0..patterns.len())]);
            }
            while items.len() < AVG_ITEMS {
                items.push(rng.gen_range(0..NUM_ITEMS));
            }
            items.sort_unstable();
            items.dedup();
            words.push(items.len() as u32);
            words.extend_from_slice(&items);
        }
        builder.push_chunk(codec::encode_u32s(&words), count, None);
    }
    builder.build()
}

/// Candidate support counts for one pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AprioriObj {
    counts: Vec<u64>,
    transactions: u64,
}

impl ReductionObject for AprioriObj {
    fn merge(&mut self, other: &Self, meter: &mut WorkMeter) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.transactions += other.transactions;
        meter.fixed_flops(self.counts.len() as u64 + 1);
    }

    fn size(&self) -> ObjSize {
        ObjSize { fixed: self.counts.len() as u64 * 8 + 8, data: 0 }
    }
}

/// The broadcast state: current candidates and the frequent sets found so
/// far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AprioriState {
    /// Candidates counted in the next pass (sorted item lists).
    pub candidates: Vec<Vec<u32>>,
    /// Frequent itemsets discovered so far, with supports.
    pub frequent: Vec<(Vec<u32>, u64)>,
    /// Completed passes.
    pub pass: usize,
}

/// The apriori application.
pub struct Apriori {
    /// Minimum support as a fraction of transactions.
    pub min_support: f64,
    /// Largest itemset size mined.
    pub max_size: usize,
}

impl Apriori {
    /// The extension instance: 5% support, up to 3-itemsets.
    pub fn standard() -> Apriori {
        Apriori { min_support: 0.05, max_size: 3 }
    }
}

/// Does sorted `txn` contain sorted `set`?
fn contains_sorted(txn: &[u32], set: &[u32]) -> bool {
    let mut i = 0;
    for item in txn {
        if i == set.len() {
            return true;
        }
        if *item == set[i] {
            i += 1;
        } else if *item > set[i] {
            return false;
        }
    }
    i == set.len()
}

/// Add one to `counts[base + i]` for every `candidates[i]` contained in
/// `txn`. `candidates` is a sorted run of one-size candidates whose first
/// `depth` items are already matched in the transaction; each item of the
/// (strictly increasing) `txn` narrows it by binary search to those whose
/// next item it is. A transaction costs a search per prefix it shares
/// with some candidate, not a merge against every candidate.
fn count_subsets(
    txn: &[u32],
    mut candidates: &[Vec<u32>],
    mut base: usize,
    depth: usize,
    counts: &mut [u64],
) {
    for (j, &item) in txn.iter().enumerate() {
        let lo = candidates.partition_point(|c| c[depth] < item);
        let hi = lo + candidates[lo..].partition_point(|c| c[depth] == item);
        if lo < hi {
            if candidates[lo].len() == depth + 1 {
                counts[base + lo] += 1; // strictly sorted: the only match
            } else {
                count_subsets(&txn[j + 1..], &candidates[lo..hi], base + lo, depth + 1, counts);
            }
        }
        candidates = &candidates[hi..];
        base += hi;
        if candidates.is_empty() {
            return;
        }
    }
}

impl ReductionApp for Apriori {
    type Obj = AprioriObj;
    type State = AprioriState;

    fn name(&self) -> &str {
        "apriori"
    }

    fn initial_state(&self) -> AprioriState {
        AprioriState {
            candidates: (0..NUM_ITEMS).map(|i| vec![i]).collect(),
            frequent: Vec::new(),
            pass: 0,
        }
    }

    fn new_object(&self, state: &AprioriState) -> AprioriObj {
        AprioriObj { counts: vec![0; state.candidates.len()], transactions: 0 }
    }

    fn local_reduce(
        &self,
        state: &AprioriState,
        chunk: &Chunk,
        obj: &mut AprioriObj,
        meter: &mut WorkMeter,
    ) {
        let candidates = &state.candidates;
        debug_assert!(
            candidates.windows(2).all(|w| w[0].len() == w[1].len() && w[0] < w[1]),
            "candidates are one size and strictly sorted (the join emits them so)"
        );
        let candidate_items: u64 = candidates.iter().map(|c| c.len() as u64).sum();
        let words = codec::decode_u32s(&chunk.payload);
        let mut pos = 0usize;
        let mut scans = 0u64;
        while pos < words.len() {
            let len = words[pos] as usize;
            let txn = &words[pos + 1..pos + 1 + len];
            pos += 1 + len;
            debug_assert!(
                txn.windows(2).all(|w| w[0] < w[1]),
                "transactions are sorted and duplicate-free, as `generate` writes them"
            );
            obj.transactions += 1;
            // Metered as the direct scan: every candidate merged against
            // the whole transaction.
            scans += txn.len() as u64 * candidates.len() as u64 + candidate_items;
            count_subsets(txn, candidates, 0, 0, &mut obj.counts);
        }
        meter.data_cmp(scans);
        meter.data_mem(words.len() as u64);
    }

    fn global_finalize(
        &self,
        state: &AprioriState,
        merged: AprioriObj,
        meter: &mut WorkMeter,
    ) -> PassOutcome<AprioriState> {
        let threshold = (self.min_support * merged.transactions as f64).ceil() as u64;
        let mut frequent_now: Vec<(Vec<u32>, u64)> = state
            .candidates
            .iter()
            .zip(merged.counts.iter())
            .filter(|(_, &count)| count >= threshold)
            .map(|(c, &count)| (c.clone(), count))
            .collect();
        meter.fixed_cmp(state.candidates.len() as u64);

        // Join step: combine frequent k-sets sharing a (k-1)-prefix.
        let size = state.pass + 1;
        let mut next: Vec<Vec<u32>> = Vec::new();
        if size < self.max_size {
            for i in 0..frequent_now.len() {
                for j in (i + 1)..frequent_now.len() {
                    let (a, b) = (&frequent_now[i].0, &frequent_now[j].0);
                    if a[..size - 1] == b[..size - 1] && a[size - 1] < b[size - 1] {
                        let mut cand = a.clone();
                        cand.push(b[size - 1]);
                        // Prune: all (k)-subsets must be frequent. For
                        // size <= 3 checking the pair suffix is enough.
                        next.push(cand);
                    }
                }
            }
            meter.fixed_cmp((frequent_now.len() * frequent_now.len()) as u64);
        }

        let mut all = state.frequent.clone();
        all.append(&mut frequent_now);
        let next_state = AprioriState { candidates: next, frequent: all, pass: size };
        if next_state.candidates.is_empty() || size >= self.max_size {
            PassOutcome::Finished(next_state)
        } else {
            PassOutcome::NextPass(next_state)
        }
    }

    fn state_size(&self, state: &AprioriState) -> ObjSize {
        ObjSize {
            fixed: state.candidates.iter().map(|c| c.len() as u64 * 4 + 4).sum::<u64>() + 16,
            data: 0,
        }
    }

    fn caches(&self) -> bool {
        true
    }
}

/// Sequential reference: brute-force support counting.
pub fn reference_support(dataset: &Dataset, set: &[u32]) -> u64 {
    let mut sorted = set.to_vec();
    sorted.sort_unstable();
    let mut count = 0;
    for chunk in &dataset.chunks {
        let words = codec::decode_u32s(&chunk.payload);
        let mut pos = 0usize;
        while pos < words.len() {
            let len = words[pos] as usize;
            let txn = &words[pos + 1..pos + 1 + len];
            pos += 1 + len;
            if contains_sorted(txn, &sorted) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cluster::{ComputeSite, Configuration, Deployment, RepositorySite, Wan};
    use fg_middleware::Executor;

    fn deployment(n: usize, c: usize) -> Deployment {
        Deployment::new(
            RepositorySite::pentium_repository("repo", 8),
            ComputeSite::pentium_myrinet("cs", 16),
            Wan::per_stream(1e6),
            Configuration::new(n, c),
        )
    }

    const PATTERNS: [[u32; 3]; 2] = [[2, 17, 40], [5, 23, 51]];

    #[test]
    fn planted_triples_are_found_frequent() {
        let ds = generate("ap-find", 1.0, 0.01, 91, &PATTERNS);
        let app = Apriori::standard();
        let run = Executor::new(deployment(2, 4)).run(&app, &ds);
        let frequent_triples: Vec<Vec<u32>> = run
            .final_state
            .frequent
            .iter()
            .filter(|(s, _)| s.len() == 3)
            .map(|(s, _)| s.clone())
            .collect();
        for p in &PATTERNS {
            assert!(
                frequent_triples.iter().any(|s| s == &p.to_vec()),
                "planted pattern {:?} not found in {:?}",
                p,
                frequent_triples
            );
        }
    }

    #[test]
    fn supports_match_bruteforce() {
        let ds = generate("ap-ref", 1.0, 0.01, 92, &PATTERNS);
        let app = Apriori::standard();
        let run = Executor::new(deployment(4, 8)).run(&app, &ds);
        for (set, support) in &run.final_state.frequent {
            assert_eq!(*support, reference_support(&ds, set), "support mismatch for {:?}", set);
        }
    }

    #[test]
    fn result_is_configuration_independent() {
        let ds = generate("ap-cfg", 1.0, 0.01, 93, &PATTERNS);
        let app = Apriori::standard();
        let a = Executor::new(deployment(1, 1)).run(&app, &ds).final_state;
        let b = Executor::new(deployment(8, 16)).run(&app, &ds).final_state;
        assert_eq!(a.frequent, b.frequent);
    }

    #[test]
    fn runs_one_pass_per_itemset_size() {
        let ds = generate("ap-pass", 1.0, 0.01, 94, &PATTERNS);
        let app = Apriori::standard();
        let run = Executor::new(deployment(1, 2)).run(&app, &ds);
        assert_eq!(run.report.num_passes(), 3);
        // Passes after the first are served from cache.
        assert!(run.report.passes[1].retrieval.is_zero());
        assert!(run.report.passes[2].retrieval.is_zero());
    }

    #[test]
    fn no_patterns_means_no_frequent_triples_at_high_support() {
        let ds = generate("ap-none", 1.0, 0.01, 95, &[]);
        let app = Apriori { min_support: 0.2, max_size: 3 };
        let run = Executor::new(deployment(1, 1)).run(&app, &ds);
        // Uniform noise items each appear with p ~ 8/64 = 12.5% < 20%.
        assert!(
            run.final_state.frequent.is_empty(),
            "spurious frequent sets: {:?}",
            run.final_state.frequent
        );
    }

    /// `Apriori` with the direct scan kernel: every candidate merged
    /// against every transaction.
    struct VerbatimApriori(Apriori);

    impl ReductionApp for VerbatimApriori {
        type Obj = AprioriObj;
        type State = AprioriState;

        fn name(&self) -> &str {
            self.0.name()
        }

        fn initial_state(&self) -> AprioriState {
            self.0.initial_state()
        }

        fn new_object(&self, state: &AprioriState) -> AprioriObj {
            self.0.new_object(state)
        }

        fn local_reduce(
            &self,
            state: &AprioriState,
            chunk: &Chunk,
            obj: &mut AprioriObj,
            meter: &mut WorkMeter,
        ) {
            let words = codec::decode_u32s(&chunk.payload);
            let mut pos = 0usize;
            let mut scans = 0u64;
            while pos < words.len() {
                let len = words[pos] as usize;
                let txn = &words[pos + 1..pos + 1 + len];
                pos += 1 + len;
                obj.transactions += 1;
                for (ci, cand) in state.candidates.iter().enumerate() {
                    scans += (txn.len() + cand.len()) as u64;
                    if contains_sorted(txn, cand) {
                        obj.counts[ci] += 1;
                    }
                }
            }
            meter.data_cmp(scans);
            meter.data_mem(words.len() as u64);
        }

        fn global_finalize(
            &self,
            state: &AprioriState,
            merged: AprioriObj,
            meter: &mut WorkMeter,
        ) -> PassOutcome<AprioriState> {
            self.0.global_finalize(state, merged, meter)
        }

        fn state_size(&self, state: &AprioriState) -> ObjSize {
            self.0.state_size(state)
        }

        fn caches(&self) -> bool {
            self.0.caches()
        }
    }

    #[test]
    fn subset_lookup_matches_verbatim_scan() {
        // Two planted triples share a pair, so at 5 % support a 4-item
        // candidate reaches the fourth pass.
        let ds = generate("ap-diff", 4.0, 0.01, 97, &[[2, 17, 40], [2, 17, 51], [5, 23, 51]]);
        let mut four_passes = false;
        for min_support in [0.05, 0.2, 1.0] {
            for max_size in [1, 3, 4] {
                for (n, c) in [(1, 1), (4, 8)] {
                    let app = || Apriori { min_support, max_size };
                    let fast = Executor::new(deployment(n, c)).run(&app(), &ds);
                    let verbatim =
                        Executor::new(deployment(n, c)).run(&VerbatimApriori(app()), &ds);
                    let at = format!("support {min_support}, size {max_size}, {n}-{c}");
                    assert_eq!(fast.final_state, verbatim.final_state, "{at}: state");
                    assert_eq!(fast.report, verbatim.report, "{at}: report");
                    four_passes |= fast.report.num_passes() == 4;
                }
            }
        }
        assert!(four_passes, "no configuration counted 4-item candidates");
    }

    #[test]
    fn contains_sorted_semantics() {
        assert!(contains_sorted(&[1, 3, 5, 9], &[3, 9]));
        assert!(!contains_sorted(&[1, 3, 5, 9], &[3, 4]));
        assert!(contains_sorted(&[1, 3], &[]));
        assert!(!contains_sorted(&[], &[1]));
    }

    #[test]
    fn object_size_is_constant_class() {
        let ds = generate("ap-const", 1.0, 0.01, 96, &PATTERNS);
        let app = Apriori::standard();
        let state = app.initial_state();
        let mut obj = app.new_object(&state);
        let mut meter = WorkMeter::new();
        let s0 = obj.size();
        app.local_reduce(&state, &ds.chunks[0], &mut obj, &mut meter);
        app.local_reduce(&state, &ds.chunks[1], &mut obj, &mut meter);
        assert_eq!(obj.size(), s0, "apriori object must not grow with data");
        assert_eq!(obj.size().data, 0);
    }
}
