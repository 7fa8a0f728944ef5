//! Top-K Search — "finding K sequences with the most similarity to a given
//! sequence. This algorithm needs heavy computation due to the similarity
//! comparison between sequences."

use crate::jobs::RecordJob;
use crate::profiles::top_k_profile;
use datanet_dfs::Record;
use datanet_mapreduce::JobProfile;

/// Finds the records whose token sequences are most similar to a query
/// sequence. Similarity is normalised longest-common-subsequence length;
/// the engine prices the job through [`top_k_profile`].
#[derive(Debug, Clone)]
pub struct TopKSearch {
    /// The query sequence.
    pub query: Vec<u32>,
    /// Token alphabet size used when materialising record sequences.
    pub alphabet: u32,
    /// Sequence length per record.
    pub seq_len: usize,
    /// Similarity quantisation for the intermediate key space.
    pub buckets: u64,
}

impl Default for TopKSearch {
    fn default() -> Self {
        Self {
            query: (0..64).map(|i| i % 4).collect(),
            alphabet: 4,
            seq_len: 64,
            buckets: 1000,
        }
    }
}

impl TopKSearch {
    /// Normalised LCS similarity in `[0, 1]` between two sequences. The
    /// LCS length is computed bit-parallel, O(|a|·⌈|b|/64⌉); simulated
    /// time does not depend on it, the engine prices the job through
    /// [`top_k_profile`].
    pub fn similarity(a: &[u32], b: &[u32]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        lcs_len(a, b) as f64 / a.len().max(b.len()) as f64
    }

    /// Similarity of one record to the query.
    pub fn record_similarity(&self, record: &Record) -> f64 {
        let seq = record.payload().sequence(self.seq_len, self.alphabet);
        Self::similarity(&seq, &self.query)
    }
}

/// LCS length of `a` and `b`, bit-parallel (Allison–Dix, in Hyyrö's form).
/// `v` has one bit per position of `b`, 0 where the DP row for the prefix
/// of `a` read so far steps up. Per symbol of `a` with match mask `m`:
/// `u = v & m; v = (v + u) | (v & !m)`, only the add carrying across words.
/// Pad bits above |b| start at 1 and stay 1, so `v`'s zeros are the LCS.
fn lcs_len(a: &[u32], b: &[u32]) -> u32 {
    let words = b.len().div_ceil(64);
    // Masks in first-appearance order; `(symbol, offset of its mask)` sorted.
    let mut masks: Vec<u64> = Vec::new();
    let mut index: Vec<(u32, usize)> = Vec::new();
    for (j, &y) in b.iter().enumerate() {
        let at = match index.binary_search_by_key(&y, |&(s, _)| s) {
            Ok(i) => index[i].1,
            Err(i) => {
                index.insert(i, (y, masks.len()));
                masks.resize(masks.len() + words, 0);
                masks.len() - words
            }
        };
        masks[at + j / 64] |= 1 << (j % 64);
    }
    let mut v = vec![u64::MAX; words];
    for x in a {
        let Ok(i) = index.binary_search_by_key(x, |&(s, _)| s) else {
            continue;
        };
        let at = index[i].1;
        let mut carry = false;
        for (w, &m) in v.iter_mut().zip(&masks[at..at + words]) {
            let (sum, c1) = w.overflowing_add(*w & m);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *w = sum | (*w & !m);
        }
    }
    v.iter().map(|w| w.count_zeros()).sum()
}

impl RecordJob for TopKSearch {
    fn name(&self) -> &str {
        "TopKSearch"
    }

    fn profile(&self) -> JobProfile {
        top_k_profile()
    }

    /// Emits `(quantised similarity, 1)`: the reduce side then reads off
    /// the highest non-empty buckets to recover the top-K set.
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u64, f64)) {
        let sim = self.record_similarity(record);
        let bucket = (sim * (self.buckets - 1) as f64).round() as u64;
        emit(bucket, 1.0);
    }

    fn reduce(&self, _key: u64, values: &[f64]) -> f64 {
        values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::testutil::records;

    /// The two-row O(|a|·|b|) dynamic program the bit-parallel kernel
    /// replaced, kept as its reference.
    fn similarity_dp(a: &[u32], b: &[u32]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let mut prev = vec![0u32; b.len() + 1];
        let mut curr = vec![0u32; b.len() + 1];
        for &x in a {
            for (j, &y) in b.iter().enumerate() {
                curr[j + 1] = if x == y {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(curr[j])
                };
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[b.len()] as f64 / a.len().max(b.len()) as f64
    }

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` symbols drawn from `0..alphabet`, except that above an
    /// alphabet of two the largest is written `u32::MAX`.
    fn seq(x: &mut u64, len: usize, alphabet: u32) -> Vec<u32> {
        (0..len)
            .map(|_| match (splitmix(x) % u64::from(alphabet)) as u32 {
                s if s + 1 == alphabet && alphabet > 2 => u32::MAX,
                s => s,
            })
            .collect()
    }

    /// Over alphabets 1–9 and lengths 0–200 (every 64-bit word boundary
    /// up to 193 among them), `a` drawing from the same alphabet as `b` or
    /// from two symbols more, which `b` never holds (`u32::MAX` then sits
    /// on both sides or on `a`'s alone); plus the default job's shape.
    #[test]
    fn bit_parallel_kernel_equals_the_dp() {
        let x = &mut 0x5EED_u64;
        let check = |a: &[u32], b: &[u32]| {
            assert_eq!(
                TopKSearch::similarity(a, b).to_bits(),
                similarity_dp(a, b).to_bits(),
                "|a| = {}, |b| = {}",
                a.len(),
                b.len()
            );
        };
        let edges = [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200];
        let mut cases = 0;
        for alphabet in 1..=9u32 {
            for &lb in &edges {
                for la in [0, 1, 7, 64, 65, 129, 200] {
                    check(&seq(x, la, alphabet + 2), &seq(x, lb, alphabet));
                    cases += 1;
                }
            }
            for _ in 0..40 {
                let la = (splitmix(x) % 201) as usize;
                let lb = (splitmix(x) % 201) as usize;
                check(&seq(x, la, alphabet), &seq(x, lb, alphabet));
                check(&seq(x, la, alphabet + 2), &seq(x, lb, alphabet));
                cases += 2;
            }
        }
        let job = TopKSearch::default();
        for r in &records(200) {
            let s = r.payload().sequence(job.seq_len, job.alphabet);
            check(&s, &job.query);
            check(&job.query, &s);
            cases += 2;
        }
        // Equal sequences, and one side a subsequence of the other, across
        // a word boundary.
        let long = seq(x, 129, 5);
        check(&long, &long);
        check(&long[..64], &long);
        check(&long, &long[1..65]);
        assert!(cases > 1_500);
    }

    #[test]
    fn lcs_identities() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(TopKSearch::similarity(&a, &a), 1.0);
        assert_eq!(TopKSearch::similarity(&a, &[5, 6, 7, 8]), 0.0);
        assert_eq!(TopKSearch::similarity(&a, &[]), 0.0);
        // "1 3" is a subsequence of a: LCS=2, normalised by max(4,2)=4.
        assert_eq!(TopKSearch::similarity(&a, &[1, 3]), 0.5);
    }

    #[test]
    fn lcs_is_symmetric() {
        let a = [1u32, 2, 1, 3, 2];
        let b = [2u32, 1, 2, 2, 3];
        assert_eq!(
            TopKSearch::similarity(&a, &b),
            TopKSearch::similarity(&b, &a)
        );
    }

    #[test]
    fn similarities_bounded() {
        let job = TopKSearch::default();
        for r in &records(30) {
            let s = job.record_similarity(r);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn map_emits_one_bucket_per_record() {
        let job = TopKSearch::default();
        let mut n = 0;
        for r in &records(20) {
            job.map(r, &mut |k, v| {
                assert!(k < job.buckets);
                assert_eq!(v, 1.0);
                n += 1;
            });
        }
        assert_eq!(n, 20);
    }

    #[test]
    fn random_sequences_over_small_alphabet_are_somewhat_similar() {
        // With alphabet 4 and length 64, random LCS similarity concentrates
        // well above 0 — sanity check that the compute actually discriminates.
        let job = TopKSearch::default();
        let sims: Vec<f64> = records(50)
            .iter()
            .map(|r| job.record_similarity(r))
            .collect();
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(mean > 0.3 && mean < 0.95, "mean similarity {mean}");
        // Not all identical.
        assert!(sims.iter().any(|&s| (s - mean).abs() > 1e-3));
    }
}
