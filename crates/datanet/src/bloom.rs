//! A Bloom filter, built from scratch (Bloom, CACM 1970 — reference \[6\] of
//! the paper).
//!
//! The ElasticMap stores non-dominant sub-datasets here: ~10 bits per
//! element instead of the ~85 bits a hash-map entry costs (Section III-A).
//! Sizing follows the textbook formulas: for `n` expected items at false
//! positive rate `ε`, `bits = −n·ln ε / ln² 2` and `k = (bits/n)·ln 2`
//! hash functions.
//!
//! ## Layout
//!
//! Rate-sized filters use a **cache-line-blocked** layout (Putze, Sanders &
//! Singler, *Cache-, Hash- and Space-Efficient Bloom Filters*): the first
//! hash picks one 512-bit block (8 words — one cache line) and all `k`
//! probes double-hash *inside* that block, so a negative lookup touches one
//! cache line instead of `k`. The bit budget is rounded **up** to whole
//! blocks, which at our filter sizes (hundreds of tail sub-datasets per
//! ElasticMap) over-provisions enough to absorb the blocking penalty and
//! keep the measured FPR at the design rate.
//!
//! Filters deserialized from pre-blocking stores keep the original flat
//! layout — probes modulo the whole bit array — so their membership
//! answers are bit-for-bit what they were when written.

use crate::wire::{put_var, Reader};
use datanet_dfs::SubDatasetId;
use serde::{DeError, Deserialize, Serialize, Value};

/// Bits per cache-line block: 8 × 64 = one x86/ARM cache line.
const BLOCK_BITS: u64 = 512;

/// Words per cache-line block.
const BLOCK_WORDS: u64 = BLOCK_BITS / 64;

/// A fixed-size Bloom filter over [`SubDatasetId`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BloomFilter {
    bits: Vec<u64>,
    shape: BloomShape,
    items: usize,
}

/// Where a filter's probes land: everything a membership test needs except
/// the words themselves. A filter whose words sit in a shared pool (the
/// [`crate::ElasticMapArray`]'s) keeps its shape beside its span and probes
/// through the same body as a [`BloomFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BloomShape {
    num_bits: u64,
    num_hashes: u32,
    /// Number of 512-bit cache lines; 0 means the legacy flat layout.
    lines: u64,
}

impl BloomShape {
    /// The word/mask of probe `i` for the id hashed to `(h1, h2)`.
    /// Blocked: `h1` selects the cache line (a mask when the line count is
    /// a power of two — the same line as the division, without it), the
    /// in-line offset double-hashes off `h1`'s high bits with the odd
    /// stride `h2` (odd ⇒ coprime with 512 ⇒ all `k ≤ 512` probes
    /// distinct). Flat: the classic Kirsch–Mitzenmacher probe modulo the
    /// whole array.
    #[inline]
    fn probe(self, (h1, h2): (u64, u64), i: u64) -> (usize, u64) {
        let step = i.wrapping_mul(h2);
        let bit = if self.lines == 0 {
            h1.wrapping_add(step) % self.num_bits
        } else {
            let line = if self.lines.is_power_of_two() {
                h1 & (self.lines - 1)
            } else {
                h1 % self.lines
            };
            line * BLOCK_BITS + ((h1 >> 32).wrapping_add(step) & (BLOCK_BITS - 1))
        };
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    /// Whether the id hashed to `hash` ([`BloomFilter::hash_pair`]) *may*
    /// be in the filter of this shape over `words` — the one membership
    /// test.
    #[inline]
    pub(crate) fn contains(self, words: &[u64], hash: (u64, u64)) -> bool {
        (0..u64::from(self.num_hashes)).all(|i| {
            let (word, mask) = self.probe(hash, i);
            words[word] & mask != 0
        })
    }
}

impl BloomFilter {
    /// Build a blocked filter sized for `expected_items` at false-positive
    /// rate `epsilon`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1`.
    pub(crate) fn with_rate(expected_items: usize, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "false positive rate must be in (0,1), got {epsilon}"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let bits = (-n * epsilon.ln() / (ln2 * ln2)).ceil().max(8.0) as u64;
        let k = ((bits as f64 / n) * ln2).round().clamp(1.0, 30.0) as u32;
        let lines = bits.div_ceil(BLOCK_BITS);
        Self {
            bits: vec![0; (lines * BLOCK_WORDS) as usize],
            shape: BloomShape {
                num_bits: lines * BLOCK_BITS,
                num_hashes: k,
                lines,
            },
            items: 0,
        }
    }

    /// Two independent 64-bit hashes of the id (SplitMix64 finalizers with
    /// distinct stream constants), combined by double hashing. A caller
    /// probing one id against many filters hashes it once.
    #[inline]
    pub(crate) fn hash_pair(id: SubDatasetId) -> (u64, u64) {
        #[inline]
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let h1 = mix(id.0.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let h2 = mix(id.0.wrapping_add(0xD1B5_4A32_D192_ED03)) | 1; // odd ⇒ full period
        (h1, h2)
    }

    /// A filter from the parts of one that [`BloomFilter::words`] and
    /// [`BloomFilter::shape`] took apart.
    pub(crate) fn from_parts(bits: Vec<u64>, shape: BloomShape, items: usize) -> Self {
        Self { bits, shape, items }
    }

    /// The bit array's words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Where the filter's probes land.
    pub(crate) fn shape(&self) -> BloomShape {
        self.shape
    }

    /// Insert an id.
    pub fn insert(&mut self, id: SubDatasetId) {
        let hash = Self::hash_pair(id);
        for i in 0..u64::from(self.shape.num_hashes) {
            let (word, mask) = self.shape.probe(hash, i);
            self.bits[word] |= mask;
        }
        self.items += 1;
    }

    /// Whether the id *may* be present. False positives possible, false
    /// negatives impossible.
    pub fn contains(&self, id: SubDatasetId) -> bool {
        self.shape.contains(&self.bits, Self::hash_pair(id))
    }

    /// Number of insert calls so far (an upper bound on distinct items).
    pub fn items(&self) -> usize {
        self.items
    }
}

// Hand-written serde: the `blocks` field was added by the blocked-layout
// rework, and a filter written before it must keep answering with flat
// probing — a missing field means `blocks: 0`, never a decode error. (The
// vendored serde derive has no `#[serde(default)]`.)
impl Serialize for BloomFilter {
    fn to_value(&self) -> Value {
        self.shape.filter_value(&self.bits, self.items)
    }
}

impl BloomShape {
    /// The serialized form of the filter of this shape over `words` after
    /// `items` inserts: a [`BloomFilter`]'s, or one whose words sit in the
    /// array's pool.
    pub(crate) fn filter_value(self, words: &[u64], items: usize) -> Value {
        Value::Object(vec![
            ("bits".to_string(), words.to_value()),
            ("num_bits".to_string(), Value::U64(self.num_bits)),
            (
                "num_hashes".to_string(),
                Value::U64(u64::from(self.num_hashes)),
            ),
            ("items".to_string(), Value::U64(items as u64)),
            ("blocks".to_string(), Value::U64(self.lines)),
        ])
    }
}

impl Deserialize for BloomFilter {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("bloom filter object", v));
        }
        let field = |name: &str| -> Result<&Value, DeError> {
            v.get(name)
                .ok_or_else(|| DeError::msg(format!("bloom filter missing field `{name}`")))
        };
        let lines = match v.get("blocks") {
            None | Some(Value::Null) => 0,
            Some(b) => u64::from_value(b)?,
        };
        let filter = Self {
            bits: Vec::<u64>::from_value(field("bits")?)?,
            shape: BloomShape {
                num_bits: u64::from_value(field("num_bits")?)?,
                num_hashes: u32::from_value(field("num_hashes")?)?,
                lines,
            },
            items: usize::from_value(field("items")?)?,
        };
        filter.check_shape().map_err(DeError::msg)?;
        Ok(filter)
    }
}

impl BloomFilter {
    /// What [`BloomShape::probe`] relies on, checked by every decoder: a
    /// filter built here has it by construction, one read from bytes this
    /// build did not write may not. At least one bit and one hash, and
    /// every probe index inside `bits` — flat probes reach `num_bits`,
    /// blocked ones `lines` whole cache lines.
    fn check_shape(&self) -> Result<(), String> {
        let BloomShape {
            num_bits,
            num_hashes,
            lines,
        } = self.shape;
        let words = self.bits.len() as u64;
        let in_range = if lines == 0 {
            words.saturating_mul(64) >= num_bits
        } else {
            words >= lines.saturating_mul(BLOCK_WORDS)
                && lines.checked_mul(BLOCK_BITS) == Some(num_bits)
        };
        if num_bits >= 1 && num_hashes >= 1 && in_range {
            return Ok(());
        }
        Err(format!(
            "bloom filter shape cannot be probed: {words} words for {num_bits} bits, {num_hashes} hashes, {lines} blocks"
        ))
    }

    /// Append the binary form (see [`crate::store`]'s layout table).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_var(out, self.shape.num_bits);
        put_var(out, u64::from(self.shape.num_hashes));
        put_var(out, self.items as u64);
        put_var(out, self.shape.lines);
        put_var(out, self.bits.len() as u64);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decode what [`BloomFilter::encode`] wrote.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let (num_bits, num_hashes, items, lines) = (r.var()?, r.var()?, r.var()?, r.var()?);
        let words = r.count(8)?;
        let filter = Self {
            bits: (r.take(words * 8)?.chunks_exact(8))
                .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of eight")))
                .collect(),
            shape: BloomShape {
                num_bits,
                num_hashes,
                lines,
            },
            items,
        };
        filter.check_shape()?;
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A flat-layout filter of `num_bits` bits and `num_hashes` probes, as
    /// a store written before the blocked layout holds one.
    fn flat(num_bits: u64, num_hashes: u32) -> BloomFilter {
        let shape = BloomShape {
            num_bits,
            num_hashes,
            lines: 0,
        };
        BloomFilter::from_parts(vec![0; num_bits.div_ceil(64) as usize], shape, 0)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_rate(1000, 0.01);
        for i in 0..1000 {
            f.insert(SubDatasetId(i * 17));
        }
        for i in 0..1000 {
            assert!(f.contains(SubDatasetId(i * 17)), "lost id {}", i * 17);
        }
    }

    #[test]
    fn false_positive_rate_near_design_point() {
        let n = 10_000;
        let eps = 0.01;
        let mut f = BloomFilter::with_rate(n, eps);
        for i in 0..n as u64 {
            f.insert(SubDatasetId(i));
        }
        // Probe ids disjoint from the inserted range.
        let probes = 100_000u64;
        let fp = (0..probes)
            .filter(|i| f.contains(SubDatasetId(1_000_000 + i)))
            .count();
        let rate = fp as f64 / probes as f64;
        assert!(
            rate < eps * 3.0,
            "observed FPR {rate} way above design {eps}"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_rate(100, 0.01);
        for i in 0..1000 {
            assert!(!f.contains(SubDatasetId(i)));
        }
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn paper_memory_claim_ten_bits_per_item() {
        // Section III-A: "using a bloom filter will cost 10 bits" per
        // sub-dataset (vs 85 in a hash map) — that corresponds to ε ≈ 1%.
        // The whole-block round-up stays inside the same budget.
        let f = BloomFilter::with_rate(10_000, 0.01);
        let bits_per_item = f.shape.num_bits as f64 / 10_000.0;
        assert!(
            (9.0..11.0).contains(&bits_per_item),
            "got {bits_per_item} bits/item"
        );
    }

    #[test]
    fn rate_sized_filters_are_cache_line_blocked() {
        let f = BloomFilter::with_rate(10_000, 0.01);
        assert!(f.shape.lines > 0);
        assert_eq!(f.shape.num_bits, f.shape.lines * 512);
        assert_eq!(f.words().len() as u64, f.shape.lines * 8);
        // Explicit-parameter filters keep the flat layout.
        assert_eq!(flat(64, 3).shape.lines, 0);
    }

    #[test]
    fn fill_ratio_near_half_at_capacity() {
        let n = 5_000;
        let mut f = BloomFilter::with_rate(n, 0.01);
        for i in 0..n as u64 {
            f.insert(SubDatasetId(i));
        }
        let set: u64 = f.words().iter().map(|w| w.count_ones() as u64).sum();
        let r = set as f64 / f.shape.num_bits as f64;
        assert!((0.4..0.6).contains(&r), "fill ratio {r} not near 0.5");
    }

    #[test]
    fn tiny_filter_still_works() {
        let mut f = flat(8, 1);
        f.insert(SubDatasetId(1));
        assert!(f.contains(SubDatasetId(1)));
    }

    #[test]
    fn serde_roundtrip() {
        let mut f = BloomFilter::with_rate(100, 0.05);
        for i in 0..100 {
            f.insert(SubDatasetId(i));
        }
        let json = serde_json::to_string(&f).unwrap();
        let g: BloomFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn pre_blocking_serialization_decodes_as_flat_layout() {
        // A filter written before the `blocks` field existed: must load and
        // answer with the original flat probe sequence.
        let mut flat = flat(1024, 5);
        for i in 0..64u64 {
            flat.insert(SubDatasetId(i * 3));
        }
        let legacy_json = format!(
            "{{\"bits\":{},\"num_bits\":1024,\"num_hashes\":5,\"items\":64}}",
            serde_json::to_string(&flat.bits).unwrap()
        );
        let g: BloomFilter = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(g.shape.lines, 0);
        for i in 0..200u64 {
            assert_eq!(g.contains(SubDatasetId(i)), flat.contains(SubDatasetId(i)));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_rate() {
        BloomFilter::with_rate(10, 1.5);
    }

    // Property tests for the cache-line-blocked layout: it trades one
    // cache miss per probe for a slightly less uniform bit spread, and these
    // pin down how much accuracy that may cost — the measured
    // false-positive rate stays within 2× of the design rate across sizes
    // and seeds, and membership is insensitive to insert order.

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x >> 12;
        *x ^= *x << 25;
        *x ^= *x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Distinct member ids derived from `seed`, disjoint by construction from
    /// the probe range used below.
    fn members(n: usize, seed: u64) -> Vec<SubDatasetId> {
        // Even ids are members, odd ids are probes: never a false "false
        // positive" caused by accidentally probing a member.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut out = std::collections::BTreeSet::new();
        while out.len() < n {
            out.insert(xorshift(&mut x) & !1);
        }
        out.into_iter().map(SubDatasetId).collect()
    }

    #[test]
    fn measured_fpr_stays_within_2x_of_design_rate() {
        // (expected items, design rate, seed) across two orders of magnitude.
        let cases = [
            (64usize, 0.01f64, 1u64),
            (256, 0.01, 2),
            (512, 0.02, 3),
            (1024, 0.01, 4),
            (4096, 0.05, 5),
            (16384, 0.01, 6),
        ];
        for (n, rate, seed) in cases {
            let mut bloom = BloomFilter::with_rate(n, rate);
            for &id in &members(n, seed) {
                bloom.insert(id);
            }
            let probes = 200_000u64;
            let mut x = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
            let mut false_positives = 0u64;
            for _ in 0..probes {
                let probe = xorshift(&mut x) | 1; // odd: never a member
                if bloom.contains(SubDatasetId(probe)) {
                    false_positives += 1;
                }
            }
            let measured = false_positives as f64 / probes as f64;
            assert!(
                measured <= 2.0 * rate,
                "n={n} rate={rate}: measured FPR {measured:.4} above 2x design rate"
            );
        }
    }

    #[test]
    fn members_are_never_reported_absent() {
        for (n, rate, seed) in [(256usize, 0.01f64, 10u64), (4096, 0.02, 11)] {
            let ids = members(n, seed);
            let mut bloom = BloomFilter::with_rate(n, rate);
            for &id in &ids {
                bloom.insert(id);
            }
            for &id in &ids {
                assert!(bloom.contains(id), "member {id} reported absent");
            }
        }
    }

    #[test]
    fn membership_is_stable_across_rebuilds_in_any_insert_order() {
        for (n, rate, seed) in [(512usize, 0.01f64, 20u64), (2048, 0.02, 21)] {
            let ids = members(n, seed);
            let mut forward = BloomFilter::with_rate(n, rate);
            for &id in &ids {
                forward.insert(id);
            }
            // Reverse order, and a deterministic shuffle.
            let mut backward = BloomFilter::with_rate(n, rate);
            for &id in ids.iter().rev() {
                backward.insert(id);
            }
            let mut shuffled = ids.clone();
            let mut x = seed | 1;
            for i in (1..shuffled.len()).rev() {
                let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let mut scrambled = BloomFilter::with_rate(n, rate);
            for &id in &shuffled {
                scrambled.insert(id);
            }
            // Idempotent OR writes: the filters are *equal*, not merely
            // answer-equivalent, so every future probe agrees too.
            assert_eq!(forward, backward, "n={n}: insert order changed the bits");
            assert_eq!(forward, scrambled, "n={n}: shuffle changed the bits");
        }
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x1000 + case);
            let len = rng.gen_range(1..500);
            let ids: std::collections::HashSet<u64> = (0..len).map(|_| rng.gen::<u64>()).collect();
            let mut f = BloomFilter::with_rate(ids.len(), 0.01);
            for &id in &ids {
                f.insert(SubDatasetId(id));
            }
            for &id in &ids {
                assert!(f.contains(SubDatasetId(id)), "case {case}: lost {id}");
            }
        }
    }
}
