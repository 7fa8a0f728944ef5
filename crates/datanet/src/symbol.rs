//! Interned sub-dataset symbols and the fast integer hasher used on the
//! metadata hot path.
//!
//! Sub-dataset identifiers arrive as sparse 64-bit values ([`SubDatasetId`]
//! wraps whatever the workload generator hands out — movie ids, event-type
//! codes, URL hashes). The scan/build/query path touches them millions of
//! times, and Rust's default `HashMap` runs every touch through SipHash-1-3,
//! a keyed hash whose DoS resistance buys nothing here: the ids come from
//! our own storage layer, not an adversary. Two fixes, composed:
//!
//! * [`FxHasher64`] — the Firefox/rustc multiply-rotate hash (a single
//!   multiply per word instead of SipHash's rounds). [`FastMap`] is a
//!   drop-in `HashMap` alias using it.
//! * [`SymbolTable`] — interns the sparse ids into dense `u32` [`Sym`]s in
//!   deterministic first-appearance order, so planner-side structures can
//!   index arrays instead of hashing at all.

use datanet_dfs::SubDatasetId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash: the rustc/Firefox hash. One `wrapping_mul` + rotate per 8 bytes;
/// ~10× cheaper than SipHash on integer keys and plenty well-distributed
/// for non-adversarial ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

/// The Fx multiplier: 2^64 / φ, an odd constant that spreads consecutive
/// integers across the whole word.
const FX_SEED: u64 = 0x517C_C1B7_2722_0A95;

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed by the fast integer hash — the hot-path replacement
/// for `std::collections::HashMap`'s SipHash default.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A dense interned handle for one sub-dataset: an index into the
/// [`SymbolTable`] that assigned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// Bidirectional intern table: sparse [`SubDatasetId`] ⇄ dense [`Sym`].
///
/// Symbols are assigned in **first-appearance order**, so two builds that
/// present the same ids in the same order produce identical tables. The
/// ElasticMap array interns only in `push`, in block order, so its table is
/// the same whether the maps came from a scan, a decoded store or an
/// ingest seal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolTable {
    /// `ids[sym.0]` — symbol to id.
    ids: Vec<SubDatasetId>,
    /// Id to symbol.
    index: FastMap<SubDatasetId, Sym>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Intern `id`, returning its (new or existing) symbol.
    ///
    /// # Panics
    /// Panics beyond `u32::MAX` distinct ids.
    pub fn intern(&mut self, id: SubDatasetId) -> Sym {
        if let Some(&sym) = self.index.get(&id) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.ids.len()).expect("more than u32::MAX sub-datasets"));
        self.ids.push(id);
        self.index.insert(id, sym);
        sym
    }

    /// The symbol of an already-interned id.
    pub fn lookup(&self, id: SubDatasetId) -> Option<Sym> {
        self.index.get(&id).copied()
    }

    /// All interned ids in symbol order.
    pub fn ids(&self) -> &[SubDatasetId] {
        &self.ids
    }

    /// Approximate heap footprint: the id vector plus the index entries.
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * (std::mem::size_of::<SubDatasetId>() + 12)
    }
}

// The table is fully determined by the id list (symbols are positions), so
// it serializes as a bare array and rebuilds the index on the way in.
impl Serialize for SymbolTable {
    fn to_value(&self) -> Value {
        Value::Array(self.ids.iter().map(|id| Value::U64(id.0)).collect())
    }
}

impl Deserialize for SymbolTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let raw = Vec::<u64>::from_value(v)?;
        let mut table = Self::new();
        for id in raw {
            table.intern(SubDatasetId(id));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern(SubDatasetId(1_000_000));
        let b = t.intern(SubDatasetId(7));
        let a2 = t.intern(SubDatasetId(1_000_000));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1), "symbols are dense, first-appearance");
        assert_eq!(t.len(), 2);
        assert_eq!(t.ids()[a.0 as usize], SubDatasetId(1_000_000));
        assert_eq!(t.lookup(SubDatasetId(7)), Some(b));
        assert_eq!(t.lookup(SubDatasetId(8)), None);
    }

    #[test]
    fn first_appearance_order_is_deterministic() {
        let ids = [5u64, 3, 5, 99, 3, 0];
        let mut t1 = SymbolTable::new();
        let mut t2 = SymbolTable::new();
        for &i in &ids {
            t1.intern(SubDatasetId(i));
        }
        for &i in &ids {
            t2.intern(SubDatasetId(i));
        }
        assert_eq!(t1, t2);
        assert_eq!(
            t1.ids(),
            &[
                SubDatasetId(5),
                SubDatasetId(3),
                SubDatasetId(99),
                SubDatasetId(0)
            ]
        );
    }

    #[test]
    fn serde_roundtrip_preserves_symbols() {
        let mut t = SymbolTable::new();
        for i in [9u64, 2, 77, 2, 13] {
            t.intern(SubDatasetId(i));
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: SymbolTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.lookup(SubDatasetId(77)), Some(Sym(2)));
    }

    #[test]
    fn fast_hasher_distributes_and_agrees_with_itself() {
        // Same key, same hash; different keys, (almost certainly) different
        // buckets — a smoke test, not a statistical claim.
        let mut m: FastMap<SubDatasetId, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(SubDatasetId(i * 0x9E37_79B9), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&SubDatasetId(i * 0x9E37_79B9)), Some(&i));
        }
    }
}
