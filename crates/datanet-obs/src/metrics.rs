//! Windowed metrics registry — the always-on monitoring plane.
//!
//! Where the trace buffer keeps *every event* (opt-in, unbounded), the
//! metrics registry keeps *aggregates*: named counters, gauges and
//! Fibonacci histograms, each additionally bucketed into fixed
//! simulated-clock windows so rates and per-window percentiles fall out
//! of a snapshot.
//!
//! # Determinism contract
//!
//! A snapshot must be identical for identical seeds, however long the
//! host took over any step. The registry therefore aggregates by clock
//! domain:
//!
//! * **Sim-clock** events carry deterministic timestamps and durations —
//!   they feed windowed counters, windowed duration histograms and
//!   windowed gauges.
//! * **Wall-clock** events have nondeterministic timestamps — they feed
//!   *count-only* series (how many shard loads, how many scan spans),
//!   never durations and never windows.
//!
//! A snapshot presents every series under its canonical label string in
//! a `BTreeMap`, so snapshot ordering is stable by construction.
//!
//! # Hot-path layout
//!
//! "Always on" only works if metering a span costs nanoseconds, so the
//! registry never touches a string on a warm path. Names and tenants are
//! interned to `u32` symbols once; each distinct
//! `(name, cat, domain, node, query, tenant)` combination resolves
//! through an FxHash cache to integer series ids **once**, paying the
//! canonical-key formatting at that moment only. In front of those maps
//! sit small direct-mapped caches indexed by the caller's string
//! *pointer* (instrumented names are literals) and verified by content,
//! so a warm event does not even hash: it is a slot probe, a memcmp of a
//! short name, and `Vec`-indexed bumps. Metrics-only spans resolve their
//! series at `begin` and park them in a generation-tagged slab, making
//! `end` a slab read plus the bumps. Per-window storage is a sorted
//! vector with an O(1) fast path for the common case of time moving
//! forward. The whole registry sits behind one `std::sync::Mutex`, like
//! the trace and flight planes: measured against the spinlock it
//! replaced, the lock is not what a metered event costs — the front
//! caches are (DESIGN.md §16).

use crate::hist::FibHistogram;
use crate::recorder::{Category, Domain, SpanCtx};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Canonical series key: `name{k1="v1",k2="v2"}` with labels sorted by
/// key (empty label set → bare name). This is exactly the OpenMetrics
/// sample syntax, so the exporter can emit keys verbatim.
pub fn series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::with_capacity(name.len() + 2 + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Escape the label value per the OpenMetrics text format.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Split a canonical series key back into `(name, labels)`.
pub fn split_series(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    }
}

/// Multiply-xor hasher (the rustc-hash construction). Series resolution
/// sits on the span hot path, where SipHash's per-byte cost is the
/// single largest term; none of these maps are exposed to untrusted
/// keys, so DoS resistance buys nothing here.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" and "ab\0" differ.
            self.word(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Per-window values of one series, sorted by window start. Events
/// mostly arrive with non-decreasing timestamps, so the last entry is an
/// O(1) hit and out-of-order windows fall back to a binary insert.
#[derive(Debug, Clone)]
struct WindowSeries<T> {
    entries: Vec<(u64, T)>,
}

impl<T: Default> WindowSeries<T> {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    fn slot(&mut self, w: u64) -> &mut T {
        let n = self.entries.len();
        if n > 0 {
            let last = self.entries[n - 1].0;
            if last == w {
                return &mut self.entries[n - 1].1;
            }
            if w < last {
                return match self.entries.binary_search_by_key(&w, |e| e.0) {
                    Ok(i) => &mut self.entries[i].1,
                    Err(i) => {
                        self.entries.insert(i, (w, T::default()));
                        &mut self.entries[i].1
                    }
                };
            }
        }
        self.entries.push((w, T::default()));
        &mut self.entries.last_mut().expect("just pushed").1
    }
}

/// Merge two window lists sorted by window start, summing values of
/// windows present in both.
fn merge_windows(a: Vec<(u64, u64)>, b: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sentinel for "no interned symbol" in the direct-mapped caches.
const NONE_SYM: u32 = u32::MAX;
/// Slot counts of the direct-mapped caches (powers of two).
const OP_SLOTS: usize = 128;
// Span shapes multiply per node (each `(name, node)` pair resolves its
// own busy series), so the span cache needs room for dozens of nodes
// times a handful of span names before collision pairs start evicting
// each other every event.
const SPAN_SLOTS: usize = 512;

/// One line of the direct-mapped counter/histogram cache. Instrumented
/// call sites pass `&'static str` names, so the string *pointer* indexes
/// a slot and the content check below confirms the hit — a warm event
/// skips both the interner and the scoped-id hash probes entirely. A
/// collision merely evicts the line; correctness comes from the verify.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    live: bool,
    name_sym: u32,
    tenant_sym: u32,
    query: Option<u64>,
    id: u32,
}

impl CacheSlot {
    const EMPTY: CacheSlot = CacheSlot {
        live: false,
        name_sym: 0,
        tenant_sym: NONE_SYM,
        query: None,
        id: 0,
    };
}

/// One line of the direct-mapped span-shape cache: the full shape checked
/// on hit, the resolved series ids as payload.
#[derive(Debug, Clone, Copy)]
struct SpanSlot {
    live: bool,
    name_sym: u32,
    tenant_sym: u32,
    query: Option<u64>,
    cat: Category,
    domain: Domain,
    node: Option<u64>,
    series: SpanSeries,
}

impl SpanSlot {
    const EMPTY: SpanSlot = SpanSlot {
        live: false,
        name_sym: 0,
        tenant_sym: NONE_SYM,
        query: None,
        cat: Category::Task,
        domain: Domain::Sim,
        node: None,
        series: SpanSeries {
            spans: 0,
            dur: None,
            busy: None,
        },
    };
}

/// A metrics-only open span in the slab: series ids are resolved at
/// `open_span` time (every label is known then), so closing is a slab
/// read plus `Vec`-indexed bumps. The generation tag makes a stale
/// handle to a reused slot panic instead of metering the wrong span.
#[derive(Debug, Clone, Copy)]
struct OpenSlot {
    live: bool,
    gen: u32,
    cat: Category,
    domain: Domain,
    start_us: u64,
    node: Option<u64>,
    query: Option<u64>,
    name_sym: u32,
    tenant_sym: u32,
    series: SpanSeries,
}

impl OpenSlot {
    const DEAD: OpenSlot = OpenSlot {
        live: false,
        gen: 0,
        cat: Category::Task,
        domain: Domain::Sim,
        start_us: 0,
        node: None,
        query: None,
        name_sym: 0,
        tenant_sym: NONE_SYM,
        series: SpanSeries {
            spans: 0,
            dur: None,
            busy: None,
        },
    };
}

/// What the recorder needs to forward a flight-worthy span close
/// (checkpoint commit) into the flight ring.
pub(crate) struct SpanFlight {
    pub domain: Domain,
    pub node: Option<u64>,
    pub query: Option<u64>,
    pub tenant: Option<String>,
    pub detail: String,
}

/// Cache key for one distinct span shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpanKey {
    name: u32,
    cat: Category,
    domain: Domain,
    /// Only set when the node labels a series (sim-clock task spans).
    node: Option<u64>,
    query: Option<u64>,
    tenant: Option<u32>,
}

/// Resolved series ids for one span shape.
#[derive(Debug, Clone, Copy)]
struct SpanSeries {
    /// `spans{...}` counter id.
    spans: u32,
    /// `span_us{...}` histogram id (sim spans only).
    dur: Option<u32>,
    /// `node_busy_us{node=...}` counter id (sim task spans on a node).
    busy: Option<u32>,
}

/// Cache key for one distinct instant shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InstantKey {
    name: u32,
    cat: Category,
    query: Option<u64>,
    tenant: Option<u32>,
}

/// Cache key for a bare counter/histogram/gauge name under a query scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScopeKey {
    name: u32,
    query: Option<u64>,
    tenant: Option<u32>,
}

/// Per-kind series ids of one scoped name, filled lazily per kind.
#[derive(Debug, Clone, Copy, Default)]
struct ScopedIds {
    counter: Option<u32>,
    hist: Option<u32>,
    gauge: Option<u32>,
}

/// The live registry behind [`crate::Recorder`]'s metrics handle.
#[derive(Debug, Clone)]
pub(crate) struct MetricsData {
    /// Window width in simulated microseconds.
    pub window_us: u64,
    /// Interned names and tenants, symbol → string.
    names: Vec<String>,
    name_ids: FxMap<String, u32>,
    /// Counter plane: canonical key, cumulative value and windows per id.
    counter_keys: Vec<String>,
    counter_ids: FxMap<String, u32>,
    counter_vals: Vec<u64>,
    counter_wins: Vec<WindowSeries<u64>>,
    /// Histogram plane.
    hist_keys: Vec<String>,
    hist_ids: FxMap<String, u32>,
    hist_vals: Vec<FibHistogram>,
    hist_wins: Vec<WindowSeries<FibHistogram>>,
    /// Gauge plane (last write wins; windowed on the sim clock).
    gauge_keys: Vec<String>,
    gauge_ids: FxMap<String, u32>,
    gauge_vals: Vec<f64>,
    gauge_wins: Vec<WindowSeries<f64>>,
    /// Sim span counters synthesised from their duration histograms at
    /// snapshot time (a span close is exactly one hist sample), keyed
    /// spans-counter id → hist id. Lets the close path skip one
    /// windowed counter update without changing the export.
    span_count_from_hist: FxMap<u32, u32>,
    /// Warm-path resolution caches.
    span_cache: FxMap<SpanKey, SpanSeries>,
    instant_cache: FxMap<InstantKey, u32>,
    scoped_cache: FxMap<ScopeKey, ScopedIds>,
    /// Direct-mapped front caches over the maps above, indexed by the
    /// caller's string pointer and verified by content.
    counter_slots: Vec<CacheSlot>,
    hist_slots: Vec<CacheSlot>,
    span_slots: Vec<SpanSlot>,
    /// Metrics-only open spans (tracing disabled): slab + free list.
    open_slots: Vec<OpenSlot>,
    open_free: Vec<u32>,
    /// Notes attached at open time (rare), keyed by raw span id.
    open_notes: FxMap<u64, String>,
    /// Bounds of the most recently touched window. Sim time moves slowly
    /// relative to the window width, so almost every event lands in the
    /// same window as its predecessor and skips the division.
    win_lo: u64,
    win_hi: u64,
    /// Where the current run's simulated clock starts on the registry's
    /// clock, and the latest simulated time recorded so far: a run that
    /// restarts its clock at 0 is placed after the previous one
    /// ([`MetricsData::start_run`]).
    run_base_us: u64,
    sim_end_us: u64,
}

impl MetricsData {
    pub(crate) fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "metrics window must be positive");
        Self {
            window_us,
            names: Vec::new(),
            name_ids: FxMap::default(),
            counter_keys: Vec::new(),
            counter_ids: FxMap::default(),
            counter_vals: Vec::new(),
            counter_wins: Vec::new(),
            hist_keys: Vec::new(),
            hist_ids: FxMap::default(),
            hist_vals: Vec::new(),
            hist_wins: Vec::new(),
            gauge_keys: Vec::new(),
            gauge_ids: FxMap::default(),
            gauge_vals: Vec::new(),
            gauge_wins: Vec::new(),
            span_count_from_hist: FxMap::default(),
            span_cache: FxMap::default(),
            instant_cache: FxMap::default(),
            scoped_cache: FxMap::default(),
            counter_slots: vec![CacheSlot::EMPTY; OP_SLOTS],
            hist_slots: vec![CacheSlot::EMPTY; OP_SLOTS],
            span_slots: vec![SpanSlot::EMPTY; SPAN_SLOTS],
            open_slots: Vec::new(),
            open_free: Vec::new(),
            open_notes: FxMap::default(),
            win_lo: 0,
            win_hi: 0,
            run_base_us: 0,
            sim_end_us: 0,
        }
    }

    /// Place every later simulated timestamp after the latest one recorded
    /// so far, so the next run's windows follow the previous run's.
    pub(crate) fn start_run(&mut self) {
        self.run_base_us = self.sim_end_us;
    }

    #[inline]
    fn window_of(&mut self, at_us: u64) -> u64 {
        let at_us = self.run_base_us + at_us;
        self.sim_end_us = self.sim_end_us.max(at_us);
        if at_us >= self.win_lo && at_us < self.win_hi {
            return self.win_lo;
        }
        let w = at_us - at_us % self.window_us;
        self.win_lo = w;
        self.win_hi = w.saturating_add(self.window_us);
        w
    }

    /// Intern a name or tenant string.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    /// The string behind an interned symbol.
    pub(crate) fn name_of(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    /// Id of a counter series by canonical key, allocating on first use.
    fn counter_id(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.counter_ids.get(key) {
            return id;
        }
        let id = self.counter_vals.len() as u32;
        self.counter_keys.push(key.to_string());
        self.counter_ids.insert(key.to_string(), id);
        self.counter_vals.push(0);
        self.counter_wins.push(WindowSeries::new());
        id
    }

    fn hist_id(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.hist_ids.get(key) {
            return id;
        }
        let id = self.hist_vals.len() as u32;
        self.hist_keys.push(key.to_string());
        self.hist_ids.insert(key.to_string(), id);
        self.hist_vals.push(FibHistogram::micros());
        self.hist_wins.push(WindowSeries::new());
        id
    }

    fn gauge_id(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.gauge_ids.get(key) {
            return id;
        }
        let id = self.gauge_vals.len() as u32;
        self.gauge_keys.push(key.to_string());
        self.gauge_ids.insert(key.to_string(), id);
        self.gauge_vals.push(0.0);
        self.gauge_wins.push(WindowSeries::new());
        id
    }

    /// Canonical key of a bare name under a query scope.
    fn scoped_key(&self, name: u32, query: Option<u64>, tenant: Option<u32>) -> String {
        let name = &self.names[name as usize];
        match query {
            None => name.clone(),
            Some(q) => {
                let qid = q.to_string();
                let mut labels: Vec<(&str, &str)> = vec![("query", qid.as_str())];
                let t = tenant.map(|t| self.names[t as usize].as_str());
                if let Some(t) = t {
                    labels.push(("tenant", t));
                }
                series(name, &labels)
            }
        }
    }

    fn scope_key(&mut self, name: &str, query: Option<u64>, tenant: Option<&str>) -> ScopeKey {
        ScopeKey {
            name: self.intern(name),
            query,
            tenant: tenant.map(|t| self.intern(t)),
        }
    }

    /// Counter id for a bare name under a query scope.
    pub(crate) fn scoped_counter_id(
        &mut self,
        name: &str,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u32 {
        let key = self.scope_key(name, query, tenant);
        if let Some(ids) = self.scoped_cache.get(&key) {
            if let Some(c) = ids.counter {
                return c;
            }
        }
        let ks = self.scoped_key(key.name, key.query, key.tenant);
        let c = self.counter_id(&ks);
        self.scoped_cache.entry(key).or_default().counter = Some(c);
        c
    }

    /// Histogram id for a bare name under a query scope.
    pub(crate) fn scoped_hist_id(
        &mut self,
        name: &str,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u32 {
        let key = self.scope_key(name, query, tenant);
        if let Some(ids) = self.scoped_cache.get(&key) {
            if let Some(h) = ids.hist {
                return h;
            }
        }
        let ks = self.scoped_key(key.name, key.query, key.tenant);
        let h = self.hist_id(&ks);
        self.scoped_cache.entry(key).or_default().hist = Some(h);
        h
    }

    /// Gauge id for a bare name under a query scope.
    pub(crate) fn scoped_gauge_id(
        &mut self,
        name: &str,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u32 {
        let key = self.scope_key(name, query, tenant);
        if let Some(ids) = self.scoped_cache.get(&key) {
            if let Some(g) = ids.gauge {
                return g;
            }
        }
        let ks = self.scoped_key(key.name, key.query, key.tenant);
        let g = self.gauge_id(&ks);
        self.scoped_cache.entry(key).or_default().gauge = Some(g);
        g
    }

    /// Direct-map index of a name: call sites pass literals, so the
    /// pointer identifies the site.
    #[inline]
    fn op_slot_index(name: &str) -> usize {
        let p = name.as_ptr() as usize;
        (p ^ (p >> 7) ^ name.len()) & (OP_SLOTS - 1)
    }

    /// Does a cached tenant symbol match the caller's tenant?
    #[inline]
    fn tenant_matches(&self, slot_sym: u32, tenant: Option<&str>) -> bool {
        match tenant {
            None => slot_sym == NONE_SYM,
            Some(t) => slot_sym != NONE_SYM && self.names[slot_sym as usize] == t,
        }
    }

    /// [`MetricsData::scoped_counter_id`] behind the direct-mapped cache.
    #[inline]
    pub(crate) fn fast_counter_id(
        &mut self,
        name: &str,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u32 {
        let idx = Self::op_slot_index(name);
        let slot = self.counter_slots[idx];
        if slot.live
            && slot.query == query
            && self.names[slot.name_sym as usize] == name
            && self.tenant_matches(slot.tenant_sym, tenant)
        {
            return slot.id;
        }
        let id = self.scoped_counter_id(name, query, tenant);
        let name_sym = self.intern(name);
        let tenant_sym = tenant.map_or(NONE_SYM, |t| self.intern(t));
        self.counter_slots[idx] = CacheSlot {
            live: true,
            name_sym,
            tenant_sym,
            query,
            id,
        };
        id
    }

    /// [`MetricsData::scoped_hist_id`] behind the direct-mapped cache.
    #[inline]
    pub(crate) fn fast_hist_id(
        &mut self,
        name: &str,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u32 {
        let idx = Self::op_slot_index(name);
        let slot = self.hist_slots[idx];
        if slot.live
            && slot.query == query
            && self.names[slot.name_sym as usize] == name
            && self.tenant_matches(slot.tenant_sym, tenant)
        {
            return slot.id;
        }
        let id = self.scoped_hist_id(name, query, tenant);
        let name_sym = self.intern(name);
        let tenant_sym = tenant.map_or(NONE_SYM, |t| self.intern(t));
        self.hist_slots[idx] = CacheSlot {
            live: true,
            name_sym,
            tenant_sym,
            query,
            id,
        };
        id
    }

    /// Direct-map index of a span shape: per-node task spans get their
    /// own lines (the node multiplies into the index), shapes that share
    /// a name spread by pointer.
    #[inline]
    fn span_slot_index(name: &str, cat: Category, node: Option<u64>) -> usize {
        let p = name.as_ptr() as usize;
        let n = node.unwrap_or(0).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize;
        (p ^ (p >> 7) ^ name.len() ^ ((cat as usize) << 3) ^ (n >> 56)) & (SPAN_SLOTS - 1)
    }

    /// Open a metrics-only span: resolve its series ids now (every label
    /// is known at open time — the recorder folds its scope in before
    /// calling) and park them in the slab. Returns the raw slab handle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open_span(
        &mut self,
        cat: Category,
        name: &str,
        domain: Domain,
        start_us: u64,
        node: Option<u64>,
        query: Option<u64>,
        tenant: Option<&str>,
    ) -> u64 {
        let idx = Self::span_slot_index(name, cat, node);
        let slot = self.span_slots[idx];
        let (name_sym, tenant_sym, series) = if slot.live
            && slot.cat == cat
            && slot.domain == domain
            && slot.node == node
            && slot.query == query
            && self.names[slot.name_sym as usize] == name
            && self.tenant_matches(slot.tenant_sym, tenant)
        {
            (slot.name_sym, slot.tenant_sym, slot.series)
        } else {
            let name_sym = self.intern(name);
            let tenant_sym = tenant.map_or(NONE_SYM, |t| self.intern(t));
            let topt = (tenant_sym != NONE_SYM).then_some(tenant_sym);
            let series = self.resolve_span_series(cat, name_sym, domain, node, query, topt);
            self.span_slots[idx] = SpanSlot {
                live: true,
                name_sym,
                tenant_sym,
                query,
                cat,
                domain,
                node,
                series,
            };
            (name_sym, tenant_sym, series)
        };
        let (index, gen) = match self.open_free.pop() {
            Some(i) => {
                // Bump the generation so a stale handle to this slot is
                // caught. 31 bits: the id must leave the top bit free
                // for the recorder's METRICS_BIT.
                let g = (self.open_slots[i as usize].gen.wrapping_add(1)) & 0x7FFF_FFFF;
                (i, g.max(1))
            }
            None => {
                self.open_slots.push(OpenSlot::DEAD);
                ((self.open_slots.len() - 1) as u32, 1)
            }
        };
        self.open_slots[index as usize] = OpenSlot {
            live: true,
            gen,
            cat,
            domain,
            start_us,
            node,
            query,
            name_sym,
            tenant_sym,
            series,
        };
        ((gen as u64) << 32) | index as u64
    }

    /// Attach a note to an open metrics-only span (kept only for
    /// flight-worthy closes).
    pub(crate) fn set_open_note(&mut self, id: u64, note: String) {
        self.open_notes.insert(id, note);
    }

    /// Close a metrics-only span: meter it and, when asked and the span
    /// is flight-worthy (a checkpoint commit), return what the flight
    /// ring needs.
    ///
    /// # Panics
    /// Panics when the handle is stale ("closed twice") or the span ends
    /// before it starts.
    pub(crate) fn close_span(
        &mut self,
        id: u64,
        end_us: u64,
        note: Option<&str>,
        want_flight: bool,
    ) -> Option<SpanFlight> {
        let index = (id & 0xFFFF_FFFF) as usize;
        let gen = (id >> 32) as u32;
        let ok = self
            .open_slots
            .get(index)
            .is_some_and(|s| s.live && s.gen == gen);
        assert!(ok, "metrics-only span closed twice");
        let slot = self.open_slots[index];
        assert!(
            end_us >= slot.start_us,
            "span \"{}\" ends at {}us before it starts at {}us",
            self.name_of(slot.name_sym),
            end_us,
            slot.start_us
        );
        self.open_slots[index].live = false;
        self.open_free.push(index as u32);
        self.apply_span(slot.series, slot.domain, slot.start_us, end_us);
        let stored = if self.open_notes.is_empty() {
            None
        } else {
            self.open_notes.remove(&id)
        };
        if want_flight && slot.cat == Category::Checkpoint {
            let name = self.name_of(slot.name_sym);
            let detail = match note.map(str::to_string).or(stored) {
                Some(n) => format!("{name}: {n}"),
                None => name.to_string(),
            };
            return Some(SpanFlight {
                domain: slot.domain,
                node: slot.node,
                query: slot.query,
                tenant: (slot.tenant_sym != NONE_SYM)
                    .then(|| self.name_of(slot.tenant_sym).to_string()),
                detail,
            });
        }
        None
    }

    /// Bump a counter by id.
    #[inline]
    pub(crate) fn counter_add(&mut self, id: u32, delta: u64) {
        self.counter_vals[id as usize] += delta;
    }

    /// Bump a counter by id, windowed at `sim_us`.
    #[inline]
    pub(crate) fn counter_add_at(&mut self, id: u32, sim_us: u64, delta: u64) {
        self.counter_vals[id as usize] += delta;
        let w = self.window_of(sim_us);
        *self.counter_wins[id as usize].slot(w) += delta;
    }

    /// Observe into a histogram by id.
    #[inline]
    pub(crate) fn hist_observe(&mut self, id: u32, value: u64) {
        self.hist_vals[id as usize].observe(value);
    }

    /// Observe into a histogram by id, windowed at `sim_us`.
    #[inline]
    pub(crate) fn hist_observe_at(&mut self, id: u32, sim_us: u64, value: u64) {
        self.hist_vals[id as usize].observe(value);
        let w = self.window_of(sim_us);
        self.hist_wins[id as usize].slot(w).observe(value);
    }

    /// Write a gauge by id (last value wins).
    #[inline]
    pub(crate) fn gauge_write(&mut self, id: u32, value: f64) {
        self.gauge_vals[id as usize] = value;
    }

    /// Write a gauge by id, also into `sim_us`'s window.
    #[inline]
    pub(crate) fn gauge_write_at(&mut self, id: u32, sim_us: u64, value: f64) {
        self.gauge_vals[id as usize] = value;
        let w = self.window_of(sim_us);
        *self.gauge_wins[id as usize].slot(w) = value;
    }

    /// Add to a cumulative counter by canonical key.
    #[cfg(test)]
    pub fn add(&mut self, key: &str, delta: u64) {
        let id = self.counter_id(key);
        self.counter_add(id, delta);
    }

    /// Add to a cumulative counter *and* its sim-window bucket.
    #[cfg(test)]
    pub(crate) fn add_at(&mut self, key: &str, sim_us: u64, delta: u64) {
        let id = self.counter_id(key);
        self.counter_add_at(id, sim_us, delta);
    }

    /// Observe into a cumulative histogram *and* its sim-window bucket.
    #[cfg(test)]
    pub fn observe_at(&mut self, key: &str, sim_us: u64, value: u64) {
        let id = self.hist_id(key);
        self.hist_observe_at(id, sim_us, value);
    }

    /// Set a gauge and its sim-window bucket (last write per window wins).
    #[cfg(test)]
    pub(crate) fn gauge_at(&mut self, key: &str, sim_us: u64, value: f64) {
        let id = self.gauge_id(key);
        self.gauge_write_at(id, sim_us, value);
    }

    /// Series ids of one span shape, resolving (and paying the
    /// canonical-key formatting) on first sight only.
    fn resolve_span_series(
        &mut self,
        cat: Category,
        name: u32,
        domain: Domain,
        node: Option<u64>,
        query: Option<u64>,
        tenant: Option<u32>,
    ) -> SpanSeries {
        // The node only labels a series for sim-clock task spans; keep it
        // out of the key otherwise so e.g. per-node scan spans share one
        // cache entry.
        let busy_node = if cat == Category::Task && domain == Domain::Sim {
            node
        } else {
            None
        };
        let key = SpanKey {
            name,
            cat,
            domain,
            node: busy_node,
            query,
            tenant,
        };
        if let Some(&ids) = self.span_cache.get(&key) {
            return ids;
        }
        let name_s = self.names[name as usize].clone();
        let qid = query.map(|q| q.to_string());
        let ten = tenant.map(|t| self.names[t as usize].clone());
        let mut labels: Vec<(&str, &str)> = vec![
            ("cat", cat.as_str()),
            ("clock", domain.as_str()),
            ("name", name_s.as_str()),
        ];
        if let Some(q) = &qid {
            labels.push(("query", q.as_str()));
        }
        if let Some(t) = &ten {
            labels.push(("tenant", t.as_str()));
        }
        let spans_key = series("spans", &labels);
        let dur_key = series("span_us", &labels);
        let spans = self.counter_id(&spans_key);
        let dur = (domain == Domain::Sim).then(|| self.hist_id(&dur_key));
        let busy = busy_node.map(|n| {
            let nl = n.to_string();
            let busy_key = series("node_busy_us", &[("node", nl.as_str())]);
            self.counter_id(&busy_key)
        });
        let ids = SpanSeries { spans, dur, busy };
        if let Some(h) = dur {
            self.span_count_from_hist.insert(spans, h);
        }
        self.span_cache.insert(key, ids);
        ids
    }

    /// Meter a closed span's resolved series.
    #[inline]
    fn apply_span(&mut self, ids: SpanSeries, domain: Domain, start_us: u64, end_us: u64) {
        match domain {
            Domain::Sim => {
                let dur = end_us - start_us;
                match ids.dur {
                    // The hist sample *is* the span count; the counter
                    // plane is synthesised from it at snapshot time.
                    Some(d) => self.hist_observe_at(d, end_us, dur),
                    None => self.counter_add_at(ids.spans, end_us, 1),
                }
                if let Some(b) = ids.busy {
                    self.counter_add_at(b, end_us, dur);
                }
            }
            Domain::Wall => self.counter_add(ids.spans, 1),
        }
    }

    /// Meter a closed span from interned parts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn meter_span_sym(
        &mut self,
        cat: Category,
        name: u32,
        domain: Domain,
        start_us: u64,
        end_us: u64,
        node: Option<u64>,
        query: Option<u64>,
        tenant: Option<u32>,
    ) {
        let ids = self.resolve_span_series(cat, name, domain, node, query, tenant);
        self.apply_span(ids, domain, start_us, end_us);
    }

    /// Meter a closed span. Sim spans contribute windowed counts and
    /// duration histograms; wall spans contribute counts only (their
    /// durations are host noise — see the module docs).
    pub(crate) fn meter_span(
        &mut self,
        cat: Category,
        name: &str,
        domain: Domain,
        start_us: u64,
        end_us: u64,
        ctx: &SpanCtx,
    ) {
        let name = self.intern(name);
        let tenant = ctx.tenant.as_deref().map(|t| self.intern(t));
        self.meter_span_sym(
            cat, name, domain, start_us, end_us, ctx.node, ctx.query, tenant,
        );
    }

    /// Meter a point event: a count, windowed when on the sim clock.
    pub(crate) fn meter_instant(
        &mut self,
        cat: Category,
        name: &str,
        domain: Domain,
        at_us: u64,
        query: Option<u64>,
        tenant: Option<&str>,
    ) {
        let name = self.intern(name);
        let tenant = tenant.map(|t| self.intern(t));
        let key = InstantKey {
            name,
            cat,
            query,
            tenant,
        };
        let id = match self.instant_cache.get(&key) {
            Some(&id) => id,
            None => {
                let name_s = self.names[name as usize].clone();
                let qid = query.map(|q| q.to_string());
                let ten = tenant.map(|t| self.names[t as usize].clone());
                let mut labels: Vec<(&str, &str)> =
                    vec![("cat", cat.as_str()), ("name", name_s.as_str())];
                if let Some(q) = &qid {
                    labels.push(("query", q.as_str()));
                }
                if let Some(t) = &ten {
                    labels.push(("tenant", t.as_str()));
                }
                let id = self.counter_id(&series("events", &labels));
                self.instant_cache.insert(key, id);
                id
            }
        };
        match domain {
            Domain::Sim => self.counter_add_at(id, at_us, 1),
            Domain::Wall => self.counter_add(id, 1),
        }
    }

    /// Freeze the registry into an immutable, serialisable snapshot.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut windowed = BTreeMap::new();
        for (i, key) in self.counter_keys.iter().enumerate() {
            let mut val = self.counter_vals[i];
            let mut wins = self.counter_wins[i].entries.clone();
            // Fold in the span counts the close path left implicit in
            // the duration histogram (see `span_count_from_hist`).
            if let Some(&hid) = self.span_count_from_hist.get(&(i as u32)) {
                let h = hid as usize;
                val += self.hist_vals[h].total();
                let hwins: Vec<(u64, u64)> = self.hist_wins[h]
                    .entries
                    .iter()
                    .map(|(w, hist)| (*w, hist.total()))
                    .filter(|&(_, t)| t > 0)
                    .collect();
                wins = merge_windows(wins, hwins);
            }
            counters.insert(key.clone(), val);
            if !wins.is_empty() {
                windowed.insert(key.clone(), wins);
            }
        }
        let mut hists = BTreeMap::new();
        let mut win_hists = BTreeMap::new();
        for (i, key) in self.hist_keys.iter().enumerate() {
            hists.insert(key.clone(), HistSummary::of(&self.hist_vals[i]));
            let wins = &self.hist_wins[i].entries;
            if !wins.is_empty() {
                win_hists.insert(
                    key.clone(),
                    wins.iter().map(|(w, h)| (*w, HistSummary::of(h))).collect(),
                );
            }
        }
        let mut gauges = BTreeMap::new();
        let mut win_gauges = BTreeMap::new();
        for (i, key) in self.gauge_keys.iter().enumerate() {
            gauges.insert(key.clone(), self.gauge_vals[i]);
            let wins = &self.gauge_wins[i].entries;
            if !wins.is_empty() {
                win_gauges.insert(key.clone(), wins.clone());
            }
        }
        MetricsSnapshot {
            window_us: self.window_us,
            counters,
            windowed,
            hists,
            win_hists,
            gauges,
            win_gauges,
        }
    }
}

/// Percentile summary plus sparse buckets of one histogram series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Sample sum (saturating).
    pub sum: u64,
    /// Median bucket lower bound.
    pub p50: u64,
    /// 95th-percentile bucket lower bound.
    pub p95: u64,
    /// 99th-percentile bucket lower bound.
    pub p99: u64,
    /// Non-empty `(lower_bound, count)` buckets.
    pub sparse: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Summarise a histogram.
    pub fn of(h: &FibHistogram) -> Self {
        Self {
            count: h.total(),
            sum: h.sum(),
            p50: h.quantile_bound(0.50),
            p95: h.quantile_bound(0.95),
            p99: h.quantile_bound(0.99),
            sparse: h.sparse(),
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Immutable, canonical (sorted-key) view of the registry at one moment.
///
/// Two snapshots of deterministic runs with the same seed compare equal
/// with `==` — that property is CI-gated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Window width in simulated microseconds.
    pub window_us: u64,
    /// Cumulative counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-window counter values, `(window_start_us, value)` ascending.
    pub windowed: BTreeMap<String, Vec<(u64, u64)>>,
    /// Cumulative histogram summaries.
    pub hists: BTreeMap<String, HistSummary>,
    /// Per-window histogram summaries.
    pub win_hists: BTreeMap<String, Vec<(u64, HistSummary)>>,
    /// Last-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Per-window gauge values (sim clock only).
    pub win_gauges: BTreeMap<String, Vec<(u64, f64)>>,
}

/// One structured alert from the EWMA anomaly flagger.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The windowed series that spiked.
    pub series: String,
    /// Window start (simulated µs).
    pub window_us: u64,
    /// Observed value in that window.
    pub value: f64,
    /// EWMA of the preceding windows.
    pub ewma: f64,
    /// `value / ewma` — how far above trend.
    pub ratio: f64,
}

/// EWMA smoothing factor for the anomaly flagger. Matches the failure
/// detector's heartbeat EWMA order of magnitude: recent windows dominate
/// but one spike does not own the estimate.
pub(crate) const ANOMALY_EWMA_ALPHA: f64 = 0.3;

/// Alert threshold: a window is anomalous when it exceeds the EWMA of the
/// preceding windows by this factor. Mirrors the Gamma straggler model's
/// cut (busy > 2·E(Z) ⇒ straggler, see [`crate::NodeClass`]).
pub(crate) const ANOMALY_THRESHOLD: f64 = 2.0;

/// Scan every windowed counter series for windows that spike above the
/// running EWMA of the windows before them. Windows with no samples count
/// as zero, so a burst after quiet is flagged. The first two windows of a
/// series never alert (the EWMA is not established yet).
pub fn detect_anomalies(snap: &MetricsSnapshot) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for (key, windows) in &snap.windowed {
        if windows.len() < 3 {
            continue;
        }
        let dense: BTreeMap<u64, u64> = windows.iter().copied().collect();
        let first = windows.first().expect("non-empty").0;
        let last = windows.last().expect("non-empty").0;
        let mut ewma = dense[&first] as f64;
        let mut seen = 1usize;
        let mut w = first + snap.window_us;
        while w <= last {
            let value = dense.get(&w).copied().unwrap_or(0) as f64;
            if seen >= 3 && ewma > 0.0 && value / ewma > ANOMALY_THRESHOLD {
                alerts.push(Alert {
                    series: key.clone(),
                    window_us: w,
                    value,
                    ewma,
                    ratio: value / ewma,
                });
            }
            ewma = ANOMALY_EWMA_ALPHA * value + (1.0 - ANOMALY_EWMA_ALPHA) * ewma;
            seen += 1;
            w += snap.window_us;
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_key_is_canonical() {
        assert_eq!(series("spans", &[]), "spans");
        assert_eq!(
            series("spans", &[("name", "map"), ("cat", "task")]),
            "spans{cat=\"task\",name=\"map\"}"
        );
        assert_eq!(
            series("x", &[("note", "say \"hi\"")]),
            "x{note=\"say \\\"hi\\\"\"}"
        );
        let (name, labels) = split_series("spans{cat=\"task\"}");
        assert_eq!(name, "spans");
        assert_eq!(labels, "{cat=\"task\"}");
    }

    #[test]
    fn windowed_counters_bucket_by_sim_window() {
        let mut m = MetricsData::new(1_000);
        m.add_at("tasks", 100, 1);
        m.add_at("tasks", 900, 2);
        m.add_at("tasks", 1_100, 4);
        let snap = m.snapshot();
        assert_eq!(snap.counters["tasks"], 7);
        assert_eq!(snap.windowed["tasks"], vec![(0, 3), (1_000, 4)]);
    }

    #[test]
    fn out_of_order_windows_stay_sorted() {
        let mut m = MetricsData::new(1_000);
        m.add_at("tasks", 5_500, 1);
        m.add_at("tasks", 1_500, 2);
        m.add_at("tasks", 3_500, 4);
        m.add_at("tasks", 1_700, 8);
        let snap = m.snapshot();
        assert_eq!(
            snap.windowed["tasks"],
            vec![(1_000, 10), (3_000, 4), (5_000, 1)]
        );
    }

    #[test]
    fn hist_summary_percentiles() {
        let mut m = MetricsData::new(1_000);
        for v in [10u64, 20, 30, 40, 5_000] {
            m.observe_at("lat", 500, v);
        }
        let snap = m.snapshot();
        let h = &snap.hists["lat"];
        assert_eq!(h.count, 5);
        assert!(h.p50 <= 30);
        assert!(h.p99 >= 1_000, "p99 {} should reach the outlier", h.p99);
        assert_eq!(snap.win_hists["lat"][0].0, 0);
        assert_eq!(snap.win_hists["lat"][0].1.count, 5);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let mut m = MetricsData::new(500);
        m.add_at("a", 10, 1);
        m.observe_at("h", 10, 99);
        m.gauge_at("g", 10, 1.5);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn anomaly_flagger_spots_a_spike() {
        let mut m = MetricsData::new(1_000);
        // Steady 10/window, then a 100 burst.
        for w in 0..6u64 {
            m.add_at("retries", w * 1_000 + 1, 10);
        }
        m.add_at("retries", 6_000 + 1, 100);
        let alerts = detect_anomalies(&m.snapshot());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].window_us, 6_000);
        assert!(alerts[0].ratio > ANOMALY_THRESHOLD);
        // A steady series never alerts.
        let mut s = MetricsData::new(1_000);
        for w in 0..10u64 {
            s.add_at("ok", w * 1_000 + 1, 10);
        }
        assert!(detect_anomalies(&s.snapshot()).is_empty());
    }

    #[test]
    fn wall_spans_meter_counts_only() {
        let mut m = MetricsData::new(1_000);
        m.meter_span(
            Category::Scan,
            "block",
            Domain::Wall,
            17,
            4_242,
            &SpanCtx::default(),
        );
        let snap = m.snapshot();
        let key = "spans{cat=\"scan\",clock=\"wall\",name=\"block\"}";
        assert_eq!(snap.counters[key], 1);
        assert!(snap.windowed.is_empty(), "wall spans must not window");
        assert!(
            snap.hists.is_empty(),
            "wall spans must not record durations"
        );
    }

    #[test]
    fn sim_task_spans_meter_node_busy() {
        let mut m = MetricsData::new(1_000);
        m.meter_span(
            Category::Task,
            "select",
            Domain::Sim,
            100,
            400,
            &SpanCtx::default().node(3),
        );
        let snap = m.snapshot();
        assert_eq!(snap.counters["node_busy_us{node=\"3\"}"], 300);
        assert_eq!(snap.windowed["node_busy_us{node=\"3\"}"], vec![(0, 300)]);
        let key = "spans{cat=\"task\",clock=\"sim\",name=\"select\"}";
        assert_eq!(snap.counters[key], 1);
    }

    /// The resolution caches and the keyed entry points must agree on
    /// series identity: metering the same logical series through both
    /// paths lands on one aggregate.
    #[test]
    fn cached_and_keyed_paths_share_series() {
        let mut m = MetricsData::new(1_000);
        let id = m.scoped_counter_id("retries", None, None);
        m.counter_add(id, 2);
        m.add("retries", 3);
        let snap = m.snapshot();
        assert_eq!(snap.counters["retries"], 5);

        let sid = m.scoped_counter_id("retries", Some(4), Some("acme"));
        m.counter_add(sid, 1);
        let snap = m.snapshot();
        assert_eq!(snap.counters["retries{query=\"4\",tenant=\"acme\"}"], 1);
    }
}
