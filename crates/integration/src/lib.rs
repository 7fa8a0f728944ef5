//! Cross-crate integration tests live in `/tests`; runnable examples in
//! `/examples`. This crate wires them into the workspace build and hosts
//! the shared scaffolding they all lean on.

pub mod shuffle {
    //! The synthetic clustered shuffle workload `tests/shuffle.rs` pins
    //! the aware planner's byte reduction on: [`KEY_RANGES`] key ranges
    //! over [`NODES`] nodes, range `g`'s bytes concentrated
    //! `HOME_FRACTION` on its home node `g % NODES` (the write locality a
    //! real DFS produces), per-range totals from a Zipf law at exponent
    //! `s`. Both plans replay the identical matrix through
    //! [`run_analysis_shuffled`], so every number is simulated.

    use datanet_analytics::word_count_profile;
    use datanet_dfs::NodeId;
    use datanet_mapreduce::{
        run_analysis_shuffled, AnalysisConfig, ShuffleOutcome, ShufflePlan, ShufflePlanner,
    };

    /// Reducer/mapper nodes.
    pub const NODES: usize = 8;
    /// Key ranges the intermediate key space is hashed into.
    pub const KEY_RANGES: usize = 64;
    /// Heavy-key split threshold of the aware planner, in fair shares.
    pub const SPLIT_FACTOR: f64 = 1.25;
    /// Fraction of a range's bytes sitting on its home node.
    pub(crate) const HOME_FRACTION: f64 = 0.8;

    /// The clustered per-(node, key-range) matrix at Zipf exponent `s`:
    /// [`HOME_FRACTION`] of range `g` on node `g % NODES`, the rest spread
    /// evenly over the others (remainder bytes to the home node, so each
    /// column holds exactly its range's share of `total`).
    pub(crate) fn clustered_matrix(s: f64, total: u64) -> Vec<Vec<u64>> {
        let w: Vec<f64> = (1..=KEY_RANGES)
            .map(|rank| (rank as f64).powf(-s))
            .collect();
        let sum: f64 = w.iter().sum();
        let mut matrix = vec![vec![0u64; KEY_RANGES]; NODES];
        for g in 0..KEY_RANGES {
            let bytes = (total as f64 * w[g] / sum).round() as u64;
            let home = g % NODES;
            let each = ((1.0 - HOME_FRACTION) * bytes as f64) as u64 / (NODES - 1) as u64;
            for (n, row) in matrix.iter_mut().enumerate() {
                row[g] = if n == home {
                    bytes - each * (NODES - 1) as u64
                } else {
                    each
                };
            }
        }
        matrix
    }

    /// Word count's shuffle over one clustered matrix under both plans.
    #[derive(Debug, PartialEq)]
    pub struct ZipfPoint {
        /// The aware plan's run.
        pub aware: ShuffleOutcome,
        /// Hash partitioning's run.
        pub hash: ShuffleOutcome,
        /// Key ranges the aware plan split across several reducers.
        pub split_ranges: usize,
    }

    impl ZipfPoint {
        /// Hash over aware network bytes.
        pub fn bytes_reduction(&self) -> f64 {
            self.hash.network_bytes as f64 / self.aware.network_bytes.max(1) as f64
        }
    }

    /// Run both plans over `clustered_matrix(s, total)`.
    pub fn zipf_point(s: f64, total: u64) -> ZipfPoint {
        let matrix = clustered_matrix(s, total);
        let aware_plan = ShufflePlanner::new(SPLIT_FACTOR).plan(&matrix);
        let hash_plan = ShufflePlan::hash(KEY_RANGES, (0..NODES as u32).map(NodeId).collect());
        let (job, cfg) = (word_count_profile(), AnalysisConfig::default());
        ZipfPoint {
            aware: run_analysis_shuffled(&matrix, &job, &cfg, &aware_plan),
            hash: run_analysis_shuffled(&matrix, &job, &cfg, &hash_plan),
            split_ranges: (aware_plan.assignments.iter())
                .filter(|frags| frags.len() > 1)
                .count(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// 32 MB of intermediate bytes: enough that rounding is invisible
        /// in every ratio.
        const TOTAL: u64 = 32 << 20;

        #[test]
        fn matrix_partitions_the_total_exactly() {
            for s in [0.0, 0.8, 1.2] {
                let m = clustered_matrix(s, 1 << 20);
                for g in 0..KEY_RANGES {
                    let col: u64 = m.iter().map(|row| row[g]).sum();
                    let home = m[g % NODES][g];
                    assert!(
                        home as f64 >= HOME_FRACTION * col as f64,
                        "s={s} range {g}: home holds {home} of {col}"
                    );
                }
            }
        }

        #[test]
        fn sweep_is_deterministic_and_passes_its_own_gate() {
            for s in [0.0, 0.8, 1.2] {
                assert_eq!(zipf_point(s, TOTAL), zipf_point(s, TOTAL), "s={s} diverged");
            }
            let skew = zipf_point(1.2, TOTAL).bytes_reduction();
            assert!(skew >= 2.0, "reduction {skew:.2}x under the 2x floor");
            let uniform = zipf_point(0.0, TOTAL);
            assert!(uniform.aware.report.makespan_secs <= uniform.hash.report.makespan_secs);
        }

        #[test]
        fn skewed_point_clears_the_floor_and_splits_heavy_ranges() {
            let skew = zipf_point(1.2, TOTAL);
            assert!(
                skew.bytes_reduction() >= 2.0,
                "reduction {:.2}x under the floor",
                skew.bytes_reduction()
            );
            assert!(skew.split_ranges > 0, "no heavy range split at s=1.2");
            let uniform = zipf_point(0.0, TOTAL);
            assert!(uniform.aware.report.makespan_secs <= uniform.hash.report.makespan_secs);
            assert!(
                uniform.aware.reduce_imbalance() <= uniform.hash.reduce_imbalance() + 1e-9,
                "aware {:.3} vs hash {:.3}",
                uniform.aware.reduce_imbalance(),
                uniform.hash.reduce_imbalance()
            );
        }
    }
}

pub mod serve {
    //! The multi-tenant load world `tests/serve.rs` pins the plan cache on:
    //! records striped round-robin over [`SUBDATASETS`] sub-datasets on 10
    //! nodes, and a skewed query stream served by 4 workers with a quantum
    //! generous enough that every arrival admits promptly.

    use datanet::Separation;
    use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
    use datanet_obs::Recorder;
    use datanet_serve::{
        generate_stream, serve, Disposition, ServeConfig, ServeReport, StreamConfig, TenantMix,
        World,
    };

    /// Sub-datasets in the world.
    pub const SUBDATASETS: u64 = 8;
    const SEED: u64 = 0xBE4C;

    /// `records` records of 280 bytes, written through the DFS placement
    /// policy.
    pub fn world(records: u64) -> World {
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication: 2,
                topology: Topology::single_rack(10),
                seed: SEED,
            },
            (0..records).map(|i| Record::new(SubDatasetId(i % SUBDATASETS), i, 280, SEED ^ i)),
        );
        World::new(dfs, SUBDATASETS, Separation::Alpha(0.3), SEED)
    }

    /// Serve a `queries`-query skewed stream from `tenants` tenants over a
    /// copy of `world`, with the plan cache on or off.
    pub fn run(world: &World, tenants: u32, queries: u32, cache: bool) -> ServeReport {
        let stream = generate_stream(&StreamConfig {
            tenants,
            queries,
            gap_us: 300,
            subdatasets: SUBDATASETS,
            mix: TenantMix::Skewed,
            seed: SEED,
        });
        let cfg = ServeConfig {
            workers: 4,
            queue_cap: 64,
            quantum_bytes: 512 * 1024,
            cache,
            ..ServeConfig::default()
        };
        serve(world.clone(), &stream, &[], &cfg, &Recorder::off())
    }

    /// `(completed, rejected, shed, p50 µs, p99 µs, cache misses)`.
    pub type Outcome = (u32, u32, u32, u64, u64, u64);

    /// What the tenants saw of a run, plus its plan-cache misses.
    pub fn outcome(report: &ServeReport) -> Outcome {
        let a = &report.answers;
        let completed = (a.outcomes.iter())
            .filter(|o| matches!(o.disposition, Disposition::Completed { .. }))
            .count() as u32;
        (
            completed,
            a.tenants.iter().map(|t| t.rejected).sum(),
            a.tenants.iter().map(|t| t.shed).sum(),
            report.timing.p50_latency_us,
            report.timing.p99_latency_us,
            a.cache_misses,
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const RECORDS: u64 = 2_000;
        const QUERIES: u32 = 240;
        /// Tenant counts the plan cache is exercised at.
        const TENANT_POINTS: [u32; 3] = [1, 8, 64];

        #[test]
        fn sweep_covers_every_point_and_caches_pay_off() {
            let w = world(RECORDS);
            for tenants in TENANT_POINTS {
                let (on, off) = (
                    run(&w, tenants, QUERIES, true),
                    run(&w, tenants, QUERIES, false),
                );
                assert!(outcome(&on).0 > 0, "{tenants} tenants completed nothing");
                assert!(
                    on.answers.cache_hits > 0,
                    "{tenants} tenants never hit the cache"
                );
                // Cache off means the cache is never consulted at all.
                assert_eq!((off.answers.cache_hits, off.answers.cache_misses), (0, 0));
                // A coherent cache never changes the simulated outcome.
                assert_eq!(on.answers.normalized(), off.answers.normalized());
                assert_eq!(on.timing, off.timing);
                // The cache-on run plans each sub-dataset once.
                assert!(
                    on.answers.cache_misses <= SUBDATASETS,
                    "{tenants} tenants: {} misses over {SUBDATASETS} sub-datasets",
                    on.answers.cache_misses
                );
            }
        }

        #[test]
        fn simulated_fields_are_deterministic_across_runs() {
            let w = world(RECORDS);
            for tenants in TENANT_POINTS {
                for cache in [true, false] {
                    assert_eq!(
                        run(&w, tenants, QUERIES, cache),
                        run(&w, tenants, QUERIES, cache),
                        "{tenants} tenants, cache {cache}: two runs diverged"
                    );
                }
            }
        }
    }
}

pub mod testkit {
    //! Shared scaffolding for the durable-store tests.
    //!
    //! Both the checkpointed-pipeline sweep (`tests/pipeline.rs`) and the
    //! streaming-ingest sweep (`tests/ingest.rs`) exercise the same shape
    //! of property: a commit plan of N ordered writes is interrupted
    //! after every prefix, and recovery must land in exactly the state
    //! the durable prefix implies. The prefix enumeration and the
    //! resume-point derivation used to be re-derived in each file; they
    //! live here once now. The metrics tests read the OpenMetrics
    //! exposition back through the strict [`parse_openmetrics`].

    use datanet::store::{crc32, BlockSummary, Manifest};
    use datanet::{ElasticMap, Separation};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Self-cleaning replica directories for one checkpoint or metadata
    /// store. Unique per instantiation (pid + sequence), removed on drop
    /// including the unwinding path, so a failing assertion leaks
    /// nothing into the temp dir.
    pub struct ReplicaDirs {
        base: PathBuf,
        dirs: Vec<PathBuf>,
    }

    impl ReplicaDirs {
        pub fn new(tag: &str, replicas: usize) -> Self {
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let base =
                std::env::temp_dir().join(format!("datanet-it-{tag}-{}-{seq}", std::process::id()));
            let _ = fs::remove_dir_all(&base);
            let dirs = (0..replicas)
                .map(|i| base.join(format!("replica-{i}")))
                .collect();
            Self { base, dirs }
        }

        pub fn paths(&self) -> Vec<&Path> {
            self.dirs.iter().map(PathBuf::as_path).collect()
        }
    }

    impl Drop for ReplicaDirs {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.base);
        }
    }

    /// Every crash point of a `writes`-write durable plan, in order:
    /// nothing landed, each proper prefix, and all writes landed. Sweep
    /// tests iterate this instead of hand-rolling `0..=n` bounds.
    pub fn write_prefixes(writes: usize) -> impl Iterator<Item = usize> {
        0..=writes
    }

    /// Where a checkpointed pipeline resumes after a crash `applied` of
    /// `planned` writes into `stage`: the full plan makes the crashed
    /// stage durable; any shorter prefix rolls back to the previous
    /// stage, or to a fresh run when the first stage was interrupted.
    pub fn expected_resume_from(stage: usize, applied: usize, planned: usize) -> Option<u64> {
        if applied == planned {
            Some(stage as u64)
        } else if stage > 0 {
            Some(stage as u64 - 1)
        } else {
            None
        }
    }

    /// What a format-version-3 ingestor left in `dirs` after committing
    /// `maps` as epoch 1, for the tests that read old stores: the payloads
    /// are JSON arrays — `shard-`/`summary-` files for the complete shards,
    /// the partial tail in `epoch-0001.json` (+ summary) — under the same
    /// `version: 3` manifest twice (`manifest-e0001.json`, `manifest.json`).
    pub fn write_v3_ingest_store(
        dirs: &[&Path],
        maps: &[ElasticMap],
        policy: &Separation,
        shard_blocks: usize,
    ) {
        let mut manifest = Manifest {
            blocks: maps.len(),
            shard_blocks,
            policy: policy.clone(),
            version: 3,
            shard_crc: Vec::new(),
            summary_crc: Vec::new(),
            epoch: 1,
            tail_crc: None,
            tail_summary_crc: None,
        };
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for (i, chunk) in maps.chunks(shard_blocks).enumerate() {
            let summaries: Vec<BlockSummary> = chunk.iter().map(BlockSummary::of).collect();
            let shard = serde_json::to_vec(&chunk).expect("serialise");
            let summary = serde_json::to_vec(&summaries).expect("serialise");
            if chunk.len() == shard_blocks {
                manifest.shard_crc.push(crc32(&shard));
                manifest.summary_crc.push(crc32(&summary));
                files.push((format!("shard-{i:04}.json"), shard));
                files.push((format!("summary-{i:04}.json"), summary));
            } else {
                manifest.tail_crc = Some(crc32(&shard));
                manifest.tail_summary_crc = Some(crc32(&summary));
                files.push(("epoch-0001.json".to_string(), shard));
                files.push(("epoch-0001-summary.json".to_string(), summary));
            }
        }
        let bytes = serde_json::to_vec_pretty(&manifest).expect("serialise");
        files.push(("manifest-e0001.json".to_string(), bytes.clone()));
        files.push(("manifest.json".to_string(), bytes));
        for dir in dirs {
            fs::create_dir_all(dir).expect("mkdir");
            for (name, bytes) in &files {
                fs::write(dir.join(name), bytes).expect("write");
            }
        }
    }

    /// Metric family kind in the OpenMetrics text format.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OmKind {
        /// Monotonic counter (`_total` samples).
        Counter,
        /// Point-in-time gauge.
        Gauge,
        /// Quantile summary (`quantile` label, `_sum`, `_count`).
        Summary,
    }

    impl OmKind {
        fn parse(s: &str) -> Option<Self> {
            match s {
                "counter" => Some(OmKind::Counter),
                "gauge" => Some(OmKind::Gauge),
                "summary" => Some(OmKind::Summary),
                _ => None,
            }
        }
    }

    /// One parsed sample line.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OmSample {
        /// Full sample name (family name plus any `_total`/`_sum`/`_count`).
        pub name: String,
        /// Label pairs in document order.
        pub labels: Vec<(String, String)>,
        /// Sample value.
        pub value: f64,
    }

    impl OmSample {
        /// Value of the label `key`, if present.
        pub fn label(&self, key: &str) -> Option<&str> {
            self.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        }
    }

    /// One parsed metric family: its `# TYPE` declaration and samples.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OmFamily {
        /// Family name as declared.
        pub name: String,
        /// Declared kind.
        pub kind: OmKind,
        /// Samples belonging to this family, in document order.
        pub samples: Vec<OmSample>,
    }

    fn valid_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn valid_label_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    /// A parsed label set: `(key, value)` pairs in appearance order.
    type Labels = Vec<(String, String)>;

    /// Parse one `{k="v",…}` label block. Returns the labels and the rest of
    /// the line after the closing brace.
    fn parse_labels(s: &str, lineno: usize) -> Result<(Labels, &str), String> {
        debug_assert!(s.starts_with('{'));
        let mut labels = Vec::new();
        let mut rest = &s[1..];
        loop {
            if let Some(r) = rest.strip_prefix('}') {
                return Ok((labels, r));
            }
            let eq = rest
                .find('=')
                .ok_or_else(|| format!("line {lineno}: label without `=`"))?;
            let name = &rest[..eq];
            if !valid_label_name(name) {
                return Err(format!("line {lineno}: bad label name `{name}`"));
            }
            rest = rest[eq + 1..]
                .strip_prefix('"')
                .ok_or_else(|| format!("line {lineno}: label value must be quoted"))?;
            let mut value = String::new();
            let mut chars = rest.char_indices();
            let end = loop {
                let Some((i, c)) = chars.next() else {
                    return Err(format!("line {lineno}: unterminated label value"));
                };
                match c {
                    '"' => break i,
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        other => {
                            return Err(format!(
                                "line {lineno}: bad escape `\\{}`",
                                other.map(|(_, c)| c).unwrap_or(' ')
                            ))
                        }
                    },
                    c => value.push(c),
                }
            };
            labels.push((name.to_string(), value));
            rest = &rest[end + 1..];
            if let Some(r) = rest.strip_prefix(',') {
                rest = r;
            } else if !rest.starts_with('}') {
                return Err(format!("line {lineno}: expected `,` or `}}` after label"));
            }
        }
    }

    /// Whether `sample` is a legal sample name for family `family` of `kind`.
    fn sample_belongs(family: &str, kind: OmKind, sample: &str) -> bool {
        match kind {
            OmKind::Counter => sample == format!("{family}_total"),
            OmKind::Gauge => sample == family,
            OmKind::Summary => {
                sample == family
                    || sample == format!("{family}_sum")
                    || sample == format!("{family}_count")
            }
        }
    }

    /// Strict OpenMetrics text parser, the reader of what
    /// `datanet_obs::to_openmetrics` writes. Returns the families in document
    /// order; any deviation from the grammar — unknown line shape, a sample
    /// before its `# TYPE`, bad label syntax, a missing `# EOF` — is an error.
    pub fn parse_openmetrics(text: &str) -> Result<Vec<OmFamily>, String> {
        let mut families: Vec<OmFamily> = Vec::new();
        let mut saw_eof = false;
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if saw_eof {
                return Err(format!("line {lineno}: content after # EOF"));
            }
            if line.is_empty() {
                return Err(format!("line {lineno}: empty line"));
            }
            if let Some(rest) = line.strip_prefix("# ") {
                if rest == "EOF" {
                    saw_eof = true;
                    continue;
                }
                if let Some(decl) = rest.strip_prefix("TYPE ") {
                    let mut parts = decl.split(' ');
                    let name = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    if parts.next().is_some() || !valid_metric_name(name) {
                        return Err(format!("line {lineno}: malformed TYPE line"));
                    }
                    let kind = OmKind::parse(kind)
                        .ok_or_else(|| format!("line {lineno}: unknown metric type `{kind}`"))?;
                    if families.iter().any(|f| f.name == name) {
                        return Err(format!("line {lineno}: family `{name}` declared twice"));
                    }
                    families.push(OmFamily {
                        name: name.to_string(),
                        kind,
                        samples: Vec::new(),
                    });
                    continue;
                }
                if rest.starts_with("HELP ") || rest.starts_with("UNIT ") {
                    continue;
                }
                return Err(format!("line {lineno}: unknown comment directive"));
            }
            // Sample line: name[{labels}] value
            let name_end = line
                .find(['{', ' '])
                .ok_or_else(|| format!("line {lineno}: sample without value"))?;
            let name = &line[..name_end];
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: bad metric name `{name}`"));
            }
            let (labels, rest) = if line[name_end..].starts_with('{') {
                parse_labels(&line[name_end..], lineno)?
            } else {
                (Vec::new(), &line[name_end..])
            };
            let value_str = rest
                .strip_prefix(' ')
                .ok_or_else(|| format!("line {lineno}: expected space before value"))?;
            if value_str.contains(' ') {
                return Err(format!("line {lineno}: trailing content after value"));
            }
            let value: f64 = value_str
                .parse()
                .map_err(|_| format!("line {lineno}: bad sample value `{value_str}`"))?;
            let family = families
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: sample before any # TYPE"))?;
            if !sample_belongs(&family.name, family.kind, name) {
                return Err(format!(
                    "line {lineno}: sample `{name}` does not belong to family `{}`",
                    family.name
                ));
            }
            if family.kind == OmKind::Summary && name == family.name {
                let q = OmSample {
                    name: name.to_string(),
                    labels: labels.clone(),
                    value,
                };
                if q.label("quantile").is_none() {
                    return Err(format!(
                        "line {lineno}: summary sample without quantile label"
                    ));
                }
            }
            family.samples.push(OmSample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        if !saw_eof {
            return Err("missing # EOF terminator".to_string());
        }
        Ok(families)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use datanet_obs::{series, to_openmetrics, HistSummary, MetricsSnapshot};

        /// Two labelled counters, an unlabelled one, a two-sample
        /// histogram and two gauges.
        fn sample_snapshot() -> MetricsSnapshot {
            let counters = [
                ("tasks{node=\"0\"}", 3),
                ("tasks{node=\"1\"}", 2),
                ("wall_spans", 7),
            ];
            let span = HistSummary {
                count: 2,
                sum: 600,
                ..HistSummary::default()
            };
            MetricsSnapshot {
                counters: counters.map(|(k, v)| (k.to_string(), v)).into(),
                hists: [("span_us{cat=\"task\"}".to_string(), span)].into(),
                gauges: [
                    ("meta_bytes".to_string(), 1024.0),
                    ("est_error".to_string(), 0.25),
                ]
                .into(),
                ..MetricsSnapshot::default()
            }
        }

        /// Satellite property: the OpenMetrics export round-trips through the
        /// strict parser with every series and value intact.
        #[test]
        fn openmetrics_roundtrips_through_strict_parser() {
            let snap = sample_snapshot();
            let text = to_openmetrics(&snap);
            let families = parse_openmetrics(&text).expect("export must parse");
            let by_name = |n: &str| families.iter().find(|f| f.name == n).unwrap();
            let tasks = by_name("tasks");
            assert_eq!(tasks.kind, OmKind::Counter);
            assert_eq!(tasks.samples.len(), 2);
            assert_eq!(tasks.samples[0].name, "tasks_total");
            assert_eq!(tasks.samples[0].label("node"), Some("0"));
            assert_eq!(tasks.samples[0].value, 3.0);
            let span = by_name("span_us");
            assert_eq!(span.kind, OmKind::Summary);
            // 3 quantiles + _sum + _count.
            assert_eq!(span.samples.len(), 5);
            let count = span
                .samples
                .iter()
                .find(|s| s.name == "span_us_count")
                .unwrap();
            assert_eq!(count.value, 2.0);
            let sum = span
                .samples
                .iter()
                .find(|s| s.name == "span_us_sum")
                .unwrap();
            assert_eq!(sum.value, 600.0);
            let gauges = by_name("meta_bytes");
            assert_eq!(gauges.kind, OmKind::Gauge);
            assert_eq!(gauges.samples[0].value, 1024.0);
        }

        #[test]
        fn parser_rejects_malformed_documents() {
            // No EOF.
            assert!(parse_openmetrics("# TYPE a counter\na_total 1\n").is_err());
            // Sample before TYPE.
            assert!(parse_openmetrics("a_total 1\n# EOF\n").is_err());
            // Sample not in family.
            assert!(parse_openmetrics("# TYPE a counter\nb_total 1\n# EOF\n").is_err());
            // Counter sample without _total.
            assert!(parse_openmetrics("# TYPE a counter\na 1\n# EOF\n").is_err());
            // Bad label syntax.
            assert!(parse_openmetrics("# TYPE a counter\na_total{x=1} 1\n# EOF\n").is_err());
            // Unterminated label value.
            assert!(parse_openmetrics("# TYPE a counter\na_total{x=\"1} 1\n# EOF\n").is_err());
            // Bad value.
            assert!(parse_openmetrics("# TYPE a counter\na_total zero\n# EOF\n").is_err());
            // Duplicate family.
            assert!(parse_openmetrics("# TYPE a counter\n# TYPE a counter\n# EOF\n").is_err());
            // Content after EOF.
            assert!(parse_openmetrics("# EOF\n# TYPE a counter\n").is_err());
            // Summary quantile sample without the quantile label.
            assert!(parse_openmetrics("# TYPE s summary\ns 1\n# EOF\n").is_err());
            // The empty-but-terminated document is fine.
            assert!(parse_openmetrics("# EOF\n").unwrap().is_empty());
        }

        #[test]
        fn label_escapes_roundtrip() {
            let key = series("notes", &[("note", "say \"hi\"\\now")]);
            let snap = MetricsSnapshot {
                counters: [(key, 1)].into(),
                ..MetricsSnapshot::default()
            };
            let text = to_openmetrics(&snap);
            let families = parse_openmetrics(&text).expect("escaped labels must parse");
            assert_eq!(
                families[0].samples[0].label("note"),
                Some("say \"hi\"\\now")
            );
        }

        #[test]
        fn prefix_sweep_covers_every_crash_point() {
            assert_eq!(write_prefixes(3).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
            assert_eq!(write_prefixes(0).collect::<Vec<_>>(), vec![0]);
        }

        #[test]
        fn resume_point_matches_the_durability_rule() {
            assert_eq!(expected_resume_from(2, 3, 3), Some(2));
            assert_eq!(expected_resume_from(2, 1, 3), Some(1));
            assert_eq!(expected_resume_from(0, 0, 3), None);
            assert_eq!(expected_resume_from(0, 3, 3), Some(0));
        }

        #[test]
        fn replica_dirs_clean_up_after_themselves() {
            let base;
            {
                let dirs = ReplicaDirs::new("selftest", 2);
                base = dirs.paths()[0].parent().unwrap().to_path_buf();
                for p in dirs.paths() {
                    fs::create_dir_all(p).unwrap();
                }
                assert!(base.exists());
            }
            assert!(!base.exists(), "drop must remove the tree");
        }
    }
}
