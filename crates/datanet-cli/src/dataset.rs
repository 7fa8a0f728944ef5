//! On-disk dataset files shared between CLI commands: the record stream
//! plus the DFS configuration, so every command rebuilds an identical DFS
//! deterministically.

use datanet_dfs::{Dfs, DfsConfig, Record};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// A generated dataset, self-contained and reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DatasetFile {
    /// The generator that produced it (for provenance).
    pub generator: String,
    /// DFS layout parameters.
    pub config: DfsConfig,
    /// The record stream in write order.
    pub records: Vec<Record>,
}

impl DatasetFile {
    /// Serialise to a JSON file.
    ///
    /// # Errors
    /// I/O or serialisation failures.
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, serde_json::to_vec(self)?)
    }

    /// Load from a JSON file.
    ///
    /// # Errors
    /// I/O or deserialisation failures, and [`io::ErrorKind::InvalidData`]
    /// for a file no DFS can be rebuilt from: no nodes, more nodes than the
    /// file has bytes (rebuilding allocates per node, so what a file costs
    /// stays in proportion to its length), a zero block size or
    /// replication, or a zero-byte record.
    pub(crate) fn load(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        let ds: Self = serde_json::from_slice(&bytes)?;
        let c = &ds.config;
        let problem = if c.topology.is_empty() {
            "the topology has no nodes".to_string()
        } else if c.topology.len() > bytes.len() {
            format!(
                "the topology's {} nodes outnumber the file's {} bytes",
                c.topology.len(),
                bytes.len()
            )
        } else if c.block_size == 0 {
            "block_size is 0".to_string()
        } else if c.replication == 0 {
            "replication is 0".to_string()
        } else if let Some(i) = ds.records.iter().position(|r| r.size == 0) {
            format!("record {i} has size 0")
        } else {
            return Ok(ds);
        };
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {problem}", path.display()),
        ))
    }

    /// Rebuild the DFS (deterministic under the stored config).
    pub(crate) fn to_dfs(&self) -> Dfs {
        Dfs::write_random(self.config.clone(), self.records.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{SubDatasetId, Topology};

    fn sample() -> DatasetFile {
        DatasetFile {
            generator: "test".into(),
            config: DfsConfig {
                block_size: 1000,
                replication: 2,
                topology: Topology::single_rack(4),
                seed: 9,
            },
            records: (0..50)
                .map(|i| Record::new(SubDatasetId(i % 5), i, 100, i))
                .collect(),
        }
    }

    #[test]
    fn roundtrip_and_deterministic_dfs() {
        let ds = sample();
        let path = std::env::temp_dir().join(format!("datanet-ds-{}.json", std::process::id()));
        ds.save(&path).unwrap();
        let loaded = DatasetFile::load(&path).unwrap();
        assert_eq!(ds, loaded);
        let a = ds.to_dfs();
        let b = loaded.to_dfs();
        assert_eq!(a.namenode(), b.namenode());
        assert_eq!(a.total_bytes(), b.total_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        assert!(DatasetFile::load(Path::new("/nonexistent/nowhere.json")).is_err());
    }

    /// `sample()` saved with its first `from` replaced by `to`, then loaded:
    /// the error, which must be `InvalidData`.
    fn load_damaged(name: &str, from: &str, to: &str) -> String {
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(json.contains(from), "{from} not in {json}");
        let path =
            std::env::temp_dir().join(format!("datanet-ds-{name}-{}.json", std::process::id()));
        std::fs::write(&path, json.replacen(from, to, 1)).unwrap();
        let err = DatasetFile::load(&path).expect_err("damaged file loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn zero_nodes_are_invalid_data() {
        let err = load_damaged("nodes", r#""nodes":4"#, r#""nodes":0"#);
        assert!(err.ends_with("the topology has no nodes"), "{err}");
    }

    #[test]
    fn more_nodes_than_bytes_are_invalid_data() {
        let err = load_damaged("many-nodes", r#""nodes":4"#, r#""nodes":4294967295"#);
        assert!(
            err.contains("the topology's 4294967295 nodes outnumber the file's"),
            "{err}"
        );
    }

    #[test]
    fn zero_block_size_is_invalid_data() {
        let err = load_damaged("block-size", r#""block_size":1000"#, r#""block_size":0"#);
        assert!(err.ends_with("block_size is 0"), "{err}");
    }

    #[test]
    fn zero_replication_is_invalid_data() {
        let err = load_damaged("replication", r#""replication":2"#, r#""replication":0"#);
        assert!(err.ends_with("replication is 0"), "{err}");
    }

    #[test]
    fn zero_byte_record_is_invalid_data() {
        let err = load_damaged("record", r#""size":100"#, r#""size":0"#);
        assert!(err.ends_with("record 0 has size 0"), "{err}");
    }

    /// A file written while topologies still had racks carries a
    /// `rack_size`: it loads, and rebuilds the DFS it always did (replicas
    /// pinned from that writer).
    #[test]
    fn a_file_with_a_rack_size_rebuilds_the_same_dfs() {
        let records: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    r#"{{"subdataset":{},"timestamp":{i},"size":100,"seed":{i}}}"#,
                    i % 3
                )
            })
            .collect();
        let json = format!(
            r#"{{"generator":"movies","config":{{"block_size":300,"replication":2,"topology":{{"nodes":5,"rack_size":5}},"seed":9}},"records":[{}]}}"#,
            records.join(",")
        );
        let path =
            std::env::temp_dir().join(format!("datanet-ds-racks-{}.json", std::process::id()));
        std::fs::write(&path, json).unwrap();
        let ds = DatasetFile::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(ds.config.topology, Topology::single_rack(5));
        let dfs = ds.to_dfs();
        let replicas: Vec<Vec<u32>> = (dfs.blocks().iter())
            .map(|b| dfs.replicas(b.id()).iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(replicas, [vec![0, 2], vec![0, 3], vec![4, 3]]);
    }
}
