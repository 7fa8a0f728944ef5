//! Self-contained repro files.
//!
//! A [`Repro`] embeds the fully-expanded (usually shrunk) [`Scenario`]
//! plus the planted-bug options and the violations observed, so a
//! failure found on one machine replays anywhere with
//! `datanet check --repro FILE` — no seed stream, corpus or generator
//! version needed to reproduce it.

use crate::harness::{check_scenario_with, CheckOptions, CheckOutcome, Violation};
use crate::scenario::Scenario;
use datanet_obs::FlightDump;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::path::Path;

/// A serialised failing world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Repro {
    /// The seed whose expansion (before shrinking) first failed.
    pub original_seed: u64,
    /// The (shrunk) scenario that still fails.
    pub scenario: Scenario,
    /// Planted-bug options the failure was observed under (all-default
    /// outside the harness's self-test).
    pub options: CheckOptions,
    /// The violations observed when the repro was written.
    pub violations: Vec<Violation>,
    /// Flight-recorder dump of the shrunk failing run ([`FlightDump`] as
    /// a JSON tree; `Null` when no ring was attached) — the last
    /// significant events before the violations, preserved alongside the
    /// world that produced them.
    pub flight: Value,
}

impl Repro {
    /// Write the repro as pretty JSON.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }

    /// Read a repro back.
    ///
    /// # Errors
    /// File-system errors, or a file that is not a valid repro — not JSON
    /// of this shape, or a scenario [`Scenario::validate`] refuses, so
    /// [`Repro::replay`] never builds a world from unchecked fields.
    pub fn load(path: &Path) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let bytes = std::fs::read(path)?;
        let repro: Self = serde_json::from_slice(&bytes).map_err(|e| invalid(e.to_string()))?;
        repro.scenario.validate().map_err(invalid)?;
        Ok(repro)
    }

    /// Re-run the embedded scenario under the embedded options.
    pub fn replay(&self) -> CheckOutcome {
        check_scenario_with(&self.scenario, &self.options)
    }

    /// The embedded flight dump, if one was recorded.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        FlightDump::from_value(&self.flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_roundtrips_through_disk() {
        let mut ring = datanet_obs::FlightRing::new(4);
        ring.push(datanet_obs::FlightEvent {
            seq: 0,
            kind: datanet_obs::FlightKind::OracleViolation,
            domain: datanet_obs::Domain::Wall,
            at_us: 42,
            node: None,
            query: None,
            tenant: None,
            detail: "greedy-conservation: credited 1 byte too many".into(),
        });
        let repro = Repro {
            original_seed: 9,
            scenario: Scenario::from_seed(9),
            options: CheckOptions {
                credit_skew: 1,
                ..CheckOptions::default()
            },
            violations: vec![Violation {
                oracle: "greedy-conservation".into(),
                detail: "credited 1 byte too many".into(),
            }],
            flight: ring.dump().to_value(),
        };
        let path = std::env::temp_dir().join(format!(
            "datanet-check-repro-test-{}.json",
            std::process::id()
        ));
        repro.save(&path).unwrap();
        let back = Repro::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, repro);
        let dump = back.flight_dump().expect("flight dump embedded");
        assert_eq!(dump.events.len(), 1);
        assert!(dump.events[0].detail.contains("greedy-conservation"));
    }

    /// `Repro::load` is the input boundary: a file whose scenario the
    /// world builders would panic on is an error naming the field.
    #[test]
    fn load_refuses_a_scenario_the_builders_would_panic_on() {
        use crate::scenario::{CrashEvent, ServeEventPlan};
        type Mutation = fn(&mut Scenario);
        let table: [(&str, Mutation); 8] = [
            ("nodes", |s| s.nodes = 0),
            ("subdatasets", |s| s.subdatasets = 0),
            ("block_size", |s| s.block_size = 0),
            ("shard_blocks", |s| s.shard_blocks = 0),
            ("alpha", |s| s.alpha = f64::NAN),
            ("alpha", |s| s.alpha = 2.0),
            ("crashes.node", |s| {
                s.crashes = vec![CrashEvent {
                    node: 99,
                    at_us: 5_000,
                }]
            }),
            ("serve.events", |s| {
                s.serve.events = vec![
                    ServeEventPlan::NodeLoss {
                        at_query: 5,
                        node: 1,
                    },
                    ServeEventPlan::Ingest {
                        at_query: 2,
                        blocks: 1,
                    },
                ]
            }),
        ];
        for (i, (field, mutate)) in table.iter().enumerate() {
            let mut repro = Repro {
                original_seed: 7,
                scenario: Scenario::from_seed(7),
                options: CheckOptions::default(),
                violations: Vec::new(),
                flight: Value::Null,
            };
            mutate(&mut repro.scenario);
            let refused = repro.scenario.validate().expect_err(field);
            assert!(refused.contains(&format!("`{field}`")), "{refused}");
            let path = std::env::temp_dir().join(format!(
                "datanet-check-bad-repro-{}-{i}.json",
                std::process::id()
            ));
            repro.save(&path).unwrap();
            let err = Repro::load(&path).expect_err(field);
            std::fs::remove_file(&path).unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // A NaN is saved as `null`, which the JSON reader refuses first.
            if !repro.scenario.alpha.is_nan() {
                assert_eq!(err.to_string(), refused);
            }
        }
    }
}
