//! Seeded multi-tenant query streams.
//!
//! A stream is the serving plane's entire input: who asks for which
//! sub-dataset, when. It is expanded from a seed exactly once, up front —
//! the server never draws randomness of its own on the decision path, so
//! one `(seed, config)` pair always produces the same admission story.

use datanet_dfs::SubDatasetId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How tenant identities and sub-dataset choices are distributed across
/// the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMix {
    /// Every tenant equally likely; sub-datasets uniform.
    Uniform,
    /// Tenant `t` drawn with weight `1/(t+1)` (tenant 0 dominates);
    /// sub-datasets uniform.
    Skewed,
    /// Tenant 0 floods: it issues ~3/4 of all queries and always asks for
    /// the hottest sub-dataset (rank 0), the exact pattern fair-share
    /// quotas exist to contain. Other tenants uniform.
    Adversarial,
}

impl TenantMix {
    /// All mixes, for sweep tests.
    pub const ALL: [TenantMix; 3] = [
        TenantMix::Uniform,
        TenantMix::Skewed,
        TenantMix::Adversarial,
    ];

    /// Lower-case name (CLI flag value / report field).
    pub fn as_str(self) -> &'static str {
        match self {
            TenantMix::Uniform => "uniform",
            TenantMix::Skewed => "skewed",
            TenantMix::Adversarial => "adversarial",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(TenantMix::Uniform),
            "skewed" => Some(TenantMix::Skewed),
            "adversarial" => Some(TenantMix::Adversarial),
            _ => None,
        }
    }
}

/// One query in the stream: tenant `tenant` asks for sub-dataset `sub` at
/// simulated instant `arrival_us`. Ids are dense stream positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Dense query id (= position in the stream).
    pub id: u64,
    /// Issuing tenant, `0..tenants`.
    pub tenant: u32,
    /// Requested sub-dataset.
    pub sub: SubDatasetId,
    /// Arrival instant on the simulated clock.
    pub arrival_us: u64,
}

/// Shape of a generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Number of tenants (≥ 1).
    pub tenants: u32,
    /// Number of queries in the stream.
    pub queries: u32,
    /// Simulated microseconds between consecutive arrivals.
    pub gap_us: u64,
    /// Sub-dataset id space the queries draw from (≥ 1).
    pub subdatasets: u64,
    /// Tenant/sub-dataset distribution.
    pub mix: TenantMix,
    /// Stream RNG seed.
    pub seed: u64,
}

/// Expand a [`StreamConfig`] into its query stream, sorted by arrival
/// (ids are arrival order). Deterministic: same config, same stream.
///
/// # Panics
/// Panics on zero tenants or zero sub-datasets.
pub fn generate_stream(cfg: &StreamConfig) -> Vec<QuerySpec> {
    assert!(cfg.tenants >= 1, "need at least one tenant");
    assert!(cfg.subdatasets >= 1, "need at least one sub-dataset");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E4E_57EA_0000_0001);
    (0..cfg.queries as u64)
        .map(|i| {
            let tenant = draw_tenant(&mut rng, cfg);
            let sub = draw_sub(&mut rng, cfg, tenant);
            QuerySpec {
                id: i,
                tenant,
                sub,
                arrival_us: i * cfg.gap_us,
            }
        })
        .collect()
}

fn draw_tenant(rng: &mut StdRng, cfg: &StreamConfig) -> u32 {
    match cfg.mix {
        TenantMix::Uniform => rng.gen_range(0..cfg.tenants),
        TenantMix::Skewed => {
            // Weight 1/(t+1): sample by inverse-cumulative walk over the
            // (small) tenant count.
            let total: f64 = (0..cfg.tenants).map(|t| 1.0 / (t as f64 + 1.0)).sum();
            let mut x = rng.gen_range(0.0..total);
            for t in 0..cfg.tenants {
                x -= 1.0 / (t as f64 + 1.0);
                if x <= 0.0 {
                    return t;
                }
            }
            cfg.tenants - 1
        }
        TenantMix::Adversarial => {
            if cfg.tenants == 1 || rng.gen_bool(0.75) {
                0
            } else {
                rng.gen_range(1..cfg.tenants)
            }
        }
    }
}

fn draw_sub(rng: &mut StdRng, cfg: &StreamConfig, tenant: u32) -> SubDatasetId {
    match cfg.mix {
        // The flooding tenant hammers the hottest sub-dataset.
        TenantMix::Adversarial if tenant == 0 => SubDatasetId(0),
        _ => SubDatasetId(rng.gen_range(0..cfg.subdatasets)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mix: TenantMix) -> StreamConfig {
        StreamConfig {
            tenants: 4,
            queries: 200,
            gap_us: 1_000,
            subdatasets: 6,
            mix,
            seed: 11,
        }
    }

    #[test]
    fn streams_are_deterministic_and_well_formed() {
        for mix in TenantMix::ALL {
            let c = cfg(mix);
            let a = generate_stream(&c);
            assert_eq!(a, generate_stream(&c));
            assert_eq!(a.len(), 200);
            for (i, q) in a.iter().enumerate() {
                assert_eq!(q.id, i as u64);
                assert_eq!(q.arrival_us, i as u64 * 1_000);
                assert!(q.tenant < 4);
                assert!(q.sub.0 < 6);
            }
        }
    }

    #[test]
    fn adversarial_mix_floods_from_tenant_zero() {
        let a = generate_stream(&cfg(TenantMix::Adversarial));
        let from_zero = a.iter().filter(|q| q.tenant == 0).count();
        assert!(
            from_zero > a.len() / 2,
            "tenant 0 should dominate, got {from_zero}/{}",
            a.len()
        );
        assert!(
            a.iter().filter(|q| q.tenant == 0).all(|q| q.sub.0 == 0),
            "the flooding tenant always asks for the hottest sub-dataset"
        );
        // The other tenants still appear.
        assert!(a.iter().any(|q| q.tenant != 0));
    }

    #[test]
    fn skewed_mix_orders_tenants_by_volume() {
        let a = generate_stream(&StreamConfig {
            queries: 2_000,
            ..cfg(TenantMix::Skewed)
        });
        let mut counts = [0usize; 4];
        for q in &a {
            counts[q.tenant as usize] += 1;
        }
        assert!(counts[0] > counts[3], "1/(t+1) weights: got {counts:?}");
    }

    #[test]
    fn mix_names_roundtrip() {
        for mix in TenantMix::ALL {
            assert_eq!(TenantMix::parse(mix.as_str()), Some(mix));
        }
        assert_eq!(TenantMix::parse("nope"), None);
    }
}
