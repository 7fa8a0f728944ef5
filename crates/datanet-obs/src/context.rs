//! Causal query identity propagated through the whole stack.
//!
//! Spans, metrics, flight events and crash chains recorded by different
//! subsystems (scan, scheduler, engine, store, pipeline) all need to
//! correlate back to the query that caused them. A [`QueryCtx`] carries
//! that identity; [`crate::Recorder::scoped`] attaches one to a recording
//! handle so every event recorded through that handle is stamped with the
//! query id and tenant automatically — no signature changes anywhere.

use serde::{Deserialize, Serialize};

/// Identity of one logical query (or ingest run, or pipeline execution).
///
/// `query_id` is assigned by whoever opens the query scope (CLI, harness,
/// serve plane); `tenant` names the principal on whose behalf the work
/// runs; `parent_span` optionally links a sub-query to the span of the
/// query that spawned it (e.g. a pipeline stage fanning out a plan).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryCtx {
    /// Unique id of the query within the recording session.
    pub query_id: u64,
    /// Tenant / principal the query belongs to.
    pub tenant: Option<String>,
    /// Span id of the parent query's enclosing span, if any.
    pub parent_span: Option<u64>,
}

impl QueryCtx {
    /// A query context with the given id and no tenant.
    pub fn new(query_id: u64) -> Self {
        Self {
            query_id,
            tenant: None,
            parent_span: None,
        }
    }

    /// Set the tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let q = QueryCtx::new(7).tenant("acme");
        assert_eq!(q.query_id, 7);
        assert_eq!(q.tenant.as_deref(), Some("acme"));
        assert_eq!(q.parent_span, None);
    }

    #[test]
    fn roundtrips_through_serde() {
        let q = QueryCtx::new(9).tenant("t");
        let json = serde_json::to_string(&q).unwrap();
        let back: QueryCtx = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
