//! Replica catalog: which repository sites hold which datasets.
//!
//! In the paper, a dataset "may be replicated across multiple
//! repositories", and resource selection chooses the replica allowing the
//! lowest-cost retrieval + movement + processing. The catalog is the
//! lookup half of that: dataset id → replica site names. (Site
//! descriptions live in `fg-cluster`; the two are joined by name at
//! selection time, keeping this crate free of resource-model types.)

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dataset → replica-site registry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplicaCatalog {
    entries: BTreeMap<String, Vec<String>>,
}

impl ReplicaCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a replica of `dataset` at `site`. Duplicate registrations
    /// are idempotent.
    pub fn register(&mut self, dataset: &str, site: &str) {
        let sites = self.entries.entry(dataset.to_string()).or_default();
        if !sites.iter().any(|s| s == site) {
            sites.push(site.to_string());
        }
    }

    /// Sites holding a replica of `dataset` (empty if unknown).
    pub fn replicas(&self, dataset: &str) -> &[String] {
        self.entries.get(dataset).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All registered dataset ids.
    pub fn datasets(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut cat = ReplicaCatalog::new();
        cat.register("ds1", "osu");
        cat.register("ds1", "anl");
        assert_eq!(cat.replicas("ds1"), &["osu", "anl"]);
        assert!(cat.replicas("nope").is_empty());
    }

    #[test]
    fn registration_is_idempotent() {
        let mut cat = ReplicaCatalog::new();
        cat.register("ds1", "osu");
        cat.register("ds1", "osu");
        assert_eq!(cat.replicas("ds1").len(), 1);
    }

    #[test]
    fn datasets_enumerates_keys() {
        let mut cat = ReplicaCatalog::new();
        cat.register("b", "x");
        cat.register("a", "x");
        let names: Vec<&str> = cat.datasets().collect();
        assert_eq!(names, vec!["a", "b"]); // BTreeMap order
    }
}
