//! System configuration.

use std::path::PathBuf;

use datatamer_schema::IntegrationConfig;
use datatamer_storage::{BackendConfig, CollectionConfig, DEFAULT_EXTENT_CACHE_BUDGET};

use crate::fusion::{GroupingStrategy, RegistryConfig};

/// Persistence of the resident consolidation session: every accepted delta
/// batch appends to a checksummed log
/// ([`datatamer_storage::DeltaLog`]), so a restarted
/// [`crate::DataTamer`] over the same path replays the batches instead of
/// losing them — fused output stays byte-identical across a kill/restart
/// at any batch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaLogConfig {
    /// Log file path (created on first use).
    pub path: PathBuf,
    /// Compact the log to a single frame once it holds more than this
    /// many frames, bounding replay cost on restart. 0 compacts after
    /// every append.
    pub compact_after_frames: usize,
}

impl DeltaLogConfig {
    /// A log at `path` compacting once replay would cross 64 frames.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        DeltaLogConfig { path: path.into(), compact_after_frames: 64 }
    }
}

/// Where collections live — the system-level face of the storage crate's
/// shard coordinator. The default (in-process memory) is byte-compatible
/// with the pre-coordinator engine; switching to [`BackendConfig::File`]
/// makes every collection out-of-core (tail extents resident,
/// recently-read extents held by a byte-budget cache). Documents are
/// always placed round robin across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Shard substrate for every collection the pipeline creates.
    pub backend: BackendConfig,
    /// Per-shard extent-cache byte budget for file-backed collections:
    /// `None` = unbounded, `Some(0)` = disabled (every read loads from
    /// disk — byte-identical output, pre-cache performance), `Some(n)` =
    /// at most `n` bytes of decoded flushed extents resident per shard.
    /// Cache occupancy and hit/miss/eviction counters surface per shard in
    /// the [`datatamer_storage::StorageReport`]s carried on stage reports.
    pub extent_cache_budget: Option<usize>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendConfig::default(),
            extent_cache_budget: Some(DEFAULT_EXTENT_CACHE_BUDGET),
        }
    }
}

/// Configuration of a [`crate::DataTamer`] instance.
#[derive(Debug, Clone)]
pub struct DataTamerConfig {
    /// Storage namespace (the paper uses `dt`).
    pub namespace: String,
    /// Extent size in bytes for the sharded collections. The paper's extents
    /// are 2 GB; the default here is 2 MB = the paper at 1/1000 scale, which
    /// keeps `numExtents` in the ranges of Tables I–II.
    pub extent_size: usize,
    /// Shards per collection.
    pub shards: usize,
    /// Shard backend and extent-cache budget for every collection (see
    /// [`StorageConfig`]).
    pub storage: StorageConfig,
    /// Schema-integration thresholds.
    pub integration: IntegrationConfig,
    /// Threshold for fusing two show records as the same entity.
    pub fusion_threshold: f64,
    /// How entity consolidation forms candidate groups: the classic
    /// canonical-name scan ([`GroupingStrategy::CanonicalName`], the
    /// default) or similarity-based blocked ER
    /// ([`GroupingStrategy::BlockedEr`]). The one source of the strategy
    /// for a [`crate::DataTamer`]: every staged run and delta
    /// consolidation groups under it, for the life of the system.
    pub grouping: GroupingStrategy,
    /// Per-attribute truth-discovery routing for the fusion stage. The
    /// default mirrors the paper demo ([`RegistryConfig::broadway`]). Like
    /// [`DataTamerConfig::grouping`], the one source of the routing for
    /// the life of a [`crate::DataTamer`], so every fused entity it
    /// produces was resolved under the same routing.
    pub fusion_resolvers: RegistryConfig,
    /// Append accepted delta batches to a persistent log so a restarted
    /// system replays them (see [`DeltaLogConfig`]). `None` keeps the
    /// session memory-only.
    pub delta_log: Option<DeltaLogConfig>,
}

impl Default for DataTamerConfig {
    fn default() -> Self {
        DataTamerConfig {
            namespace: "dt".to_owned(),
            extent_size: 2 * 1024 * 1024,
            shards: 8,
            storage: StorageConfig::default(),
            integration: IntegrationConfig::default(),
            fusion_threshold: 0.82,
            grouping: GroupingStrategy::CanonicalName,
            fusion_resolvers: RegistryConfig::broadway(),
            delta_log: None,
        }
    }
}

impl DataTamerConfig {
    /// Collection config derived from this system config.
    pub fn collection_config(&self) -> CollectionConfig {
        CollectionConfig {
            extent_size: self.extent_size,
            shards: self.shards,
            backend: self.storage.backend.clone(),
            extent_cache_budget: self.storage.extent_cache_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_at_milliscale() {
        let c = DataTamerConfig::default();
        assert_eq!(c.extent_size, 2 * 1024 * 1024);
        assert_eq!(c.namespace, "dt");
        assert_eq!(c.fusion_resolvers, RegistryConfig::broadway());
        assert_eq!(c.grouping, GroupingStrategy::CanonicalName);
        let cc = c.collection_config();
        assert_eq!(cc.extent_size, c.extent_size);
        assert_eq!(cc.shards, 8);
        assert_eq!(cc.backend, BackendConfig::Memory);
    }

    #[test]
    fn storage_config_travels_into_collection_config() {
        let dir = std::env::temp_dir().join("dt_cfg_test");
        let c = DataTamerConfig {
            storage: StorageConfig {
                backend: BackendConfig::File { dir: dir.clone() },
                extent_cache_budget: Some(4096),
            },
            ..Default::default()
        };
        let cc = c.collection_config();
        assert_eq!(cc.backend, BackendConfig::File { dir });
        assert_eq!(cc.extent_cache_budget, Some(4096));
    }
}
