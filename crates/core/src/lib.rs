//! DATA TAMER — the end-to-end curation and fusion system.
//!
//! This crate wires every substrate together into the architecture of the
//! paper's Figure 1: data ingest (structured and parsed text), schema
//! integration, data cleaning/transformation, entity consolidation,
//! expert sourcing, and text/structured **fusion** with a query interface
//! over the integrated global schema.
//!
//! * [`config`] — system configuration (extent sizing, thresholds, scale).
//! * [`catalog`] — source registry assigning [`datatamer_model::SourceId`]s.
//! * [`ingest`] — text ingestion: clean → parse → store WEBINSTANCE /
//!   WEBENTITIES collections (with the paper's index layout) and extract
//!   show records for fusion.
//! * [`expert_bridge`] — expert panels answering escalated schema matches.
//! * [`fusion`] — fusing text-derived and structured records over the
//!   global schema (the Matilda enrichment of Tables V–VI). Two levels:
//!   a [`fusion::GroupingStrategy`] groups records into entities, and a
//!   [`fusion::RegistryConfig`] routes each attribute's conflicting values
//!   to a [`fusion::ResolverSpec`] (majority vote, source reliability,
//!   latest-wins, multi-truth, or one order-sensitive
//!   [`fusion::ConflictPolicy`]).
//! * [`query`] — demo queries: show lookup and top-k most-discussed
//!   award-winning titles (Table IV).
//! * [`stage`] — the staged pipeline: [`stage::PipelineStage`] (ingest →
//!   schema integration → cleaning → entity consolidation → fusion) over a
//!   [`stage::PipelineContext`] owning store, catalog, and stage reports.
//! * [`pipeline`] — [`pipeline::DataTamer`], the public facade assembling
//!   and running stage lists.

pub mod catalog;
pub mod config;
mod corpus;
pub mod expert_bridge;
pub mod fusion;
pub mod ingest;
pub mod pipeline;
pub mod query;
mod resident;
pub mod stage;

pub use catalog::{Catalog, SourceInfo, SourceKind};
pub use config::{DataTamerConfig, DeltaLogConfig};
pub use expert_bridge::ExpertPanelResolver;
pub use fusion::{
    fuse_records_with, ConflictPolicy, ProvenancedValue, RegistryConfig, Resolved, ResolverSpec,
};
pub use datatamer_entity::incremental::{DeltaReport, IncrementalConsolidator};
pub use ingest::{IngestStats, TextIngestor};
pub use pipeline::{DataTamer, PipelinePlan};
pub use stage::{PipelineContext, PipelineStage, StageReport};
