//! # datatamer-query — the read path over fused entities
//!
//! Everything before this crate *produces* the consolidated view — the
//! staged pipeline ingests, deduplicates, and fuses records into a
//! `Vec<FusedEntity>`. This crate is what makes that view a served
//! artifact rather than something callers scan by hand, in three layers:
//!
//! 1. **Secondary indexes** ([`index`]) — a hash index for equality and a
//!    `BTreeMap`-backed ordered index for ranges, over any entity
//!    attribute (including the `_key` / `_members` / `_confidence`
//!    pseudo-attributes). Keys use [`key::AttrKey`], whose equality,
//!    ordering, and hashing all derive from `Value::total_cmp`. Builds
//!    fan out with rayon but insert in a fixed order, and
//!    [`view::CollectionView::sync`] maintains them *incrementally* from
//!    `consolidate_delta`'s dirty-cluster set — counters on
//!    [`index::IndexMaintenance`] prove no full rebuilds happen during
//!    delta ingest.
//! 2. **Typed query AST + planner** ([`ast`], [`exec`]) — `Query { filter,
//!    project, aggregate, order_by, limit }`, planned from the predicate
//!    alone into a hash probe, ordered probe, or row-parallel full scan
//!    over the entities. Every plan funnels through one shared
//!    result-shaping routine which is also the whole body of
//!    [`exec::execute_oracle`], so planned results are byte-identical to
//!    the naive sequential scan at any thread count — pinned by proptest
//!    in `tests/query_oracle.rs`.
//! 3. **HTTP/1.1 front end** ([`http`]) — hand-rolled request parsing on
//!    `std::net::TcpListener` (no registry deps), a bounded worker pool,
//!    and per-collection routes for point lookup, query, and stats.
//!    Ingest publishes immutable snapshots through [`http::SharedViews`]
//!    by swapping an `Arc`, so concurrent readers never see a torn view.
//!
//! ```
//! use datatamer_query::prelude::*;
//! use datatamer_core::fusion::FusedEntity;
//! use datatamer_model::{Record, RecordId, SourceId, Value};
//!
//! let entities: Vec<FusedEntity> = (0..100)
//!     .map(|i| FusedEntity {
//!         key: format!("show{i}"),
//!         record: Record::from_pairs(
//!             SourceId(0),
//!             RecordId(i),
//!             vec![
//!                 ("PRICE", Value::Int((i as i64 % 10) * 10)),
//!                 ("KIND", Value::from(if i % 3 == 0 { "musical" } else { "play" })),
//!             ],
//!         ),
//!         member_count: 1,
//!         confidence: None,
//!     })
//!     .collect();
//!
//! let snap = CollectionSnapshot::from_entities(
//!     entities,
//!     IndexSpec::default().hash_on("KIND").ordered_on("PRICE"),
//! );
//! let q = Query::filtered(Predicate::And(vec![
//!     Predicate::Eq("KIND".into(), "musical".into()),
//!     Predicate::Gte("PRICE".into(), Value::Int(50)),
//! ]))
//! .aggregate(Aggregate::Count);
//! let run = snap.execute(&q);
//! assert_eq!(run.plan, PlanKind::HashProbe);
//! assert_eq!(run.result, execute_oracle(snap.entities(), &q));
//! ```

pub mod ast;
pub mod exec;
pub mod http;
pub mod index;
pub mod key;
pub mod view;

pub use ast::{
    Aggregate, AttrSource, Order, Predicate, Query, QueryResult, Row, CONFIDENCE_ATTR, KEY_ATTR,
    MEMBERS_ATTR,
};
pub use exec::{execute_oracle, CollectionSnapshot, Executed, PlanKind, SnapshotStats};
pub use http::{QueryServer, ServerConfig, SharedViews};
pub use index::{EntityIndexes, HashIndex, IndexMaintenance, OrderedIndex};
pub use key::AttrKey;
pub use view::{CollectionView, IndexSpec};

/// One-line import for the common query surface.
pub mod prelude {
    pub use crate::ast::{Aggregate, Order, Predicate, Query, QueryResult, Row};
    pub use crate::exec::{execute_oracle, CollectionSnapshot, PlanKind};
    pub use crate::http::{QueryServer, ServerConfig, SharedViews};
    pub use crate::view::{CollectionView, IndexSpec};
}
