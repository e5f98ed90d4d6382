//! Core data model for the Data Tamer reproduction.
//!
//! This crate defines the dynamic value system ([`Value`]), hierarchical
//! semi-structured documents ([`Document`]), the flat [`Record`]s every
//! Data Tamer stage processes (one value per uniquely named field),
//! per-source schemas with statistical attribute profiles
//! ([`SourceSchema`], [`AttributeProfile`]), and lexical type inference
//! ([`infer::LexicalType`]), plus [`AttrKey`], the total-order key every
//! index and group-by uses.
//!
//! Everything downstream — the sharded storage engine, the schema-integration
//! facility, entity consolidation, cleaning, and fusion — is built on these
//! types.

pub mod document;
pub mod error;
pub mod infer;
pub mod key;
pub mod record;
pub mod schema;
pub mod value;

pub use document::Document;
pub use error::{DtError, Result};
pub use infer::LexicalType;
pub use key::AttrKey;
pub use record::{AttrId, Record, RecordId, SourceId};
pub use schema::{AttributeDef, AttributeProfile, SourceSchema};
pub use value::Value;
