//! Synthetic datasets standing in for the paper's proprietary data.
//!
//! The paper evaluates on (a) ~1 TB of Recorded Future web text
//! (WEBINSTANCE / WEBENTITIES) and (b) 20 Google Fusion Tables sources about
//! Broadway shows (FTABLES). Neither is publicly available, so this crate
//! generates deterministic synthetic equivalents that exercise the same code
//! paths:
//!
//! * [`names`] — name pools: the award-winning shows of Table IV, Broadway
//!   theatres, person/company/city/... pools per Table III's type inventory.
//! * [`webtext`] — seeded fragment generator (news / blog / tweet styles)
//!   whose show-discussion frequencies are Zipf-weighted so the paper's
//!   Table IV top-10 emerges, and whose entity-type mix is calibrated to
//!   Table III's proportions.
//! * [`ftables`] — the 20 heterogeneous Broadway sources (5–20 attributes,
//!   10–100 rows) with synonymous attribute names and format variance,
//!   including the literal Matilda/Shubert row of Table VI.
//! * [`dirt`] — noise injection: typos, case damage, format variance, nulls.
//! * [`truth`] — generator-side ground truth: attribute mappings for schema
//!   matching evaluation and duplicate pair labels for dedup evaluation.

pub mod dirt;
pub mod ftables;
pub mod names;
pub mod truth;
pub mod webtext;

pub use ftables::{FtablesConfig, GeneratedSource};
pub use truth::GroundTruth;
pub use webtext::{WebTextConfig, WebTextCorpus};
