//! Schema integration facility.
//!
//! Data Tamer builds its global schema *bottom-up*: the first source's
//! attributes seed the global schema; each later source is matched
//! attribute-by-attribute against it with heuristic scores; high-confidence
//! matches auto-accept, mid-confidence ones escalate to experts, and
//! unmatched attributes are added as new global attributes or ignored
//! (paper Figs 2–3).
//!
//! * [`global`] — the growing global schema with per-attribute merged
//!   profiles and provenance.
//! * [`synonyms`] — a domain synonym dictionary used by the name signal.
//! * `matchers` (private) — the one attribute scorer (Data Tamer's
//!   "experts"): name, value-overlap, distribution and TF-IDF signals over
//!   prepared features, and the fit of the global schema they are read
//!   from. The fit is carried from call to call. A call tokenises each
//!   sampled value of its source once, into token ids that both preparing
//!   the source's attributes and folding them into the fit read; a global
//!   attribute the call maps onto or adds takes its new values' ids from
//!   there, and every TF-IDF vector is re-weighted from carried term
//!   counts and document frequencies. The name signal of each pair of
//!   attribute names is computed once per integrator.
//! * [`suggestion`] — match suggestions, scores, and decisions.
//! * [`integrate`] — the integration loop with accept/escalate thresholds
//!   and pluggable human resolution. Each call prepares each source
//!   attribute once against the carried fit, and `integrate_with` and
//!   `dry_run` share one ranking. This is exact because every global
//!   attribute a call changes is claimed, so no later attribute of that
//!   call is scored against it; the fit catches up when the call ends.

pub mod global;
pub mod integrate;
mod matchers;
pub mod suggestion;
pub mod synonyms;

pub use global::{GlobalAttribute, GlobalSchema};
pub use integrate::{IntegrationConfig, IntegrationReport, SchemaIntegrator};
pub use suggestion::{Decision, MatchCandidate, MatchSuggestion};
pub use synonyms::SynonymDict;
