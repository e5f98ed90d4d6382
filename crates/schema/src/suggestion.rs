//! Match suggestions and integration decisions.
//!
//! These are the structured equivalents of the paper's Fig 2/3 UI: per
//! source attribute, a ranked candidate list with heuristic scores, an
//! alert when no counterpart exists, and the chosen action.

use datatamer_model::AttrId;

/// One candidate global attribute for a source attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchCandidate {
    /// Candidate global attribute.
    pub attr: AttrId,
    /// Its canonical name (denormalised for display).
    pub name: String,
    /// Composite heuristic score in `[0, 1]`.
    pub score: f64,
}

/// The action taken for a source attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Mapped automatically: score cleared the acceptance threshold.
    AutoAccept { attr: AttrId, score: f64 },
    /// A human confirmed the mapping (directly or via expert sourcing).
    ExpertAccept { attr: AttrId, score: f64 },
    /// A human rejected all candidates; attribute added to the global schema.
    ExpertNewAttribute,
    /// No candidate scored above the floor; added as a new global attribute
    /// (the Fig 2 alert: "fields that do not have any counterpart ... add to
    /// the global schema").
    NewAttribute,
    /// Dropped on request (the Fig 2 "ignore" action).
    Ignore,
}

impl Decision {
    /// The mapped global attribute, when the decision maps one.
    pub fn mapped_attr(&self) -> Option<AttrId> {
        match self {
            Decision::AutoAccept { attr, .. } | Decision::ExpertAccept { attr, .. } => Some(*attr),
            _ => None,
        }
    }

    /// True when a human was involved.
    pub fn required_human(&self) -> bool {
        matches!(self, Decision::ExpertAccept { .. } | Decision::ExpertNewAttribute)
    }
}

/// The full suggestion record for one source attribute.
#[derive(Debug, Clone)]
pub struct MatchSuggestion {
    /// The source attribute name.
    pub source_attr: String,
    /// Ranked candidates (best first), possibly empty on a fresh schema.
    pub candidates: Vec<MatchCandidate>,
    /// True when no candidate reached even the escalation floor — the
    /// "no counterpart in the global schema yet" alert of Fig 2.
    pub no_counterpart_alert: bool,
    /// The decision taken.
    pub decision: Decision,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        let auto = Decision::AutoAccept { attr: AttrId(1), score: 0.9 };
        assert_eq!(auto.mapped_attr(), Some(AttrId(1)));
        assert!(!auto.required_human());
        let expert = Decision::ExpertAccept { attr: AttrId(2), score: 0.6 };
        assert_eq!(expert.mapped_attr(), Some(AttrId(2)));
        assert!(expert.required_human());
        assert_eq!(Decision::NewAttribute.mapped_attr(), None);
        assert!(Decision::ExpertNewAttribute.required_human());
        assert!(!Decision::Ignore.required_human());
    }
}
