//! The resolver routing: per-attribute truth-discovery dispatch.
//!
//! A [`RegistryConfig`] maps attribute names to [`ResolverSpec`]s with a
//! default fallback. It is clonable configuration that lives in
//! `DataTamerConfig::fusion_resolvers`, the one routing a system fuses
//! under, and fusion borrows it as is.

use super::policy::ConflictPolicy;
use super::resolve::ResolverSpec;

/// A whole resolver routing: `(attribute, spec)` overrides plus a default
/// spec. Lives in `DataTamerConfig::fusion_resolvers`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Per-attribute resolver overrides.
    pub per_attribute: Vec<(String, ResolverSpec)>,
    /// Resolver for attributes without an override.
    pub default: ResolverSpec,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self::broadway()
    }
}

impl RegistryConfig {
    /// Config with only a default resolver.
    pub fn uniform(default: ResolverSpec) -> Self {
        RegistryConfig { per_attribute: Vec::new(), default }
    }

    /// Builder: route `attr` to `spec` (replacing an earlier entry).
    pub fn with(mut self, attr: impl Into<String>, spec: ResolverSpec) -> Self {
        let attr = attr.into();
        match self.per_attribute.iter_mut().find(|(a, _)| *a == attr) {
            Some((_, slot)) => *slot = spec,
            None => self.per_attribute.push((attr, spec)),
        }
        self
    }

    /// The resolver dispatched for an attribute.
    pub fn resolver_of(&self, attr: &str) -> &ResolverSpec {
        self.per_attribute
            .iter()
            .find(|(a, _)| a == attr)
            .map_or(&self.default, |(_, spec)| spec)
    }

    /// The Broadway-demo routing: `CHEAPEST_PRICE` is the cheapest price
    /// seen (`NumericMin`); `TEXT_FEED`, `THEATER`, `PERFORMANCE` and
    /// `FIRST` take the first source's value (source priority: the seed
    /// source is the cleanest); `SHOW_NAME` and everything else
    /// majority-vote with first-seen tie breaks.
    pub fn broadway() -> Self {
        use super::{CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, TEXT_FEED, THEATER};
        let first = ResolverSpec::Policy(ConflictPolicy::First);
        let majority = ResolverSpec::Policy(ConflictPolicy::MajorityVote);
        RegistryConfig {
            per_attribute: vec![
                (CHEAPEST_PRICE.to_owned(), ResolverSpec::Policy(ConflictPolicy::NumericMin)),
                (TEXT_FEED.to_owned(), first.clone()),
                (THEATER.to_owned(), first.clone()),
                (PERFORMANCE.to_owned(), first.clone()),
                (FIRST.to_owned(), first),
                (SHOW_NAME.to_owned(), majority.clone()),
            ],
            default: majority,
        }
    }

    /// A clone of this routing. Fusion borrows a `RegistryConfig` directly;
    /// this exists only because the `dtbench` benchmark names it when it
    /// assembles a [`crate::stage::FusionStage`].
    pub fn build(&self) -> RegistryConfig {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{
        ProvenancedValue, Resolved, CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, TEXT_FEED,
        THEATER,
    };
    use datatamer_model::{RecordId, SourceId, Value};

    fn pv(value: &Value, i: usize) -> ProvenancedValue<'_> {
        ProvenancedValue {
            value,
            source: SourceId(i as u32),
            record: RecordId(i as u64),
            rank: i,
        }
    }

    #[test]
    fn dispatch_falls_back_to_default() {
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("FRESH", ResolverSpec::LatestWins);
        assert_eq!(registry.resolver_of("FRESH").name(), "latest_wins");
        assert_eq!(registry.resolver_of("ANYTHING").name(), "majority_vote");
        assert_eq!(registry.per_attribute, vec![("FRESH".to_owned(), ResolverSpec::LatestWins)]);
    }

    #[test]
    fn register_replaces_existing_route() {
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("A", ResolverSpec::LatestWins)
            .with("A", ResolverSpec::MultiTruth { min_support: 0.25 });
        assert_eq!(registry.resolver_of("A").name(), "multi_truth");
        assert_eq!(registry.per_attribute.len(), 1);
    }

    #[test]
    fn registry_resolve_routes_per_attribute() {
        let registry = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("FRESH", ResolverSpec::LatestWins);
        let vals: Vec<Value> = ["old", "old", "new"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i)).collect();
        let resolve = |attr: &str| registry.resolver_of(attr).resolve(&provs).0;
        assert_eq!(resolve("FRESH"), Resolved::Single(Value::from("new")));
        assert_eq!(resolve("OTHER"), Resolved::Single(Value::from("old")));
    }

    #[test]
    fn broadway_config_mirrors_legacy_policy_table() {
        let registry = RegistryConfig::broadway();
        assert_eq!(registry.resolver_of(CHEAPEST_PRICE).name(), "policy:numeric_min");
        for attr in [TEXT_FEED, THEATER, PERFORMANCE, FIRST] {
            assert_eq!(registry.resolver_of(attr).name(), "policy:first");
        }
        assert_eq!(registry.resolver_of(SHOW_NAME).name(), "policy:majority_vote");
        assert_eq!(registry.resolver_of("UNROUTED").name(), "policy:majority_vote");
    }

    #[test]
    fn spec_with_replaces_and_builds() {
        let config = RegistryConfig::uniform(ResolverSpec::MajorityVote)
            .with("A", ResolverSpec::LatestWins)
            .with("A", ResolverSpec::MultiTruth { min_support: 0.5 })
            .with("B", ResolverSpec::SourceReliability { iterations: 3 });
        assert_eq!(config.per_attribute.len(), 2);
        assert_eq!(config.resolver_of("A").name(), "multi_truth");
        assert_eq!(config.resolver_of("B").name(), "source_reliability");
        assert_eq!(config.build(), config);
    }
}
