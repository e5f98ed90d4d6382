//! The resolver registry: per-attribute truth-discovery dispatch.
//!
//! A [`ResolverRegistry`] maps attribute names to boxed [`ValueResolver`]s
//! with a default fallback. Registries are built either directly (boxing
//! resolvers) or from a [`RegistryConfig`], a clonable declarative spec
//! that lives in `DataTamerConfig::fusion_resolvers`, the one routing a
//! system fuses under.

use datatamer_entity::consolidate::ConflictPolicy;

use super::resolve::{
    LatestWins, MajorityVote, MultiTruth, PolicyResolver, ProvenancedValue, Resolved,
    ValueResolver,
};
use super::reliability::SourceReliability;

/// Per-attribute resolver dispatch with a default fallback.
pub struct ResolverRegistry {
    per_attribute: Vec<(String, Box<dyn ValueResolver>)>,
    default: Box<dyn ValueResolver>,
}

impl ResolverRegistry {
    /// Registry resolving every attribute with `default`.
    pub fn new(default: Box<dyn ValueResolver>) -> Self {
        ResolverRegistry { per_attribute: Vec::new(), default }
    }

    /// Builder form of [`ResolverRegistry::register`].
    pub fn with(mut self, attr: impl Into<String>, resolver: Box<dyn ValueResolver>) -> Self {
        self.register(attr, resolver);
        self
    }

    /// Route `attr` to `resolver` (replacing an earlier registration).
    pub fn register(&mut self, attr: impl Into<String>, resolver: Box<dyn ValueResolver>) {
        let attr = attr.into();
        match self.per_attribute.iter_mut().find(|(a, _)| *a == attr) {
            Some((_, slot)) => *slot = resolver,
            None => self.per_attribute.push((attr, resolver)),
        }
    }

    /// The resolver dispatched for an attribute.
    pub fn resolver_of(&self, attr: &str) -> &dyn ValueResolver {
        self.per_attribute
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, r)| r.as_ref())
            .unwrap_or(self.default.as_ref())
    }

    /// Resolve one attribute's values through the dispatched resolver.
    pub fn resolve(&self, attr: &str, values: &[ProvenancedValue<'_>]) -> Resolved {
        self.resolver_of(attr).resolve(attr, values)
    }

    /// [`ResolverRegistry::resolve`] plus the dispatched resolver's
    /// confidence, when it reports one.
    pub fn resolve_with_confidence(
        &self,
        attr: &str,
        values: &[ProvenancedValue<'_>],
    ) -> (Resolved, Option<f64>) {
        self.resolver_of(attr).resolve_with_confidence(attr, values)
    }

    /// `(attribute, resolver name)` routing table plus the default's name —
    /// what tests assert dispatch against.
    pub fn dispatch_table(&self) -> (Vec<(&str, &'static str)>, &'static str) {
        let rows = self
            .per_attribute
            .iter()
            .map(|(a, r)| (a.as_str(), r.name()))
            .collect();
        (rows, self.default.name())
    }

    /// The Broadway-demo routing, built from [`RegistryConfig::broadway`].
    pub fn broadway() -> Self {
        RegistryConfig::broadway().build()
    }
}

impl Default for ResolverRegistry {
    fn default() -> Self {
        Self::broadway()
    }
}

impl std::fmt::Debug for ResolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rows, default) = self.dispatch_table();
        f.debug_struct("ResolverRegistry")
            .field("per_attribute", &rows)
            .field("default", &default)
            .finish()
    }
}

/// Declarative, clonable resolver choice — the configuration-level mirror
/// of the built-in [`ValueResolver`] implementations.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolverSpec {
    /// Permutation-invariant majority vote ([`MajorityVote`]).
    MajorityVote,
    /// Iterative accu-style source weighting ([`SourceReliability`]).
    SourceReliability {
        /// Fixpoint rounds.
        iterations: usize,
    },
    /// Freshest record's value wins ([`LatestWins`]).
    LatestWins,
    /// Keep every value at or above a support fraction ([`MultiTruth`]).
    MultiTruth {
        /// Minimum support fraction in `(0, 1]`.
        min_support: f64,
    },
    /// A classic order-sensitive merge policy ([`PolicyResolver`]).
    Policy(ConflictPolicy),
}

impl ResolverSpec {
    /// Instantiate the resolver this spec describes.
    pub fn build(&self) -> Box<dyn ValueResolver> {
        match *self {
            ResolverSpec::MajorityVote => Box::new(MajorityVote),
            ResolverSpec::SourceReliability { iterations } => {
                Box::new(SourceReliability { iterations, ..Default::default() })
            }
            ResolverSpec::LatestWins => Box::new(LatestWins),
            ResolverSpec::MultiTruth { min_support } => Box::new(MultiTruth { min_support }),
            ResolverSpec::Policy(policy) => Box::new(PolicyResolver(policy)),
        }
    }
}

/// A whole registry as declarative config: `(attribute, spec)` overrides
/// plus a default spec. Lives in `DataTamerConfig::fusion_resolvers`.
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

    /// Instantiate the registry this config describes.
    pub fn build(&self) -> ResolverRegistry {
        let mut registry = ResolverRegistry::new(self.default.build());
        for (attr, spec) in &self.per_attribute {
            registry.register(attr.clone(), spec.build());
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{CHEAPEST_PRICE, FIRST, PERFORMANCE, SHOW_NAME, TEXT_FEED, THEATER};
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
        let registry = ResolverRegistry::new(Box::new(MajorityVote))
            .with("FRESH", Box::new(LatestWins));
        assert_eq!(registry.resolver_of("FRESH").name(), "latest_wins");
        assert_eq!(registry.resolver_of("ANYTHING").name(), "majority_vote");
        let (rows, default) = registry.dispatch_table();
        assert_eq!(rows, vec![("FRESH", "latest_wins")]);
        assert_eq!(default, "majority_vote");
    }

    #[test]
    fn register_replaces_existing_route() {
        let mut registry = ResolverRegistry::new(Box::new(MajorityVote));
        registry.register("A", Box::new(LatestWins));
        registry.register("A", Box::new(MultiTruth::default()));
        assert_eq!(registry.resolver_of("A").name(), "multi_truth");
        assert_eq!(registry.dispatch_table().0.len(), 1);
    }

    #[test]
    fn registry_resolve_routes_per_attribute() {
        let registry = ResolverRegistry::new(Box::new(MajorityVote))
            .with("FRESH", Box::new(LatestWins));
        let vals: Vec<Value> = ["old", "old", "new"].iter().map(|s| Value::from(*s)).collect();
        let provs: Vec<ProvenancedValue<'_>> =
            vals.iter().enumerate().map(|(i, v)| pv(v, i)).collect();
        assert_eq!(registry.resolve("FRESH", &provs), Resolved::Single(Value::from("new")));
        assert_eq!(registry.resolve("OTHER", &provs), Resolved::Single(Value::from("old")));
    }

    #[test]
    fn broadway_config_mirrors_legacy_policy_table() {
        let registry = RegistryConfig::broadway().build();
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
        let registry = config.build();
        assert_eq!(registry.resolver_of("A").name(), "multi_truth");
        assert_eq!(registry.resolver_of("B").name(), "source_reliability");
    }
}
