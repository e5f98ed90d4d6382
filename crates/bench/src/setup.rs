//! Scaled system construction shared by the experiments the `tables`
//! binary prints.

use datatamer_core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer_corpus::ftables::{self, FtablesConfig, GeneratedSource};
use datatamer_corpus::webtext::{WebTextConfig, WebTextCorpus};
use datatamer_text::DomainParser;

/// Paper-side constants for scaling.
pub mod paper {
    /// Table I: WEBINSTANCE entry count.
    pub const INSTANCE_COUNT: u64 = 17_731_744;
    /// Table I: WEBINSTANCE extent count.
    pub const INSTANCE_EXTENTS: usize = 242;
    /// Table I: WEBINSTANCE index count.
    pub const INSTANCE_NINDEXES: usize = 1;
    /// Table I: last extent size (bytes).
    pub const INSTANCE_LAST_EXTENT: usize = 1_903_786_752;
    /// Table I: total index size (bytes).
    pub const INSTANCE_INDEX_SIZE: usize = 733_651_904;
    /// Table II: WEBENTITIES entry count.
    pub const ENTITY_COUNT: u64 = 173_451_529;
    /// Table II: WEBENTITIES extent count.
    pub const ENTITY_EXTENTS: usize = 56;
    /// Table II: WEBENTITIES index count.
    pub const ENTITY_NINDEXES: usize = 8;
    /// Table II: last extent size (bytes).
    pub const ENTITY_LAST_EXTENT: usize = 2_042_834_432;
    /// Table II: total index size (bytes).
    pub const ENTITY_INDEX_SIZE: usize = 59_123_168_800;
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Fraction of the paper's data volume (default 1/5000 — a few
    /// thousand fragments, seconds to build).
    pub scale: f64,
    /// Seed for every generator.
    pub seed: u64,
    /// Background mentions per fragment (the paper averages ~9.8 entities
    /// per instance: 173.4M / 17.7M).
    pub background_mentions: usize,
    /// Padding sentences per fragment (pushes instance docs toward the
    /// paper's large web-page excerpts).
    pub padding_sentences: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 1.0 / 5000.0,
            seed: 0xDA7A,
            background_mentions: 9,
            // ~24 filler sentences push instance documents to several KB,
            // reproducing the paper's instance-vs-entity size contrast
            // (WEBINSTANCE at 242 extents vs WEBENTITIES at 56 despite 10×
            // fewer documents).
            padding_sentences: 24,
        }
    }
}

impl HarnessConfig {
    /// Number of fragments at this scale.
    pub fn num_fragments(&self) -> usize {
        ((paper::INSTANCE_COUNT as f64) * self.scale).round().max(50.0) as usize
    }

    /// Extent size at this scale (paper: 2 GB).
    pub fn extent_size(&self) -> usize {
        ((2.0_f64 * 1024.0 * 1024.0 * 1024.0) * self.scale).max(64.0 * 1024.0) as usize
    }

    /// The web-text generator configuration at this scale.
    pub fn webtext_config(&self) -> WebTextConfig {
        WebTextConfig {
            num_fragments: self.num_fragments(),
            seed: self.seed,
            zipf_exponent: 0.7,
            background_mentions: self.background_mentions,
            padding_sentences: self.padding_sentences,
        }
    }
}

/// A fully-built system: corpus + sources + loaded Data Tamer instance.
pub struct ScaledSystem {
    /// The harness configuration used.
    pub config: HarnessConfig,
    /// The synthetic web-text corpus.
    pub corpus: WebTextCorpus,
    /// The 20 FTABLES sources.
    pub sources: Vec<GeneratedSource>,
    /// Data Tamer after one run over everything: sources integrated, text
    /// ingested, entities fused.
    pub dt: DataTamer,
}

impl ScaledSystem {
    /// Build the full system: generate datasets, then one pipeline run over
    /// all 20 structured sources and the web text.
    pub fn build(config: HarnessConfig) -> Self {
        let corpus = WebTextCorpus::generate(&config.webtext_config());
        let sources = ftables::generate(
            &FtablesConfig { seed: config.seed ^ 0xF7AB, ..Default::default() },
            1000,
        );
        let mut dt = DataTamer::new(DataTamerConfig {
            extent_size: config.extent_size(),
            ..Default::default()
        });
        let mut plan = PipelinePlan::new();
        for s in &sources {
            plan = plan.structured(&s.name, &s.records);
        }
        let parser = DomainParser::with_gazetteer(corpus.gazetteer.clone());
        let frags: Vec<(&str, &str)> = corpus
            .fragments
            .iter()
            .map(|f| (f.text.as_str(), f.kind.label()))
            .collect();
        dt.run(plan.webtext(parser, frags)).expect("store accepts records and documents");
        ScaledSystem { config, corpus, sources, dt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_scales_counts_and_extents() {
        let c = HarnessConfig { scale: 0.001, ..Default::default() };
        assert_eq!(c.num_fragments(), 17_732);
        assert!((c.extent_size() as f64 - 2_147_483.6).abs() < 2.0);
        let tiny = HarnessConfig { scale: 1e-9, ..Default::default() };
        assert_eq!(tiny.num_fragments(), 50, "fragment floor");
        assert_eq!(tiny.extent_size(), 64 * 1024, "extent floor");
    }

    #[test]
    fn build_tiny_system_end_to_end() {
        let sys = ScaledSystem::build(HarnessConfig {
            scale: 1.0 / 200_000.0,
            padding_sentences: 1,
            background_mentions: 2,
            ..Default::default()
        });
        assert_eq!(sys.sources.len(), 20);
        assert!(sys.dt.text_stats().instances > 0);
        assert!(sys.dt.global_schema().len() >= 3);
        assert!(!sys.dt.context().fused.is_empty());
    }
}
