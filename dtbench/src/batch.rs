//! The batch workloads: one complete `DataTamer::run` from raw inputs to
//! fused entities, repeated. `batch_text` is dominated by text parsing and
//! storage writes, `batch_er` by blocked entity resolution.

use std::time::Instant;

use datatamer_core::fusion::{BlockedErConfig, FusedEntity, GroupingStrategy};
use datatamer_core::stage::{
    run_stages, CleaningStage, EntityConsolidationStage, FusionStage, IngestStage, PipelineContext,
    PipelineStage, SchemaIntegrationStage, TextIngestJob,
};
use datatamer_core::{DataTamer, DataTamerConfig, PipelinePlan};
use datatamer_text::DomainParser;

use crate::gen::{BatchInputs, Fingerprint};
use crate::layers;
use crate::spec::{first_set_up, Outcome, Sizing};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::RunArgs;

pub fn fused_fingerprint(fused: &[FusedEntity]) -> String {
    let mut fp = Fingerprint::default();
    for f in fused {
        fp.bytes(f.key.as_bytes());
        fp.bytes(&(f.member_count as u64).to_le_bytes());
        fp.bytes(format!("{:?}", f.confidence).as_bytes());
        fp.record(&f.record);
    }
    fp.hex()
}

struct Batch {
    inputs: BatchInputs,
    config: DataTamerConfig,
}

impl Batch {
    fn set_up(workload: &str, seed: u64, sizing: &Sizing) -> Batch {
        let ((fragments, padding, background), grouping) = match workload {
            "batch_text" => (sizing.text, GroupingStrategy::CanonicalName),
            _ => (
                sizing.er,
                GroupingStrategy::BlockedEr(BlockedErConfig::default()),
            ),
        };
        let inputs =
            BatchInputs::generate(seed, sizing.rows_per_source, fragments, padding, background);
        let batch = Batch {
            inputs,
            config: DataTamerConfig {
                grouping,
                ..Default::default()
            },
        };
        // First run in this process pays lazy set-up (allocator growth,
        // page faults); it belongs to set-up, not to the timed repeats.
        // (An error here comes back from the checked reference run.)
        let _ = batch.run();
        batch
    }

    fn parser(&self) -> DomainParser {
        DomainParser::with_gazetteer(self.inputs.corpus.gazetteer.clone())
    }

    /// Raw inputs to fused entities through the facade; the fingerprint of
    /// the fused output, or the error.
    fn run(&self) -> Result<String, String> {
        let mut plan = PipelinePlan::new();
        for (name, records) in &self.inputs.sources {
            plan = plan.structured(name.clone(), records);
        }
        plan = plan.webtext(self.parser(), self.inputs.fragments());
        let mut dt = DataTamer::new(self.config.clone());
        dt.run(plan)
            .map(fused_fingerprint)
            .map_err(|e| e.to_string())
    }

    /// The same run, one public stage per `run_stages` call, each in a span.
    fn run_staged(&self, tracer: &mut Tracer, op: u64) -> Result<PipelineContext, String> {
        let start = Instant::now();
        let mut ctx = PipelineContext::new(self.config.clone());
        let structured = self.inputs.sources.clone();
        let text = TextIngestJob {
            parser: self.parser(),
            fragments: self.inputs.fragments(),
        };
        let registry = self.config.fusion_resolvers.build();
        let stages: Vec<(&str, Box<dyn PipelineStage + '_>)> = vec![
            (
                "core.ingest",
                Box::new(IngestStage::new(structured, Some(text))),
            ),
            ("schema.integrate", Box::new(SchemaIntegrationStage::auto())),
            ("clean.clean", Box::new(CleaningStage)),
            (
                "core.consolidate",
                Box::new(EntityConsolidationStage::with_strategy(
                    self.config.grouping.clone(),
                )),
            ),
            ("core.fuse", Box::new(FusionStage::new(registry))),
        ];
        let mut spans = Vec::new();
        for (name, stage) in stages {
            let mut one = [stage];
            let begin = Instant::now();
            run_stages(&mut ctx, &mut one).map_err(|e| e.to_string())?;
            spans.push((name, begin, Instant::now()));
        }
        let root = tracer.record("batch_run", None, op, start, Instant::now());
        for (name, begin, end) in spans {
            tracer.record(name, Some(root), op, begin, end);
        }
        Ok(ctx)
    }
}

pub fn run(workload: &str, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let set_up = |_| Ok(Batch::set_up(workload, args.seed, &args.sizing));
    let Some((batch, setup_s)) = first_set_up(&mut out, &set_up) else {
        return out;
    };
    out.note(format!("input_fingerprint {}", batch.inputs.fingerprint()));

    // Untimed reference for the per-repeat output check.
    let reference = batch.run();
    match &reference {
        Ok(fp) => out.note(format!("fused_fingerprint {fp}")),
        Err(e) => out.fail(format!("reference run: {e}")),
    }

    let untraced_share = if args.trace { 0.3 } else { 1.0 };
    let mut runs_ms = Vec::new();
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < args.seconds * untraced_share
        || runs_ms.len() < args.sizing.min_ops
    {
        let t = Instant::now();
        let got = batch.run();
        runs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if got != reference {
            out.fail(format!(
                "repeat {} fused {got:?}, first repeat {reference:?}",
                runs_ms.len()
            ));
        }
    }
    let runs = Samples::new(runs_ms);

    if !args.trace {
        let per_s = batch.inputs.input_records() as f64 / (runs.mean() / 1e3);
        out.finish_end_to_end(&args.sizing, (batch, setup_s), &set_up, drop, &runs, per_s);
        return out;
    }

    let mut tracer = Tracer::new(Instant::now());
    let begin = Instant::now();
    let mut last = None;
    let mut op = 0;
    while begin.elapsed().as_secs_f64() < args.seconds * 0.4 || (op as usize) < args.sizing.min_ops
    {
        out.attempted += 1;
        match batch.run_staged(&mut tracer, op) {
            Ok(ctx) => {
                let fp = fused_fingerprint(&ctx.fused);
                if Ok(&fp) != reference.as_ref() {
                    out.fail(format!(
                        "staged repeat {op} fused {fp}, facade run {reference:?}"
                    ));
                }
                last = Some(ctx);
            }
            Err(e) => out.fail(format!("staged repeat {op}: {e}")),
        }
        op += 1;
    }
    let traced = tracer.durations_ms("batch_run");
    let stage_sum: f64 = [
        ("core.ingest", "core.ingest_ms"),
        ("schema.integrate", "schema.integrate_ms"),
        ("clean.clean", "clean.clean_ms"),
        ("core.consolidate", "core.consolidate_ms"),
        ("core.fuse", "core.fuse_ms"),
    ]
    .iter()
    .map(|(span, metric)| out.set_median_of(&tracer, span, metric).median())
    .sum();
    let share = stage_sum / traced.median();
    if !(0.95..=1.05).contains(&share) {
        out.note(format!(
            "WARNING core.stage_sum_share {share:.3} is outside 0.95..1.05"
        ));
    }
    out.set("core.stage_sum_share", share, 0);
    out.note(format!(
        "traced batch_run p50 {:.3} ms (n={}), untraced {:.3} ms (n={})",
        traced.median(),
        traced.len(),
        runs.median(),
        runs.len()
    ));
    out.set(
        "bench.trace_overhead_share",
        traced.median() / runs.median() - 1.0,
        0,
    );

    if let Some(ctx) = last {
        let budget = args.seconds * 0.1;
        layers::text_replay(
            &mut out,
            &mut tracer,
            &batch.parser(),
            &batch.inputs.fragments(),
            budget,
        );
        layers::storage_replay(&mut out, &mut tracer, &ctx, budget);
        if let GroupingStrategy::BlockedEr(config) = &batch.config.grouping {
            layers::entity_replay(&mut out, &mut tracer, &ctx, config, budget);
        }
        out.set("core.fused_entities", ctx.fused.len() as f64, 0);
        out.set(
            "core.fused_members",
            ctx.fused.iter().map(|f| f.member_count).sum::<usize>() as f64,
            0,
        );
    }
    args.write_trace(workload, &tracer, &mut out);
    out
}
