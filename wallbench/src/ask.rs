//! The `ask-*` workloads: one caller thread asks a fixed corpus of
//! questions through [`NliPipeline::ask_with`] in a closed loop (the
//! next ask starts when the previous answer returns).
//!
//! The corpus is fixed: `spider_like` questions (16 per domain, seed 7)
//! over the six generated domains (`DB_SEED + i`), each at paraphrase
//! levels 0 and 3. The run seed decides only the visiting order: an
//! untimed warm-up pass computes every oracle, then timed passes visit
//! the questions in a seeded shuffled order and ask each one under
//! every family of the workload, the families in a rotated order per
//! question, so a drift of the machine spreads over all families
//! instead of landing on the one timed in its window. Timing stops at
//! the first pass boundary after `--seconds`, so every run asks whole
//! passes and its accuracy and answered share repeat exactly.
//!
//! ## The `IN (SELECT …)` tail of `ask-scaled`
//!
//! On join questions the entity family emits
//! `… AND d.id IN (SELECT f.fk FROM fact)`. The engine caches the
//! uncorrelated sub-query's result but fetches it through
//! `EvalCtx::subquery` (`crates/engine/src/eval.rs`), which clones the
//! whole cached result set for every outer row and then scans it
//! linearly: quadratic in the fact table. At native size that is
//! invisible; at ×10 fact rows those few asks cost tens of
//! milliseconds against a median execute near one, so they set
//! `ask-scaled`'s `ask_p99_us` and most of its `asks_per_s`. The path
//! is deliberately left as it is: an engine change that removes the
//! clone should show its gain on `ask-scaled` (p99 and throughput)
//! while `ask-families` — where execute is a small share of an ask —
//! stays unchanged as its control.

use std::sync::Arc;
use std::time::Instant;

use nlidb_bench::workloads::{paraphrased, training_examples};
use nlidb_benchdata::{derive_slots, domain_database, spider_like, DOMAIN_NAMES};
use nlidb_core::interpretation::InterpreterKind;
use nlidb_core::pipeline::{NliPipeline, SchemaContext};
use nlidb_evalkit::execution_match;
use nlidb_sqlir::Query;

use crate::order::{pass_rng, shuffled};
use crate::probe::{execute_tail_ok, layer_metrics, probe_question, probe_serve, ProbeQuestion};
use crate::replicate::replicate_fact_tables;
use crate::spans::Recorder;
use crate::stats::{median, Samples};
use crate::{end_to_end, time_setups, Args, Outcome, RunResult, DB_SEED, PROBE_CAP, TRAIN_N};

/// Questions generated per domain.
pub const QUESTIONS_PER_DOMAIN: usize = 16;
/// Paraphrase levels every question is asked at.
pub const LEVELS: [u8; 2] = [0, 3];
const QUESTION_SEED: u64 = 7;
const PARAPHRASE_SEED: u64 = 11;

/// One `ask-*` workload.
#[derive(Debug)]
pub struct AskWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Families every question is asked under.
    pub families: &'static [InterpreterKind],
    /// Training examples per domain (0 leaves the learned families
    /// untrained).
    pub train_n: usize,
    /// Replication factor of foreign-key-bearing tables.
    pub scale: usize,
}

/// `ask-families`: the six domains at native size (80–140 fact rows),
/// neural and hybrid trained on [`TRAIN_N`] examples per domain the way
/// `nlidb_bench::workloads::setup_domain` trains them, every question
/// under all five families.
///
/// Why: `nli-core` linking and interpretation do about 95% of the work
/// (family medians of a few milliseconds, neural well under one,
/// execute about 0.1 ms), and set-up is mostly `ml` training. A gain
/// in `nli-core`, `ontology` or `nlp` shows here; `engine` and `serve`
/// changes should not move it.
pub const ASK_FAMILIES: AskWorkload = AskWorkload {
    name: "ask-families",
    families: &[
        InterpreterKind::Keyword,
        InterpreterKind::Pattern,
        InterpreterKind::Entity,
        InterpreterKind::Neural,
        InterpreterKind::Hybrid,
    ],
    train_n: TRAIN_N,
    scale: 1,
};

/// `ask-scaled`: the same domains and questions with every
/// foreign-key-bearing table replicated ×10 in set-up
/// ([`replicate_fact_tables`]; dimension tables unchanged, ≈6.9k rows
/// in all), asked under the entity and hybrid families, untrained.
///
/// Why: `engine` execute does most of the work — a large share of the
/// median ask and nearly all of the p99, through the `IN (SELECT …)`
/// tail described in the module docs. ×10 keeps the run from being
/// decided by a handful of questions while the tail still shows.
/// `nli-core` gains move this workload only at the median.
pub const ASK_SCALED: AskWorkload = AskWorkload {
    name: "ask-scaled",
    families: &[InterpreterKind::Entity, InterpreterKind::Hybrid],
    train_n: 0,
    scale: 10,
};

/// One corpus question.
#[derive(Debug, Clone)]
pub struct Item {
    /// Index into the workload's domains.
    pub domain: usize,
    /// The (paraphrased) question.
    pub question: String,
    /// Gold SQL.
    pub gold: Query,
}

fn domain_seed(i: usize) -> u64 {
    DB_SEED + i as u64
}

/// The fixed question corpus, domain by domain.
pub fn corpus() -> Vec<Item> {
    let mut items = Vec::new();
    for (d, name) in DOMAIN_NAMES.iter().enumerate() {
        let slots = derive_slots(&domain_database(name, domain_seed(d)));
        let suite = spider_like(&slots, QUESTION_SEED, QUESTIONS_PER_DOMAIN);
        for level in LEVELS {
            for pair in paraphrased(&suite, level, PARAPHRASE_SEED) {
                items.push(Item {
                    domain: d,
                    question: pair.question,
                    gold: pair.sql,
                });
            }
        }
    }
    items
}

/// Build every domain: database (replicated when scaled), schema
/// context, pipeline, and training when the workload trains. With a
/// recorder, `SchemaContext::build` and training are spanned.
pub fn setup(w: &AskWorkload, mut rec: Option<&mut Recorder>) -> Vec<Arc<NliPipeline>> {
    let mut domains = Vec::new();
    for (d, name) in DOMAIN_NAMES.iter().enumerate() {
        let seed = domain_seed(d);
        let native = domain_database(name, seed);
        let db = if w.scale > 1 {
            replicate_fact_tables(&native, w.scale).expect("generated keys are integers")
        } else {
            native
        };
        let ctx = match rec.as_deref_mut() {
            Some(r) => r.time("ontology.schema_build", None, d as u64, || {
                SchemaContext::build(&db)
            }),
            None => SchemaContext::build(&db),
        };
        let mut pipeline = NliPipeline::with_context(&db, ctx);
        if w.train_n > 0 {
            let train = training_examples(&derive_slots(&db), seed + 101, w.train_n, &[0, 1, 2, 3]);
            match rec.as_deref_mut() {
                Some(r) => r.time("ml.train", None, d as u64, || {
                    pipeline.train_neural(&train, seed + 202)
                }),
                None => pipeline.train_neural(&train, seed + 202),
            }
        }
        domains.push(Arc::new(pipeline));
    }
    domains
}

/// The oracle for one (question, family) ask.
struct Expected {
    outcome: Outcome,
    /// Matches the gold SQL's result (`evalkit::execution_match`).
    correct: bool,
}

/// Untimed warm-up and oracle pass: every ask once, its outcome kept,
/// and the gold match computed. Indexed `item × families + family`.
fn oracle(w: &AskWorkload, domains: &[Arc<NliPipeline>], items: &[Item]) -> Vec<Expected> {
    let mut out = Vec::with_capacity(items.len() * w.families.len());
    for item in items {
        let p = &domains[item.domain];
        for &kind in w.families {
            let r = p.ask_with(&item.question, kind);
            let correct = match &r {
                Ok(a) => execution_match(p.database(), &item.gold, &a.query),
                Err(_) => false,
            };
            out.push(Expected {
                outcome: Outcome::of(&r),
                correct,
            });
        }
    }
    out
}

/// Run an `ask-*` workload.
pub fn run(w: &AskWorkload, args: &Args) -> RunResult {
    let items = corpus();
    if args.trace {
        return run_traced(w, args, &items);
    }
    let (domains, setup_times) = time_setups(|| setup(w, None));
    let expected = oracle(w, &domains, &items);
    let nf = w.families.len();

    let mut result = RunResult::default();
    let mut latencies = Samples::default();
    let (mut correct, mut answered) = (0u64, 0u64);
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < args.seconds {
        let mut rng = pass_rng(args.seed, pass);
        for i in shuffled(items.len(), &mut rng) {
            let item = &items[i];
            let p = &domains[item.domain];
            let rot = rng.below(nf);
            for f in 0..nf {
                let fi = (rot + f) % nf;
                let t0 = Instant::now();
                let r = p.ask_with(&item.question, w.families[fi]);
                latencies.push(t0.elapsed());
                let e = &expected[i * nf + fi];
                result.attempted += 1;
                if !e.outcome.matches(&r) {
                    result.failed += 1;
                }
                correct += u64::from(e.correct);
                answered += u64::from(r.is_ok());
            }
        }
        pass += 1;
    }
    let wall = start.elapsed();
    if result.failed > 0 {
        result.problems.push(format!(
            "{} asks disagreed with the warm-up oracle",
            result.failed
        ));
    }
    end_to_end(
        &mut result,
        (median(&setup_times), setup_times.len()),
        &latencies,
        wall,
        correct,
        answered,
    );
    result
}

/// The traced run: set-up and layer decomposition of the same corpus,
/// plus the serving probe.
fn run_traced(w: &AskWorkload, args: &Args, items: &[Item]) -> RunResult {
    let mut rec = Recorder::new();
    let domains = setup(w, Some(&mut rec));
    if w.train_n == 0 {
        // This workload asks untrained; time what training its domains
        // would cost so the `ml` layer has a figure on every workload.
        for (d, domain) in domains.iter().enumerate() {
            let db = domain.database();
            let mut scratch = NliPipeline::with_context(db, SchemaContext::build(db));
            let train = training_examples(
                &derive_slots(db),
                domain_seed(d) + 101,
                TRAIN_N,
                &[0, 1, 2, 3],
            );
            rec.time("ml.train", None, d as u64, || {
                scratch.train_neural(&train, domain_seed(d) + 202)
            });
        }
    }
    let expected = oracle(w, &domains, items);
    let nf = w.families.len();

    let mut result = RunResult::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0
        || (start.elapsed() < PROBE_CAP
            && (start.elapsed() < args.seconds || !execute_tail_ok(&rec)))
    {
        let mut rng = pass_rng(args.seed, pass);
        for i in shuffled(items.len(), &mut rng) {
            let item = &items[i];
            let q = ProbeQuestion {
                pipeline: &domains[item.domain],
                question: &item.question,
                expected: (0..nf)
                    .map(|f| (w.families[f], &expected[i * nf + f].outcome))
                    .collect(),
            };
            result.attempted += 1;
            if !probe_question(&mut rec, pass * items.len() as u64 + i as u64, &q) {
                result.failed += 1;
            }
        }
        pass += 1;
    }
    let (served, wrong, serve) = probe_serve(&mut rec, args.seed);
    result.attempted += served;
    result.failed += wrong;
    if result.failed > 0 {
        result.problems.push(format!(
            "{} traced asks disagreed with the oracle",
            result.failed
        ));
    }
    layer_metrics(&rec, &serve, &mut result);
    crate::write_trace(&rec, args, &mut result);
    result
}
