//! The traced run's layer decomposition. Each question goes through
//! every layer's public entry point in pipeline order — tokenize,
//! link, interpret (all five families), explain, execute (batch and
//! row oracle) — plus `ask_with` against `ask_with_trace` for the cost
//! of tracing. The decomposed answer is checked against the
//! workload's oracle.
//!
//! The `serve` and `dialogue` layers are measured by a serving probe
//! ([`probe_serve`]) on the traffic they see in deployment: the retail
//! tenant behind a two-worker [`Server`] with the default
//! interpretation cache, fed a fixed `request_stream` of
//! [`STREAM_LEN`] requests — 30% dialogue turns, the rest standalone
//! questions of which 60% re-ask a hot fifth of the pool — by one
//! submitting thread in batches of [`BATCH`] (submit them all, then
//! drain). One server serves [`SERVE_PASSES`] passes, each in a seeded
//! order that keeps every dialogue's turns in sequence, with fresh
//! session ids per pass, so the first pass fills the cache and the
//! rest mostly hit it. The oracle is a serial replay outside the
//! served region: `NliPipeline::ask` for standalone questions and one
//! `ConversationSession` per dialogue, whose turns are the
//! `dialogue.turn` spans.

use std::collections::HashMap;
use std::sync::Arc;

use nlidb_bench::workloads::training_examples;
use nlidb_benchdata::{derive_slots, request_stream, retail_database, RequestSpec};
use nlidb_core::interpretation::InterpreterKind;
use nlidb_core::linking::link_mentions;
use nlidb_core::pipeline::{NliPipeline, SchemaContext};
use nlidb_dialogue::{ConversationSession, ManagerKind};
use nlidb_engine::{execute, execute_rowwise, explain};
use nlidb_obs::{Clock, ManualClock, TraceBuilder};
use nlidb_serve::{Disposition, Server, ServerConfig};

use crate::order::{lane_preserving, pass_rng};
use crate::spans::Recorder;
use crate::{render_rows, Metric, Outcome, RunResult, DB_SEED, TRAIN_N};

/// Requests in the serving probe's stream.
pub const STREAM_LEN: usize = 240;
/// Share of the stream that is dialogue turns.
pub const SESSION_SHARE: f64 = 0.3;
/// Requests submitted per drain.
pub const BATCH: usize = 48;
/// Passes the serving probe's server serves.
pub const SERVE_PASSES: u64 = 4;
const STREAM_SEED: u64 = 42;

/// One question to decompose.
pub struct ProbeQuestion<'a> {
    /// The pipeline that owns the question's database.
    pub pipeline: &'a NliPipeline,
    /// The question.
    pub question: &'a str,
    /// The workload's families with the oracle outcome for each.
    pub expected: Vec<(InterpreterKind, &'a Outcome)>,
}

/// Decompose one question into per-layer spans under a `question`
/// root. Returns false when a decomposed answer disagrees with the
/// oracle or the row oracle disagrees with the batch engine.
pub fn probe_question(rec: &mut Recorder, ask: u64, q: &ProbeQuestion<'_>) -> bool {
    let p = q.pipeline;
    let (db, ctx) = (p.database(), p.context());
    let root_id = rec.open("question", None, ask);
    let root = Some(root_id);
    let tokens = rec.time("nlp.tokenize", root, ask, || {
        nlidb_nlp::tokenize(q.question)
    });
    let mentions = rec.time("nli-core.link", root, ask, || link_mentions(&tokens, ctx));
    rec.count("nli-core.mentions", mentions.len() as u64);
    let mut ok = true;
    for kind in InterpreterKind::all() {
        let name = format!("nli-core.interpret.{}", kind.label());
        let interp = rec.time(&name, root, ask, || {
            p.interpreter(kind).best(q.question, ctx)
        });
        let Some((_, expected)) = q.expected.iter().find(|(k, _)| *k == kind) else {
            continue;
        };
        rec.count("nli-core.no_interpretation", u64::from(interp.is_none()));
        let Some(interp) = interp else {
            ok &= !expected.answered();
            continue;
        };
        rec.time("engine.explain", root, ask, || explain(db, &interp.sql));
        let batch = rec.time("engine.execute", root, ask, || execute(db, &interp.sql));
        let row = rec.time("engine.execute_row", root, ask, || {
            execute_rowwise(db, &interp.sql)
        });
        match (&batch, &row, expected) {
            (Ok(b), Ok(r), Outcome::Answer { sql, result }) => {
                rec.count("engine.rows_out", b.rows.len() as u64);
                ok &= b == r && *result == *b && *sql == interp.sql.to_string();
            }
            (Err(_), Err(_), Outcome::Refused(_)) => {}
            _ => ok = false,
        }
    }
    // Tracing's own cost: the same hybrid ask with and without a
    // tracer, in alternating order.
    let untraced = |rec: &mut Recorder| {
        rec.time("pipeline.ask_with", root, ask, || {
            p.ask_with(q.question, InterpreterKind::Hybrid).is_ok()
        })
    };
    let traced = |rec: &mut Recorder| {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let mut tb = TraceBuilder::new(ask, clock);
        rec.time("pipeline.ask_with_trace", root, ask, || {
            p.ask_with_trace(q.question, InterpreterKind::Hybrid, &mut tb)
                .is_ok()
        })
    };
    let (a, b) = if ask.is_multiple_of(2) {
        (untraced(rec), traced(rec))
    } else {
        let b = traced(rec);
        (untraced(rec), b)
    };
    ok &= a == b;
    rec.close(root_id);
    ok
}

/// The serving probe server's final counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounts {
    /// Requests submitted.
    pub submitted: u64,
    /// Standalone questions answered from the interpretation cache.
    pub hits: u64,
    /// Standalone questions that missed it.
    pub misses: u64,
    /// Requests shed at admission (queue full or deadline).
    pub shed: u64,
}

impl ServeCounts {
    /// The counters of a server's final snapshot.
    pub fn of(m: &nlidb_serve::MetricsSnapshot) -> ServeCounts {
        ServeCounts {
            submitted: m.submitted,
            hits: m.interp_hits,
            misses: m.interp_misses,
            shed: m.shed_full + m.shed_deadline,
        }
    }
}

/// Serial replay of the serving stream, the oracle for one position.
#[derive(Debug, Clone)]
enum Expected {
    Single(Outcome),
    Turn {
        response: String,
        sql: Option<String>,
        accepted: bool,
    },
}

impl Expected {
    fn matches(&self, d: &Disposition) -> bool {
        match (self, d) {
            (Expected::Single(o), d) => served_matches(d, o),
            (
                Expected::Turn {
                    response,
                    sql,
                    accepted,
                },
                Disposition::SessionReply {
                    response: r,
                    sql: s,
                    accepted: a,
                },
            ) => response == r && sql == s && accepted == a,
            _ => false,
        }
    }
}

/// The serial replay of `stream`: `NliPipeline::ask` once per distinct
/// standalone question and one `ConversationSession` per dialogue,
/// each turn spanned as `dialogue.turn`.
fn serial_replay(
    rec: &mut Recorder,
    pipeline: &NliPipeline,
    stream: &[RequestSpec],
) -> Vec<Expected> {
    let (db, ctx) = (pipeline.database(), pipeline.context());
    let mut singles: HashMap<&str, Outcome> = HashMap::new();
    let mut sessions: HashMap<u64, ConversationSession<'_>> = HashMap::new();
    let mut out = Vec::with_capacity(stream.len());
    for (i, spec) in stream.iter().enumerate() {
        let q = spec.question.as_str();
        out.push(match spec.session {
            None => Expected::Single(
                singles
                    .entry(q)
                    .or_insert_with(|| Outcome::of(&pipeline.ask(q)))
                    .clone(),
            ),
            Some(s) => {
                let session = sessions
                    .entry(s)
                    .or_insert_with(|| ConversationSession::new(db, ctx, ManagerKind::Agent));
                let turn = rec.time("dialogue.turn", None, i as u64, || session.turn(q));
                rec.count("dialogue.accepted", u64::from(turn.accepted));
                Expected::Turn {
                    response: turn.response,
                    sql: turn.sql.map(|q| q.to_string()),
                    accepted: turn.accepted,
                }
            }
        });
    }
    out
}

/// The serving probe: serve the fixed retail stream through one
/// freshly started server for [`SERVE_PASSES`] passes, timing every
/// `submit` and `drain`, and check every completion against the serial
/// replay. Returns (requests attempted, requests that disagreed or
/// never completed, the server's final counters).
pub fn probe_serve(rec: &mut Recorder, seed: u64) -> (u64, u64, ServeCounts) {
    let db = retail_database(DB_SEED);
    let slots = derive_slots(&db);
    let train = training_examples(&slots, DB_SEED + 101, TRAIN_N, &[0, 1, 2, 3]);
    let pipeline = Arc::new(
        NliPipeline::with_context(&db, SchemaContext::build(&db))
            .into_trained(&train, DB_SEED + 202),
    );
    let stream = request_stream(&slots, STREAM_SEED, STREAM_LEN, SESSION_SHARE);
    let expected = serial_replay(rec, &pipeline, &stream);
    let lanes: Vec<Option<u64>> = stream.iter().map(|s| s.session).collect();

    let clock = Arc::new(ManualClock::new());
    let mut server = Server::start(
        Arc::clone(&pipeline),
        ServerConfig::default(),
        clock.clone() as Arc<dyn Clock>,
    );
    let (mut attempted, mut wrong) = (0u64, 0u64);
    let mut batch = 0u64;
    for pass in 0..SERVE_PASSES {
        let order = lane_preserving(&lanes, &mut pass_rng(seed, pass));
        for chunk in order.chunks(BATCH) {
            let root_id = rec.open("serve.batch", None, batch);
            let root = Some(root_id);
            let mut first = None;
            for &i in chunk {
                let mut spec = stream[i].clone();
                // Fresh dialogues every pass.
                spec.session = spec.session.map(|s| s | (pass << 32));
                let adm = rec.time("serve.submit", root, batch, || server.submit(&spec));
                first.get_or_insert(adm.id());
            }
            let done = rec.time("serve.drain", root, batch, || server.drain());
            rec.close(root_id);
            clock.advance(1);
            batch += 1;
            let first = first.expect("chunks are never empty");
            attempted += chunk.len() as u64;
            wrong += (chunk.len() - done.len()) as u64;
            for c in &done {
                if !expected[chunk[(c.id - first) as usize]].matches(&c.disposition) {
                    wrong += 1;
                }
            }
        }
    }
    (attempted, wrong, ServeCounts::of(&server.shutdown()))
}

/// Whether a served standalone answer is the oracle's outcome.
pub fn served_matches(d: &Disposition, expected: &Outcome) -> bool {
    match (d, expected) {
        (Disposition::Answered { sql: s, rows, .. }, Outcome::Answer { sql, result }) => {
            s == sql && *rows == render_rows(result)
        }
        (Disposition::Refused { reason }, Outcome::Refused(why)) => reason == why,
        _ => false,
    }
}

/// Whether the traced run has enough `execute` samples for the p99 of
/// `engine.execute_p99_us` to have [`crate::stats::MIN_TAIL_SAMPLES`]
/// beyond it.
pub fn execute_tail_ok(rec: &Recorder) -> bool {
    rec.durations("engine.execute").summary().tail_ok()
}

/// Every per-layer metric, from the spans and counters of a traced
/// run, into `result`. Times are medians unless named `_p99_`.
pub fn layer_metrics(rec: &Recorder, serve: &ServeCounts, result: &mut RunResult) {
    let p50 = |name: &str| {
        let s = rec.durations(name).summary();
        (s.p50, s.count)
    };
    let us = |metric: &str, span: &str| {
        let (v, n) = p50(span);
        Metric::new(metric, v, "us", n)
    };
    let ms = |metric: &str, span: &str| {
        let (v, n) = p50(span);
        Metric::new(metric, v / 1000.0, "ms", n)
    };
    let share = |metric: &str, num: u64, den: u64| {
        let v = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        Metric::new(metric, v, "share", den as usize)
    };
    let execs = rec.durations("engine.execute").summary();
    if !execs.tail_ok() {
        result.problems.push(format!(
            "engine.execute: only {} samples beyond p99",
            execs.beyond_p99
        ));
    }
    let (traced, n_traced) = p50("pipeline.ask_with_trace");
    let (untraced, _) = p50("pipeline.ask_with");
    let mean = |name: &str| {
        let (sum, n) = rec.counter(name);
        Metric::new(
            name,
            if n == 0 { 0.0 } else { sum as f64 / n as f64 },
            "count",
            n as usize,
        )
    };
    let counted_share = |metric: &str, counter: &str| {
        let (hits, n) = rec.counter(counter);
        share(metric, hits, n)
    };
    let mut out = vec![
        us("nlp.tokenize_us", "nlp.tokenize"),
        us("nli-core.link_us", "nli-core.link"),
        Metric {
            name: "nli-core.mentions_per_ask".into(),
            ..mean("nli-core.mentions")
        },
    ];
    for kind in InterpreterKind::all() {
        out.push(us(
            &format!("nli-core.interpret_us.{}", kind.label()),
            &format!("nli-core.interpret.{}", kind.label()),
        ));
    }
    out.extend([
        counted_share(
            "nli-core.no_interpretation_share",
            "nli-core.no_interpretation",
        ),
        Metric::new("engine.execute_us", execs.p50, "us", execs.count),
        Metric::new("engine.execute_p99_us", execs.p99, "us", execs.count),
        us("engine.execute_row_us", "engine.execute_row"),
        us("engine.explain_us", "engine.explain"),
        mean("engine.rows_out"),
        ms("ontology.schema_build_ms", "ontology.schema_build"),
        ms("ml.train_ms", "ml.train"),
        us("dialogue.turn_us", "dialogue.turn"),
        counted_share("dialogue.accepted_share", "dialogue.accepted"),
        us("serve.submit_us", "serve.submit"),
        us("serve.drain_us", "serve.drain"),
        share(
            "serve.cache_hit_share",
            serve.hits,
            serve.hits + serve.misses,
        ),
        share("serve.shed_share", serve.shed, serve.submitted),
        Metric::new(
            "obs.trace_overhead",
            if untraced > 0.0 {
                traced / untraced
            } else {
                0.0
            },
            "ratio",
            n_traced,
        ),
    ]);
    result.metrics = out;
}
