//! Offline trace analysis: parse a `--trace-out` JSONL file back into
//! records, reconstruct the run's timeline (phase wall spans, per-worker
//! busy/idle), and render the human-readable summary behind
//! `gpu-autotune trace report`.
//!
//! Everything here works on [`Rec`] — an owned mirror of [`Event`]
//! (whose `name` is a `&'static str` and so cannot be rebuilt from a
//! parsed file). A live [`Trace`] converts losslessly via
//! [`Rec::from_event`], so the same analysis runs in-process in tests
//! and offline on exported files.
//!
//! [`Trace`]: super::sink::Trace

use super::convergence::ConvergenceCurve;
use super::event::{Event, TRACE_SCHEMA};
use super::json::{self, Json};

/// One parsed trace record: an owned [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub struct Rec {
    /// Microseconds since the sink's origin.
    pub ts_us: u64,
    /// Small per-thread tag.
    pub thread: u64,
    /// `"search"` or `"runtime"`.
    pub scope: String,
    /// `"begin"`, `"end"`, `"point"`, or `"counter"`.
    pub kind: String,
    /// Dotted event name.
    pub name: String,
    /// Structured payload.
    pub fields: Json,
}

impl Rec {
    /// Mirror a live event.
    pub fn from_event(e: &Event) -> Self {
        Self {
            ts_us: e.ts_us,
            thread: e.thread,
            scope: e.scope.as_str().to_string(),
            kind: e.kind.as_str().to_string(),
            name: e.name.to_string(),
            fields: Json::Obj(
                e.fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            ),
        }
    }

    /// Parse one JSONL record object.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record: missing `{k}`"))
        };
        Ok(Self {
            ts_us: j.get("ts_us").and_then(Json::as_u64).ok_or("record: missing `ts_us`")?,
            thread: j.get("thread").and_then(Json::as_u64).ok_or("record: missing `thread`")?,
            scope: s("scope")?,
            kind: s("kind")?,
            name: s("name")?,
            fields: j.get("fields").cloned().unwrap_or(Json::Obj(Vec::new())),
        })
    }

    /// A `u64` payload field.
    pub fn field_u64(&self, k: &str) -> Option<u64> {
        self.fields.get(k).and_then(Json::as_u64)
    }

    /// An `f64` payload field.
    pub fn field_f64(&self, k: &str) -> Option<f64> {
        self.fields.get(k).and_then(Json::as_f64)
    }

    /// A string payload field.
    pub fn field_str(&self, k: &str) -> Option<&str> {
        self.fields.get(k).and_then(Json::as_str)
    }
}

/// Parse a JSONL trace. Records carrying an unknown `schema` are
/// rejected; records without one (written before trace schemas existed)
/// are accepted.
pub fn parse_jsonl(text: &str) -> Result<Vec<Rec>, String> {
    let mut recs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        match j.get("schema") {
            None => {}
            Some(s) => {
                let s = s.as_u64().ok_or_else(|| format!("line {}: bad `schema`", n + 1))?;
                if s != TRACE_SCHEMA {
                    return Err(format!(
                        "line {}: unsupported trace schema {s} (this tool reads schema {TRACE_SCHEMA})",
                        n + 1
                    ));
                }
            }
        }
        recs.push(Rec::from_json(&j).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(recs)
}

/// Aggregated wall time of one span name (e.g. `phase.timing`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Span name.
    pub name: String,
    /// Completed begin/end pairs.
    pub spans: u64,
    /// Summed wall time, µs.
    pub wall_us: u64,
}

/// One worker thread's busy accounting, from `pool.item` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLane {
    /// Thread tag.
    pub thread: u64,
    /// Items executed.
    pub items: u64,
    /// Summed item wall time, µs.
    pub busy_us: u64,
}

/// The run's reconstructed timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Wall span of the whole trace (first to last timestamp), µs.
    pub span_us: u64,
    /// Aggregated spans in first-begin order (outermost first).
    pub phases: Vec<PhaseSpan>,
    /// Worker lanes ordered by thread tag.
    pub workers: Vec<WorkerLane>,
}

impl Timeline {
    /// Reconstruct phase spans and worker lanes from parsed records.
    /// `begin`/`end` records pair up per name (nested re-entry folds
    /// into one aggregate); `pool.item` records, stamped at item end
    /// with their wall time, populate the worker lanes.
    pub fn from_records(recs: &[Rec]) -> Self {
        let lo = recs.iter().map(|r| r.ts_us).min().unwrap_or(0);
        let hi = recs.iter().map(|r| r.ts_us).max().unwrap_or(0);
        let mut phases: Vec<(String, Vec<u64>, u64, u64)> = Vec::new(); // name, open stack, spans, wall
        let mut workers: Vec<WorkerLane> = Vec::new();
        for r in recs {
            match r.kind.as_str() {
                "begin" => {
                    match phases.iter_mut().find(|(n, ..)| *n == r.name) {
                        Some((_, open, ..)) => open.push(r.ts_us),
                        None => phases.push((r.name.clone(), vec![r.ts_us], 0, 0)),
                    };
                }
                "end" => {
                    if let Some((_, open, spans, wall)) =
                        phases.iter_mut().find(|(n, ..)| *n == r.name)
                    {
                        if let Some(begin) = open.pop() {
                            *spans += 1;
                            *wall += r.ts_us.saturating_sub(begin);
                        }
                    }
                }
                _ if r.name == "pool.item" => {
                    let wall = r.field_u64("wall_us").unwrap_or(0);
                    match workers.iter_mut().find(|w| w.thread == r.thread) {
                        Some(w) => {
                            w.items += 1;
                            w.busy_us += wall;
                        }
                        None => {
                            workers.push(WorkerLane { thread: r.thread, items: 1, busy_us: wall })
                        }
                    }
                }
                _ => {}
            }
        }
        workers.sort_by_key(|w| w.thread);
        Self {
            span_us: hi - lo,
            phases: phases
                .into_iter()
                .map(|(name, _, spans, wall_us)| PhaseSpan { name, spans, wall_us })
                .collect(),
            workers,
        }
    }

    /// Fraction of `workers × span` spent busy, clamped to `[0, 1]`.
    /// Zero without workers or span.
    pub fn utilization(&self) -> f64 {
        if self.workers.is_empty() || self.span_us == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_us).sum();
        (busy as f64 / (self.span_us * self.workers.len() as u64) as f64).min(1.0)
    }
}

/// Everything `trace report` prints, as data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total records.
    pub events: u64,
    /// Strategy named by the `search` begin record.
    pub strategy: Option<String>,
    /// Space size named by the `search` begin record.
    pub space: Option<u64>,
    /// Best time from the last `search` end record.
    pub best_time_ms: Option<f64>,
    /// Timed candidates (`sim.done` records).
    pub timed: u64,
    /// Convergence curve from the last `engine.metrics` counter.
    pub convergence: ConvergenceCurve,
    /// Reconstructed timeline.
    pub timeline: Timeline,
    /// Top-k slowest timed candidates, `(candidate, time_ms)`, slowest
    /// first.
    pub slowest: Vec<(u64, f64)>,
    /// Quarantine counts by error kind, most frequent first.
    pub quarantine_by_kind: Vec<(String, u64)>,
    /// Retry rounds observed.
    pub retry_rounds: u64,
    /// Evaluations re-attempted across those rounds.
    pub retried: u64,
    /// Memo-cache hits / misses.
    pub cache_hits: u64,
    /// Memo-cache misses.
    pub cache_misses: u64,
    /// Persistent-store hits.
    pub store_hits: u64,
    /// Fresh program decodes (`decode.done` records).
    pub decodes: u64,
    /// Decoded ops across those decodes.
    pub decode_ops: u64,
    /// Flat arena bytes across those decodes.
    pub decode_arena_bytes: u64,
}

/// Digest a parsed trace into a [`TraceSummary`] keeping the `top_k`
/// slowest candidates.
pub fn summarize(recs: &[Rec], top_k: usize) -> TraceSummary {
    let mut s = TraceSummary {
        events: recs.len() as u64,
        timeline: Timeline::from_records(recs),
        ..Default::default()
    };
    let mut timed: Vec<(u64, f64)> = Vec::new();
    for r in recs {
        match (r.kind.as_str(), r.name.as_str()) {
            ("begin", "search") => {
                s.strategy = r.field_str("strategy").map(str::to_string);
                s.space = r.field_u64("space");
            }
            ("end", "search") => s.best_time_ms = r.field_f64("best_time_ms"),
            ("point", "sim.done") => {
                s.timed += 1;
                if let (Some(c), Some(t)) = (r.field_u64("candidate"), r.field_f64("time_ms")) {
                    timed.push((c, t));
                }
            }
            ("point", "quarantine") => {
                let kind = r.field_str("kind").unwrap_or("unknown").to_string();
                match s.quarantine_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => s.quarantine_by_kind.push((kind, 1)),
                }
            }
            ("point", "retry.round") => {
                s.retry_rounds += 1;
                s.retried += r.field_u64("count").unwrap_or(0);
            }
            ("point", "cache.hit") => s.cache_hits += 1,
            ("point", "cache.miss") => s.cache_misses += 1,
            ("point", "store.hit") => s.store_hits += 1,
            // A unique an earlier batch of the same search simulated:
            // its first candidate logged a miss, but nothing ran.
            ("point", "memo.hit") => {
                s.cache_hits += 1;
                s.cache_misses = s.cache_misses.saturating_sub(1);
            }
            ("point", "decode.done") => {
                s.decodes += 1;
                s.decode_ops += r.field_u64("ops").unwrap_or(0);
                s.decode_arena_bytes += r.field_u64("arena_bytes").unwrap_or(0);
            }
            ("counter", "engine.metrics") => {
                if let Ok(c) = ConvergenceCurve::from_json_opt(r.fields.get("convergence")) {
                    s.convergence = c;
                }
            }
            _ => {}
        }
    }
    // Slowest first; candidate index breaks ties deterministically.
    timed.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    timed.truncate(top_k);
    s.slowest = timed;
    s.quarantine_by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    s
}

/// Render a [`TraceSummary`] as the `trace report` text.
pub fn format_summary(s: &TraceSummary) -> String {
    use crate::report::{fmt_ms, fmt_us, table_aligned};
    let mut out = String::new();
    let strategy = s.strategy.as_deref().unwrap_or("unknown");
    out.push_str(&format!(
        "search: {strategy}, space {}, {} timed, best {}\n",
        s.space.map(|n| n.to_string()).unwrap_or_else(|| "?".into()),
        s.timed,
        s.best_time_ms.map(fmt_ms).unwrap_or_else(|| "-".into()),
    ));
    out.push_str(&format!("trace: {} events spanning {}\n", s.events, fmt_us(s.timeline.span_us)));

    if !s.convergence.is_empty() {
        out.push_str("\nconvergence\n");
        let mut rows = vec![vec![
            "sims".to_string(),
            "unique".to_string(),
            "best".to_string(),
            "pruned".to_string(),
        ]];
        for p in &s.convergence.samples {
            rows.push(vec![
                p.sims.to_string(),
                p.unique_sims.to_string(),
                fmt_ms(p.best_time_ms),
                p.bound_pruned_points.to_string(),
            ]);
        }
        out.push_str(&table_aligned(&rows, &[true, true, true, true]));
        if let (Some(n), Some(u)) =
            (s.convergence.sims_to_optimum(), s.convergence.unique_to_optimum())
        {
            out.push_str(&format!("optimum reached after {n} sims ({u} unique)\n"));
        }
    }

    if !s.timeline.phases.is_empty() {
        out.push_str("\nphases\n");
        let mut rows = vec![vec![
            "phase".to_string(),
            "spans".to_string(),
            "wall".to_string(),
            "share".to_string(),
        ]];
        for p in &s.timeline.phases {
            let share = if s.timeline.span_us == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * p.wall_us as f64 / s.timeline.span_us as f64)
            };
            rows.push(vec![p.name.clone(), p.spans.to_string(), fmt_us(p.wall_us), share]);
        }
        out.push_str(&table_aligned(&rows, &[false, true, true, true]));
    }

    if !s.timeline.workers.is_empty() {
        out.push_str("\nworkers\n");
        let mut rows = vec![vec![
            "thread".to_string(),
            "items".to_string(),
            "busy".to_string(),
            "utilization".to_string(),
        ]];
        for w in &s.timeline.workers {
            let util = if s.timeline.span_us == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * (w.busy_us as f64 / s.timeline.span_us as f64).min(1.0))
            };
            rows.push(vec![w.thread.to_string(), w.items.to_string(), fmt_us(w.busy_us), util]);
        }
        out.push_str(&table_aligned(&rows, &[true, true, true, true]));
        out.push_str(&format!(
            "overall: {} worker threads, {:.1}% utilized over the trace span\n",
            s.timeline.workers.len(),
            100.0 * s.timeline.utilization()
        ));
    }

    if !s.slowest.is_empty() {
        out.push_str("\nslowest candidates\n");
        let mut rows = vec![vec!["candidate".to_string(), "time".to_string()]];
        for (c, t) in &s.slowest {
            rows.push(vec![c.to_string(), fmt_ms(*t)]);
        }
        out.push_str(&table_aligned(&rows, &[true, true]));
    }

    out.push_str("\nfailures and reuse\n");
    if s.quarantine_by_kind.is_empty() {
        out.push_str("quarantined: none\n");
    } else {
        let total: u64 = s.quarantine_by_kind.iter().map(|(_, n)| n).sum();
        let kinds: Vec<String> =
            s.quarantine_by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
        out.push_str(&format!("quarantined: {total} ({})\n", kinds.join(", ")));
    }
    out.push_str(&format!("retry rounds: {} ({} re-attempts)\n", s.retry_rounds, s.retried));
    out.push_str(&format!(
        "cache: {} hits, {} misses, {} store hits\n",
        s.cache_hits, s.cache_misses, s.store_hits
    ));
    if s.decodes > 0 {
        out.push_str(&format!(
            "decode: {} arenas ({} ops, {} flat bytes)\n",
            s.decodes, s.decode_ops, s.decode_arena_bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{EventKind, EventSink};

    #[test]
    fn records_mirror_live_events_and_survive_jsonl() {
        let sink = EventSink::new();
        sink.search(EventKind::Begin, "search", vec![("strategy", Json::from("exhaustive"))]);
        sink.runtime(EventKind::Point, "pool.item", vec![("wall_us", Json::from(5u64))]);
        let trace = sink.drain();
        let live: Vec<Rec> = trace.events.iter().map(Rec::from_event).collect();
        let parsed = parse_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(live, parsed);
        assert_eq!(parsed[0].field_str("strategy"), Some("exhaustive"));
    }

    #[test]
    fn unknown_schema_is_rejected_but_legacy_lines_pass() {
        let good = r#"{"schema":1,"seq":0,"ts_us":1,"thread":0,"scope":"search","kind":"point","name":"x","fields":{}}"#;
        let legacy = r#"{"seq":0,"ts_us":1,"thread":0,"scope":"search","kind":"point","name":"x","fields":{}}"#;
        let bad = r#"{"schema":99,"seq":0,"ts_us":1,"thread":0,"scope":"search","kind":"point","name":"x","fields":{}}"#;
        assert_eq!(parse_jsonl(good).unwrap().len(), 1);
        assert_eq!(parse_jsonl(legacy).unwrap().len(), 1);
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.contains("unsupported trace schema 99"), "{err}");
    }

    #[test]
    fn timeline_pairs_spans_and_lanes_workers() {
        let rec = |ts, thread, kind: &str, name: &str, fields: Json| Rec {
            ts_us: ts,
            thread,
            scope: "search".into(),
            kind: kind.into(),
            name: name.into(),
            fields,
        };
        let recs = vec![
            rec(0, 0, "begin", "search", Json::Obj(Vec::new())),
            rec(10, 0, "begin", "phase.timing", Json::Obj(Vec::new())),
            rec(40, 1, "point", "pool.item", Json::obj([("wall_us", Json::from(25u64))])),
            rec(50, 2, "point", "pool.item", Json::obj([("wall_us", Json::from(30u64))])),
            rec(60, 1, "point", "pool.item", Json::obj([("wall_us", Json::from(10u64))])),
            rec(90, 0, "end", "phase.timing", Json::Obj(Vec::new())),
            rec(100, 0, "end", "search", Json::Obj(Vec::new())),
        ];
        let t = Timeline::from_records(&recs);
        assert_eq!(t.span_us, 100);
        assert_eq!(
            t.phases,
            vec![
                PhaseSpan { name: "search".into(), spans: 1, wall_us: 100 },
                PhaseSpan { name: "phase.timing".into(), spans: 1, wall_us: 80 },
            ]
        );
        assert_eq!(
            t.workers,
            vec![
                WorkerLane { thread: 1, items: 2, busy_us: 35 },
                WorkerLane { thread: 2, items: 1, busy_us: 30 },
            ]
        );
        // 65 busy µs over 2 workers × 100 µs.
        assert!((t.utilization() - 0.325).abs() < 1e-12);
        assert_eq!(Timeline::from_records(&[]).utilization(), 0.0);
    }
}
