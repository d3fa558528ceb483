//! Chrome `trace_event` JSON export/import for flight-recorder dumps.
//!
//! One artifact format serves two masters: the emitted JSON loads
//! directly in `about:tracing` / Perfetto (spans become complete events
//! on per-server tracks), and `stca trace report` / `stca trace check`
//! parse the same file back losslessly. Timestamps are virtual seconds
//! scaled to microseconds (the unit Chrome expects); trace ids are
//! rendered as hex strings because JSON numbers cannot hold a full `u64`.
//!
//! Layout:
//!
//! ```json
//! {
//!   "traceEvents": [ {"name":"predict","ph":"X","ts":..,"dur":..,
//!                     "pid":1,"tid":..,"cat":"completed",
//!                     "args":{"seq":..,"trace_id":"0x..",..}}, .. ],
//!   "displayTimeUnit": "ms",
//!   "stca": { "seed":.., "sample_every":.., "stats":{..},
//!             "traces":[ {per-trace metadata}, .. ] }
//! }
//! ```
//!
//! Span payloads live only in `traceEvents`; per-trace metadata
//! (disposition, flags, sampling verdict) lives only under
//! `stca.traces`; import joins the two on `seq`.

use crate::recorder::{RecorderStats, TraceDump};
use crate::span::{AttrValue, Disposition, SpanRecord, Stage, Trace};
use stca_obs::json::Value;
use std::collections::BTreeMap;

/// Virtual seconds → Chrome microseconds.
const US_PER_S: f64 = 1e6;

/// Span argument keys the exporter/importer understand: every key a
/// span is given anywhere in the serving fleet. Import interns arg keys
/// against this table (span args use `&'static str` keys); unknown keys
/// are dropped rather than leaked.
pub const KNOWN_ARG_KEYS: [&str; 18] = [
    "mode",
    "tier",
    "verdict",
    "ea",
    "timeout_idx",
    "timeout_s",
    "applied",
    "queue_depth",
    "retries",
    "shard",
    "from_shard",
    "to_shard",
    "hops",
    "version",
    "outcome",
    "agree",
    "from",
    "to",
];

fn intern_arg_key(key: &str) -> Option<&'static str> {
    KNOWN_ARG_KEYS.iter().find(|k| **k == key).copied()
}

fn hex_id(id: u64) -> String {
    format!("0x{id:016x}")
}

fn parse_hex_id(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Track id for a trace: server k → tid k+1; never dispatched → tid 0.
fn tid_for(trace: &Trace) -> f64 {
    trace.server.map_or(0.0, |s| s as f64 + 1.0)
}

fn span_event(trace: &Trace, span: &SpanRecord) -> Value {
    let mut args = vec![
        ("seq", Value::Number(trace.seq as f64)),
        ("trace_id", Value::String(hex_id(trace.trace_id))),
    ];
    for (k, v) in &span.args {
        let val = match v {
            AttrValue::Num(n) => Value::Number(*n),
            AttrValue::Text(t) => Value::String(t.clone()),
        };
        args.push((k, val));
    }
    obj(vec![
        ("name", Value::String(span.stage.name().to_string())),
        ("cat", Value::String(trace.disposition.name().to_string())),
        ("ph", Value::String("X".to_string())),
        ("ts", Value::Number(span.start_s * US_PER_S)),
        ("dur", Value::Number(span.duration_s() * US_PER_S)),
        ("pid", Value::Number(1.0)),
        ("tid", Value::Number(tid_for(trace))),
        ("args", obj(args)),
    ])
}

fn thread_name_event(tid: f64, name: &str) -> Value {
    obj(vec![
        ("name", Value::String("thread_name".to_string())),
        ("ph", Value::String("M".to_string())),
        ("pid", Value::Number(1.0)),
        ("tid", Value::Number(tid)),
        ("args", obj(vec![("name", Value::String(name.to_string()))])),
    ])
}

fn trace_meta(trace: &Trace) -> Value {
    obj(vec![
        ("seq", Value::Number(trace.seq as f64)),
        ("trace_id", Value::String(hex_id(trace.trace_id))),
        ("arrival_s", Value::Number(trace.arrival_s)),
        ("end_s", Value::Number(trace.end_s)),
        (
            "server",
            trace
                .server
                .map_or(Value::Null, |s| Value::Number(s as f64)),
        ),
        (
            "disposition",
            Value::String(trace.disposition.name().to_string()),
        ),
        ("watchdog_retry", Value::Bool(trace.watchdog_retry)),
        ("breaker_transition", Value::Bool(trace.breaker_transition)),
        ("sampled", Value::Bool(trace.sampled)),
    ])
}

fn stats_obj(stats: &RecorderStats) -> Value {
    obj(vec![
        ("started", Value::Number(stats.started as f64)),
        ("retained_error", Value::Number(stats.retained_error as f64)),
        (
            "retained_normal",
            Value::Number(stats.retained_normal as f64),
        ),
        ("evicted_normal", Value::Number(stats.evicted_normal as f64)),
        ("dropped_error", Value::Number(stats.dropped_error as f64)),
        ("unsampled", Value::Number(stats.unsampled as f64)),
    ])
}

/// Render a flight-recorder dump as a Chrome `trace_event` JSON document.
pub fn to_chrome_json(dump: &TraceDump) -> String {
    let mut events = Vec::new();
    let mut tids: Vec<u64> = dump.traces.iter().map(|t| tid_for(t) as u64).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let label = if tid == 0 {
            "queue / shed".to_string()
        } else {
            format!("server {}", tid - 1)
        };
        events.push(thread_name_event(tid as f64, &label));
    }
    for trace in &dump.traces {
        for span in &trace.spans {
            events.push(span_event(trace, span));
        }
    }
    let stca = obj(vec![
        ("seed", Value::Number(dump.seed as f64)),
        ("sample_every", Value::Number(dump.sample_every as f64)),
        ("stats", stats_obj(&dump.stats)),
        (
            "traces",
            Value::Array(dump.traces.iter().map(trace_meta).collect()),
        ),
    ]);
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".to_string())),
        ("stca", stca),
    ])
    .to_string()
}

/// A schema violation found while parsing/validating a Chrome trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chrome trace schema: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing key {key:?}")))
}

fn num(v: &Value, key: &str, ctx: &str) -> Result<f64, SchemaError> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| SchemaError(format!("{ctx}: {key:?} is not a number")))
}

fn text<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, SchemaError> {
    match field(v, key, ctx)? {
        Value::String(s) => Ok(s),
        _ => Err(SchemaError(format!("{ctx}: {key:?} is not a string"))),
    }
}

fn boolean(v: &Value, key: &str, ctx: &str) -> Result<bool, SchemaError> {
    match field(v, key, ctx)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(SchemaError(format!("{ctx}: {key:?} is not a bool"))),
    }
}

/// Parse and schema-validate a Chrome trace document back into a
/// [`TraceDump`]. This is the checker `stca trace check` and `stca trace
/// report` share: every event must be a metadata event or a complete
/// (`ph:"X"`) event with a known stage name, microsecond timestamps,
/// and args joining it to a trace declared under `stca.traces`.
pub fn from_chrome_json(text_in: &str) -> Result<TraceDump, SchemaError> {
    let root = Value::parse(text_in).map_err(|e| SchemaError(e.to_string()))?;
    let events = match field(&root, "traceEvents", "root")? {
        Value::Array(items) => items,
        _ => return Err(SchemaError("root: traceEvents is not an array".into())),
    };
    let stca = field(&root, "stca", "root")?;
    let seed = num(stca, "seed", "stca")? as u64;
    let sample_every = num(stca, "sample_every", "stca")? as u64;
    let stats_v = field(stca, "stats", "stca")?;
    let stats = RecorderStats {
        started: num(stats_v, "started", "stca.stats")? as u64,
        retained_error: num(stats_v, "retained_error", "stca.stats")? as u64,
        retained_normal: num(stats_v, "retained_normal", "stca.stats")? as u64,
        evicted_normal: num(stats_v, "evicted_normal", "stca.stats")? as u64,
        dropped_error: num(stats_v, "dropped_error", "stca.stats")? as u64,
        unsampled: num(stats_v, "unsampled", "stca.stats")? as u64,
    };

    let mut by_seq: BTreeMap<u64, Trace> = BTreeMap::new();
    let metas = match field(stca, "traces", "stca")? {
        Value::Array(items) => items,
        _ => return Err(SchemaError("stca.traces is not an array".into())),
    };
    for (i, m) in metas.iter().enumerate() {
        let ctx = format!("stca.traces[{i}]");
        let seq = num(m, "seq", &ctx)? as u64;
        let disposition = Disposition::parse(text(m, "disposition", &ctx)?)
            .ok_or_else(|| SchemaError(format!("{ctx}: unknown disposition")))?;
        let server = match field(m, "server", &ctx)? {
            Value::Null => None,
            Value::Number(n) => Some(*n as usize),
            _ => return Err(SchemaError(format!("{ctx}: server must be null or number"))),
        };
        let trace = Trace {
            trace_id: parse_hex_id(text(m, "trace_id", &ctx)?)
                .ok_or_else(|| SchemaError(format!("{ctx}: bad trace_id")))?,
            seq,
            arrival_s: num(m, "arrival_s", &ctx)?,
            end_s: num(m, "end_s", &ctx)?,
            server,
            disposition,
            watchdog_retry: boolean(m, "watchdog_retry", &ctx)?,
            breaker_transition: boolean(m, "breaker_transition", &ctx)?,
            sampled: boolean(m, "sampled", &ctx)?,
            spans: Vec::new(),
        };
        if by_seq.insert(seq, trace).is_some() {
            return Err(SchemaError(format!("{ctx}: duplicate seq {seq}")));
        }
    }

    for (i, e) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let ph = text(e, "ph", &ctx)?;
        if ph == "M" {
            continue; // metadata (thread names)
        }
        if ph != "X" {
            return Err(SchemaError(format!("{ctx}: unsupported phase {ph:?}")));
        }
        let stage = Stage::parse(text(e, "name", &ctx)?)
            .ok_or_else(|| SchemaError(format!("{ctx}: unknown stage name")))?;
        let ts = num(e, "ts", &ctx)?;
        let dur = num(e, "dur", &ctx)?;
        if !ts.is_finite() || !dur.is_finite() || dur < 0.0 {
            return Err(SchemaError(format!("{ctx}: bad ts/dur")));
        }
        let args = field(e, "args", &ctx)?;
        let seq = num(args, "seq", &ctx)? as u64;
        let event_id = parse_hex_id(text(args, "trace_id", &ctx)?)
            .ok_or_else(|| SchemaError(format!("{ctx}: bad args.trace_id")))?;
        let trace = by_seq
            .get_mut(&seq)
            .ok_or_else(|| SchemaError(format!("{ctx}: seq {seq} not in stca.traces")))?;
        if trace.trace_id != event_id {
            return Err(SchemaError(format!(
                "{ctx}: trace_id mismatch for seq {seq}"
            )));
        }
        let mut span = SpanRecord {
            stage,
            start_s: ts / US_PER_S,
            end_s: (ts + dur) / US_PER_S,
            args: Vec::new(),
        };
        if let Value::Object(map) = args {
            for (k, v) in map {
                if k == "seq" || k == "trace_id" {
                    continue;
                }
                if let Some(key) = intern_arg_key(k) {
                    let attr = match v {
                        Value::Number(n) => AttrValue::Num(*n),
                        Value::String(s) => AttrValue::Text(s.clone()),
                        _ => return Err(SchemaError(format!("{ctx}: arg {k:?} must be scalar"))),
                    };
                    span.args.push((key, attr));
                }
            }
        }
        trace.spans.push(span);
    }

    let mut traces: Vec<Trace> = by_seq.into_values().collect();
    for t in &mut traces {
        t.spans
            .sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.stage.cmp(&b.stage)));
        if t.spans.is_empty() {
            return Err(SchemaError(format!("trace seq {} has no spans", t.seq)));
        }
    }
    Ok(TraceDump {
        seed,
        sample_every,
        stats,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceConfig};
    use crate::span::{Disposition, Stage};

    fn sample_dump() -> TraceDump {
        let mut rec = FlightRecorder::new(TraceConfig {
            seed: 7,
            sample_every: 1,
            ring_capacity: 16,
            error_capacity: 16,
        });
        let mut ctx = rec.begin(0, 0.0);
        ctx.push_span(Stage::QueueWait, 0.0, 0.25)
            .args
            .push(("queue_depth", AttrValue::Num(3.0)));
        ctx.set_server(2);
        let p = ctx.push_span(Stage::Predict, 0.25, 0.75);
        p.args.push(("mode", AttrValue::Text("strict".into())));
        p.args.push(("tier", AttrValue::Num(0.0)));
        ctx.push_span(Stage::Decide, 0.75, 0.8);
        let t = ctx.finish(Disposition::Completed, 0.8);
        rec.record(t);

        let mut ctx = rec.begin(1, 0.1);
        ctx.flag_breaker_transition();
        let t = ctx.finish(Disposition::ShedOverload, 0.1);
        rec.record(t);
        rec.dump()
    }

    #[test]
    fn chrome_round_trip_is_lossless() {
        let dump = sample_dump();
        let json = to_chrome_json(&dump);
        let back = from_chrome_json(&json).expect("valid schema");
        assert_eq!(back, dump);
        // and the rendered text itself is stable
        assert_eq!(to_chrome_json(&back), json);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        let dump = sample_dump();
        let good = to_chrome_json(&dump);
        assert!(from_chrome_json("{}").is_err());
        assert!(from_chrome_json("not json").is_err());
        assert!(from_chrome_json(&good.replace("\"predict\"", "\"mystery\"")).is_err());
        assert!(from_chrome_json(&good.replace("shed_overload", "vanished")).is_err());
        // event referencing an undeclared seq (args objects only — the
        // stca.traces meta entry spells seq differently in key order)
        assert!(
            from_chrome_json(&good.replace("\"args\":{\"seq\":1", "\"args\":{\"seq\":99")).is_err()
        );
    }

    #[test]
    fn timestamps_are_microseconds() {
        let dump = sample_dump();
        let json = to_chrome_json(&dump);
        let root = Value::parse(&json).expect("parses");
        let events = match root.get("traceEvents") {
            Some(Value::Array(items)) => items,
            _ => panic!("traceEvents missing"),
        };
        let predict = events
            .iter()
            .find(|e| matches!(e.get("name"), Some(Value::String(s)) if s == "predict"))
            .expect("predict event");
        assert_eq!(predict.get("ts").and_then(Value::as_f64), Some(250_000.0));
        assert_eq!(predict.get("dur").and_then(Value::as_f64), Some(500_000.0));
    }
}
