//! `stca trace report`: per-stage latency breakdown tables from trace
//! dumps, and the decision-log ↔ flight-recorder cross-check.
//!
//! The cross-check is the retention invariant the soak bench asserts:
//! every decision-log line with an error disposition (`shed_overload`,
//! `shed_deadline`, `failed`, `drained`) must have a retained trace
//! whose disposition agrees. Completed requests are only retained when
//! head-sampled, so `disp=ok` lines are checked one-way (if a trace is
//! retained it must agree, absence is fine).

use crate::recorder::TraceDump;
use crate::span::{Disposition, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate span timings for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Spans observed.
    pub count: u64,
    /// Sum of span durations, virtual seconds.
    pub total_s: f64,
    /// Longest span, virtual seconds.
    pub max_s: f64,
    /// Median span duration, virtual seconds.
    pub p50_s: f64,
    /// 99th-percentile span duration, virtual seconds.
    pub p99_s: f64,
}

impl StageStats {
    /// Mean span duration, virtual seconds.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Per-stage timing breakdown over every retained trace.
fn stage_breakdown(dump: &TraceDump) -> BTreeMap<Stage, StageStats> {
    let mut durations: BTreeMap<Stage, Vec<f64>> = BTreeMap::new();
    for trace in &dump.traces {
        for span in &trace.spans {
            durations
                .entry(span.stage)
                .or_default()
                .push(span.duration_s());
        }
    }
    durations
        .into_iter()
        .map(|(stage, mut ds)| {
            ds.sort_by(f64::total_cmp);
            let stats = StageStats {
                count: ds.len() as u64,
                total_s: ds.iter().sum(),
                max_s: ds.last().copied().unwrap_or(0.0),
                p50_s: quantile_sorted(&ds, 0.50),
                p99_s: quantile_sorted(&ds, 0.99),
            };
            (stage, stats)
        })
        .collect()
}

/// Disposition counts over the retained traces.
fn disposition_counts(dump: &TraceDump) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for trace in &dump.traces {
        *counts.entry(trace.disposition.name()).or_insert(0) += 1;
    }
    counts
}

fn fmt_ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

/// Render the human-readable report: retention stats, disposition
/// counts, and the per-stage latency table. Deterministic output.
pub fn render(dump: &TraceDump) -> String {
    let mut out = String::new();
    let st = &dump.stats;
    let _ = writeln!(
        out,
        "trace report — seed {} · 1/{} sampling · {} retained \
         ({} error-class, {} sampled normal; {} evicted, {} error drops)",
        dump.seed,
        dump.sample_every.max(1),
        dump.traces.len(),
        st.retained_error,
        st.retained_normal,
        st.evicted_normal,
        st.dropped_error,
    );
    out.push('\n');

    out.push_str("dispositions (retained traces)\n");
    for (name, count) in disposition_counts(dump) {
        let _ = writeln!(out, "  {name:<18} {count:>8}");
    }
    let flagged_retry = dump.traces.iter().filter(|t| t.watchdog_retry).count();
    let flagged_breaker = dump.traces.iter().filter(|t| t.breaker_transition).count();
    let _ = writeln!(out, "  {:<18} {flagged_retry:>8}", "~watchdog_retry");
    let _ = writeln!(out, "  {:<18} {flagged_breaker:>8}", "~breaker_transition");
    out.push('\n');

    out.push_str("stage                 spans   mean_ms    p50_ms    p99_ms    max_ms  total_s\n");
    let breakdown = stage_breakdown(dump);
    for stage in Stage::ALL {
        let Some(s) = breakdown.get(&stage) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8.3}",
            stage.name(),
            s.count,
            fmt_ms(s.mean_s()),
            fmt_ms(s.p50_s),
            fmt_ms(s.p99_s),
            fmt_ms(s.max_s),
            s.total_s,
        );
    }

    // slowest retained traces: the "clickable p99" view
    let mut by_total: Vec<_> = dump.traces.iter().collect();
    by_total.sort_by(|a, b| b.total_s().total_cmp(&a.total_s()).then(a.seq.cmp(&b.seq)));
    out.push('\n');
    out.push_str("slowest retained traces\n");
    for t in by_total.iter().take(5) {
        let _ = writeln!(
            out,
            "  seq={:<8} trace=0x{:016x} {:<17} total={}ms",
            t.seq,
            t.trace_id,
            t.disposition.name(),
            fmt_ms(t.total_s()),
        );
    }
    out
}

/// One decision-log line, parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogLine {
    /// Request sequence number.
    pub seq: u64,
    /// Disposition the serving loop assigned.
    pub disposition: Disposition,
}

/// Parse a serving-loop decision-log line (`seq=N disp=TOKEN ...`).
/// `disp=ok` maps to [`Disposition::Completed`] (the log does not split
/// out deadline-exceeded completions); `disp=failed` maps to
/// [`Disposition::ShedFailed`].
fn parse_log_line(line: &str) -> Option<LogLine> {
    let mut seq = None;
    let mut disp = None;
    for tok in line.split_ascii_whitespace() {
        if let Some(v) = tok.strip_prefix("seq=") {
            seq = v.parse::<u64>().ok();
        } else if let Some(v) = tok.strip_prefix("disp=") {
            disp = match v {
                "ok" => Some(Disposition::Completed),
                "failed" => Some(Disposition::ShedFailed),
                other => Disposition::parse(other),
            };
        }
    }
    Some(LogLine {
        seq: seq?,
        disposition: disp?,
    })
}

/// Result of cross-checking a decision log against a trace dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheck {
    /// Decision-log lines parsed.
    pub log_lines: u64,
    /// Error-disposition log lines that had a retained trace.
    pub error_matched: u64,
    /// Error-disposition seqs with NO retained trace (invariant breach).
    pub missing: Vec<u64>,
    /// Seqs where the retained disposition disagrees with the log
    /// (completed↔deadline_exceeded disagreements are allowed).
    pub mismatched: Vec<u64>,
}

impl CrossCheck {
    /// The retention invariant holds: every error-class decision has a
    /// retained, agreeing trace.
    pub fn holds(&self) -> bool {
        self.missing.is_empty() && self.mismatched.is_empty()
    }
}

fn agrees(logged: Disposition, retained: Disposition) -> bool {
    match logged {
        // the log's `ok` covers both completion flavours
        Disposition::Completed => matches!(
            retained,
            Disposition::Completed | Disposition::DeadlineExceeded
        ),
        other => retained == other,
    }
}

/// Check the retention invariant: every error-disposition log line has a
/// retained trace with an agreeing disposition. Non-log lines are
/// ignored so the whole decision log can be fed in unfiltered.
pub fn cross_check<'a>(dump: &TraceDump, lines: impl Iterator<Item = &'a str>) -> CrossCheck {
    let mut out = CrossCheck::default();
    for line in lines {
        let Some(parsed) = parse_log_line(line) else {
            continue;
        };
        out.log_lines += 1;
        match dump.by_seq(parsed.seq) {
            Some(trace) => {
                if !agrees(parsed.disposition, trace.disposition) {
                    out.mismatched.push(parsed.seq);
                } else if parsed.disposition.is_error() {
                    out.error_matched += 1;
                }
            }
            None => {
                if parsed.disposition.is_error() {
                    out.missing.push(parsed.seq);
                }
                // unretained `ok` lines are expected: head sampling
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceConfig};
    use crate::span::Stage;

    fn dump() -> TraceDump {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 64,
            error_capacity: 64,
            ..TraceConfig::default()
        });
        for seq in 0..6u64 {
            let t0 = seq as f64;
            let mut ctx = rec.begin(seq, t0);
            ctx.push_span(Stage::QueueWait, t0, t0 + 0.010);
            ctx.push_span(Stage::Predict, t0 + 0.010, t0 + 0.014);
            let disp = if seq == 3 {
                Disposition::ShedDeadline
            } else {
                Disposition::Completed
            };
            rec.record(ctx.finish(disp, t0 + 0.016));
        }
        rec.dump()
    }

    #[test]
    fn stage_breakdown_aggregates_durations() {
        let b = stage_breakdown(&dump());
        let qw = b.get(&Stage::QueueWait).expect("queue_wait spans");
        assert_eq!(qw.count, 6);
        assert!((qw.mean_s() - 0.010).abs() < 1e-12);
        assert!((qw.max_s - 0.010).abs() < 1e-12);
        let p = b.get(&Stage::Predict).expect("predict spans");
        assert!((p.total_s - 6.0 * 0.004).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic_and_mentions_stages() {
        let d = dump();
        let text = render(&d);
        assert_eq!(render(&d), text);
        assert!(text.contains("queue_wait"));
        assert!(text.contains("shed_deadline"));
        assert!(text.contains("slowest retained traces"));
    }

    #[test]
    fn log_line_parsing() {
        assert_eq!(
            parse_log_line("seq=42 disp=ok tier=0 ea=3ff0 t=1 applied=1 resp=3f50"),
            Some(LogLine {
                seq: 42,
                disposition: Disposition::Completed
            })
        );
        assert_eq!(
            parse_log_line("seq=7 disp=failed stage=decide"),
            Some(LogLine {
                seq: 7,
                disposition: Disposition::ShedFailed
            })
        );
        assert_eq!(parse_log_line("noise"), None);
        assert_eq!(parse_log_line("seq=1 disp=???"), None);
    }

    #[test]
    fn cross_check_passes_on_consistent_log() {
        let d = dump();
        let log = [
            "seq=0 disp=ok",
            "seq=3 disp=shed_deadline stage=queue",
            "seq=5 disp=ok",
            "not a log line",
        ];
        let cc = cross_check(&d, log.iter().copied());
        assert!(cc.holds(), "{cc:?}");
        assert_eq!(cc.log_lines, 3);
        assert_eq!(cc.error_matched, 1);
    }

    #[test]
    fn cross_check_flags_missing_and_mismatched() {
        let d = dump();
        let log = [
            "seq=99 disp=drained",      // never retained
            "seq=3 disp=shed_overload", // retained as shed_deadline
            "seq=1 disp=ok",            // agrees
        ];
        let cc = cross_check(&d, log.iter().copied());
        assert!(!cc.holds());
        assert_eq!(cc.missing, vec![99]);
        assert_eq!(cc.mismatched, vec![3]);
    }

    #[test]
    fn unretained_ok_lines_are_not_violations() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 0, // retain nothing normal
            ..TraceConfig::default()
        });
        let ctx = rec.begin(0, 0.0);
        rec.record(ctx.finish(Disposition::Completed, 0.1));
        let cc = cross_check(&rec.dump(), ["seq=0 disp=ok"].iter().copied());
        assert!(cc.holds());
    }
}
