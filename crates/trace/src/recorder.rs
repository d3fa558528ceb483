//! The flight recorder: bounded retention of request traces with an
//! error-first eviction policy.
//!
//! Two retention classes:
//!
//! * **normal** — completed-in-deadline traces that won the seeded
//!   head-sampling lottery. Kept in a bounded ring: the newest
//!   `ring_capacity` survive, older ones are evicted (counted).
//! * **error** — every trace that ends in shed / deadline-exceeded /
//!   drain, tripped the watchdog, or saw a breaker transition. These
//!   bypass sampling entirely and are *never* evicted to make room for
//!   normal traffic; only the (large) `error_capacity` bounds them, and
//!   overflow is dropped-and-counted rather than silently lost.
//!
//! The sampling decision is a pure function of `(seed, seq)` — never the
//! wall clock, never an atomic counter — so the retained trace set is
//! bit-identical at any `--threads` value.

use crate::span::{Trace, TraceCtx};
use stca_util::rng::splitmix64;

const SAMPLE_SALT: u64 = 0x005A_3CE1_7AD0_u64;
const ID_SALT: u64 = 0x007A_CE1D_5EED_u64;

/// Flight-recorder tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Seed for trace ids and the head-sampling lottery.
    pub seed: u64,
    /// Head-sample one request in `sample_every` (1 = every request,
    /// 0 = none; error-class traces are always retained regardless).
    pub sample_every: u64,
    /// Ring capacity for sampled normal traces (newest win).
    pub ring_capacity: usize,
    /// Upper bound on retained error traces (overflow is counted).
    pub error_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0x7ACE,
            sample_every: 64,
            ring_capacity: 256,
            error_capacity: 1 << 22,
        }
    }
}

impl TraceConfig {
    /// Deterministic nonzero trace id for request `seq`.
    pub fn trace_id(&self, seq: u64) -> u64 {
        let mut s = self.seed ^ ID_SALT ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let id = splitmix64(&mut s);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Head-sampling verdict for request `seq`: a pure function of
    /// `(seed, seq)`, bit-identical at any thread count.
    pub fn sampled(&self, seq: u64) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        let mut s = self.seed ^ SAMPLE_SALT ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03);
        splitmix64(&mut s).is_multiple_of(self.sample_every)
    }
}

/// Retention counters for one recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Traces begun (one per offered request when tracing is on).
    pub started: u64,
    /// Error-class traces currently retained.
    pub retained_error: u64,
    /// Sampled normal traces currently retained.
    pub retained_normal: u64,
    /// Sampled normal traces evicted by the ring bound.
    pub evicted_normal: u64,
    /// Error traces dropped because `error_capacity` was hit.
    pub dropped_error: u64,
    /// Normal traces that lost the sampling lottery (not retained).
    pub unsampled: u64,
}

/// The recorder itself, owned by its one writer: a serving shard or the
/// fleet router. Its traces leave it through [`FlightRecorder::dump`],
/// which the fleet calls once the run has drained; nothing snapshots a
/// recorder mid-run.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cfg: TraceConfig,
    normal: std::collections::VecDeque<Trace>,
    errors: Vec<Trace>,
    started: u64,
    evicted_normal: u64,
    dropped_error: u64,
    unsampled: u64,
}

impl FlightRecorder {
    /// Empty recorder with the given tunables.
    pub fn new(cfg: TraceConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            normal: std::collections::VecDeque::new(),
            errors: Vec::new(),
            started: 0,
            evicted_normal: 0,
            dropped_error: 0,
            unsampled: 0,
        }
    }

    /// The configuration this recorder runs under.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Open a trace context for request `seq` arriving at `arrival_s`.
    pub fn begin(&mut self, seq: u64, arrival_s: f64) -> TraceCtx {
        self.started += 1;
        TraceCtx::new(
            self.cfg.trace_id(seq),
            seq,
            arrival_s,
            self.cfg.sampled(seq),
        )
    }

    /// File a finished trace under the retention policy.
    pub fn record(&mut self, trace: Trace) {
        if trace.is_error_class() {
            if self.errors.len() < self.cfg.error_capacity {
                self.errors.push(trace);
            } else {
                self.dropped_error += 1;
            }
        } else if trace.sampled {
            if self.cfg.ring_capacity == 0 {
                self.evicted_normal += 1;
                return;
            }
            if self.normal.len() >= self.cfg.ring_capacity {
                self.normal.pop_front();
                self.evicted_normal += 1;
            }
            self.normal.push_back(trace);
        } else {
            self.unsampled += 1;
        }
    }

    /// Point-in-time retention counters.
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            started: self.started,
            retained_error: self.errors.len() as u64,
            retained_normal: self.normal.len() as u64,
            evicted_normal: self.evicted_normal,
            dropped_error: self.dropped_error,
            unsampled: self.unsampled,
        }
    }

    /// Snapshot every retained trace (errors + sampled ring), sorted by
    /// request sequence number, plus the stats — the unit every artifact
    /// (Chrome JSON, SVG, report tables) is generated from.
    pub fn dump(&self) -> TraceDump {
        let mut traces: Vec<Trace> = self
            .errors
            .iter()
            .chain(self.normal.iter())
            .cloned()
            .collect();
        traces.sort_by_key(|t| t.seq);
        TraceDump {
            seed: self.cfg.seed,
            sample_every: self.cfg.sample_every,
            stats: self.stats(),
            traces,
        }
    }
}

/// A serializable snapshot of a flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// Trace seed the ids and sampling derive from.
    pub seed: u64,
    /// Head-sampling rate the run used.
    pub sample_every: u64,
    /// Retention counters at dump time.
    pub stats: RecorderStats,
    /// Retained traces, sorted by sequence number.
    pub traces: Vec<Trace>,
}

impl TraceDump {
    /// Look up a retained trace by request sequence number.
    pub fn by_seq(&self, seq: u64) -> Option<&Trace> {
        self.traces
            .binary_search_by_key(&seq, |t| t.seq)
            .ok()
            .map(|i| &self.traces[i])
    }

    /// Merge per-shard dumps into one fleet dump: traces are concatenated
    /// and re-sorted by sequence number, retention counters are summed.
    /// Deterministic for any input order of equal content — the fleet
    /// always passes shards in id order, and each request terminates in
    /// exactly one recorder, so seqs stay unique and `by_seq` keeps
    /// working. `seed`/`sample_every` come from the first dump (all shards
    /// share one `TraceConfig`). Returns `None` for an empty input.
    pub fn merge(dumps: impl IntoIterator<Item = TraceDump>) -> Option<TraceDump> {
        let mut iter = dumps.into_iter();
        let mut out = iter.next()?;
        for d in iter {
            debug_assert_eq!(d.seed, out.seed, "shards must share one trace seed");
            debug_assert_eq!(d.sample_every, out.sample_every);
            out.stats.started += d.stats.started;
            out.stats.retained_error += d.stats.retained_error;
            out.stats.retained_normal += d.stats.retained_normal;
            out.stats.evicted_normal += d.stats.evicted_normal;
            out.stats.dropped_error += d.stats.dropped_error;
            out.stats.unsampled += d.stats.unsampled;
            out.traces.extend(d.traces);
        }
        out.traces.sort_by_key(|t| t.seq);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Disposition;

    fn cfg() -> TraceConfig {
        TraceConfig {
            seed: 99,
            sample_every: 2,
            ring_capacity: 4,
            error_capacity: 8,
        }
    }

    fn finish(rec: &mut FlightRecorder, seq: u64, disp: Disposition) {
        let ctx = rec.begin(seq, seq as f64);
        let t = ctx.finish(disp, seq as f64 + 0.5);
        rec.record(t);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_n() {
        let c = cfg();
        let picks: Vec<bool> = (0..10_000).map(|s| c.sampled(s)).collect();
        let again: Vec<bool> = (0..10_000).map(|s| c.sampled(s)).collect();
        assert_eq!(picks, again);
        let hits = picks.iter().filter(|&&b| b).count();
        assert!(
            (4000..6000).contains(&hits),
            "1-in-2 sampling: {hits}/10000"
        );
        // a different seed draws a different lottery
        let other = TraceConfig { seed: 100, ..c };
        assert_ne!(
            picks,
            (0..10_000).map(|s| other.sampled(s)).collect::<Vec<_>>()
        );
        // rate 0 disables sampling
        let off = TraceConfig {
            sample_every: 0,
            ..c
        };
        assert!((0..1000).all(|s| !off.sampled(s)));
    }

    #[test]
    fn trace_ids_are_nonzero_unique_and_stable() {
        let c = cfg();
        let ids: Vec<u64> = (0..1000).map(|s| c.trace_id(s)).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "1000 ids collide");
        assert_eq!(ids, (0..1000).map(|s| c.trace_id(s)).collect::<Vec<_>>());
    }

    #[test]
    fn errors_survive_normal_ring_churn() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1, // sample everything
            ring_capacity: 4,
            ..cfg()
        });
        // two early errors, then a flood of normal traffic
        finish(&mut rec, 0, Disposition::ShedOverload);
        finish(&mut rec, 1, Disposition::DeadlineExceeded);
        for seq in 2..100 {
            finish(&mut rec, seq, Disposition::Completed);
        }
        let dump = rec.dump();
        assert!(
            dump.by_seq(0).is_some(),
            "error trace evicted by normal churn"
        );
        assert!(dump.by_seq(1).is_some());
        let stats = rec.stats();
        assert_eq!(stats.retained_error, 2);
        assert_eq!(stats.retained_normal, 4, "ring keeps the newest 4");
        assert_eq!(stats.evicted_normal, 94);
        assert_eq!(stats.started, 100);
        // the ring kept the *newest* normals
        for seq in 96..100 {
            assert!(dump.by_seq(seq).is_some());
        }
    }

    #[test]
    fn error_capacity_drops_and_counts_overflow() {
        let mut rec = FlightRecorder::new(cfg()); // error_capacity 8
        for seq in 0..20 {
            finish(&mut rec, seq, Disposition::ShedDeadline);
        }
        let stats = rec.stats();
        assert_eq!(stats.retained_error, 8);
        assert_eq!(stats.dropped_error, 12);
    }

    #[test]
    fn merged_dump_sums_stats_and_stays_seq_sorted() {
        let mk = |seqs: &[u64]| {
            let mut rec = FlightRecorder::new(TraceConfig {
                sample_every: 1,
                ..cfg()
            });
            for &s in seqs {
                finish(&mut rec, s, Disposition::ShedDeadline);
            }
            rec.dump()
        };
        let merged = TraceDump::merge([mk(&[9, 2]), mk(&[5]), mk(&[0, 7])]).expect("non-empty");
        let seqs: Vec<u64> = merged.traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 2, 5, 7, 9]);
        assert_eq!(merged.stats.started, 5);
        assert_eq!(merged.stats.retained_error, 5);
        assert_eq!(merged.by_seq(7).map(|t| t.seq), Some(7));
        assert!(TraceDump::merge(std::iter::empty()).is_none());
    }

    #[test]
    fn dump_is_seq_sorted_and_indexable() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1,
            ..cfg()
        });
        finish(&mut rec, 7, Disposition::Completed);
        finish(&mut rec, 3, Disposition::ShedFailed);
        finish(&mut rec, 5, Disposition::Completed);
        let dump = rec.dump();
        let seqs: Vec<u64> = dump.traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![3, 5, 7]);
        assert_eq!(
            dump.by_seq(5).map(|t| t.disposition),
            Some(Disposition::Completed)
        );
        assert!(dump.by_seq(4).is_none());
    }
}
