//! Leveled, per-target-filtered logging with an env-style filter.
//!
//! The filter grammar mirrors `env_logger`: a comma-separated list of
//! `level` (sets the default) and `target=level` directives, e.g.
//! `STCA_LOG=info,queuesim=trace,deepforest=warn`. Targets are Rust module
//! paths (`stca_queuesim::simulator`); a directive matches when it is a
//! path prefix of the target, with the crate-name prefix `stca_` optional
//! so `queuesim=trace` matches `stca_queuesim::simulator`. Malformed
//! directives are ignored — bad input never panics.
//!
//! The *disabled* fast path is one relaxed atomic load ([`enabled_fast`]):
//! when the global max level is below the call site's level, no formatting,
//! locking, or target matching happens.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A failure the run cannot fully recover from.
    Error = 1,
    /// Something suspicious that does not stop the run.
    Warn = 2,
    /// Progress milestones (default).
    Info = 3,
    /// Per-stage diagnostic detail.
    Debug = 4,
    /// Per-event detail in hot loops.
    Trace = 5,
}

impl Level {
    /// Uppercase name for the text format.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// A level threshold: `Off` or everything at or above a [`Level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LevelFilter {
    /// Nothing passes.
    Off = 0,
    /// Errors only.
    Error = 1,
    /// Warnings and errors.
    Warn = 2,
    /// Info and above.
    Info = 3,
    /// Debug and above.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl LevelFilter {
    fn parse(s: &str) -> Option<LevelFilter> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(LevelFilter::Off),
            "error" => Some(LevelFilter::Error),
            "warn" | "warning" => Some(LevelFilter::Warn),
            "info" => Some(LevelFilter::Info),
            "debug" => Some(LevelFilter::Debug),
            "trace" => Some(LevelFilter::Trace),
            _ => None,
        }
    }

    /// Whether records at `level` pass this threshold.
    pub fn allows(self, level: Level) -> bool {
        level as u8 <= self as u8
    }
}

/// Output encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `TIMESTAMP LEVEL target: message`.
    #[default]
    Text,
    /// One JSON object per line: `{"ts":...,"level":...,"target":...,"msg":...}`.
    Json,
}

/// Full logger configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Default threshold when no directive matches.
    pub default: LevelFilter,
    /// `(target prefix, threshold)` directives; longest match wins.
    pub directives: Vec<(String, LevelFilter)>,
    /// Output encoding.
    pub format: LogFormat,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            default: LevelFilter::Off,
            directives: Vec::new(),
            format: LogFormat::Text,
        }
    }
}

/// One parsed filter directive.
enum Directive {
    /// A bare level: sets the default threshold.
    Default(LevelFilter),
    /// `target=level` (or a bare target, enabled fully).
    Target(String, LevelFilter),
}

/// A malformed `STCA_LOG` filter spec, with the offending directive and
/// why it was rejected. The CLI maps this to a usage error; `obs` cannot
/// name `StcaError` itself (the fault crate depends on this one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    /// The directive that failed to parse, verbatim.
    pub directive: String,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad STCA_LOG directive {:?}: {} (grammar: LEVEL or TARGET=LEVEL, \
             comma-separated; levels: off error warn info debug trace)",
            self.directive, self.reason
        )
    }
}

impl std::error::Error for FilterError {}

fn parse_directive(part: &str) -> Result<Directive, FilterError> {
    let err = |reason: &str| FilterError {
        directive: part.to_string(),
        reason: reason.to_string(),
    };
    match part.split_once('=') {
        None => match LevelFilter::parse(part) {
            Some(f) => Ok(Directive::Default(f)),
            // bare target with no level: enable fully
            None => Ok(Directive::Target(part.to_string(), LevelFilter::Trace)),
        },
        Some((target, level)) => {
            let target = target.trim();
            if target.is_empty() {
                return Err(err("empty target before '='"));
            }
            if level.contains('=') {
                return Err(err("more than one '='"));
            }
            match LevelFilter::parse(level) {
                Some(f) => Ok(Directive::Target(target.to_string(), f)),
                None => Err(err("unknown level after '='")),
            }
        }
    }
}

impl LogConfig {
    /// Parse an `STCA_LOG`-style filter spec, rejecting malformed
    /// directives with a typed [`FilterError`] instead of silently
    /// dropping them. An empty spec leaves the default at `Off`.
    pub fn try_parse(spec: &str) -> Result<LogConfig, FilterError> {
        let mut config = LogConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_directive(part)? {
                Directive::Default(f) => config.default = f,
                Directive::Target(t, f) => config.directives.push((t, f)),
            }
        }
        Ok(config)
    }

    /// The most permissive level any directive (or the default) allows —
    /// the global fast-path threshold.
    pub fn max_filter(&self) -> LevelFilter {
        self.directives
            .iter()
            .map(|(_, f)| *f)
            .chain(std::iter::once(self.default))
            .max()
            .unwrap_or(LevelFilter::Off)
    }

    /// The effective threshold for one target: the longest matching
    /// directive, else the default.
    pub fn filter_for(&self, target: &str) -> LevelFilter {
        let stripped = target.strip_prefix("stca_").unwrap_or(target);
        let mut best: Option<(usize, LevelFilter)> = None;
        for (prefix, filter) in &self.directives {
            let matches = |t: &str| {
                t == prefix
                    || (t.starts_with(prefix.as_str()) && t[prefix.len()..].starts_with(':'))
            };
            if matches(target) || matches(stripped) {
                let len = prefix.len();
                if best.is_none_or(|(l, _)| len > l) {
                    best = Some((len, *filter));
                }
            }
        }
        best.map(|(_, f)| f).unwrap_or(self.default)
    }
}

/// Where log lines go.
enum Sink {
    Stderr,
    /// Test capture buffer.
    Buffer(std::sync::Arc<Mutex<Vec<u8>>>),
}

struct LoggerState {
    config: LogConfig,
    sink: Sink,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

fn state() -> &'static RwLock<LoggerState> {
    static STATE: OnceLock<RwLock<LoggerState>> = OnceLock::new();
    STATE.get_or_init(|| {
        RwLock::new(LoggerState {
            config: LogConfig::default(),
            sink: Sink::Stderr,
        })
    })
}

/// Install a configuration (tests and embedders; binaries use
/// [`try_init_from_env`]). Re-initialization is
/// allowed and takes effect for subsequent records.
pub fn init_with(config: LogConfig) {
    MAX_LEVEL.store(config.max_filter() as u8, Ordering::Release);
    state().write().expect("logger lock").config = config;
}

/// Initialize from `STCA_LOG` / `STCA_LOG_FORMAT`; unset means a quiet
/// (errors-off) logger. A malformed `STCA_LOG` filter or an unknown
/// `STCA_LOG_FORMAT` is a typed error the caller can turn into a usage
/// failure, instead of silently defaulting.
pub fn try_init_from_env() -> Result<(), FilterError> {
    let mut config = match std::env::var("STCA_LOG") {
        Ok(spec) => LogConfig::try_parse(&spec)?,
        Err(_) => LogConfig::default(),
    };
    if let Ok(fmt) = std::env::var("STCA_LOG_FORMAT") {
        if fmt.eq_ignore_ascii_case("json") {
            config.format = LogFormat::Json;
        } else if !fmt.eq_ignore_ascii_case("text") {
            return Err(FilterError {
                directive: format!("STCA_LOG_FORMAT={fmt}"),
                reason: "unknown format (want text or json)".to_string(),
            });
        }
    }
    init_with(config);
    Ok(())
}

/// Virtual-clock "now" as `f64` bits; `NaN` bits = unset. The serving
/// loop advances this as its serial replay progresses so log lines can
/// carry the virtual timestamp of the decision they describe.
static VIRTUAL_NOW_BITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(u64::MAX);

const VIRTUAL_UNSET: u64 = u64::MAX;

/// Publish the current virtual-clock time (seconds). Log lines emitted
/// while it is set include `vt=<seconds>s`.
pub fn set_virtual_now(seconds: f64) {
    VIRTUAL_NOW_BITS.store(seconds.to_bits(), Ordering::Relaxed);
}

/// Clear the virtual clock (back to wall-clock-only log lines).
pub fn clear_virtual_now() {
    VIRTUAL_NOW_BITS.store(VIRTUAL_UNSET, Ordering::Relaxed);
}

/// The published virtual-clock time, if one is set.
pub fn virtual_now() -> Option<f64> {
    let bits = VIRTUAL_NOW_BITS.load(Ordering::Relaxed);
    if bits == VIRTUAL_UNSET {
        None
    } else {
        Some(f64::from_bits(bits))
    }
}

/// Redirect output into a shared buffer (tests). Pass `None` for stderr.
pub fn set_sink(buffer: Option<std::sync::Arc<Mutex<Vec<u8>>>>) {
    state().write().expect("logger lock").sink = match buffer {
        Some(b) => Sink::Buffer(b),
        None => Sink::Stderr,
    };
}

/// The hot-path check: one relaxed atomic load. `true` means "this level
/// *may* be enabled for some target" — [`log_record`] re-checks the
/// per-target filter before emitting.
#[inline(always)]
pub fn enabled_fast(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether a record at `level` from `target` would actually be emitted.
pub fn enabled(level: Level, target: &str) -> bool {
    enabled_fast(level)
        && state()
            .read()
            .expect("logger lock")
            .config
            .filter_for(target)
            .allows(level)
}

/// Minimal JSON string escaping (logger and metrics export share it).
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `(year, month, day, hour, minute, second, millis)` in UTC from a unix
/// timestamp, via the days-from-civil inverse (Hinnant's algorithm).
fn civil_from_unix(secs: i64, millis: u32) -> (i64, u32, u32, u32, u32, u32, u32) {
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (
        y,
        m,
        d,
        (sod / 3600) as u32,
        (sod / 60 % 60) as u32,
        (sod % 60) as u32,
        millis,
    )
}

fn timestamp() -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let (y, mo, d, h, mi, s, ms) = civil_from_unix(now.as_secs() as i64, now.subsec_millis());
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{ms:03}Z")
}

/// Emit one record. Called by the macros after [`enabled_fast`] passed;
/// performs the per-target check, formats, and writes under the sink lock.
pub fn log_record(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let guard = state().read().expect("logger lock");
    if !guard.config.filter_for(target).allows(level) {
        return;
    }
    let vnow = virtual_now();
    let line = match guard.config.format {
        LogFormat::Text => match vnow {
            Some(vt) => format!(
                "{} {:5} {} vt={vt:.6}s: {}\n",
                timestamp(),
                level.name(),
                target,
                args
            ),
            None => format!("{} {:5} {}: {}\n", timestamp(), level.name(), target, args),
        },
        LogFormat::Json => {
            let mut msg = String::new();
            escape_json(&args.to_string(), &mut msg);
            let mut tgt = String::new();
            escape_json(target, &mut tgt);
            let vt = vnow.map_or(String::new(), |v| format!("\"vt\":{v},"));
            format!(
                "{{\"ts\":\"{}\",{vt}\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"}}\n",
                timestamp(),
                level.name(),
                tgt,
                msg
            )
        }
    };
    match &guard.sink {
        Sink::Stderr => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        Sink::Buffer(buf) => {
            buf.lock()
                .expect("sink lock")
                .extend_from_slice(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_default_and_directives() {
        let c = LogConfig::try_parse("info,queuesim=trace,deepforest=warn").expect("valid");
        assert_eq!(c.default, LevelFilter::Info);
        assert_eq!(c.filter_for("stca_queuesim::simulator"), LevelFilter::Trace);
        assert_eq!(c.filter_for("stca_deepforest::cascade"), LevelFilter::Warn);
        assert_eq!(c.filter_for("stca_profiler::sampler"), LevelFilter::Info);
        assert_eq!(c.max_filter(), LevelFilter::Trace);
    }

    #[test]
    fn longest_directive_wins() {
        let c =
            LogConfig::try_parse("warn,queuesim=info,queuesim::simulator=trace").expect("valid");
        assert_eq!(c.filter_for("stca_queuesim::simulator"), LevelFilter::Trace);
        assert_eq!(c.filter_for("stca_queuesim::metrics"), LevelFilter::Info);
    }

    #[test]
    fn prefix_must_align_with_path_segments() {
        let c = LogConfig::try_parse("off,queue=debug").expect("valid");
        // "queue" is not a path-segment prefix of "queuesim"
        assert_eq!(c.filter_for("stca_queuesim::simulator"), LevelFilter::Off);
    }

    #[test]
    fn malformed_specs_never_panic() {
        for spec in [
            "",
            ",",
            "=",
            "=trace",
            "queuesim=",
            "queuesim=banana",
            "banana",
            "a=b=c",
            ",,,=,=,",
            "info,,",
            "\u{0}weird=trace",
            "info=info=info",
        ] {
            if let Ok(c) = LogConfig::try_parse(spec) {
                let _ = c.filter_for("stca_queuesim::simulator");
                let _ = c.max_filter();
            }
        }
        // unknown bare word becomes an enable-all directive, not a panic
        let c = LogConfig::try_parse("banana").expect("bare target");
        assert_eq!(c.filter_for("banana::x"), LevelFilter::Trace);
    }

    #[test]
    fn try_parse_accepts_per_target_filters() {
        let c = LogConfig::try_parse("info,serve=debug").expect("valid spec");
        assert_eq!(c.default, LevelFilter::Info);
        assert_eq!(c.filter_for("stca_serve::server"), LevelFilter::Debug);
        assert_eq!(c.filter_for("stca_queuesim::simulator"), LevelFilter::Info);
    }

    #[test]
    fn try_parse_rejects_malformed_directives_with_context() {
        for (spec, bad) in [
            ("=trace", "=trace"),
            ("info,queuesim=", "queuesim="),
            ("queuesim=banana", "queuesim=banana"),
            ("a=b=c", "a=b=c"),
            ("info,serve=debug,=warn", "=warn"),
        ] {
            let err = LogConfig::try_parse(spec).expect_err(spec);
            assert_eq!(err.directive, bad, "spec {spec:?}");
            assert!(err.to_string().contains("STCA_LOG"), "{err}");
        }
        // empties between commas and valid specs still pass
        assert!(LogConfig::try_parse("").is_ok());
        assert!(LogConfig::try_parse("info,,trace").is_ok());
        assert!(LogConfig::try_parse("banana").is_ok(), "bare target ok");
    }

    #[test]
    fn virtual_clock_appears_in_log_lines() {
        // default Off + a directive for a target only this test uses, so
        // concurrent tests' log calls cannot land in our capture buffer
        let cfg = |format| LogConfig {
            default: LevelFilter::Off,
            directives: vec![("vttest".to_string(), LevelFilter::Info)],
            format,
        };
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        init_with(cfg(LogFormat::Text));
        set_sink(Some(buf.clone()));
        set_virtual_now(12.345678);
        log_record(Level::Info, "vttest::server", format_args!("hello"));
        clear_virtual_now();
        log_record(Level::Info, "vttest::server", format_args!("later"));
        // JSON format carries vt as a number
        init_with(cfg(LogFormat::Json));
        set_virtual_now(2.5);
        log_record(Level::Info, "vttest::server", format_args!("json"));
        clear_virtual_now();
        set_sink(None);
        init_with(LogConfig::default());
        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("vt=12.345678s: hello"), "{}", lines[0]);
        assert!(!lines[1].contains("vt="), "{}", lines[1]);
        assert!(lines[2].contains("\"vt\":2.5,"), "{}", lines[2]);
    }

    #[test]
    fn civil_date_is_correct() {
        // 2022-08-29 13:00:00 UTC (ICPP '22 week)
        let (y, mo, d, h, mi, s, _) = civil_from_unix(1_661_778_000, 0);
        assert_eq!((y, mo, d, h, mi, s), (2022, 8, 29, 13, 0, 0));
        let (y, mo, d, ..) = civil_from_unix(0, 0);
        assert_eq!((y, mo, d), (1970, 1, 1));
    }

    #[test]
    fn off_by_default_and_fast_path_agrees() {
        let c = LogConfig::default();
        assert_eq!(c.max_filter(), LevelFilter::Off);
        assert!(!c.filter_for("anything").allows(Level::Error));
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
