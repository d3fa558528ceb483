//! # stca-obs
//!
//! Zero-dependency observability for the STCA pipeline: structured leveled
//! logging, a global metrics registry, and RAII stage timers — `std` only,
//! because the build environment is offline and the paper's whole premise
//! (§3.1, §4) is that good allocation policy starts with *measuring* the
//! system.
//!
//! Three pillars:
//!
//! * **Logging** ([`logger`]) — leveled, per-target filtered via the
//!   `STCA_LOG` environment variable (`STCA_LOG=info,queuesim=trace`),
//!   emitting human-readable text or JSON lines (`STCA_LOG_FORMAT=json`).
//!   The disabled fast path is a single relaxed atomic load, so call sites
//!   in hot loops cost ~a nanosecond when their level is off.
//! * **Metrics** ([`metrics`]) — named counters, gauges, and log-bucketed
//!   histograms with quantile estimates (p50/p95/p99), exportable as
//!   JSON. Names follow `subsystem.name_unit`, e.g.
//!   `queuesim.events_total`, `deepforest.cascade.level_fit_seconds`.
//! * **Stage timing** ([`timer`]) — RAII guards recording wall time into a
//!   histogram when dropped, plus the [`time_scope!`] macro.
//!
//! ```
//! stca_obs::try_init_from_env().expect("a well-formed STCA_LOG");
//! stca_obs::info!("profiling {} conditions", 24);
//! stca_obs::counter("profiler.samples_total").add(24);
//! {
//!     stca_obs::time_scope!("profiler.run_seconds");
//!     // ... expensive stage ...
//! }
//! let report = stca_obs::registry().to_json();
//! assert!(report.contains("profiler.samples_total"));
//! ```

pub mod json;
pub mod logger;
pub mod metrics;
pub mod report;
pub mod timer;

pub use logger::{
    clear_virtual_now, init_with, set_sink, set_virtual_now, try_init_from_env, virtual_now,
    FilterError, Level, LevelFilter, LogConfig, LogFormat,
};
pub use metrics::{
    counter, current_trace_id, gauge, histogram, registry, set_current_trace_id, Counter, Gauge,
    Histogram, Registry,
};
pub use report::{
    emit_run_report, emit_run_report_to, metrics_out_from_args, summary_table, write_metrics,
};
pub use timer::StageTimer;

/// Log at an explicit level. Prefer the per-level macros.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $($arg:tt)+) => {{
        if $crate::logger::enabled_fast($lvl) {
            $crate::logger::log_record($lvl, module_path!(), format_args!($($arg)+));
        }
    }};
}

/// Log an error (always significant; reserved for failures).
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::log!($crate::Level::Error, $($arg)+) };
}

/// Log a warning.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::log!($crate::Level::Warn, $($arg)+) };
}

/// Log progress information.
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::log!($crate::Level::Info, $($arg)+) };
}

/// Log debugging detail.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::log!($crate::Level::Debug, $($arg)+) };
}

/// Log per-event detail (hot loops; compiled to one atomic load when off).
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::log!($crate::Level::Trace, $($arg)+) };
}

/// Time the rest of the enclosing scope into the named histogram.
#[macro_export]
macro_rules! time_scope {
    ($name:expr) => {
        let _stca_obs_stage_guard = $crate::StageTimer::new($name);
    };
}
