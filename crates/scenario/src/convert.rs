//! Section → engine-config conversions.
//!
//! These preserve the historical CLI derivations exactly: the circuit
//! breaker seeds from `serve.seed ^ 0xB4EA`, the flight recorder from
//! `serve.seed ^ 0x7ACE`, the synthetic stream carries 6 features, and
//! unset fields keep the engine defaults — so a spec built purely from
//! flags produces the same `ServeConfig` bytes the old flag parser did.

use crate::spec::ScenarioSpec;
use stca_serve::{BreakerConfig, FleetConfig, ServeConfig, SyntheticStream};
use stca_trace::TraceConfig;

/// The flight-recorder config of the spec's `[trace]` section, or `None`
/// when tracing is off.
fn trace_config(spec: &ScenarioSpec) -> Option<TraceConfig> {
    if !spec.trace.enabled {
        return None;
    }
    Some(TraceConfig {
        seed: spec.serve.seed ^ 0x7ACE,
        sample_every: spec.trace.sample_every,
        ring_capacity: spec.trace.ring_capacity as usize,
        ..TraceConfig::default()
    })
}

/// The serving-loop config of the spec's `[serve]` (+ `[serve.adapt]`,
/// `[trace]`, `[artifacts]`) sections. `[serve.adapt]` is the engine's
/// `AdaptConfig` itself; with `enabled = false` (the default) the
/// lifecycle never installs.
pub fn serve_config(spec: &ScenarioSpec) -> ServeConfig {
    ServeConfig {
        servers: spec.serve.servers as usize,
        queue_capacity: spec.serve.queue_capacity as usize,
        overload: spec.serve.overload,
        hysteresis_k: spec.serve.hysteresis_k as u32,
        breaker: BreakerConfig {
            failure_threshold: spec.serve.breaker_threshold as u32,
            cooldown_s: spec.serve.breaker_cooldown_s,
            seed: spec.serve.seed ^ 0xB4EA,
            ..BreakerConfig::default()
        },
        drain_grace_s: spec.serve.drain_grace_s,
        keep_decision_log: !spec.artifacts.decision_log.is_empty(),
        adapt: spec.adapt,
        trace: trace_config(spec),
        ..ServeConfig::default()
    }
}

/// The serving topology of the spec's `[serve]` + `[serve.fleet]`
/// sections. `shards = 1` (the default) is the plain serving loop, run as
/// a one-shard fleet; `None` only for `shards = 0`, which the spec setter
/// rejects. Per-shard seeds derive inside the engine from the base seeds
/// as `seed ^ (shard_id << 24)`.
pub fn fleet_config(spec: &ScenarioSpec) -> Option<FleetConfig> {
    if spec.fleet.shards == 0 {
        return None;
    }
    Some(FleetConfig {
        base: serve_config(spec),
        shards: spec.fleet.shards as u32,
        router: spec.fleet.router,
        reroute_max: spec.fleet.reroute_max as u32,
        ..FleetConfig::default()
    })
}

/// The seeded arrival stream of the spec's `[serve]` section.
pub fn synthetic_stream(spec: &ScenarioSpec) -> SyntheticStream {
    SyntheticStream {
        seed: spec.serve.seed,
        rate: spec.serve.rate,
        deadline_s: spec.serve.deadline_s,
        n_features: 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_matches_engine_defaults_when_spec_is_default() {
        let spec = ScenarioSpec::default();
        let cfg = serve_config(&spec);
        let engine = ServeConfig::default();
        assert_eq!(cfg.servers, engine.servers);
        assert_eq!(cfg.queue_capacity, engine.queue_capacity);
        assert_eq!(cfg.hysteresis_k, engine.hysteresis_k);
        assert_eq!(cfg.drain_grace_s, engine.drain_grace_s);
        assert_eq!(cfg.breaker.failure_threshold, 5);
        assert_eq!(cfg.breaker.cooldown_s, 1.0);
        // the historical CLI seed derivation
        assert_eq!(cfg.breaker.seed, 2022 ^ 0xB4EA);
        assert!(cfg.trace.is_none());
        assert!(!cfg.keep_decision_log);
    }

    #[test]
    fn serve_config_carries_the_adapt_section() {
        let default = ScenarioSpec::default();
        assert_eq!(serve_config(&default).adapt, default.adapt);
        assert!(!default.adapt.enabled);
        let mut spec = ScenarioSpec::default();
        spec.adapt.enabled = true;
        spec.adapt.epoch_s = 2.5;
        spec.adapt.window = 128;
        spec.adapt.drift_threshold = 3.0;
        spec.adapt.history = 2;
        assert!(spec.adapt.validate().is_ok());
        assert_eq!(serve_config(&spec).adapt, spec.adapt);
    }

    #[test]
    fn trace_config_derives_seed_from_serve_seed() {
        let mut spec = ScenarioSpec::default();
        spec.trace.enabled = true;
        spec.serve.seed = 99;
        let t = trace_config(&spec).expect("enabled");
        assert_eq!(t.seed, 99 ^ 0x7ACE);
        assert_eq!(t.sample_every, 64);
        assert_eq!(t.ring_capacity, 256);
    }
}
