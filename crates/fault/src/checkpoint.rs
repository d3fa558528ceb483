//! JSON checkpoint/resume for long-running computations.
//!
//! A [`Checkpoint`] is a keyed map of completed work units persisted as one
//! JSON document. Long runs (policy-grid exploration, dataset builds) `put`
//! each finished cell and `save` at batch boundaries; after a kill, the next
//! run `load_or_new`s the same path and skips every cell already present —
//! producing output bit-identical to an uninterrupted run.
//!
//! Two design points keep resume exact:
//!
//! * **Floats are stored as hex bit patterns** (`"3fe0000000000000"`), not
//!   decimal numbers — resume must reproduce `f64`s to the bit, including
//!   NaN payloads, which JSON numbers cannot carry.
//! * **The `meta` string is the caller's key of every input.** The
//!   scenario pipeline derives one rule for it: a stage's key hashes the
//!   spec rows the stage reads plus the hashes of the artifacts it reads
//!   (`ScenarioSpec::stage_key`). A checkpoint whose meta does not match
//!   is stale — it is discarded with a warning rather than silently mixing
//!   results from different inputs.
//!
//! Saves write to `<path>.tmp` and rename, so a kill mid-save leaves the
//! previous complete checkpoint intact.

use crate::error::StcaError;
use stca_obs::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const FORMAT: &str = "stca-checkpoint";
const VERSION: f64 = 1.0;

struct CheckpointMetrics {
    saves: Arc<stca_obs::Counter>,
    entries_loaded: Arc<stca_obs::Counter>,
    resets: Arc<stca_obs::Counter>,
}

fn ckpt_metrics() -> &'static CheckpointMetrics {
    static METRICS: OnceLock<CheckpointMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CheckpointMetrics {
        saves: stca_obs::counter("fault.checkpoint_saves_total"),
        entries_loaded: stca_obs::counter("fault.checkpoint_entries_loaded_total"),
        resets: stca_obs::counter("fault.checkpoint_resets_total"),
    })
}

/// Encode an `f64` for checkpoint storage: the hex of its bit pattern.
fn f64_to_value(x: f64) -> Value {
    Value::String(format!("{:016x}", x.to_bits()))
}

/// Decode an `f64` stored by [`f64_to_value`].
fn value_to_f64(v: &Value) -> Option<f64> {
    match v {
        Value::String(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok().map(f64::from_bits),
        _ => None,
    }
}

/// Encode a slice of `f64`s as an array of bit-pattern strings.
pub fn f64s_to_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| f64_to_value(x)).collect())
}

/// Decode an array stored by [`f64s_to_value`]; `None` on any malformed
/// element.
pub fn value_to_f64s(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Array(items) => items.iter().map(value_to_f64).collect(),
        _ => None,
    }
}

/// A keyed, resumable store of completed work units.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    meta: String,
    entries: BTreeMap<String, Value>,
    resumed: usize,
    dirty: bool,
}

impl Checkpoint {
    /// Open the checkpoint at `path`, keeping its entries only when its
    /// meta string matches `meta` exactly. A missing file, a stale meta, or
    /// an unparseable document all yield an empty checkpoint (the latter
    /// two with a warning and a `fault.checkpoint_resets_total` tick); only
    /// real I/O failures are errors.
    pub fn load_or_new(path: &Path, meta: &str) -> Result<Self, StcaError> {
        let mut ckpt = Checkpoint {
            path: path.to_path_buf(),
            meta: meta.to_string(),
            entries: BTreeMap::new(),
            resumed: 0,
            dirty: false,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ckpt),
            Err(e) => return Err(StcaError::io(path.display().to_string(), e)),
        };
        match Self::decode(&text, meta) {
            Ok(entries) => {
                ckpt.resumed = entries.len();
                ckpt.entries = entries;
                ckpt_metrics().entries_loaded.add(ckpt.resumed as u64);
                stca_obs::info!(
                    "resuming from checkpoint {} ({} entries)",
                    path.display(),
                    ckpt.resumed
                );
            }
            Err(reason) => {
                ckpt_metrics().resets.inc();
                stca_obs::warn!(
                    "discarding checkpoint {}: {reason}; starting fresh",
                    path.display()
                );
            }
        }
        Ok(ckpt)
    }

    fn decode(text: &str, want_meta: &str) -> Result<BTreeMap<String, Value>, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        match doc.get("format") {
            Some(Value::String(s)) if s == FORMAT => {}
            _ => return Err(format!("not a {FORMAT} document")),
        }
        match doc.get("version").and_then(Value::as_f64) {
            Some(v) if v == VERSION => {}
            other => return Err(format!("unsupported version {other:?}")),
        }
        match doc.get("meta") {
            Some(Value::String(m)) if m == want_meta => {}
            Some(Value::String(m)) => {
                return Err(format!("stale inputs (have {m:?}, want {want_meta:?})"))
            }
            _ => return Err("missing meta".to_string()),
        }
        match doc.get("entries") {
            Some(Value::Object(map)) => Ok(map.clone()),
            _ => Err("missing entries object".to_string()),
        }
    }

    /// The path this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries carried over from disk at load time.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a completed work unit.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Record a completed work unit (persisted on the next [`save`]).
    ///
    /// [`save`]: Checkpoint::save
    pub fn put(&mut self, key: impl Into<String>, value: Value) {
        self.entries.insert(key.into(), value);
        self.dirty = true;
    }

    /// Persist to disk atomically (write `<path>.tmp`, rename over `path`).
    /// A no-op when nothing changed since the last save.
    pub fn save(&mut self) -> Result<(), StcaError> {
        if !self.dirty {
            return Ok(());
        }
        let mut doc = BTreeMap::new();
        doc.insert("format".to_string(), Value::String(FORMAT.to_string()));
        doc.insert("version".to_string(), Value::Number(VERSION));
        doc.insert("meta".to_string(), Value::String(self.meta.clone()));
        doc.insert("entries".to_string(), Value::Object(self.entries.clone()));
        let text = Value::Object(doc).to_string();
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &text).map_err(|e| StcaError::io(tmp.display().to_string(), e))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| StcaError::io(self.path.display().to_string(), e))?;
        self.dirty = false;
        ckpt_metrics().saves.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("stca-ckpt-{label}-{}-{n}.json", std::process::id()))
    }

    #[test]
    fn f64_encoding_is_bit_exact_and_nan_safe() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            -3.25e-300,
        ] {
            let v = f64_to_value(x);
            let back = value_to_f64(&v).expect("decodes");
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        let xs = [1.0, f64::NAN, -2.0];
        let back = value_to_f64s(&f64s_to_value(&xs)).expect("decodes");
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let path = temp_path("roundtrip");
        let mut a = Checkpoint::load_or_new(&path, "meta-v1").expect("new");
        assert!(a.is_empty());
        a.put("cell.0", f64s_to_value(&[1.25, f64::NAN]));
        a.put("cell.1", Value::String("failed: boom".into()));
        a.save().expect("save");
        a.save().expect("idempotent save");

        let b = Checkpoint::load_or_new(&path, "meta-v1").expect("load");
        assert_eq!(b.resumed(), 2);
        assert_eq!(
            value_to_f64s(b.get("cell.0").expect("present"))
                .expect("floats")
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            vec![1.25f64.to_bits(), f64::NAN.to_bits()]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_meta_resets() {
        let path = temp_path("stale");
        let mut a = Checkpoint::load_or_new(&path, "inputs-A").expect("new");
        a.put("k", Value::Number(1.0));
        a.save().expect("save");
        let b = Checkpoint::load_or_new(&path, "inputs-B").expect("load");
        assert!(b.is_empty(), "stale checkpoint must be discarded");
        assert_eq!(b.resumed(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_resets_instead_of_erroring() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").expect("write");
        let c = Checkpoint::load_or_new(&path, "m").expect("load");
        assert!(c.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
