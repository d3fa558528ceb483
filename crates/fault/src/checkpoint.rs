//! JSON checkpoint/resume for long-running computations.
//!
//! A [`Checkpoint`] is a keyed map of completed work units persisted as one
//! JSON document. [`resumable_map`] is the one resume path: it maps a
//! closure over work items on the worker pool, skips every item stored
//! under `{prefix}.{i}`, and puts and saves each computed item as soon as
//! it finishes, so a killed run keeps every finished item and a re-run is
//! bit-identical to an uninterrupted one. Profiling stores `cond.{i}`
//! entries, the policy explorer `cell.{k}` entries.
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
//! A save writes `<path>.tmp`, removes `<path>` and renames the tmp, so a
//! kill leaves either the previous `<path>` or a complete tmp, which
//! [`Checkpoint::load_or_new`] falls back to. (Renaming over an existing
//! file makes ext4 write the new file to disk at once, its `auto_da_alloc`
//! rule: ~50 ms per 0.75 MB save on a 2-vCPU VM's disk.) Each entry's JSON
//! is rendered once, when it is put or loaded.

use crate::error::StcaError;
use stca_obs::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

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
    entries: BTreeMap<String, Entry>,
    dirty: bool,
}

/// One stored work unit: its value and its `"key":value` member of the
/// document's `entries` object, rendered once.
#[derive(Debug)]
struct Entry {
    value: Value,
    member: String,
}

fn entry(key: String, value: Value) -> (String, Entry) {
    let member = format!("{}:{value}", Value::String(key.clone()));
    (key, Entry { value, member })
}

impl Checkpoint {
    /// Open the checkpoint at `path` (or, when `path` is missing, the
    /// `<path>.tmp` a save left), keeping its entries only when its meta
    /// string matches `meta` exactly. A missing file, a stale meta, or an
    /// unparseable document all yield an empty checkpoint (the latter two
    /// with a warning and a `fault.checkpoint_resets_total` tick); only
    /// real I/O failures are errors.
    pub fn load_or_new(path: &Path, meta: &str) -> Result<Self, StcaError> {
        let mut ckpt = Checkpoint {
            path: path.to_path_buf(),
            meta: meta.to_string(),
            entries: BTreeMap::new(),
            dirty: false,
        };
        // a kill between a save's remove and its rename leaves only the
        // complete `<path>.tmp`
        let read = |path: &Path| match std::fs::read_to_string(path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StcaError::io(path.display().to_string(), e)),
        };
        let (path, text) = match read(path)? {
            Some(text) => (path.to_path_buf(), text),
            None => match read(&ckpt.tmp_path())? {
                Some(text) => (ckpt.tmp_path(), text),
                None => return Ok(ckpt),
            },
        };
        match Self::decode(&text, meta) {
            Ok(entries) => {
                ckpt.entries = entries.into_iter().map(|(k, v)| entry(k, v)).collect();
                ckpt_metrics().entries_loaded.add(ckpt.entries.len() as u64);
                stca_obs::info!(
                    "resuming from checkpoint {} ({} entries)",
                    path.display(),
                    ckpt.entries.len()
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
        let Value::Object(mut doc) = Value::parse(text).map_err(|e| e.to_string())? else {
            return Err(format!("not a {FORMAT} document"));
        };
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
        match doc.remove("entries") {
            Some(Value::Object(map)) => Ok(map),
            _ => Err("missing entries object".to_string()),
        }
    }

    /// Where a save writes before it renames the file to its path.
    fn tmp_path(&self) -> PathBuf {
        self.path.with_extension("tmp")
    }

    /// Look up a completed work unit.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Record a completed work unit (persisted on the next [`save`]).
    ///
    /// [`save`]: Checkpoint::save
    pub fn put(&mut self, key: impl Into<String>, value: Value) {
        let (key, entry) = entry(key.into(), value);
        self.entries.insert(key, entry);
        self.dirty = true;
    }

    /// Persist to disk (write `<path>.tmp`, remove `path`, rename; see the
    /// module doc). A no-op when nothing changed since the last save. The
    /// bytes are those of the document `{"entries":{..},"format":..,
    /// "meta":..,"version":..}` rendered as one [`Value`].
    pub fn save(&mut self) -> Result<(), StcaError> {
        if !self.dirty {
            return Ok(());
        }
        let members: Vec<&str> = self.entries.values().map(|e| e.member.as_str()).collect();
        let text = format!(
            "{{\"entries\":{{{}}},\"format\":\"{FORMAT}\",\"meta\":{},\"version\":{}}}",
            members.join(","),
            Value::String(self.meta.clone()),
            Value::Number(VERSION)
        );
        let tmp = self.tmp_path();
        std::fs::write(&tmp, text).map_err(|e| StcaError::io(tmp.display().to_string(), e))?;
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(StcaError::io(self.path.display().to_string(), e))
            }
            _ => {}
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| StcaError::io(self.path.display().to_string(), e))?;
        self.dirty = false;
        ckpt_metrics().saves.inc();
        Ok(())
    }
}

/// Map `f` over `items` on the worker pool and return the results in
/// input order, resuming from a checkpoint.
///
/// With `checkpoint = None` this is one [`stca_exec::par_map_indexed`]
/// batch over every item. With `Some((path, meta))` the items already
/// stored under `{prefix}.{i}` in the [`Checkpoint`] at `path` are
/// `decode`d instead of computed, and each computed item is `encode`d, put
/// and saved as soon as it finishes, so a kill keeps every finished item.
/// An entry that does not decode is computed again. `meta` must key every
/// input of `f`. A failed save stops further saves; the map still
/// finishes and then returns the error.
pub fn resumable_map<T, R>(
    items: &[T],
    checkpoint: Option<(&Path, &str)>,
    prefix: &str,
    encode: fn(&R) -> Value,
    decode: fn(&Value) -> Option<R>,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Result<Vec<R>, StcaError>
where
    T: Sync,
    R: Send + Sync,
{
    let Some((path, meta)) = checkpoint else {
        return Ok(stca_exec::par_map_indexed(items, f));
    };
    let ckpt = Checkpoint::load_or_new(path, meta)?;
    let key = |i: usize| format!("{prefix}.{i}");
    let stored: Vec<Option<R>> = (0..items.len())
        .map(|i| ckpt.get(&key(i)).and_then(decode))
        .collect();
    let store = Mutex::new((ckpt, Ok(())));
    let computed = stca_exec::par_map_indexed(items, |i, item| {
        if stored[i].is_some() {
            return None;
        }
        let result = f(i, item);
        let mut guard = store.lock().expect("no checkpoint put or save panics");
        let (ckpt, saved) = &mut *guard;
        ckpt.put(key(i), encode(&result));
        if saved.is_ok() {
            *saved = ckpt.save();
        }
        Some(result)
    });
    let (_, saved) = store
        .into_inner()
        .expect("no checkpoint put or save panics");
    saved?;
    Ok(stored
        .into_iter()
        .zip(computed)
        .map(|(stored, computed)| stored.or(computed).expect("every item computed or resumed"))
        .collect())
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
        assert!(a.entries.is_empty());
        a.put("cell.0", f64s_to_value(&[1.25, f64::NAN]));
        a.put("cell.1", Value::String("failed: boom".into()));
        a.save().expect("save");
        a.save().expect("idempotent save");

        let b = Checkpoint::load_or_new(&path, "meta-v1").expect("load");
        assert_eq!(b.entries.len(), 2);
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
    fn saved_bytes_are_the_rendered_document() {
        let path = temp_path("bytes");
        let mut a = Checkpoint::load_or_new(&path, "m\"1").expect("new");
        a.put("cell.1", f64s_to_value(&[0.5, -0.0]));
        a.put("cell.0", Value::String("line\nnext \"quoted\"".into()));
        a.put("cell.10", Value::Number(3.0));
        a.save().expect("save");
        let entries = ["cell.1", "cell.0", "cell.10"]
            .iter()
            .map(|k| (k.to_string(), a.get(k).expect("present").clone()))
            .collect();
        let doc: BTreeMap<String, Value> = [
            ("entries", Value::Object(entries)),
            ("format", Value::String(FORMAT.into())),
            ("meta", Value::String("m\"1".into())),
            ("version", Value::Number(VERSION)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let text = std::fs::read_to_string(&path).expect("saved");
        assert_eq!(text, Value::Object(doc).to_string());
        // a reload renders every entry back to the same bytes
        let mut b = Checkpoint::load_or_new(&path, "m\"1").expect("load");
        b.dirty = true;
        b.save().expect("resave");
        assert_eq!(std::fs::read_to_string(&path).expect("saved"), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumable_map_computes_only_missing_items() {
        let path = temp_path("map");
        let items: Vec<u64> = (0..12).collect();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let run = |checkpoint: Option<(&Path, &str)>| {
            resumable_map(
                &items,
                checkpoint,
                "item",
                |&x: &u64| Value::Number(x as f64),
                |v| v.as_f64().map(|x| x as u64),
                |i, &x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    x * 10 + i as u64
                },
            )
            .expect("map")
        };
        let want: Vec<u64> = items.iter().map(|&x| x * 11).collect();
        assert_eq!(run(None), want);
        assert!(!path.exists(), "no checkpoint, no file");
        assert_eq!(run(Some((&path, "m"))), want);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 24);
        // every item was saved; drop some and damage one
        let mut ck = Checkpoint::load_or_new(&path, "m").expect("load");
        assert_eq!(ck.entries.len(), 12);
        for i in [3, 7] {
            ck.entries.remove(&format!("item.{i}"));
        }
        ck.put("item.5", Value::String("garbage".into()));
        ck.save().expect("save");
        assert_eq!(run(Some((&path, "m"))), want);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 3, "items 3, 5 and 7");
        assert_eq!(run(Some((&path, "m"))), want);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 0, "fully resumed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_kill_between_remove_and_rename_resumes_from_the_tmp() {
        let path = temp_path("tmp-fallback");
        let mut a = Checkpoint::load_or_new(&path, "m").expect("new");
        a.put("cell.0", Value::Number(1.0));
        a.save().expect("save");
        a.put("cell.1", Value::Number(2.0));
        a.save().expect("save");
        // the state a kill leaves after the save removed `path`
        std::fs::rename(&path, a.tmp_path()).expect("move");
        let mut b = Checkpoint::load_or_new(&path, "m").expect("load");
        assert_eq!(b.entries.len(), 2);
        b.put("cell.2", Value::Number(3.0));
        b.save().expect("save");
        assert!(!b.tmp_path().exists(), "the save renamed the tmp");
        assert_eq!(
            Checkpoint::load_or_new(&path, "m")
                .expect("load")
                .entries
                .len(),
            3
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
        assert!(b.entries.is_empty(), "stale checkpoint must be discarded");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_resets_instead_of_erroring() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").expect("write");
        let c = Checkpoint::load_or_new(&path, "m").expect("load");
        assert!(c.entries.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
