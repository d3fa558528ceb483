//! Profile persistence — save/load profile sets as a versioned,
//! line-oriented text format.
//!
//! Profiling is the expensive stage (the paper budgets 30 minutes per
//! collocation); persisting profiles lets the modeling stages iterate
//! offline, exactly as the paper's workflow separates offline profiling
//! from model exploration. The format is deliberately plain text: floats
//! are written with Rust's shortest-round-trip formatting, so a save/load
//! cycle is bit-exact, and files diff cleanly.
//!
//! ```text
//! STCA-PROFILES v1
//! rows <N>
//! row
//! static <k> <v1> ... <vk>
//! dynamic <k> <v1> ... <vk>
//! targets <ea> <base_service_norm> <mean_response_norm> <p95_response_norm> <allocation_ratio>
//! trace <rows> <cols>
//! <cols floats per line, one line per trace row>
//! ```
//!
//! The profiling checkpoint stores each finished condition's rows in this
//! same format, so resume is as bit-exact as a save/load cycle.

use crate::profile::{ProfileRow, ProfileSet};
use stca_fault::StcaError;
use stca_util::Matrix;
use std::fmt::Write as _;
use std::path::Path;

fn format_err(context: impl Into<String>) -> StcaError {
    StcaError::Format {
        context: context.into(),
    }
}

fn fmt_floats(out: &mut String, values: &[f64]) {
    for v in values {
        out.push(' ');
        let _ = write!(out, "{v}"); // writing to a String cannot fail
    }
    out.push('\n');
}

/// Serialize a profile set to a string.
pub fn to_string(set: &ProfileSet) -> String {
    let mut out = String::new();
    out.push_str("STCA-PROFILES v1\n");
    let _ = writeln!(out, "rows {}", set.len());
    for r in &set.rows {
        out.push_str("row\n");
        let _ = write!(out, "static {}", r.static_features.len());
        fmt_floats(&mut out, &r.static_features);
        let _ = write!(out, "dynamic {}", r.dynamic_features.len());
        fmt_floats(&mut out, &r.dynamic_features);
        out.push_str("targets");
        fmt_floats(
            &mut out,
            &[
                r.ea,
                r.base_service_norm,
                r.mean_response_norm,
                r.p95_response_norm,
                r.allocation_ratio,
            ],
        );
        let _ = writeln!(out, "trace {} {}", r.trace.rows(), r.trace.cols());
        for row in 0..r.trace.rows() {
            let mut line = String::new();
            fmt_floats(&mut line, r.trace.row(row));
            out.push_str(line.trim_start());
        }
    }
    out
}

/// Save a profile set to a file.
pub fn save(set: &ProfileSet, path: &Path) -> Result<(), StcaError> {
    std::fs::write(path, to_string(set)).map_err(|e| StcaError::io(path.display().to_string(), e))
}

struct Lines<'a> {
    inner: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Result<&'a str, StcaError> {
        self.line_no += 1;
        self.inner
            .next()
            .ok_or_else(|| format_err(format!("unexpected EOF at line {}", self.line_no)))
    }
}

fn parse_floats(s: &str, expect: Option<usize>, line_no: usize) -> Result<Vec<f64>, StcaError> {
    let vals: Result<Vec<f64>, _> = s.split_whitespace().map(|t| t.parse::<f64>()).collect();
    let vals = vals.map_err(|e| format_err(format!("bad float at line {line_no}: {e}")))?;
    if let Some(n) = expect {
        if vals.len() != n {
            return Err(format_err(format!(
                "expected {n} values at line {line_no}, got {}",
                vals.len()
            )));
        }
    }
    Ok(vals)
}

fn expect_tagged<'a>(lines: &mut Lines<'a>, tag: &str) -> Result<(&'a str, usize), StcaError> {
    let line = lines.next()?;
    let rest = line.strip_prefix(tag).ok_or_else(|| {
        format_err(format!(
            "expected '{tag}' at line {}, got {line:?}",
            lines.line_no
        ))
    })?;
    Ok((rest, lines.line_no))
}

/// Parse a profile set from a string.
pub fn from_string(text: &str) -> Result<ProfileSet, StcaError> {
    let mut lines = Lines {
        inner: text.lines(),
        line_no: 0,
    };
    let header = lines.next()?;
    if header != "STCA-PROFILES v1" {
        return Err(format_err(format!("bad header {header:?}")));
    }
    let (rest, ln) = expect_tagged(&mut lines, "rows ")?;
    let n: usize = rest
        .trim()
        .parse()
        .map_err(|e| format_err(format!("bad row count at line {ln}: {e}")))?;
    let mut set = ProfileSet::new();
    for _ in 0..n {
        let marker = lines.next()?;
        if marker != "row" {
            return Err(format_err(format!(
                "expected 'row' at line {}, got {marker:?}",
                lines.line_no
            )));
        }
        let (rest, ln) = expect_tagged(&mut lines, "static ")?;
        let mut parts = rest.split_whitespace();
        let k: usize = parts
            .next()
            .ok_or_else(|| format_err(format!("missing count at line {ln}")))?
            .parse()
            .map_err(|e| format_err(format!("bad count at line {ln}: {e}")))?;
        let static_features = parse_floats(&parts.collect::<Vec<_>>().join(" "), Some(k), ln)?;

        let (rest, ln) = expect_tagged(&mut lines, "dynamic ")?;
        let mut parts = rest.split_whitespace();
        let k: usize = parts
            .next()
            .ok_or_else(|| format_err(format!("missing count at line {ln}")))?
            .parse()
            .map_err(|e| format_err(format!("bad count at line {ln}: {e}")))?;
        let dynamic_features = parse_floats(&parts.collect::<Vec<_>>().join(" "), Some(k), ln)?;

        let (rest, ln) = expect_tagged(&mut lines, "targets")?;
        let targets = parse_floats(rest, Some(5), ln)?;

        let (rest, ln) = expect_tagged(&mut lines, "trace ")?;
        let dims = parse_floats(rest, Some(2), ln)?;
        let (rows, cols) = (dims[0] as usize, dims[1] as usize);
        let mut trace = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let line = lines.next()?;
            let vals = parse_floats(line, Some(cols), lines.line_no)?;
            trace.row_mut(r).copy_from_slice(&vals);
        }
        set.push(ProfileRow {
            static_features,
            dynamic_features,
            trace,
            ea: targets[0],
            base_service_norm: targets[1],
            mean_response_norm: targets[2],
            p95_response_norm: targets[3],
            allocation_ratio: targets[4],
        });
    }
    Ok(set)
}

/// Load a profile set from a file.
pub fn load(path: &Path) -> Result<ProfileSet, StcaError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| StcaError::io(path.display().to_string(), e))?;
    from_string(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ProfileSet {
        let mut trace = Matrix::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                trace[(r, c)] = (r * 4 + c) as f64 * 0.3337 + 1e-9;
            }
        }
        let mut set = ProfileSet::new();
        set.push(ProfileRow {
            static_features: vec![0.9, 1.5, 0.25, 6.0, 1.0],
            dynamic_features: vec![0.125, 2.75],
            trace,
            ea: 0.731,
            base_service_norm: 1.0625,
            mean_response_norm: 1.875,
            p95_response_norm: 3.5,
            allocation_ratio: 2.0,
        });
        set.push(ProfileRow {
            static_features: vec![0.3, 0.0, 0.5, 3.0, 2.0],
            dynamic_features: vec![0.0, 0.0],
            trace: Matrix::zeros(3, 4),
            ea: 0.5,
            base_service_norm: 1.0,
            mean_response_norm: 1.1,
            p95_response_norm: 2.2,
            allocation_ratio: 1.5,
        });
        set
    }

    #[test]
    fn roundtrip_is_exact() {
        let set = sample_set();
        let text = to_string(&set);
        let back = from_string(&text).expect("parses");
        assert_eq!(back.len(), set.len());
        for (a, b) in set.rows.iter().zip(&back.rows) {
            assert_eq!(a.static_features, b.static_features);
            assert_eq!(a.dynamic_features, b.dynamic_features);
            assert_eq!(a.trace.as_slice(), b.trace.as_slice());
            assert_eq!(a.ea, b.ea);
            assert_eq!(a.base_service_norm, b.base_service_norm);
            assert_eq!(a.mean_response_norm, b.mean_response_norm);
            assert_eq!(a.p95_response_norm, b.p95_response_norm);
            assert_eq!(a.allocation_ratio, b.allocation_ratio);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("stca_storage_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("profiles.stca");
        let set = sample_set();
        save(&set, &path).expect("saves");
        let back = load(&path).expect("loads");
        assert_eq!(back.len(), 2);
        assert_eq!(back.rows[0].ea, 0.731);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            from_string("NOT-A-PROFILE v9\n"),
            Err(StcaError::Format { .. })
        ));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = to_string(&sample_set());
        let cut = &text[..text.len() / 2];
        assert!(from_string(cut).is_err());
    }

    #[test]
    fn rejects_wrong_counts() {
        let good = to_string(&sample_set());
        let bad = good.replacen("static 5", "static 7", 1);
        assert!(from_string(&bad).is_err());
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load(Path::new("/definitely/not/here.stca")).expect_err("missing");
        assert!(matches!(err, StcaError::Io { .. }));
    }

    #[test]
    fn extreme_floats_roundtrip() {
        let mut set = ProfileSet::new();
        set.push(ProfileRow {
            static_features: vec![f64::MIN_POSITIVE, 1e300, -0.0, 1.0 / 3.0],
            dynamic_features: vec![],
            trace: Matrix::zeros(0, 0),
            ea: f64::EPSILON,
            base_service_norm: 1e-200,
            mean_response_norm: 12345.678901234567,
            p95_response_norm: 0.1 + 0.2, // the classic
            allocation_ratio: 1.0,
        });
        let back = from_string(&to_string(&set)).expect("parses");
        assert_eq!(back.rows[0].static_features, set.rows[0].static_features);
        assert_eq!(
            back.rows[0].p95_response_norm,
            set.rows[0].p95_response_norm
        );
    }
}
