//! Shared command-line argument parsing and key=value spec errors.
//!
//! Every binary in the workspace takes the same flag shape — `--name value`
//! (or `-n value`, or `--name=value`) pairs after the subcommand — and every
//! one of them used to hand-roll the loop. [`Args`] is the one shared
//! implementation; parse failures are typed ([`ArgError`]) so binaries can
//! map them onto the workspace-wide exit-2 usage convention.
//!
//! [`SpecError`] is the companion error for *value-level* mini-languages:
//! comma-separated `key=value` specs (fault plans) and the scenario file
//! format. It always names the offending key and value and lists the valid
//! keys, so a typo'd spec tells the user what was meant, not just that
//! something was wrong.

use std::path::PathBuf;

/// A typed argument-parsing failure. Binaries treat any variant as a usage
/// error (exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A positional token appeared where a `--flag` was expected.
    NotAFlag { token: String },
    /// A flag the command does not read.
    UnknownFlag { flag: String },
    /// A flag was given without a following value.
    MissingValue { flag: String },
    /// A flag the command requires was absent.
    MissingRequired { flag: String },
    /// A flag's value failed to parse as the expected type.
    BadValue {
        flag: String,
        value: String,
        why: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NotAFlag { token } => write!(f, "expected a --flag, got {token:?}"),
            ArgError::UnknownFlag { flag } => write!(f, "unknown flag --{flag}"),
            ArgError::MissingValue { flag } => write!(f, "flag --{flag} needs a value"),
            ArgError::MissingRequired { flag } => write!(f, "missing required flag --{flag}"),
            ArgError::BadValue { flag, value, why } => {
                write!(f, "bad --{flag} {value:?}: {why}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--flag value` pairs, in argv order. Duplicate flags keep the
/// first occurrence (matching the historical behavior of every binary).
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<(String, String)>,
    /// A last flag with no value after it: reported by [`Args::check`]
    /// once every flag name is known, so an unknown last flag is reported
    /// as unknown.
    trailing: Option<String>,
}

impl Args {
    /// Parse an argv slice (without the program name / subcommand).
    /// Accepts `--name value`, `-n value`, and `--name=value`. A last flag
    /// without a value is kept for [`Args::check`] to report.
    pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Args, ArgError> {
        let mut flags = Vec::new();
        let mut trailing = None;
        let mut i = 0;
        while i < argv.len() {
            let token = argv[i].as_ref();
            let key = token
                .strip_prefix("--")
                .or_else(|| token.strip_prefix('-'))
                .ok_or_else(|| ArgError::NotAFlag {
                    token: token.to_string(),
                })?;
            if let Some((k, v)) = key.split_once('=') {
                flags.push((k.to_string(), v.to_string()));
                i += 1;
                continue;
            }
            match argv.get(i + 1) {
                Some(value) => flags.push((key.to_string(), value.as_ref().to_string())),
                None => trailing = Some(key.to_string()),
            }
            i += 2;
        }
        Ok(Args { flags, trailing })
    }

    /// The command's check of its flags, run before any flag is read: the
    /// first flag (in argv order) that `known` rejects is an
    /// [`ArgError::UnknownFlag`]; then a last flag with no value is an
    /// [`ArgError::MissingValue`].
    pub fn check(&self, known: impl Fn(&str) -> bool) -> Result<(), ArgError> {
        let names = self.flags.iter().map(|(k, _)| k).chain(&self.trailing);
        if let Some(flag) = names.into_iter().find(|f| !known(f)) {
            return Err(ArgError::UnknownFlag { flag: flag.clone() });
        }
        match &self.trailing {
            Some(flag) => Err(ArgError::MissingValue { flag: flag.clone() }),
            None => Ok(()),
        }
    }

    /// Parse the process argv, skipping the program name.
    pub fn from_env() -> Result<Args, ArgError> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv)
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a required flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name).ok_or_else(|| ArgError::MissingRequired {
            flag: name.to_string(),
        })
    }

    /// Parse a flag's value, falling back to `default` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| ArgError::BadValue {
                flag: name.to_string(),
                value: v.to_string(),
                why: format!("{e}"),
            }),
        }
    }

    /// A flag's value as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// All parsed `(flag, value)` pairs, in argv order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.flags.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Whether the flag appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

/// Where in a spec a [`SpecError`] points: a 1-based line for file-shaped
/// specs, a 0-based token position for one-line comma specs, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecLocation {
    /// No useful position (single-token specs).
    None,
    /// 0-based comma-separated token index.
    Token(usize),
    /// 1-based line number in a spec file.
    Line(usize),
}

/// A typed failure in a `key=value` mini-language (fault plans, scenario
/// files). Rendered messages always name the offending key/value and list
/// the valid alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was being parsed, e.g. `"fault plan"` or
    /// `"scenario examples/serve-heavy.stca"`.
    pub context: String,
    /// Where in the spec the failure sits.
    pub location: SpecLocation,
    /// The failure itself.
    pub kind: SpecErrorKind,
}

/// The kinds of spec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// A token that is neither a known bare word nor `key=value`.
    Malformed { token: String, expected: String },
    /// `key=value` with a key the spec does not define.
    UnknownKey {
        key: String,
        valid: &'static [&'static str],
    },
    /// A known key whose value failed to parse as the expected type.
    BadValue {
        key: String,
        value: String,
        want: String,
    },
    /// A well-typed value outside the key's legal range.
    OutOfRange {
        key: String,
        value: String,
        range: String,
    },
}

impl SpecError {
    /// Build an error with no position information.
    pub fn new(context: impl Into<String>, kind: SpecErrorKind) -> Self {
        SpecError {
            context: context.into(),
            location: SpecLocation::None,
            kind,
        }
    }

    /// Attach a location.
    pub fn at(mut self, location: SpecLocation) -> Self {
        self.location = location;
        self
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.context)?;
        match self.location {
            SpecLocation::None => {}
            SpecLocation::Token(i) => write!(f, ", token {i}")?,
            SpecLocation::Line(l) => write!(f, ", line {l}")?,
        }
        write!(f, ": ")?;
        match &self.kind {
            SpecErrorKind::Malformed { token, expected } => {
                write!(f, "malformed token {token:?}: expected {expected}")
            }
            SpecErrorKind::UnknownKey { key, valid } => {
                write!(f, "unknown key {key:?} (valid keys: {})", valid.join(", "))
            }
            SpecErrorKind::BadValue { key, value, want } => {
                write!(f, "{key}={value:?}: want {want}")
            }
            SpecErrorKind::OutOfRange { key, value, range } => {
                write!(f, "{key}={value}: out of range (want {range})")
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flag_shapes() {
        let a = Args::parse(&argv(&["--scale", "quick", "-n", "4", "--out=x.json"])).unwrap();
        assert_eq!(a.get("scale"), Some("quick"));
        assert_eq!(a.get("n"), Some("4"));
        assert_eq!(a.get("out"), Some("x.json"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn first_occurrence_wins() {
        let a = Args::parse(&argv(&["--seed", "1", "--seed", "2"])).unwrap();
        assert_eq!(a.get("seed"), Some("1"));
    }

    #[test]
    fn typed_errors() {
        assert_eq!(
            Args::parse(&argv(&["positional"])).unwrap_err(),
            ArgError::NotAFlag {
                token: "positional".into()
            }
        );
        // a last flag without a value: unknown beats missing value
        let trailing = Args::parse(&argv(&["--n", "1", "--seed"])).unwrap();
        assert_eq!(
            trailing.check(|f| f == "n").unwrap_err(),
            ArgError::UnknownFlag {
                flag: "seed".into()
            }
        );
        assert_eq!(
            trailing.check(|f| f == "n" || f == "seed").unwrap_err(),
            ArgError::MissingValue {
                flag: "seed".into()
            }
        );
        assert_eq!(
            trailing.check(|f| f == "seed").unwrap_err(),
            ArgError::UnknownFlag { flag: "n".into() }
        );
        let a = Args::parse(&argv(&["--seed", "x"])).unwrap();
        assert!(matches!(
            a.get_parsed("seed", 0u64),
            Err(ArgError::BadValue { .. })
        ));
        assert_eq!(
            a.require("pair").unwrap_err(),
            ArgError::MissingRequired {
                flag: "pair".into()
            }
        );
    }

    #[test]
    fn get_parsed_defaults() {
        let a = Args::parse(&argv(&["--n", "7"])).unwrap();
        assert_eq!(a.get_parsed("n", 3u32).unwrap(), 7);
        assert_eq!(a.get_parsed("m", 3u32).unwrap(), 3);
    }

    #[test]
    fn spec_error_messages_name_key_and_valid_set() {
        let e = SpecError::new(
            "fault plan",
            SpecErrorKind::UnknownKey {
                key: "wat".into(),
                valid: &["seed", "crash"],
            },
        )
        .at(SpecLocation::Token(2));
        let msg = e.to_string();
        assert!(msg.contains("\"wat\""), "{msg}");
        assert!(msg.contains("seed, crash"), "{msg}");
        assert!(msg.contains("token 2"), "{msg}");
    }
}
