//! Minimal typed argument parsing (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: subcommand, positional arguments and `--flags`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` and bare `--switch` options (switches map to "true").
    pub options: BTreeMap<String, String>,
}

/// Argument errors, with the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// `--key` given without a value where one is required.
    BadValue {
        /// Option name.
        key: String,
        /// The unparsable value.
        value: String,
        /// Expected type.
        expected: &'static str,
    },
    /// A required option is missing.
    Missing {
        /// Option name.
        key: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `sia help`)"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key}: expected {expected}, got '{value}'")
            }
            ArgError::Missing { key } => write!(f, "missing required option --{key}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream (everything after the program name).
    ///
    /// Flags take the following token as their value unless it begins with
    /// `--` or is absent, in which case they are switches ("true").
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingCommand`] on an empty stream.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        let mut command = None;
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                args.options.insert(key.to_string(), value);
            } else if command.is_none() {
                command = Some(tok);
            } else {
                args.positional.push(tok);
            }
        }
        args.command = command.ok_or(ArgError::MissingCommand)?;
        Ok(args)
    }

    /// String option with a default.
    #[must_use]
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Missing`] when absent.
    pub fn str_required(&self, key: &str) -> Result<String, ArgError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| ArgError::Missing {
                key: key.to_string(),
            })
    }

    /// Integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: "an integer",
            }),
        }
    }

    /// Float option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: "a number",
            }),
        }
    }

    /// Boolean switch (present ⇒ true).
    #[must_use]
    pub fn switch(&self, key: &str) -> bool {
        self.options.get(key).is_some_and(|v| v == "true")
    }

    /// The first given `--key` not in `known` (the keys the subcommand
    /// reads), if any.
    #[must_use]
    pub fn unknown_key(&self, known: &[&str]) -> Option<&str> {
        self.options
            .keys()
            .map(String::as_str)
            .find(|k| !known.contains(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_positional_and_flags() {
        let a = parse("run model.sia --timesteps 16 --events").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.positional, vec!["model.sia"]);
        assert_eq!(a.usize_or("timesteps", 8).unwrap(), 16);
        assert!(a.switch("events"));
        assert!(!a.switch("verbose"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("train").unwrap();
        assert_eq!(a.usize_or("epochs", 8).unwrap(), 8);
        assert_eq!(a.str_or("model", "resnet18"), "resnet18");
    }

    #[test]
    fn float_options_parse_with_defaults() {
        let a = parse("bench --rel-slack 37.5").unwrap();
        assert!((a.f64_or("rel-slack", 25.0).unwrap() - 37.5).abs() < 1e-12);
        assert!((a.f64_or("mad-k", 4.0).unwrap() - 4.0).abs() < 1e-12);
        let bad = parse("bench --rel-slack lots").unwrap();
        assert!(bad.f64_or("rel-slack", 25.0).is_err());
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn bad_integer_is_reported_with_key() {
        let a = parse("train --epochs banana").unwrap();
        let err = a.usize_or("epochs", 1).unwrap_err();
        assert!(err.to_string().contains("epochs"));
        assert!(err.to_string().contains("banana"));
    }

    #[test]
    fn required_option_errors_when_missing() {
        let a = parse("train").unwrap();
        assert!(a.str_required("out").is_err());
    }

    #[test]
    fn flag_followed_by_flag_is_a_switch() {
        let a = parse("run --events --timesteps 4").unwrap();
        assert!(a.switch("events"));
        assert_eq!(a.usize_or("timesteps", 8).unwrap(), 4);
    }
}
