//! A small, dependency-free flag parser.
//!
//! The workspace's sanctioned dependency list doesn't include an argument
//! parser, and the `dses` CLI needs only `--flag value` pairs and
//! booleans, so we parse by hand. Grammar:
//!
//! ```text
//! dses <command> [--key value]... [--switch]...
//! ```

use std::collections::BTreeMap;

/// The most points one load range may expand to. At 100 000 jobs a
/// load's arrival column is 0.8 MB, so 1 000 loads already hold 0.8 GB;
/// the paper's figures use 9.
pub const MAX_LOADS: usize = 1_000;

/// Parsed command line: one subcommand plus `--key value` / `--switch`
/// flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// the subcommand (first positional argument)
    pub command: String,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw argument list (excluding the program name).
    ///
    /// `--key value` stores a value; a `--switch` followed by another
    /// flag (or nothing) is a boolean switch. Positional arguments other
    /// than the leading command are rejected. `--help` or `-h` anywhere
    /// parses as the `help` command.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let raw: Vec<String> = raw.into_iter().collect();
        if raw.iter().any(|t| t == "--help" || t == "-h") {
            return Ok(Args {
                command: "help".to_string(),
                ..Args::default()
            });
        }
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command; try `dses help`".to_string()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a command before flags, found {command}"
            )));
        }
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {token:?}")));
            };
            if key.is_empty() {
                return Err(ArgError("empty flag `--`".to_string()));
            }
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    if args.values.insert(key.to_string(), value).is_some() {
                        return Err(ArgError(format!("duplicate flag --{key}")));
                    }
                }
                _ => args.switches.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// Check the parsed flags against what the command reads: the
    /// `values` it takes as `--key value` and the `switches` it takes
    /// bare. Any other flag, a switch given a value, or a value flag
    /// given none is an error that names the flag and the command — a
    /// misspelled flag must not be silently ignored.
    pub fn check_flags(&self, values: &[&str], switches: &[&str]) -> Result<(), ArgError> {
        let command = &self.command;
        for (key, value) in &self.values {
            if switches.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "--{key} is a switch of `dses {command}` and takes no value, got {value:?}"
                )));
            }
            if !values.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key} for `dses {command}`; see `dses help`"
                )));
            }
        }
        for key in &self.switches {
            if values.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "--{key} of `dses {command}` needs a value"
                )));
            }
            if !switches.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key} for `dses {command}`; see `dses help`"
                )));
            }
        }
        Ok(())
    }

    /// A string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A string value with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric value with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    /// A parsed integer value with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got {v:?}"))),
        }
    }

    /// A parsed u64 with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got {v:?}"))),
        }
    }

    /// Whether a boolean switch is present.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Parse a load list: `0.5` or `0.5,0.7,0.9` or a range `0.1:0.9:0.2`
    /// of at most [`MAX_LOADS`] points. Only the syntax is checked here;
    /// the caller checks each value.
    pub fn get_loads(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
        let Some(spec) = self.get(key) else {
            return Ok(default.to_vec());
        };
        if let Some((rest, step)) = spec.rsplit_once(':') {
            if let Some((lo, hi)) = rest.split_once(':') {
                let lo: f64 = lo
                    .parse()
                    .map_err(|_| ArgError(format!("bad range start in --{key}: {lo:?}")))?;
                let hi: f64 = hi
                    .parse()
                    .map_err(|_| ArgError(format!("bad range end in --{key}: {hi:?}")))?;
                let step: f64 = step
                    .parse()
                    .map_err(|_| ArgError(format!("bad range step in --{key}: {step:?}")))?;
                if !(step > 0.0 && hi >= lo) {
                    return Err(ArgError(format!("empty range in --{key}: {spec:?}")));
                }
                // Count the points before building them: a step too small
                // to move `x += step` would otherwise never end the list.
                // The 1e-9 of a step absorbs rounding in `(hi − lo) / step`.
                let points = ((hi - lo) / step + 1e-9).floor() + 1.0;
                if points.is_nan() || points > MAX_LOADS as f64 {
                    return Err(ArgError(format!(
                        "--{key} range {spec:?} has more than {MAX_LOADS} points"
                    )));
                }
                return Ok((0..points as usize)
                    .map(|k| ((lo + k as f64 * step) * 1e9).round() / 1e9)
                    .collect());
            }
        }
        spec.split(',')
            .map(|tok| {
                tok.parse()
                    .map_err(|_| ArgError(format!("bad load {tok:?} in --{key}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_command_values_and_switches() {
        let a = parse(&["simulate", "--load", "0.7", "--fairness", "--hosts", "4"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("load"), Some("0.7"));
        assert_eq!(a.get_usize("hosts", 2).unwrap(), 4);
        assert!(a.has("fairness"));
        assert!(!a.has("percentiles"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["analyze"]).unwrap();
        assert_eq!(a.get_f64("load", 0.5).unwrap(), 0.5);
        assert_eq!(a.get_or("workload", "c90"), "c90");
    }

    #[test]
    fn rejects_missing_command_and_positional_junk() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--load", "0.7"]).is_err());
        assert!(parse(&["simulate", "oops"]).is_err());
    }

    #[test]
    fn rejects_duplicates_and_bad_numbers() {
        assert!(parse(&["x", "--a", "1", "--a", "2"]).is_err());
        let a = parse(&["x", "--load", "abc"]).unwrap();
        assert!(a.get_f64("load", 0.5).is_err());
    }

    #[test]
    fn load_list_and_range_parsing() {
        let a = parse(&["x", "--loads", "0.3,0.5,0.9"]).unwrap();
        assert_eq!(a.get_loads("loads", &[]).unwrap(), vec![0.3, 0.5, 0.9]);
        let a = parse(&["x", "--loads", "0.1:0.5:0.2"]).unwrap();
        assert_eq!(a.get_loads("loads", &[]).unwrap(), vec![0.1, 0.3, 0.5]);
        let a = parse(&["x"]).unwrap();
        assert_eq!(a.get_loads("loads", &[0.7]).unwrap(), vec![0.7]);
        let a = parse(&["x", "--loads", "0.9:0.1:0.2"]).unwrap();
        assert!(a.get_loads("loads", &[]).is_err());
        // the point count is known before the list is built
        let a = parse(&["x", "--loads", "0.5:0.5:1e-300"]).unwrap();
        assert_eq!(a.get_loads("loads", &[]).unwrap(), vec![0.5]);
        let a = parse(&["x", "--loads", "0.001:1:0.001"]).unwrap();
        assert_eq!(a.get_loads("loads", &[]).unwrap().len(), MAX_LOADS);
        let a = parse(&["x", "--loads", "0.0005:1:0.0005"]).unwrap();
        let e = a.get_loads("loads", &[]).unwrap_err().0;
        assert!(e.contains("more than 1000 points"), "{e}");
    }

    #[test]
    fn help_anywhere_is_the_help_command() {
        for tokens in [
            &["--help"][..],
            &["-h"],
            &["simulate", "--help"],
            &["sweep", "--loads", "0.5", "-h"],
            &["--load", "0.7", "--help"],
        ] {
            assert_eq!(parse(tokens).unwrap().command, "help", "{tokens:?}");
        }
    }

    #[test]
    fn check_flags_names_the_flag_and_the_command() {
        let rejected = |tokens: &[&str], values: &[&str], switches: &[&str]| {
            let args = parse(tokens).unwrap();
            args.check_flags(values, switches).unwrap_err().0
        };
        let e = rejected(&["simulate", "--polcy", "lwl"], &["policy"], &[]);
        assert!(e.contains("--polcy") && e.contains("simulate"), "{e}");
        let e = rejected(&["simulate", "--fairnes"], &[], &["fairness"]);
        assert!(e.contains("--fairnes") && e.contains("simulate"), "{e}");
        // a switch given a value, and a value flag given none
        let e = rejected(&["simulate", "--fairness", "12"], &[], &["fairness"]);
        assert!(e.contains("takes no value"), "{e}");
        let e = rejected(&["simulate", "--policy"], &["policy"], &[]);
        assert!(e.contains("needs a value"), "{e}");
        let a = parse(&["simulate", "--policy", "lwl", "--fairness"]).unwrap();
        assert_eq!(a.check_flags(&["policy"], &["fairness"]), Ok(()));
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let a = parse(&["x", "--verbose"]).unwrap();
        assert!(a.has("verbose"));
    }
}
