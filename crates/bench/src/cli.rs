//! Shared CLI plumbing for harness binaries.
//!
//! Every binary that takes arguments — the `cta-serve` sweep harnesses
//! and the parallelised figure benchmarks — routes malformed input
//! through one path: parse errors bubble up as `Err(String)`, and
//! [`cli_main`] prints `error: …` plus the usage text to **stderr** and
//! exits non-zero. No harness binary panics on bad flags.
//!
//! The pieces here used to be copy-pasted into each sweep binary
//! (`parse_num`, `parse_list`, the flag/value walk, the `main` error
//! plumbing); `cta_serve::harness` builds its [`SweepSpec`] machinery on
//! top of them.

use std::process::ExitCode;

use cta_parallel::Parallelism;

/// Parses one value for `flag`, reporting the flag name and expected
/// `kind` ("an integer", "a number", …) on failure.
///
/// # Errors
///
/// Returns a `"{flag} takes {kind}, got …"` message when `s` does not
/// parse as `T`.
pub fn parse_num<T: std::str::FromStr>(s: &str, flag: &str, kind: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag} takes {kind}, got {s:?}"))
}

/// Parses a comma-separated list for `flag` via [`parse_num`].
///
/// # Errors
///
/// Returns the first element's [`parse_num`] error.
pub fn parse_list<T: std::str::FromStr>(s: &str, flag: &str, kind: &str) -> Result<Vec<T>, String> {
    s.split(',').map(|part| parse_num(part, flag, kind)).collect()
}

/// A flag/value walk over CLI words, with the shared error wording
/// (`"{flag} needs a value"`) for flags whose value is missing.
#[derive(Debug)]
pub struct FlagParser {
    it: std::vec::IntoIter<String>,
}

impl FlagParser {
    /// Wraps the words of one invocation (without the program name).
    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Self { it: argv.into_iter().collect::<Vec<_>>().into_iter() }
    }

    /// The next flag word, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The value following the current flag.
    ///
    /// # Errors
    ///
    /// Returns `"{flag} needs a value"` when the words are exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.it.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed via [`parse_num`].
    ///
    /// # Errors
    ///
    /// Returns the [`value`](Self::value) or [`parse_num`] error.
    pub fn num<T: std::str::FromStr>(&mut self, flag: &str, kind: &str) -> Result<T, String> {
        parse_num(&self.value(flag)?, flag, kind)
    }

    /// The comma-separated list following `flag`, parsed via
    /// [`parse_list`].
    ///
    /// # Errors
    ///
    /// Returns the [`value`](Self::value) or [`parse_list`] error.
    pub fn list<T: std::str::FromStr>(&mut self, flag: &str, kind: &str) -> Result<Vec<T>, String> {
        parse_list(&self.value(flag)?, flag, kind)
    }
}

/// Parses an invocation whose only recognised flag is `--jobs N` — the
/// figure benchmarks' CLI. `--jobs` defaults to [`Parallelism::from_env`]
/// (`CTA_JOBS`, then available cores).
///
/// # Errors
///
/// Returns an error for an unknown flag, a missing value, or a
/// non-positive `--jobs`.
pub fn parse_jobs_only(argv: impl IntoIterator<Item = String>) -> Result<Parallelism, String> {
    let mut p = FlagParser::new(argv);
    let mut jobs = Parallelism::from_env();
    while let Some(flag) = p.next_flag() {
        match flag.as_str() {
            "--jobs" => jobs = Parallelism::parse_arg(&p.value("--jobs")?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(jobs)
}

/// The shared `main` wrapper: runs `body` and, on error, prints
/// `error: {e}` followed by `usage` to stderr and exits non-zero.
pub fn cli_main(usage: &str, body: impl FnOnce() -> Result<(), String>) -> ExitCode {
    match body() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_num_reports_flag_and_kind() {
        assert_eq!(parse_num::<usize>("12", "--n", "an integer").unwrap(), 12);
        let err = parse_num::<usize>("many", "--n", "an integer").unwrap_err();
        assert!(err.contains("--n") && err.contains("an integer") && err.contains("many"));
    }

    #[test]
    fn parse_list_reports_the_bad_element() {
        assert_eq!(parse_list::<f64>("1,2.5", "--loads", "numbers").unwrap(), vec![1.0, 2.5]);
        assert!(parse_list::<f64>("1,oops", "--loads", "numbers").unwrap_err().contains("--loads"));
    }

    #[test]
    fn flag_parser_walks_flags_and_values() {
        let mut p = FlagParser::new(words(&["--a", "1", "--b"]));
        assert_eq!(p.next_flag().as_deref(), Some("--a"));
        assert_eq!(p.value("--a").unwrap(), "1");
        assert_eq!(p.next_flag().as_deref(), Some("--b"));
        assert!(p.value("--b").unwrap_err().contains("needs a value"));
        assert!(p.next_flag().is_none());
    }

    #[test]
    fn flag_parser_parses_numbers_and_lists_in_place() {
        let mut p = FlagParser::new(words(&["--n", "12", "--xs", "1,2.5", "--m", "x", "--k"]));
        p.next_flag();
        assert_eq!(p.num::<usize>("--n", "an integer").unwrap(), 12);
        p.next_flag();
        assert_eq!(p.list::<f64>("--xs", "numbers").unwrap(), vec![1.0, 2.5]);
        p.next_flag();
        assert!(p.num::<u64>("--m", "an integer").unwrap_err().contains("--m takes an integer"));
        p.next_flag();
        assert!(p.list::<f64>("--k", "numbers").unwrap_err().contains("needs a value"));
    }

    #[test]
    fn jobs_only_accepts_jobs_and_rejects_the_rest() {
        assert_eq!(parse_jobs_only(words(&["--jobs", "3"])).unwrap().get(), 3);
        assert!(parse_jobs_only(words(&["--jobs"])).unwrap_err().contains("needs a value"));
        assert!(parse_jobs_only(words(&["--jobs", "0"])).unwrap_err().contains("positive"));
        assert!(parse_jobs_only(words(&["--frob"])).unwrap_err().contains("unknown flag"));
        assert!(parse_jobs_only(words(&[])).unwrap().get() >= 1);
    }
}
