//! `--name value` command-line lookup for the workspace's binaries (a
//! `clap` stand-in small enough to read in one screen).
//!
//! A flag is looked up by name anywhere on the command line; unknown flags
//! are ignored. What is *given* is never guessed at: a flag with its value
//! forgotten, or a numeric flag whose value does not parse, prints
//! `"<flag>: expected <what>"` to stderr and exits with status 2 instead
//! of silently running with the default.

use std::str::FromStr;

/// The value following `name`: `Ok(None)` when the flag is absent, an
/// error when it is the last argument or is followed by another `--flag`.
fn value_in<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name}: expected a value")),
    }
}

/// `name`'s value parsed as a number; `default` when the flag is absent.
fn num_in<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match value_in(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: expected a number, got {v:?}")),
    }
}

fn args() -> Vec<String> {
    std::env::args().collect()
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// `--name value`: the value, or `None` when the flag is absent.
pub fn arg_value(name: &str) -> Option<String> {
    or_exit(value_in(&args(), name)).map(str::to_string)
}

/// `--name`: whether the flag is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// `--name value` parsed as a number; `default` when the flag is absent.
pub fn arg_num<T: FromStr>(name: &str, default: T) -> T {
    or_exit(num_in(&args(), name, default))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn a_present_flag_yields_its_value() {
        let a = argv(&["bin", "--wal", "/tmp/w", "--workers", "8"]);
        assert_eq!(value_in(&a, "--wal"), Ok(Some("/tmp/w")));
        assert_eq!(num_in(&a, "--workers", 4usize), Ok(8));
        // Negative numbers are values, not flags.
        assert_eq!(
            num_in(&argv(&["bin", "--delta", "-3"]), "--delta", 0i64),
            Ok(-3)
        );
    }

    #[test]
    fn an_absent_flag_yields_the_default() {
        let a = argv(&["bin", "--trace"]);
        assert_eq!(value_in(&a, "--wal"), Ok(None));
        assert_eq!(num_in(&a, "--workers", 4usize), Ok(4));
    }

    #[test]
    fn a_flag_with_its_value_forgotten_is_an_error() {
        let last = argv(&["bin", "--sync", "group", "--wal"]);
        assert_eq!(
            value_in(&last, "--wal"),
            Err("--wal: expected a value".into())
        );
        let swallowed = argv(&["bin", "--wal", "--sync", "group"]);
        assert_eq!(
            value_in(&swallowed, "--wal"),
            Err("--wal: expected a value".into())
        );
        assert_eq!(
            num_in(&argv(&["bin", "--workers"]), "--workers", 4usize),
            Err("--workers: expected a value".into())
        );
    }

    #[test]
    fn an_unparsable_number_is_an_error() {
        let a = argv(&["bin", "--workers", "eight"]);
        assert_eq!(
            num_in(&a, "--workers", 4usize),
            Err("--workers: expected a number, got \"eight\"".into())
        );
        // Out of range for the target type is unparsable too.
        assert!(num_in(&argv(&["bin", "--shards", "-1"]), "--shards", 16usize).is_err());
    }
}
