//! Tiny dependency-free flag parser for the CLI.

use std::collections::HashMap;

/// Parsed command line: a command, the suite of `bench`, and
/// `--key value` / `--flag` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: Option<String>,
    /// The word after `bench` (`fmml bench wire`); no other command
    /// takes a positional argument.
    pub subcommand: Option<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        out.command = it.next_if(|a| !a.starts_with("--"));
        if out.command.as_deref() == Some("bench") {
            out.subcommand = it.next_if(|a| !a.starts_with("--"));
        }
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = it.next().expect("peeked");
                    out.values.insert(key.to_string(), v);
                }
                _ => out.flags.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// A boolean flag (`--paper`).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required or optional typed value (`--ms 500`).
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    pub fn get_string(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_values_and_flags() {
        let a = parse("simulate --ms 500 --seed 7 --paper").unwrap();
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get_or("ms", 0u64).unwrap(), 500);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(a.flag("paper"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("eval").unwrap();
        assert_eq!(a.get_or("epochs", 30usize).unwrap(), 30);
        assert_eq!(a.get::<u64>("ms").unwrap(), None);
    }

    #[test]
    fn rejects_bad_values_and_positionals() {
        let a = parse("simulate --ms abc").unwrap();
        assert!(a.get::<u64>("ms").is_err());
        assert!(parse("simulate stray").is_err());
    }

    #[test]
    fn only_bench_takes_a_subcommand() {
        let a = parse("bench wire --out dir").unwrap();
        assert_eq!(a.command.as_deref(), Some("bench"));
        assert_eq!(a.subcommand.as_deref(), Some("wire"));
        assert_eq!(a.get_string("out"), Some("dir"));
        assert_eq!(parse("bench --out dir").unwrap().subcommand, None);
        assert!(parse("bench wire stray").is_err());
        assert!(parse("serve wire").is_err());
    }

    #[test]
    fn no_command_is_allowed() {
        let a = parse("--help").unwrap();
        assert_eq!(a.command, None);
        assert!(a.flag("help"));
    }
}
