//! Command-line arguments shared by the two binaries: `--name value`
//! pairs and bare flags, in any order.

use std::path::{Path, PathBuf};

use crate::metrics;
use crate::workload::WORKLOADS;

pub struct Args<'a>(pub &'a [String]);

impl Args<'_> {
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a number, got '{v}'")),
        }
    }

    /// A required path, made absolute: children resolve paths against
    /// their own working directory.
    pub fn path(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.value(name).ok_or_else(|| format!("missing {name}"))?;
        crate::absolute(Path::new(p))
    }

    /// `--workload`, checked against the fixed names.
    pub fn workload(&self) -> Result<Option<&'static str>, String> {
        match self.value("--workload") {
            None => Ok(None),
            Some(w) => WORKLOADS
                .iter()
                .find(|k| **k == w)
                .copied()
                .map(Some)
                .ok_or_else(|| format!("unknown workload '{w}' (one of {WORKLOADS:?})")),
        }
    }

    pub fn seed(&self) -> Result<u64, String> {
        self.parsed("--seed", metrics::DEFAULT_SEED)
    }

    /// `--seconds`, within the contract's 60.
    pub fn seconds(&self, default: f64) -> Result<f64, String> {
        let seconds: f64 = self.parsed("--seconds", default)?;
        if seconds > 0.0 && seconds <= 60.0 {
            Ok(seconds)
        } else {
            Err("--seconds takes 0 < s <= 60".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_flags_and_defaults() {
        let raw: Vec<String> = ["--workload", "serve-read", "--quick", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args(&raw);
        assert_eq!(args.workload(), Ok(Some("serve-read")));
        assert!(args.flag("--quick") && !args.flag("--check-noise"));
        assert_eq!(args.seed(), Ok(7));
        assert_eq!(args.seconds(10.0), Ok(10.0));
        assert!(args.path("--out").is_err());
        let bad: Vec<String> = ["--workload", "nope", "--seconds", "61"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Args(&bad).workload().is_err());
        assert!(Args(&bad).seconds(10.0).is_err());
    }
}
