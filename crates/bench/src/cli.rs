//! Minimal command-line parsing for the harness binaries.
//!
//! Every binary accepts the same core knobs:
//!
//! * `--scale F` — matrix size multiplier (default 0.25 for quick runs;
//!   use 1.0+ to leave the caches, 8.0 for paper-like footprints);
//! * `--seed N` — generator seed;
//! * `--min-time MS` — timing window per measurement in milliseconds;
//! * `--batches N` — best-of batches per measurement;
//! * `--matrices a,b,c` — restrict to specific suite ids;
//! * `--trace FILE` — record telemetry and write a chrome://tracing
//!   JSON file on exit (see `docs/OBSERVABILITY.md`);
//! * `--help` — print the option list.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--flag`s from an iterator.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // A value follows unless the next token is another option.
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.opts.insert(key.to_string(), v);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            }
        }
        out
    }

    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Whether a bare `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// String option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(String::as_str)
    }

    /// Float option with default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects a number"))
            })
            .unwrap_or(default)
    }

    /// Integer option with default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// u64 option with default.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// Comma-separated usize list (e.g. `--matrices 3,7,19`).
    pub fn get_usize_list(&self, name: &str) -> Option<Vec<usize>> {
        self.get(name).map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| panic!("--{name} expects integers"))
                })
                .collect()
        })
    }

    /// Arms chrome-trace capture when `--trace FILE` was given: enables
    /// telemetry recording and returns the output path. Harness mains
    /// call this before their sweep and [`write_trace`] on exit.
    pub fn trace_path(&self) -> Option<String> {
        let path = self.get("trace").map(str::to_string);
        if path.is_some() {
            spmv_telemetry::set_enabled(true);
        }
        path
    }

    /// Builds the shared experiment options and prints help if requested.
    pub fn experiment_opts(&self, bin: &str, extra_help: &str) -> crate::sweep::ExpOpts {
        if self.flag("help") {
            println!(
                "usage: {bin} [--scale F] [--seed N] [--min-time MS] [--batches N] \
                 [--matrices a,b,c] [--trace FILE]{extra_help}\n\
                 defaults: --scale 0.25 --seed 42 --min-time 2 --batches 3"
            );
            std::process::exit(0);
        }
        crate::sweep::ExpOpts {
            scale: self.get_f64("scale", 0.25),
            seed: self.get_u64("seed", 42),
            min_time: self.get_f64("min-time", 2.0) * 1e-3,
            batches: self.get_usize("batches", 3),
            matrices: self.get_usize_list("matrices"),
            calib_bytes: self.get("calib-mib").map(|v| {
                let mib: f64 = v.parse().expect("--calib-mib expects a number");
                (mib * 1024.0 * 1024.0) as usize
            }),
        }
    }
}

/// Writes the telemetry recorded since [`Args::trace_path`] armed
/// capture to `path` as chrome-trace JSON (see `docs/OBSERVABILITY.md`).
/// Failures are reported on stderr, not fatal — a missing trace must
/// never invalidate the measurements it annotated.
pub fn write_trace(path: &str) {
    match spmv_telemetry::chrome::write_chrome_trace(path) {
        Ok(()) => eprintln!("chrome trace written to {path}"),
        Err(e) => eprintln!("failed to write chrome trace {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn options_and_flags() {
        let a = parse("--scale 2.5 --verbose --seed 7");
        assert_eq!(a.get_f64("scale", 1.0), 2.5);
        assert_eq!(a.get_u64("seed", 0), 7);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.get_f64("scale", 0.25), 0.25);
        assert_eq!(a.get_usize("batches", 3), 3);
    }

    #[test]
    fn lists() {
        let a = parse("--matrices 3,7, 19");
        // note: the space split makes "19" a flagless token, ignored;
        // canonical usage has no spaces inside the list.
        assert_eq!(a.get_usize_list("matrices"), Some(vec![3, 7]));
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("--quick --scale 0.5");
        assert!(a.flag("quick"));
        assert_eq!(a.get_f64("scale", 1.0), 0.5);
    }
}
