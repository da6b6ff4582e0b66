//! # lumos-bench — harnesses regenerating every table and figure
//!
//! Shared helpers for the binaries (`tables`, `fig7`, `breakdown`,
//! `ablations`) that reproduce the paper's evaluation artifacts. See
//! the experiment index in docs/ARCHITECTURE.md for what each harness
//! regenerates; `tests/goldens/` holds each binary's stdout.
//!
//! Evaluations run through the `lumos_dse` worker pool: every
//! platform × model cell is independent, so the full Table 2 × platform
//! grid evaluates in parallel with deterministic (paper-order) results.
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with `--threads N` on any harness binary or the
//! `LUMOS_DSE_THREADS` environment variable (useful on CI machines with
//! few cores).
//!
//! # Examples
//!
//! The harness plumbing is reusable: ratio formatting and the
//! aligned-column [`Table`] renderer every example prints through.
//!
//! ```
//! use lumos_bench::{ratio, Align, Table};
//!
//! assert_eq!(ratio(34.9, 1.1), "31.7x");
//!
//! let mut t = Table::new(&[("model", Align::Left), ("ms", Align::Right)]);
//! t.row(vec!["lenet5".into(), "0.01".into()]);
//! assert!(t.render().contains("lenet5"));
//! ```

use lumos_core::{summarize, Platform, PlatformConfig, PlatformSummary, RunReport, Runner};
use lumos_dnn::Model;

pub mod attribution;
pub mod sparkline;
pub mod table;

pub use attribution::attribution_table;
pub use sparkline::{metrics_dashboard, sparkline};
pub use table::{Align, Table};

/// Parses a `--threads N` / `--threads=N` override out of a command
/// line. Returns `None` when absent or unparseable (the caller falls
/// back to [`lumos_dse::available_threads`]).
fn thread_override_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return args.next()?.parse().ok().filter(|&n| n > 0);
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return v.parse().ok().filter(|&n| n > 0);
        }
    }
    None
}

/// Removes the `--threads N` / `--threads=N` flag (the syntax
/// [`bench_threads`] reads) from an argument list,
/// returning the remaining positional arguments — the shared parser for
/// harness binaries that also take positional selectors.
pub fn strip_thread_flags<I: IntoIterator<Item = String>>(args: I) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            // Swallow the value only when it actually is a count, so
            // `--threads table3` (missing count) keeps its positional.
            if args.peek().is_some_and(|v| v.parse::<usize>().is_ok()) {
                let _ = args.next();
            }
        } else if !arg.starts_with("--threads=") {
            out.push(arg);
        }
    }
    out
}

/// The worker count for harness runs: the `--threads` CLI override if
/// present, otherwise `LUMOS_DSE_THREADS`/available parallelism.
pub fn bench_threads() -> usize {
    thread_override_from_args(std::env::args()).unwrap_or_else(lumos_dse::available_threads)
}

/// Runs all five Table 2 models on all three platforms, in parallel on
/// [`bench_threads`] workers.
///
/// Returns `(per-platform reports, per-platform summaries)` in the
/// paper's platform order (CrossLight, 2.5D-Elec, 2.5D-SiPh).
///
/// # Panics
///
/// Panics if any simulation fails — the Table 1 configuration is
/// feasible by construction, so a failure is a bug worth crashing on in
/// a harness.
pub fn run_full_evaluation(cfg: &PlatformConfig) -> (Vec<Vec<RunReport>>, Vec<PlatformSummary>) {
    run_full_evaluation_with(cfg, bench_threads())
}

/// [`run_full_evaluation`] with an explicit worker count (0 = default,
/// 1 = the sequential baseline).
fn run_full_evaluation_with(
    cfg: &PlatformConfig,
    threads: usize,
) -> (Vec<Vec<RunReport>>, Vec<PlatformSummary>) {
    let models = lumos_dnn::zoo::table2_models();
    let cells: Vec<(Platform, &Model)> = Platform::all()
        .into_iter()
        .flat_map(|p| models.iter().map(move |m| (p, m)))
        .collect();
    let runner = Runner::new(cfg.clone());
    let reports = lumos_dse::parallel_map(&cells, threads, |(platform, model)| {
        runner
            .run(platform, model)
            .expect("Table 1 configuration must simulate")
    });

    let mut all_reports = Vec::new();
    let mut summaries = Vec::new();
    for (chunk, platform) in reports.chunks(models.len()).zip(Platform::all()) {
        let platform_reports: Vec<RunReport> = chunk.to_vec();
        summaries.push(summarize(platform, &platform_reports));
        all_reports.push(platform_reports);
    }
    (all_reports, summaries)
}

/// Formats a ratio as the paper quotes them (`6.6x`).
pub fn ratio(num: f64, den: f64) -> String {
    format!("{:.1}x", num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_evaluation_runs() {
        let (reports, summaries) = run_full_evaluation(&PlatformConfig::paper_table1());
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.len() == 5));
        assert_eq!(summaries.len(), 3);
    }

    #[test]
    fn parallel_matches_sequential_baseline() {
        let cfg = PlatformConfig::paper_table1();
        let (seq, _) = run_full_evaluation_with(&cfg, 1);
        let (par, _) = run_full_evaluation_with(&cfg, 4);
        for (a_platform, b_platform) in seq.iter().zip(&par) {
            for (a, b) in a_platform.iter().zip(b_platform) {
                assert_eq!(a.model, b.model);
                assert_eq!(a.total_latency, b.total_latency);
                assert_eq!(a.energy, b.energy);
                assert_eq!(a.bits_moved, b.bits_moved);
            }
        }
    }

    #[test]
    fn reports_grouped_in_paper_order() {
        let (reports, summaries) = run_full_evaluation_with(&PlatformConfig::paper_table1(), 2);
        for (platform_reports, platform) in reports.iter().zip(Platform::all()) {
            assert!(platform_reports.iter().all(|r| r.platform == platform));
        }
        assert_eq!(
            summaries.iter().map(|s| s.platform).collect::<Vec<_>>(),
            Platform::all().to_vec()
        );
    }

    #[test]
    fn thread_override_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            thread_override_from_args(args(&["--threads", "3"])),
            Some(3)
        );
        assert_eq!(thread_override_from_args(args(&["--threads=8"])), Some(8));
        assert_eq!(
            thread_override_from_args(args(&["bench", "--threads", "2"])),
            Some(2)
        );
        assert_eq!(
            thread_override_from_args(args(&["--threads", "zero"])),
            None
        );
        assert_eq!(thread_override_from_args(args(&["--threads=0"])), None);
        assert_eq!(thread_override_from_args(args(&["--threads"])), None);
        assert_eq!(thread_override_from_args(args(&["table3"])), None);
    }

    #[test]
    fn thread_flags_stripped_from_positionals() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            strip_thread_flags(args(&["--threads", "2", "table3"])),
            args(&["table3"])
        );
        assert_eq!(
            strip_thread_flags(args(&["table1", "--threads=4"])),
            args(&["table1"])
        );
        assert!(strip_thread_flags(args(&["--threads", "2"])).is_empty());
        // A missing count must not eat the positional selector.
        assert_eq!(
            strip_thread_flags(args(&["--threads", "table3"])),
            args(&["table3"])
        );
    }

    #[test]
    fn ratio_format() {
        assert_eq!(ratio(33.0, 5.0), "6.6x");
    }
}
