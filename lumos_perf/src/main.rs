//! `lumos-perf`: the host-time benchmark of the LUMOS simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path lumos_perf/Cargo.toml -- \
//!     --workload eval_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop: set-up (configs and
//! lowering) is repeated and timed, then passes run back to back for
//! `--seconds`, each starting when the previous one finished, with set-up
//! timed again in the gaps between them. Every pass
//! checks its simulated outputs against the first pass and, at the
//! default seed, against `golden.txt`; a mismatch, an `Err` or a panic
//! counts as a failed pass. With `--trace 0` the last stdout line holds
//! the end-to-end metrics; with `--trace 1` untraced and traced passes
//! alternate and it holds the per-layer metrics. Spans and the run
//! record go to `lumos_perf/out/` when the run ends. README.md lists
//! every metric.

mod host;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lumos_core::reference::PAPER_SIMULATED;
use lumos_core::{summarize, Platform, PlatformConfig, Runner};
use lumos_metrics::json;

use trace::Spans;
use workloads::{setup, Outcome, Workload};

/// The seed whose pass digests are pinned in `golden.txt`.
const DEFAULT_SEED: u64 = 1;
/// Set-ups timed before the first pass; the per-layer `lower.ms` is their
/// median.
const SETUP_REPS: usize = 51;
/// After each pass, set-up is timed again until these set-ups add up to
/// `SETUP_SHARE` of the pass just run: at least once, at most
/// `SETUP_BURST` times.
const SETUP_SHARE: f64 = 0.02;
const SETUP_BURST: usize = 64;
/// Passes beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;
const GOLDEN: &str = include_str!("../golden.txt");
const USAGE: &str = "usage: lumos-perf --workload <eval_grid|serve_decode|serve_flow> \
                     [--seed N] [--seconds S] [--trace 0|1] [--threads N]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--threads" => out.threads = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(out)
}

/// Pins the worker pool: `--threads`, else `LUMOS_DSE_THREADS`, else the
/// core count, never above the core count. The size is exported through
/// `LUMOS_DSE_THREADS` so every pool the library starts uses it.
fn pin_threads(requested: Option<usize>) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = requested
        .filter(|&n| n > 0)
        .unwrap_or_else(lumos_dse::available_threads)
        .min(cores);
    std::env::set_var(lumos_dse::THREADS_ENV, n.to_string());
    n
}

/// The pinned digest of `workload` at the default seed.
fn golden(workload: &str) -> Option<u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .and_then(|(_, d)| u64::from_str_radix(d.trim().trim_start_matches("0x"), 16).ok())
}

/// Median of `v` (mean of the two middle values for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest nearest-rank percentile of `v` with at least
/// [`TAIL_BEYOND`] samples above it: `(value, percentile)`. Falls back to
/// the maximum when that would not be above the median; `v` must not be
/// empty.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND
    } else {
        n
    };
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Absolute error of each platform's mean Table 2 latency against the
/// paper's Table 3 value, percent, in `Platform::all()` order.
fn paper_err_pct() -> Result<Vec<f64>, String> {
    let runner = Runner::new(PlatformConfig::paper_table1());
    Platform::all()
        .into_iter()
        .zip(PAPER_SIMULATED)
        .map(|(platform, paper)| {
            let reports = runner.run_table2(&platform).map_err(|e| e.to_string())?;
            let sim = summarize(platform, &reports).avg_latency_ms;
            Ok(100.0 * (sim - paper.latency_ms).abs() / paper.latency_ms)
        })
        .collect()
}

/// What the timed loop saw.
struct Loop {
    attempted: u64,
    failed: u64,
    /// Untraced and traced pass times, milliseconds, and the host
    /// reference of each: the mean of the reference kernel's times right
    /// before and right after the pass (see [`host`]).
    plain_ms: Vec<f64>,
    plain_ref_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    traced_ref_ms: Vec<f64>,
    /// Per gap between passes, its median set-up time at nominal host
    /// speed, seconds.
    setup_scaled_s: Vec<f64>,
    /// Root span ids of the traced passes.
    traced_roots: Vec<usize>,
    /// Per input variant, the outputs of its first pass.
    expected: Vec<Option<Outcome>>,
}

impl Loop {
    /// Untraced pass times at nominal host speed, milliseconds.
    fn plain_scaled_ms(&self) -> Vec<f64> {
        let pairs = self.plain_ms.iter().zip(&self.plain_ref_ms);
        pairs.map(|(&ms, &r)| host::scaled(ms, r)).collect()
    }

    /// Traced pass times at nominal host speed, milliseconds.
    fn traced_scaled_ms(&self) -> Vec<f64> {
        let pairs = self.traced_ms.iter().zip(&self.traced_ref_ms);
        pairs.map(|(&ms, &r)| host::scaled(ms, r)).collect()
    }
}

/// Runs one pass on input variant `variant` under `spans` and checks it
/// against the golden digest, if any, and against `expected`, which the
/// variant's first pass fills in.
fn checked_pass(
    w: &Workload,
    variant: usize,
    spans: &mut Spans,
    expected: &mut Option<Outcome>,
    golden: Option<u64>,
) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| w.pass(variant, spans))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        format!("panic: {msg}")
    })??;
    let first = *expected.get_or_insert(outcome);
    if first != outcome {
        return Err(format!(
            "outputs differ from the variant's first pass: digest {:016x} vs {:016x}, counts {:?} vs {:?}",
            outcome.digest, first.digest, outcome.counts, first.counts
        ));
    }
    match golden {
        Some(g) if g != outcome.digest => Err(format!(
            "digest {:016x} does not match the golden {g:016x}",
            outcome.digest
        )),
        _ => Ok(()),
    }
}

/// One warm-up pass, then passes back to back for `seconds`. With
/// `trace`, odd passes record spans. Failed passes are timed too; they
/// make the run incorrect. In the gap after each timed pass, outside its
/// time, `between` gets the pass's seconds and returns the gap's median
/// set-up seconds; the host reference is timed at both ends of every gap.
fn timed_loop(
    w: &Workload,
    spans: &mut Spans,
    seconds: f64,
    trace: bool,
    golden: Option<u64>,
    mut between: impl FnMut(f64) -> Result<f64, String>,
) -> Result<Loop, String> {
    let mut l = Loop {
        attempted: 0,
        failed: 0,
        plain_ms: Vec::new(),
        plain_ref_ms: Vec::new(),
        traced_ms: Vec::new(),
        traced_ref_ms: Vec::new(),
        setup_scaled_s: Vec::new(),
        traced_roots: Vec::new(),
        expected: vec![None; w.variants()],
    };
    let fail = |l: &mut Loop, e: String| {
        l.failed += 1;
        if l.failed <= 3 {
            eprintln!("lumos-perf: pass {} failed: {e}", l.attempted);
        }
    };
    l.attempted += 1;
    if let Err(e) = checked_pass(w, 0, spans, &mut l.expected[0], golden) {
        fail(&mut l, e);
    }
    let start = Instant::now();
    let mut ref_before = host::reference_ms();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds
        || l.plain_ms.is_empty()
        || (trace && l.traced_ms.is_empty())
    {
        let traced = trace && i % 2 == 1;
        // Traced passes repeat the variant of the untraced pass before.
        let variant = (if trace { i / 2 } else { i }) as usize % w.variants();
        i += 1;
        spans.set_on(traced);
        let root = spans.open_root("pass");
        let t0 = Instant::now();
        let golden = golden.filter(|_| variant == 0);
        let result = checked_pass(w, variant, spans, &mut l.expected[variant], golden);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.close_root();
        l.attempted += 1;
        if let Err(e) = result {
            fail(&mut l, e);
        }
        spans.set_on(false);
        let ref_after = host::reference_ms();
        let ref_ms = (ref_before + ref_after) / 2.0;
        if traced {
            l.traced_ms.push(ms);
            l.traced_ref_ms.push(ref_ms);
            l.traced_roots.extend(root);
        } else {
            l.plain_ms.push(ms);
            l.plain_ref_ms.push(ref_ms);
        }
        let setup_s = between(ms / 1e3)?;
        ref_before = host::reference_ms();
        let gap_ref_ms = (ref_after + ref_before) / 2.0;
        l.setup_scaled_s.push(host::scaled(setup_s, gap_ref_ms));
    }
    Ok(l)
}

/// The per-layer metrics of a traced run: medians over traced passes at
/// nominal host speed, plus the pass-time tail, which carries no bound.
fn per_layer(
    l: &Loop,
    spans: &Spans,
    lower_ms: f64,
    threads: usize,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let c = l.expected[0].map(|o| o.counts).unwrap_or_default();
    let totals: Vec<_> = l
        .traced_roots
        .iter()
        .zip(&l.traced_ref_ms)
        .map(|(&r, &ref_ms)| (spans.layer_totals(r), ref_ms))
        .collect();
    // Median over traced passes of `name`'s total milliseconds at nominal
    // host speed, divided by `per` units of work.
    let layer_ms = |name: &str, per: u64| {
        let v: Vec<f64> = totals
            .iter()
            .map(|(t, ref_ms)| {
                let ms = t.get(name).map_or(0, |&(ns, _)| ns) as f64 / 1e6;
                ratio(host::scaled(ms, *ref_ms), per as f64)
            })
            .collect();
        median(&v)
    };
    let plain = l.plain_scaled_ms();
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("lower.ms".into(), lower_ms, "ms"),
        ("place.calls".into(), c.place as f64, "count"),
        (
            "place.us_per_call".into(),
            layer_ms("place", c.place) * 1e3,
            "us",
        ),
        ("runner.calls".into(), c.runner as f64, "count"),
        (
            "runner.us_per_call".into(),
            layer_ms("runner", c.runner) * 1e3,
            "us",
        ),
        ("dse.cold_ms".into(), layer_ms("dse.cold", 1), "ms"),
        ("dse.warm_ms".into(), layer_ms("dse.warm", 1), "ms"),
        ("dse.evaluated".into(), c.dse_evaluated as f64, "count"),
        (
            "dse.hit_ratio".into(),
            ratio(c.dse_hits as f64, c.dse_lookups as f64),
            "ratio",
        ),
        ("profile.ms".into(), layer_ms("profile", 1), "ms"),
        ("profile.cells".into(), c.profile_cells as f64, "count"),
        (
            "profile.us_per_cell".into(),
            layer_ms("profile", c.profile_cells) * 1e3,
            "us",
        ),
        ("loop.ms".into(), layer_ms("loop", 1), "ms"),
        ("loop.requests".into(), c.loop_requests as f64, "count"),
        (
            "loop.us_per_request".into(),
            layer_ms("loop", c.loop_requests) * 1e3,
            "us",
        ),
        ("sim.served".into(), c.served as f64, "count"),
        ("sim.tokens".into(), c.tokens as f64, "count"),
        (
            "trace.overhead_ratio".into(),
            ratio(median(&l.traced_scaled_ms()), median(&plain)),
            "ratio",
        ),
        ("pass.count".into(), plain.len() as f64, "count"),
        ("pass.ms_tail".into(), tail(&plain).0, "ms"),
        ("host.ref_ms".into(), median(&l.plain_ref_ms), "ms"),
        ("pool.threads".into(), threads as f64, "count"),
        (
            "error_rate".into(),
            ratio(l.failed as f64, l.attempted as f64),
            "ratio",
        ),
    ];
    for (platform, err) in ["crosslight", "elec", "siph"].iter().zip(paper_err_pct()?) {
        m.push((format!("runner.paper_err_pct.{platform}"), err, "%"));
    }
    Ok(m)
}

fn run(args: &Args) -> Result<String, String> {
    let threads = pin_threads(args.threads);
    let golden = if args.seed == DEFAULT_SEED {
        Some(
            golden(&args.workload)
                .ok_or(format!("golden.txt has no digest for '{}'", args.workload))?,
        )
    } else {
        None
    };
    let mut spans = Spans::new();

    // Set-up: configs and lowering, repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut lower_ms = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        spans.set_on(args.trace);
        let root = spans.open_root("setup");
        let t0 = Instant::now();
        let w = setup(&args.workload, args.seed, threads, &mut spans)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
        spans.close_root();
        if let Some(r) = root {
            let ns: u64 = spans.layer_totals(r).values().map(|&(ns, _)| ns).sum();
            lower_ms.push(ns as f64 / 1e6);
        }
    }
    spans.set_on(false);
    let workload = workload.expect("at least one set-up");
    let lower_ms = host::scaled(median(&lower_ms), host::reference_ms());

    // More set-ups in the gap after each pass, untraced, so that set-up
    // samples span the whole run as the passes do.
    let resetup = |pass_s: f64| -> Result<f64, String> {
        let mut gap = Vec::new();
        while gap.len() < SETUP_BURST && gap.iter().sum::<f64>() < SETUP_SHARE * pass_s {
            let t0 = Instant::now();
            let w = setup(&args.workload, args.seed, threads, &mut Spans::new())?;
            gap.push(t0.elapsed().as_secs_f64());
            drop(w);
        }
        let gap_median = median(&gap);
        setup_s.extend(gap);
        Ok(gap_median)
    };
    let l = timed_loop(
        &workload,
        &mut spans,
        args.seconds,
        args.trace,
        golden,
        resetup,
    )?;
    let plain = l.plain_scaled_ms();
    let (tail_ms, tail_pct) = tail(&plain);
    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        per_layer(&l, &spans, lower_ms, threads)?
    } else {
        vec![
            ("setup_s".into(), median(&l.setup_scaled_s), "s"),
            (
                "passes_per_s".into(),
                ratio(plain.len() as f64, plain.iter().sum::<f64>() / 1e3),
                "1/s",
            ),
            ("pass_ms_p50".into(), median(&plain), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ]
    };
    let digest = l.expected[0].map_or("none".into(), |o| format!("{:016x}", o.digest));
    eprintln!(
        "lumos-perf: {} seed {}: {} passes ({} failed), pool {threads} threads, \
         {} set-ups; of {} untraced passes at nominal host speed, p{tail_pct:.1} is \
         {tail_ms:.3} ms; host reference median {:.4} ms; digest {digest}",
        args.workload,
        args.seed,
        l.attempted,
        l.failed,
        setup_s.len(),
        l.plain_ms.len(),
        median(&l.plain_ref_ms),
    );

    let metrics_json: Vec<(&str, String)> = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.as_str(),
                json::object(&[("value", json::num(*value)), ("unit", json::string(unit))]),
            )
        })
        .collect();
    let metrics_json = json::object(&metrics_json);
    write_record(args, threads, &l, &metrics_json, &setup_s, &spans)?;
    Ok(json::object(&[
        ("correct", (l.failed == 0).to_string()),
        ("attempted", l.attempted.to_string()),
        ("failed", l.failed.to_string()),
        ("metrics", metrics_json),
    ]))
}

/// Writes the run record and every span as one Chrome trace file under
/// `lumos_perf/out/`.
fn write_record(
    args: &Args,
    threads: usize,
    l: &Loop,
    metrics_json: &str,
    setup_s: &[f64],
    spans: &Spans,
) -> Result<(), String> {
    let counts = l.expected[0].map(|o| o.counts).unwrap_or_default();
    let digest = l.expected[0].map_or("none".into(), |o| format!("{:016x}", o.digest));
    let record = json::object(&[
        ("workload", json::string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("pool_threads", threads.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("attempted", l.attempted.to_string()),
        ("failed", l.failed.to_string()),
        ("tail_percentile", json::num(tail(&l.plain_scaled_ms()).1)),
        ("digest", json::string(&digest)),
        ("counts", json::string(&format!("{counts:?}"))),
        ("nominal_ref_ms", json::num(host::NOMINAL_MS)),
        ("setup_s", json::num_array(setup_s)),
        ("pass_ms", json::num_array(&l.plain_ms)),
        ("pass_ref_ms", json::num_array(&l.plain_ref_ms)),
        ("traced_pass_ms", json::num_array(&l.traced_ms)),
        ("traced_pass_ref_ms", json::num_array(&l.traced_ref_ms)),
        ("metrics", metrics_json.to_owned()),
    ]);
    let body = json::object(&[
        ("otherData", record),
        ("traceEvents", spans.chrome_events()),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, body))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lumos-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lumos-perf: {e}");
            std::process::exit(1);
        }
    }
}
