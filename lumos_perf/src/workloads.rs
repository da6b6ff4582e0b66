//! The benchmark's workloads: what set-up builds and what one pass runs.
//!
//! A pass returns a stable digest of every simulated output it produced
//! and the work it did as deterministic counts. Both must repeat exactly
//! from pass to pass: a simulator speed-up leaves them unchanged.

use std::hash::Hasher;

use lumos_core::dse::{sweep_with, DseAxes, MemoCache, StableHasher};
use lumos_core::mapper::place;
use lumos_core::{Platform, PlatformConfig, RunReport, Runner};
use lumos_dnn::{extract_workloads, LayerWorkload, Model, Precision};
use lumos_serve::{
    build_profiles, simulate_with_profiles, BatchPolicy, ContentionKind, ServeConfig, ServedModel,
    ServiceProfiles,
};

use crate::trace::Spans;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["eval_grid", "serve_decode", "serve_flow"];

/// Arrival seeds a serve run cycles through, one per pass. Near
/// saturation the event loop's work depends on the arrival pattern: at
/// the same host speed, a `serve_flow` pass took 300-470 ms depending on
/// the seed, so a run on one seed would measure that seed.
pub const SEED_VARIANTS: usize = 16;

/// Work one pass did. Every field repeats exactly from pass to pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Layer workloads the pass hands to the runner, one `place` each.
    pub place: u64,
    /// `Runner::run` calls made by the benchmark itself.
    pub runner: u64,
    /// DSE lookups over the cold and warm sweeps together.
    pub dse_lookups: u64,
    /// DSE points simulated (memo misses).
    pub dse_evaluated: u64,
    /// DSE points served from the memo.
    pub dse_hits: u64,
    /// Entries of every profile table built (`stages`, `batched` and
    /// `flow_stages`).
    pub profile_cells: u64,
    /// Requests the event loop simulated (arrivals inside the horizon).
    pub loop_requests: u64,
    /// Requests served inside the horizon.
    pub served: u64,
    /// Decode tokens emitted inside the horizon.
    pub tokens: u64,
}

/// The outputs of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Stable digest of every simulated result.
    pub digest: u64,
    /// The work the pass did.
    pub counts: Counts,
}

/// A workload after set-up, ready to run passes.
pub enum Workload {
    /// The Table 2 × platform runner grid plus the paper-conclusion DSE
    /// sweep of every Table 2 model.
    EvalGrid(Box<EvalGrid>),
    /// The configurations whose profile tabulation and event loop one
    /// pass runs, and the arrival seeds that passes cycle through.
    Serve(Vec<ServeConfig>, Vec<u64>),
}

/// Inputs of the `eval_grid` workload.
pub struct EvalGrid {
    cfg: PlatformConfig,
    models: Vec<Model>,
    /// `(platform, model index, the model's layer workloads)` in paper
    /// order: platforms outermost.
    cells: Vec<(Platform, usize, Vec<LayerWorkload>)>,
    /// Seeded orders in which a pass visits `cells` and `models`.
    cell_order: Vec<usize>,
    model_order: Vec<usize>,
    axes: DseAxes,
    threads: usize,
}

/// Builds workload `name` from `seed`, recording every lowering
/// constructor as a `lower` span. `threads` sizes the DSE worker pool.
pub fn setup(name: &str, seed: u64, threads: usize, spans: &mut Spans) -> Result<Workload, String> {
    let cfg = PlatformConfig::paper_table1();
    match name {
        "eval_grid" => {
            let models = spans.record("lower", lumos_dnn::zoo::table2_models);
            let lowered: Vec<Vec<LayerWorkload>> = models
                .iter()
                .map(|m| spans.record("lower", || extract_workloads(m, cfg.precision)))
                .collect();
            let cells: Vec<_> = Platform::all()
                .into_iter()
                .flat_map(|p| (0..models.len()).map(move |m| (p, m)))
                .map(|(p, m)| (p, m, lowered[m].clone()))
                .collect();
            let mut rng = SplitMix(seed);
            Ok(Workload::EvalGrid(Box::new(EvalGrid {
                cell_order: rng.permutation(cells.len()),
                model_order: rng.permutation(models.len()),
                cfg,
                models,
                cells,
                axes: DseAxes::paper_conclusion(),
                threads,
            })))
        }
        "serve_decode" => {
            // The continuous_batching example's GPT-2 generator mix.
            let generator = |spans: &mut Spans, rate_rps: f64| {
                spans.record("lower", || {
                    ServedModel::generator(
                        &lumos_xformer::zoo::gpt2_small(),
                        32,
                        12,
                        1,
                        Precision::int8(),
                        rate_rps,
                        1_000.0,
                    )
                })
            };
            let configs = [
                (Platform::Siph2p5D, 400.0, 0.25),
                (Platform::Elec2p5D, 30.0, 1.5),
            ]
            .into_iter()
            .map(|(platform, rate_rps, duration_s)| {
                ServeConfig::new(cfg.clone(), platform, vec![generator(spans, rate_rps)])
                    .with_duration_s(duration_s)
                    .with_seed(seed)
                    .with_max_concurrency(16)
                    .with_batching(BatchPolicy::continuous(4))
            })
            .collect();
            Ok(Workload::Serve(configs, seed_variants(seed)))
        }
        "serve_flow" => {
            let cnn = |spans: &mut Spans, model: fn() -> Model, rate_rps: f64, slo_ms: f64| {
                spans.record("lower", || {
                    ServedModel::cnn(&model(), Precision::int8(), rate_rps, slo_ms)
                })
            };
            let mix = vec![
                cnn(spans, lumos_dnn::zoo::lenet5, 20_000.0, 5.0),
                cnn(spans, lumos_dnn::zoo::resnet50, 200.0, 100.0),
            ];
            let config = ServeConfig::new(cfg, Platform::Elec2p5D, mix)
                .with_duration_s(1.0)
                .with_seed(seed)
                .with_max_concurrency(16)
                .with_contention(ContentionKind::FlowLevel);
            Ok(Workload::Serve(vec![config], seed_variants(seed)))
        }
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The arrival seeds of the [`SEED_VARIANTS`] variants. Variant 0 keeps
/// the run's own seed, so the golden digest pins it.
fn seed_variants(seed: u64) -> Vec<u64> {
    (0..SEED_VARIANTS as u64)
        .map(|j| seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

impl Workload {
    /// How many input variants passes cycle through.
    pub fn variants(&self) -> usize {
        match self {
            Workload::EvalGrid(_) => 1,
            Workload::Serve(_, seeds) => seeds.len(),
        }
    }

    /// Runs one pass on input variant `variant`, recording a span around
    /// every call into a layer. `place` runs only while spans are
    /// recorded: it is a side call that times the placement of each
    /// workload the pass feeds the runner.
    pub fn pass(&self, variant: usize, spans: &mut Spans) -> Result<Outcome, String> {
        match self {
            Workload::EvalGrid(grid) => grid.pass(spans),
            Workload::Serve(configs, seeds) => serve_pass(configs, seeds[variant], spans),
        }
    }
}

impl EvalGrid {
    fn pass(&self, spans: &mut Spans) -> Result<Outcome, String> {
        let mut counts = Counts::default();
        let runner = Runner::new(self.cfg.clone());
        let mut reports: Vec<Option<RunReport>> = self.cells.iter().map(|_| None).collect();
        for &i in &self.cell_order {
            let (platform, m, workloads) = &self.cells[i];
            place_all(spans, &self.cfg, workloads)?;
            counts.place += workloads.len() as u64;
            let report = spans
                .record("runner", || runner.run(platform, &self.models[*m]))
                .map_err(|e| format!("runner on {platform}: {e}"))?;
            counts.runner += 1;
            reports[i] = Some(report);
        }
        let mut h = StableHasher::new();
        for r in reports.iter().flatten() {
            h.write_str(&r.model);
            h.write_str(r.platform.label());
            h.write_f64(r.total_latency.as_secs_f64());
            h.write_f64(r.energy.total_j());
            h.write_u64(r.bits_moved);
        }

        // A fresh in-memory memo per pass: the cold sweep simulates, the
        // warm one must be served from the memo, point for point.
        let mut cache = MemoCache::in_memory();
        let mut fronts = vec![String::new(); self.models.len()];
        for &m in &self.model_order {
            let model = &self.models[m];
            let mut sweep = |name| {
                spans.record(name, || {
                    sweep_with(&self.cfg, &self.axes, model, self.threads, Some(&mut cache))
                })
            };
            let (cold, cold_stats) = sweep("dse.cold");
            let (warm, warm_stats) = sweep("dse.warm");
            if !warm_stats.all_hits()
                || cold.len() != warm.len()
                || !cold.iter().zip(&warm).all(|(a, b)| a.bit_eq(b))
            {
                return Err(format!(
                    "{}: warm DSE sweep differs from cold",
                    model.name()
                ));
            }
            counts.dse_lookups += (cold_stats.points + warm_stats.points) as u64;
            counts.dse_evaluated += (cold_stats.evaluated + warm_stats.evaluated) as u64;
            counts.dse_hits += (cold_stats.hits + warm_stats.hits) as u64;
            let points: Vec<String> = cold.iter().map(|p| p.to_json()).collect();
            fronts[m] = points.join(",");
        }
        for f in &fronts {
            h.write_str(f);
        }
        Ok(Outcome {
            digest: h.finish(),
            counts,
        })
    }
}

/// Runs every configuration of `configs` with arrival seed `seed`.
fn serve_pass(configs: &[ServeConfig], seed: u64, spans: &mut Spans) -> Result<Outcome, String> {
    let mut counts = Counts::default();
    let mut h = StableHasher::new();
    for cfg in configs {
        let cfg = &cfg.clone().with_seed(seed);
        for m in &cfg.models {
            for stage in m.stages() {
                place_all(spans, &cfg.platform_cfg, stage)?;
                counts.place += stage.len() as u64;
            }
        }
        let profiles = spans
            .record("profile", || build_profiles(cfg))
            .map_err(|e| format!("build_profiles on {}: {e}", cfg.platform))?;
        counts.profile_cells += profile_cells(&profiles);
        let report = spans
            .record("loop", || simulate_with_profiles(cfg, &profiles))
            .map_err(|e| format!("simulate_with_profiles on {}: {e}", cfg.platform))?;
        counts.loop_requests += report.total_arrived;
        counts.served += report.total_served;
        counts.tokens += report.models.iter().map(|m| m.tokens).sum::<u64>();
        h.write_str(&report.to_json());
    }
    Ok(Outcome {
        digest: h.finish(),
        counts,
    })
}

/// The side call: places each of `workloads` while spans are recorded.
fn place_all(
    spans: &mut Spans,
    cfg: &PlatformConfig,
    workloads: &[LayerWorkload],
) -> Result<(), String> {
    if !spans.is_on() {
        return Ok(());
    }
    spans
        .record("place", || {
            workloads.iter().try_for_each(|w| place(cfg, w).map(drop))
        })
        .map_err(|e| format!("place: {e}"))
}

/// Entries of every table in `profiles`.
fn profile_cells(profiles: &ServiceProfiles) -> u64 {
    let cells = |t: &Vec<Vec<f64>>| t.iter().map(Vec::len).sum::<usize>();
    profiles
        .models
        .iter()
        .map(|m| {
            cells(&m.stages)
                + m.batched
                    .iter()
                    .chain(&m.flow_stages)
                    .map(cells)
                    .sum::<usize>()
        })
        .sum::<usize>() as u64
}

/// SplitMix64: the seeded generator behind `eval_grid`'s visit orders.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}
