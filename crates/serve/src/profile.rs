//! Per-model service profiles: what one request costs at every
//! contention level.
//!
//! The serving simulator is a processor-sharing queue over whole layer
//! streams: with `k` streams resident under uniform sharing, each sees
//! `1/k` of every MAC class and every link
//! ([`ContentionModel::of_resident_streams`]). Rather than
//! re-simulating a stream every time the residency changes, the
//! profile tabulates each model's latency at every contention level
//! `1..=max_concurrency` up front, which is
//! [`Runner::run_workloads_scaled`]'s total latency cell for cell; the
//! event loop then advances each resident stream's remaining-work
//! fraction at the rate the current residency implies.
//!
//! Each model's streams share one [`ShapeTable`], which places each
//! distinct layer shape once. A profile keeps one report's worth of
//! energy and bits per stage: the isolated (`k = 1`) run's, which
//! time-sharing conserves. So only that cell of each stage runs
//! [`ShapeTable::execute`]. Every other cell is read for its latency
//! alone and comes from [`ShapeTable::latencies`], the closed form that
//! is `execute`'s total latency to the picosecond and times each
//! distinct shape of a contention row's streams once: the uniform
//! column at `k >= 2`, every continuous-batching cell (a batched
//! plane's energy is never read, since a request's energy is its
//! isolated stages'), and every off-diagonal flow-level cell.
//!
//! A model is a sequence of **stages** — one for a single-pass
//! inference, prefill plus one stage per generated token for a
//! closed-loop generator — and every stage gets its own tabulated
//! service-time column, since a KV-cached decode step costs orders of
//! magnitude less than its prefill and grows with cache depth.
//!
//! Weighted processor sharing ([`SharePolicy::SloPressure`])
//! allocates *non-uniform* shares, which fall between the tabulated
//! `1/k` points; [`ModelProfile::stage_service_at_share`] interpolates
//! the same table in virtual-residency space (`1/share`), so the
//! uniform discipline's exact table lookups stay bit-for-bit intact.
//!
//! [`SharePolicy::SloPressure`]: lumos_dse::SharePolicy::SloPressure
//! [`ShapeTable`]: lumos_core::ShapeTable
//! [`ShapeTable::execute`]: lumos_core::ShapeTable::execute
//! [`ShapeTable::latencies`]: lumos_core::ShapeTable::latencies

use lumos_core::contention::ContentionModel;
use lumos_core::flow::{FlowRoute, FlowTopology};
use lumos_core::mac::MacUnit;
use lumos_core::{CoreError, MacClass, Platform, Runner};
use lumos_dse::ContentionKind;
use lumos_sim::SimTime;

use crate::config::ServeConfig;
use crate::error::ServeError;

/// One model's tabulated cost at every contention level.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// `stages[s][k-1]`: latency of stage `s` (stage 0 = the
    /// single-pass stream or prefill; stages `1..` = decode steps) when
    /// `k` streams share the platform uniformly, seconds. Nondecreasing
    /// in `k` within a stage on the electrical and monolithic
    /// platforms. Not guaranteed on the photonic interposer under
    /// ReSiPI: its burst threshold scales with the bandwidth share, so
    /// at a smaller share more layers count as bursts and get every
    /// gateway (LeNet5 at `K = 16` reads 14.370 µs at `k = 15` and
    /// 13.804 µs at `k = 16`).
    pub stages: Vec<Vec<f64>>,
    /// Continuous-batching decode tables: `batched[b-1][s-1][k-1]` is
    /// the latency of decode stage `s` when `b` co-resident generations
    /// coalesce into **one** batched execution stream holding a `1/k`
    /// slice of the platform, seconds. Plane `b = 1` is the decode
    /// columns of [`stages`](Self::stages), copied bit-for-bit; plane
    /// `b` is tabulated to contention depth `max_concurrency - b + 1`
    /// (a `b`-deep group leaves at most that many execution streams).
    /// Empty for single-pass models and for profiles built without
    /// continuous batching.
    pub batched: Vec<Vec<Vec<f64>>>,
    /// Flow-level contention planes:
    /// `flow_stages[s][k-1][j-1]` is the latency of stage `s` at
    /// compute share `1/k` (its slice of the MAC units with `k`
    /// residents) and bandwidth share `1/j` (what max-min water-filling
    /// allocated it on its bottleneck link), seconds. The diagonal
    /// `j = k` is the uniform column of [`stages`](Self::stages),
    /// copied bit-for-bit (identical [`ContentionModel`]); the event
    /// loop looks up off-diagonal max-min shares through the same
    /// share-space interpolation as weighted sharing. Empty unless the
    /// profile was built with
    /// [`ContentionKind::FlowLevel`].
    pub flow_stages: Vec<Vec<Vec<f64>>>,
    /// Energy of one isolated request across all stages, joules
    /// (time-sharing conserves the dynamic work; static power is
    /// accounted platform-wide).
    pub energy_j: f64,
    /// Bits one request moves across the memory/interposer interface,
    /// across all stages.
    pub bits: u64,
    /// Pure compute demand per request in unit-seconds per MAC class
    /// ([`MacClass::all`] order), across all stages —
    /// allocation-invariant, the numerator of the report's utilization
    /// figures.
    pub class_unit_seconds: [f64; 4],
}

impl ModelProfile {
    /// Full-request service time with `k` resident streams: the sum of
    /// every stage at that contention level, seconds. (The
    /// shortest-job-first policy ranks queues by `service_s(1)`.)
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the profiled depth.
    pub fn service_s(&self, k: usize) -> f64 {
        self.stages.iter().map(|s| s[k - 1]).sum()
    }

    /// Service time of stage `stage` with `k` resident streams,
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `k` is out of range.
    pub fn stage_service(&self, stage: usize, k: usize) -> f64 {
        self.stages[stage][k - 1]
    }

    /// Number of stages one request executes.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Deepest contention level every stage is tabulated for.
    pub fn depth(&self) -> usize {
        self.stages.iter().map(|s| s.len()).min().unwrap_or(0)
    }

    /// Service time of stage `stage` at an arbitrary platform share in
    /// `(0, 1]` — the weighted-processor-sharing lookup.
    ///
    /// The table holds exact simulations at shares `1/1, 1/2, …, 1/K`.
    /// An exact match (which every uniform `1/k` share is, bit-for-bit)
    /// returns the tabulated value untouched; shares in between are
    /// interpolated linearly in virtual residency (`v = 1/share`);
    /// shares below `1/K` extrapolate proportionally (`service ∝ v`)
    /// from `v = K`.
    ///
    /// Both are approximations. Their error is measured against the
    /// exact closed form ([`lumos_core::RunPlan::latency`]) on Table
    /// 2's CNNs and a GPT-2 generator, and
    /// `crates/serve/tests/profiles.rs` pins the worst cases as upper
    /// bounds:
    ///
    /// * Service is not affine in `v` between table points. On the
    ///   photonic interposer ReSiPI's gateway provisioning steps with
    ///   the share: LeNet5's exact latency jumps from 5.44 µs at
    ///   `v = 1.9375` to 6.99 µs at `v = 2`, and the interpolation is
    ///   25.8% off there. The worst within-table errors on the other
    ///   platforms are 0.18% (monolithic) and 0.07% (Elec).
    /// * Proportional extrapolation also dilates the per-layer overheads
    ///   and conversion latencies, which do not depend on the share, so
    ///   it overestimates overhead-bound streams. Between `K` and `2K`
    ///   the worst errors for `K = 4` / `16` are 17.2% / 4.7%
    ///   (monolithic), 80.8% / 50.5% (Elec) and 60.9% / 36.8% (SiPh).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `share` is not in `(0, 1]`.
    pub fn stage_service_at_share(&self, stage: usize, share: f64) -> f64 {
        table_service_at_share(&self.stages[stage], share)
    }

    /// Deepest decode-tick batch the continuous-batching tables cover
    /// (0 when the profile was built without them).
    pub fn max_batch(&self) -> usize {
        self.batched.len()
    }

    /// Contention depth every stage's flow plane is tabulated for (0
    /// when the profile was built without flow-level contention).
    pub fn flow_depth(&self) -> usize {
        self.flow_stages.iter().map(|s| s.len()).min().unwrap_or(0)
    }

    /// Flow-level service time of stage `stage` as one of `k` resident
    /// streams holding max-min bandwidth share `share` on its route:
    /// the `k`-th flow plane row looked up at `share` on the bandwidth
    /// axis. Uniform shares (`share = 1/j` for tabulated `j`) hit the
    /// table bit-for-bit — in particular `share = 1/k` returns the
    /// uniform [`stage_service`](Self::stage_service) value exactly,
    /// and `share = 1` the stream's full-bandwidth point.
    ///
    /// # Panics
    ///
    /// Panics if `stage`/`k` exceed the tabulated planes or `share` is
    /// not in `(0, 1]`.
    pub fn flow_stage_service(&self, stage: usize, k: usize, share: f64) -> f64 {
        table_service_at_share(&self.flow_stages[stage][k - 1], share)
    }

    /// Contention depth every decode stage of batch plane `b` is
    /// tabulated for.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero or beyond [`max_batch`](Self::max_batch).
    pub fn batched_depth(&self, b: usize) -> usize {
        self.batched[b - 1]
            .iter()
            .map(|s| s.len())
            .min()
            .unwrap_or(0)
    }

    /// Service time of one decode tick: decode stage `stage` with `b`
    /// generations coalesced, as one of `k` execution streams, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not a decode stage (`>= 1`), or `b`/`k`
    /// exceed the tabulated planes.
    pub fn batched_stage_service(&self, stage: usize, b: usize, k: usize) -> f64 {
        assert!(stage >= 1, "stage 0 (prefill) is never batched");
        self.batched[b - 1][stage - 1][k - 1]
    }

    /// [`batched_stage_service`](Self::batched_stage_service) at an
    /// arbitrary platform share in `(0, 1]` — the weighted-sharing
    /// lookup over batch plane `b`, interpolated exactly like
    /// [`stage_service_at_share`](Self::stage_service_at_share) (plane
    /// `b = 1` therefore agrees with it bit-for-bit on decode stages).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not a decode stage, `b` exceeds the planes,
    /// or `share` is not in `(0, 1]`.
    pub fn batched_stage_service_at_share(&self, stage: usize, b: usize, share: f64) -> f64 {
        assert!(stage >= 1, "stage 0 (prefill) is never batched");
        table_service_at_share(&self.batched[b - 1][stage - 1], share)
    }
}

/// Share-space lookup over one tabulated contention column: exact hits
/// at the uniform `1/k` shares return tabulated values bit-for-bit,
/// shares in between interpolate linearly in virtual residency
/// (`v = 1/share`), and shares below `1/K` extrapolate proportionally
/// (`service ∝ v`) from the deepest tabulated point.
///
/// Neither is exact: [`ModelProfile::stage_service_at_share`] gives
/// the measured error.
///
/// # Panics
///
/// Panics if `share` is not in `(0, 1]` or the table is empty.
fn table_service_at_share(table: &[f64], share: f64) -> f64 {
    assert!(share > 0.0 && share <= 1.0, "share {share} outside (0, 1]");
    let k_max = table.len();
    let v = 1.0 / share; // virtual residency

    // Exact table hit (uniform 1/k shares land here bit-for-bit). The
    // values `1/j` are distinct and `round(1 / fl(1/j)) = j`, so the
    // nearest integer residency is the only candidate.
    let j = v.round();
    if j >= 1.0 && j <= k_max as f64 && share == 1.0 / j {
        return table[j as usize - 1];
    }
    if v >= k_max as f64 {
        // Beyond the table: proportional slowdown from the deepest
        // tabulated point.
        return table[k_max - 1] * (v / k_max as f64);
    }
    // Bracket v between consecutive integer residencies.
    let lo = v.floor().max(1.0) as usize;
    let hi = (lo + 1).min(k_max);
    let t_lo = table[lo - 1];
    let t_hi = table[hi - 1];
    t_lo + (v - lo as f64) * (t_hi - t_lo)
}

/// The platform's link set plus each model's static route over it —
/// what the flow-level event loop feeds to
/// [`max_min_shares`](lumos_core::flow::max_min_shares), once per
/// distinct residency mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowModel {
    /// The platform's enumerated link set.
    pub topology: FlowTopology,
    /// `routes[m]`: the links model `m`'s streams cross — the union of
    /// its placements' chiplets across every stage, routed through
    /// [`FlowTopology::route_for_chiplets`]. Mix order.
    pub routes: Vec<FlowRoute>,
}

/// The mix's profiles plus the platform-wide capacity denominators.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfiles {
    /// One profile per configured model, in mix order.
    pub models: Vec<ModelProfile>,
    /// Total MAC units per class ([`MacClass::all`] order), with the
    /// monolithic unit scaling applied when that platform is profiled —
    /// the denominator of utilization.
    pub class_units: [f64; 4],
    /// The flow-level topology and per-model routes; `None` unless the
    /// profiles were built with
    /// [`ContentionKind::FlowLevel`].
    pub flow: Option<FlowModel>,
}

/// One tabulation job of a model: a stage's isolated run, or a
/// contention row.
#[derive(Clone, Copy)]
enum Job {
    Stage(usize),
    Row(usize),
}

/// What one tabulation job of a model yields: latencies and the terms
/// the model totals fold in, never whole reports, so a pool of jobs
/// stays small.
enum Cells {
    /// Stage `stage`'s isolated (`k = 1`) run: its latency, seconds,
    /// and the energy and bits the model totals fold in.
    Stage {
        stage: usize,
        latency: f64,
        energy_j: f64,
        bits: u64,
    },
    /// Contention row `k`: the latency at uniform share `1/k` of every
    /// stream of the row, in row order, seconds; and on flow-level
    /// builds, per off-diagonal bandwidth share `1/j` (`j = 1..=K`,
    /// `j != k`), every stage's latency at compute share `1/k`.
    Row {
        k: usize,
        column: Vec<f64>,
        plane: Vec<Vec<f64>>,
    },
}

/// Builds the service profiles for `cfg` by running every stage of
/// every model through the platform simulator at every contention
/// level.
///
/// Each model's streams go into one [`ShapeTable`]: its stages, then
/// (continuous batching) each decode step re-lowered at every batch
/// depth `b = 2..=max_batch`, one at a time, each dropped once added.
/// The table places each distinct layer shape once. Then one job per
/// stage runs [`ShapeTable::execute`] at `k = 1`, because that run's
/// energy and bits are the model's per-request totals, and one job per
/// contention row `k` runs [`ShapeTable::latencies`] over every stream
/// tabulated that deep (stages to `K`, a `b`-deep batched step to
/// `K - b + 1`; a stage's `k = 1` cell is its stage job's), plus, on
/// flow-level builds, the row's off-diagonal plane cells. The closed
/// form equals the executed total latency bit for bit and simulates
/// each distinct shape of its streams once. A GPT-2 generator of 13
/// stages and 36 re-lowered decode steps (190 distinct shapes),
/// `K = 16` and `continuous(4)` then makes 13 executes and 16 row jobs
/// per platform, 29 backends and 2,858 shape simulations, where
/// tabulating each stream on its own made 712 and 8,336.
///
/// A model's jobs run on [`lumos_dse::available_threads`] workers, but
/// never more than the model has streams: a one-stream model (every
/// CNN) tabulates on the calling thread. (A second worker made the
/// benchmark's flow-level CNN mix 13% faster per pass on a 2-vCPU
/// host, but raised its peak RSS by 21%.) Results come back in job
/// order and are folded in stream order, term by term, so the
/// profiles, and any error, do not depend on the thread count.
///
/// [`ShapeTable`]: lumos_core::ShapeTable
/// [`ShapeTable::execute`]: lumos_core::ShapeTable::execute
/// [`ShapeTable::latencies`]: lumos_core::ShapeTable::latencies
///
/// # Errors
///
/// Propagates validation failures and platform-simulation errors.
pub fn build_profiles(cfg: &ServeConfig) -> Result<ServiceProfiles, ServeError> {
    cfg.validate()?;
    let runner = Runner::new(cfg.platform_cfg.clone());
    let calib = &cfg.platform_cfg.calibration;
    // The runner's own monolithic unit scaling, so utilization
    // denominators match what actually executes.
    let unit_scale = |n: usize| -> f64 {
        if matches!(cfg.platform, Platform::Monolithic) {
            calib.mono_units(n) as f64
        } else {
            n as f64
        }
    };

    let flow_topology = if cfg.contention == ContentionKind::FlowLevel {
        Some(FlowTopology::for_platform(&cfg.platform_cfg, cfg.platform)?)
    } else {
        None
    };
    let flow = flow_topology.is_some();
    let mut flow_routes = Vec::new();
    let k_max = cfg.max_concurrency;

    let mut models = Vec::with_capacity(cfg.models.len());
    for m in &cfg.models {
        // Continuous-batching decode planes. Plane 1 is the decode
        // columns of the per-stream table (identical workloads at
        // identical contention — copied so it is bit-for-bit exact,
        // free, and keeps `max_batch = 1` ≡ per-stream by
        // construction). Deeper planes re-lower each decode step with
        // `b` generations coalesced and tabulate it at every contention
        // level a `b`-deep group can coexist with
        // (`1..=max_concurrency - b + 1` execution streams).
        let batching = cfg.batching.is_continuous() && m.n_stages() > 1;
        let max_b = if batching && m.generator_spec.is_some() {
            cfg.effective_max_batch()
        } else {
            1
        };
        let n_stages = m.n_stages();
        let n_steps = m.decode_steps.len();
        // Streams `0..n_stages` are the stages; batched step `step` at
        // depth `b` is stream `n_stages + (b - 2) * n_steps + step`.
        let mut table = runner.shape_table(&cfg.platform)?;
        for stage in m.stages() {
            table.add_stream(stage)?;
        }
        for b in 2..=max_b {
            for step in 0..n_steps {
                let relowered = m
                    .decode_step_at_batch(step, b as u32)
                    .expect("only generators get batched streams");
                table.add_stream(&relowered)?;
            }
        }
        let n_streams = table.streams();
        // A stream's contention depth: K for a stage, K - b + 1 for a
        // decode step batched b deep.
        let depth = |stream: usize| match stream.checked_sub(n_stages) {
            None => k_max,
            Some(batched) => k_max + 1 - (2 + batched / n_steps),
        };
        // Row k's streams: every one tabulated that deep, but for the
        // stages' k = 1 cells, which their stage jobs give.
        let rows: Vec<Vec<usize>> = (1..=k_max)
            .map(|k| {
                let first = if k == 1 { n_stages } else { 0 };
                (first..n_streams).filter(|&s| depth(s) >= k).collect()
            })
            .collect();
        let stage_ids: Vec<usize> = (0..n_stages).collect();

        let jobs: Vec<Job> = (0..n_stages)
            .map(Job::Stage)
            .chain((1..=k_max).map(Job::Row))
            .collect();
        let tabulate = |&job: &Job| -> Result<Cells, CoreError> {
            let k = match job {
                Job::Stage(stage) => {
                    let report = table.execute(stage, &ContentionModel::uncontended())?;
                    return Ok(Cells::Stage {
                        stage,
                        latency: report.total_latency.as_secs_f64(),
                        energy_j: report.energy.total_j(),
                        bits: report.bits_moved,
                    });
                }
                Job::Row(k) => k,
            };
            let secs = |cells: Vec<SimTime>| cells.iter().map(|t| t.as_secs_f64()).collect();
            let row = &rows[k - 1];
            let column = if row.is_empty() {
                Vec::new()
            } else {
                secs(table.latencies(&ContentionModel::of_resident_streams(k), row)?)
            };
            // Flow-level plane: compute share 1/k × bandwidth share
            // 1/j. The diagonal j = k is the uniform column, copied
            // bit-for-bit (identical ContentionModel) in the fold, which
            // is what makes the degenerate all-bottlenecks-shared case
            // reproduce the uniform simulator exactly.
            let mut plane = Vec::new();
            if flow {
                for j in (1..=k_max).filter(|&j| j != k) {
                    let contention = ContentionModel::uniform(1.0 / k as f64)
                        .with_bandwidth_share(1.0 / j as f64);
                    plane.push(secs(table.latencies(&contention, &stage_ids)?));
                }
            }
            Ok(Cells::Row { k, column, plane })
        };
        let threads = lumos_dse::available_threads().min(n_streams);
        let results = lumos_dse::parallel_map(&jobs, threads, tabulate);

        // Fold the cells into the columns and the model totals in stream
        // order: term by term, exactly the sequential sums.
        let mut columns: Vec<Vec<f64>> = (0..n_streams)
            .map(|s| Vec::with_capacity(depth(s)))
            .collect();
        let mut flow_stages: Vec<Vec<Vec<f64>>> = Vec::new();
        if flow {
            flow_stages.resize(n_stages, Vec::with_capacity(k_max));
        }
        let mut energy_j = 0.0;
        let mut bits = 0u64;
        for cells in results {
            match cells? {
                Cells::Stage {
                    stage,
                    latency,
                    energy_j: e,
                    bits: b,
                } => {
                    columns[stage].push(latency);
                    energy_j += e;
                    bits += b;
                }
                Cells::Row { k, column, plane } => {
                    for (&s, latency) in rows[k - 1].iter().zip(column) {
                        columns[s].push(latency);
                    }
                    for (s, plane_rows) in flow_stages.iter_mut().enumerate() {
                        let mut off = plane.iter().map(|cells| cells[s]);
                        plane_rows.push(
                            (1..=k_max)
                                .map(|j| {
                                    if j == k {
                                        columns[s][k - 1]
                                    } else {
                                        off.next().expect("one cell per j != k")
                                    }
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
        let mut class_unit_seconds = [0.0f64; 4];
        let mut model_chiplets: Vec<usize> = Vec::new();
        for stage in 0..n_stages {
            for placement in table.placements(stage) {
                for share in &placement.shares {
                    let unit = MacUnit::new(share.class, calib);
                    // passes / rate = unit-seconds of demand, independent
                    // of how many units (or what fraction) execute it.
                    class_unit_seconds[share.class.index()] +=
                        share.passes as f64 / unit.passes_per_second();
                }
                if flow {
                    model_chiplets.extend_from_slice(&placement.chiplets);
                }
            }
        }
        if let Some(topo) = &flow_topology {
            flow_routes.push(topo.route_for_chiplets(&model_chiplets));
        }
        let mut batched_columns = columns.split_off(n_stages).into_iter();
        let stages = columns;
        let batched = if batching {
            let mut planes = vec![stages[1..].to_vec()];
            planes.extend((2..=max_b).map(|_| batched_columns.by_ref().take(n_steps).collect()));
            planes
        } else {
            Vec::new()
        };

        models.push(ModelProfile {
            name: m.name.clone(),
            stages,
            flow_stages,
            batched,
            energy_j,
            bits,
            class_unit_seconds,
        });
    }

    let mut class_units = [0.0f64; 4];
    for &class in &MacClass::all() {
        class_units[class.index()] = unit_scale(cfg.platform_cfg.class(class).total_units());
    }

    Ok(ServiceProfiles {
        models,
        class_units,
        flow: flow_topology.map(|topology| FlowModel {
            topology,
            routes: flow_routes,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServedModel;
    use lumos_core::PlatformConfig;
    use lumos_dnn::workload::Precision;
    use lumos_dnn::zoo;

    fn cfg() -> ServeConfig {
        ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            vec![ServedModel::cnn(
                &zoo::lenet5(),
                Precision::int8(),
                10.0,
                5.0,
            )],
        )
        .with_max_concurrency(3)
    }

    #[test]
    fn service_times_grow_with_contention() {
        let profiles = build_profiles(&cfg()).expect("lenet5 profiles on 2.5D-SiPh");
        let p = &profiles.models[0];
        assert_eq!(p.n_stages(), 1);
        assert_eq!(p.depth(), 3);
        for k in 1..3 {
            assert!(
                p.service_s(k) < p.service_s(k + 1),
                "more contention must be slower: {:?}",
                p.stages
            );
        }
        assert!(p.energy_j > 0.0 && p.bits > 0);
        assert!(p.class_unit_seconds.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn isolated_service_matches_runner() {
        let c = cfg();
        let profiles = build_profiles(&c).expect("profiles");
        let report = Runner::new(c.platform_cfg.clone())
            .run_workloads(&c.platform, "lenet5", &c.models[0].workloads)
            .expect("lenet5 runs on 2.5D-SiPh");
        assert_eq!(
            profiles.models[0].service_s(1),
            report.total_latency.as_secs_f64()
        );
    }

    #[test]
    fn class_units_match_table1() {
        let profiles = build_profiles(&cfg()).expect("profiles");
        assert_eq!(profiles.class_units, [8.0, 8.0, 32.0, 132.0]);
    }

    #[test]
    fn generator_profiles_tabulate_every_stage() {
        let mut c = cfg();
        c.models = vec![ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            512,
            3,
            1,
            Precision::int8(),
            2.0,
            5_000.0,
        )];
        let profiles = build_profiles(&c).expect("generator profiles");
        let p = &profiles.models[0];
        assert_eq!(p.n_stages(), 4);
        assert_eq!(p.depth(), 3);
        // A 512-token prefill dwarfs one decode step at every
        // contention level (a step re-streams the same weights but
        // runs 1/seq of the GEMM compute).
        for k in 1..=3 {
            assert!(p.stage_service(0, k) > 4.0 * p.stage_service(1, k));
        }
        // …decode steps get (weakly) slower as the cache deepens…
        for s in 1..3 {
            assert!(p.stage_service(s, 1) <= p.stage_service(s + 1, 1));
        }
        // …and the full-request time is the stage sum.
        let sum: f64 = (0..4).map(|s| p.stage_service(s, 2)).sum();
        assert_eq!(p.service_s(2), sum);
    }

    #[test]
    fn share_lookup_hits_table_exactly_and_interpolates_between() {
        let profiles = build_profiles(&cfg()).expect("profiles");
        let p = &profiles.models[0];
        // Exact uniform shares return tabulated values bit-for-bit.
        for k in 1usize..=3 {
            assert_eq!(
                p.stage_service_at_share(0, 1.0 / k as f64).to_bits(),
                p.stage_service(0, k).to_bits()
            );
        }
        // Between table points: bracketed by the neighbours.
        let mid = p.stage_service_at_share(0, 0.4); // v = 2.5
        assert!(p.stage_service(0, 2) < mid && mid < p.stage_service(0, 3));
        // Beyond the table: proportional extrapolation past K = 3.
        let deep = p.stage_service_at_share(0, 0.25); // v = 4
        assert!(deep > p.stage_service(0, 3));
        assert!((deep - p.stage_service(0, 3) * (4.0 / 3.0)).abs() < 1e-12 * deep.abs());

        // The lookup matches a linear scan for an exact hit bit-for-bit,
        // on every tabulated share of a 64-deep table and off the grid.
        fn scan_reference(table: &[f64], share: f64) -> f64 {
            for (j, &s) in table.iter().enumerate() {
                if share == 1.0 / (j + 1) as f64 {
                    return s;
                }
            }
            let k_max = table.len();
            let v = 1.0 / share;
            if v >= k_max as f64 {
                return table[k_max - 1] * (v / k_max as f64);
            }
            let lo = v.floor().max(1.0) as usize;
            let hi = (lo + 1).min(k_max);
            table[lo - 1] + (v - lo as f64) * (table[hi - 1] - table[lo - 1])
        }
        let table: Vec<f64> = (1..=64)
            .map(|k| 1e-3 * (k as f64).powf(0.9) + 1e-5)
            .collect();
        for k_max in [1, 2, 3, 17, 64] {
            let t = &table[..k_max];
            let mut shares: Vec<f64> = (1..=64).map(|j| 1.0 / j as f64).collect();
            for j in 1..=80 {
                let exact = 1.0 / j as f64;
                shares.extend([
                    f64::from_bits(exact.to_bits() - 1),
                    f64::from_bits(exact.to_bits() + 1),
                    exact * 0.999,
                    exact * 1.001,
                    1.0 / (j as f64 + 0.5),
                ]);
            }
            shares.extend([1e-300, 0.4, 0.81, 0.999_999, 1.0]);
            for share in shares.into_iter().filter(|&s| s > 0.0 && s <= 1.0) {
                assert_eq!(
                    table_service_at_share(t, share).to_bits(),
                    scan_reference(t, share).to_bits(),
                    "K = {k_max}, share = {share:e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn out_of_range_share_rejected() {
        let profiles = build_profiles(&cfg()).expect("profiles");
        let _ = profiles.models[0].stage_service_at_share(0, 0.0);
    }
}
