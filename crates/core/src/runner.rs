//! The platform execution engine.
//!
//! Executes a DNN layer-by-layer on one of the three platforms,
//! simulating the weight/activation/output streams over the platform's
//! interconnect (photonic interposer, electrical mesh, or monolithic
//! on-chip distribution) with double-buffered compute/communication
//! overlap, and rolls up latency, power, and energy-per-bit.
//!
//! Dataflow per weighted layer (paper §V, Fig. 5):
//!
//! 1. weights are sharded across the chiplets of the layer's MAC class
//!    (output-channel partitioning) and streamed from the HBM chiplet;
//! 2. input activations are broadcast to those chiplets (SWMR on the
//!    photonic interposer; replicated unicast on the electrical mesh);
//! 3. MAC units integrate dot-product passes, overlapped with the
//!    streams (double buffering);
//! 4. outputs stream back to memory (SWSR / mesh unicast).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lumos_dnn::workload::{extract_workloads, KernelClass};
use lumos_dnn::{LayerWorkload, Model};
use lumos_hbm::HbmStack;
use lumos_metrics::{MetricId, MetricsRegistry};
use lumos_noc::{Coord, LinkModel, MeshNetwork, MeshTransfer};
use lumos_phnet::network::PhotonicInterposer;
use lumos_sim::{BandwidthServer, SimTime};
use lumos_trace::{ArgValue, Tracer};

use crate::config::{MacClass, PlatformConfig};
use crate::contention::ContentionModel;
use crate::error::CoreError;
use crate::mac::MacUnit;
use crate::mapper::{place_with, Placement, PlacementPolicy};
use crate::platform::Platform;
use crate::report::{EnergyBreakdown, LayerReport, RunReport};

/// Executes models on configured platforms.
///
/// # Examples
///
/// ```
/// use lumos_core::{config::PlatformConfig, platform::Platform, runner::Runner};
///
/// let runner = Runner::new(PlatformConfig::paper_table1());
/// let report = runner.run(&Platform::Siph2p5D, &lumos_dnn::zoo::lenet5())?;
/// assert!(report.total_latency.as_secs_f64() > 0.0);
/// assert!(report.avg_power_w() > 0.0);
/// # Ok::<(), lumos_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: PlatformConfig,
    tracer: Tracer,
    metrics: MetricsRegistry,
    placement: PlacementPolicy,
}

/// The contention-independent half of a run ([`Runner::plan`]): one
/// stream's workloads, borrowed, and a one-stream [`ShapeTable`] of
/// them: their grouping by shape and the placement of each shape under
/// the planning runner's configuration and [`PlacementPolicy`]. The
/// plan borrows that runner too and always executes on it, so it
/// cannot be paired with another stream or another configuration.
#[derive(Debug)]
pub struct RunPlan<'a> {
    model_name: &'a str,
    workloads: &'a [LayerWorkload],
    /// The workloads as stream 0.
    table: ShapeTable<'a>,
}

impl RunPlan<'_> {
    /// Each workload's placement, in execution order. Repeats of a
    /// shape yield its one placement again.
    pub fn placements(&self) -> impl ExactSizeIterator<Item = &Placement> + '_ {
        self.table.placements(0)
    }

    /// The plan's total latency under `contention`:
    /// [`execute`](Self::execute)'s
    /// [`total_latency`](RunReport::total_latency), bit for bit, without
    /// the report. This is the one-stream case of
    /// [`ShapeTable::latencies`], which gives the closed form.
    ///
    /// # Errors
    ///
    /// Those of [`execute`](Self::execute), for the same inputs.
    pub fn latency(&self, contention: &ContentionModel) -> Result<SimTime, CoreError> {
        Ok(self.table.latencies(contention, &[0])?[0])
    }

    /// Executes the plan under `contention` on the runner that made it:
    /// the layer-by-layer simulation of [`Runner::run_workloads_scaled`]
    /// without its placement step. Executing one plan under several
    /// contention models gives, model for model, the reports
    /// [`Runner::run_workloads_scaled`] gives.
    ///
    /// Each shape's link timing is simulated once per call. Without
    /// weight prefetch
    /// ([`prefetch_weights`](crate::calibration::Calibration::prefetch_weights),
    /// off by default) every HBM channel, interposer lane, mesh link
    /// and monolithic bus is idle when a layer starts, because each
    /// layer starts after its predecessor's last stream finished. A
    /// layer's timing relative to its start then depends only on its
    /// shape, its placement and `contention`, all fixed within the
    /// call. The photonic interposer's reconfiguration still runs for
    /// every layer: its stall depends on the set the previous layer
    /// left, and it only moves the start. So the first occurrence of
    /// each shape is simulated, and every later one reuses its timing,
    /// moved to the layer's start, and replays only its accounting:
    /// HBM energy and bits ([`HbmStack::account`]), EO/OE energy and
    /// interposer bits ([`PhotonicInterposer::account_unicast`] and
    /// its siblings), mesh per-hop energy, bits, latency samples and
    /// last-finish mark ([`MeshNetwork::account_transfer`]), and the
    /// monolithic bus's served bits ([`BandwidthServer::account`]).
    /// These are the accounting halves the simulated streams call
    /// too, in the same order, so every report, trace and metrics
    /// export is bit-identical to simulating every layer. A replay
    /// leaves stale only what no output reads: each link's busy
    /// horizon, busy time and per-server served bits. With prefetch
    /// on, a layer's weights queue behind its predecessor's traffic,
    /// and every layer is simulated.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadConfig`] for shares outside `(0, 1]`, for a
    ///   bandwidth share that derates a link below a link server's rate
    ///   resolution ([`BandwidthServer::RESOLUTION_GBPS`]), and for
    ///   shares that stretch the run past [`HORIZON`];
    /// * [`CoreError::InfeasiblePhotonics`] when the photonic interposer
    ///   cannot close its link budget at the allocated bandwidth.
    pub fn execute(&self, contention: &ContentionModel) -> Result<RunReport, CoreError> {
        let table = &self.table;
        let layers = self.workloads.iter().zip(table.streams[0].iter().copied());
        table.runner.execute(
            &table.platform,
            self.model_name,
            layers,
            &table.placements,
            contention,
        )
    }
}

/// The latest instant a run may reach: a quarter of [`SimTime`]'s
/// range (about 53 days of simulated time), so that every stream a
/// layer issues before it still finishes inside that range. A run
/// under shares that would pass it fails with [`CoreError::BadConfig`]
/// instead.
pub const HORIZON: SimTime = SimTime::from_ps(u64::MAX / 4);

/// Layer shapes shared by many streams of one platform
/// ([`Runner::shape_table`]): each distinct shape (every
/// [`LayerWorkload`] field but `name`) is placed once, under the
/// runner's configuration and [`PlacementPolicy`], and kept as one
/// nameless representative workload and its placement. A stream is
/// kept as its sequence of shape ids, so the table holds no names and
/// borrows no workloads: a caller may drop a stream once it is added.
///
/// # Examples
///
/// ```
/// use lumos_core::{ContentionModel, Platform, PlatformConfig, Runner};
/// use lumos_dnn::workload::{extract_workloads, Precision};
///
/// let runner = Runner::new(PlatformConfig::paper_table1());
/// let mut table = runner.shape_table(&Platform::Siph2p5D)?;
/// let lenet = extract_workloads(&lumos_dnn::zoo::lenet5(), Precision::int8());
/// let lenet = table.add_stream(&lenet)?;
/// let vgg = extract_workloads(&lumos_dnn::zoo::vgg16(), Precision::int8());
/// let vgg = table.add_stream(&vgg)?;
/// // Both streams' shapes, each simulated once at half of everything.
/// let half = table.latencies(&ContentionModel::of_resident_streams(2), &[vgg, lenet])?;
/// let solo = table.execute(lenet, &ContentionModel::uncontended())?;
/// assert!(half[1] > solo.total_latency);
/// assert!(half[0] > half[1]);
/// # Ok::<(), lumos_core::error::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ShapeTable<'r> {
    runner: &'r Runner,
    platform: Platform,
    /// Shape key → shape id, dense in order of first occurrence.
    ids: HashMap<Shape, usize>,
    /// One workload of each shape, nameless, by shape id.
    shapes: Vec<LayerWorkload>,
    /// Each shape's placement, by shape id.
    placements: Vec<Placement>,
    /// Each stream's shape ids, in execution order, by stream id.
    streams: Vec<Vec<usize>>,
}

impl ShapeTable<'_> {
    /// Adds `workloads` as the next stream and returns its id (dense
    /// from 0, in order of addition). Each shape the table does not
    /// hold yet is placed once, in order of first occurrence.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for inconsistent placement pins,
    /// [`CoreError::UnmappableLayer`] for kernels no class covers. The
    /// stream is then not added.
    pub fn add_stream(&mut self, workloads: &[LayerWorkload]) -> Result<usize, CoreError> {
        let mut stream = Vec::with_capacity(workloads.len());
        for w in workloads {
            let next = self.ids.len();
            let shape = match self.ids.entry(shape_of(w)) {
                Entry::Occupied(id) => *id.get(),
                Entry::Vacant(slot) => {
                    let runner = self.runner;
                    self.placements
                        .push(place_with(&runner.cfg, w, &runner.placement)?);
                    self.shapes.push(LayerWorkload {
                        name: String::new(),
                        ..*w
                    });
                    *slot.insert(next)
                }
            };
            stream.push(shape);
        }
        self.streams.push(stream);
        Ok(self.streams.len() - 1)
    }

    /// The number of streams added.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Stream `stream`'s placements, one per workload in execution
    /// order. Every occurrence of a shape, in any stream, yields its
    /// one placement.
    ///
    /// # Panics
    ///
    /// Panics if no stream `stream` was added.
    pub fn placements(&self, stream: usize) -> impl ExactSizeIterator<Item = &Placement> + '_ {
        self.streams[stream]
            .iter()
            .map(|&shape| &self.placements[shape])
    }

    /// Executes stream `stream` under `contention`:
    /// [`RunPlan::execute`] of the workloads added as that stream, but
    /// for names. The table keeps none, so the report's model and
    /// layer names are empty.
    ///
    /// # Errors
    ///
    /// Those of [`RunPlan::execute`].
    ///
    /// # Panics
    ///
    /// Panics if no stream `stream` was added.
    pub fn execute(
        &self,
        stream: usize,
        contention: &ContentionModel,
    ) -> Result<RunReport, CoreError> {
        let layers = self.streams[stream]
            .iter()
            .map(|&shape| (&self.shapes[shape], shape));
        self.runner
            .execute(&self.platform, "", layers, &self.placements, contention)
    }

    /// The total latency under `contention` of each stream of
    /// `streams`, in that order: [`execute`](Self::execute)'s
    /// [`total_latency`](RunReport::total_latency), bit for bit, without
    /// the report. The selection may hold any streams in any order.
    ///
    /// Without weight prefetch every link is idle when a layer starts
    /// (see [`RunPlan::execute`]), so each layer adds
    /// `stall + overhead + dur` to the clock. `dur`, from the layer's
    /// start to its last stream's finish, depends only on its shape,
    /// its placement and `contention`. `stall` is the photonic
    /// interposer's reconfiguration stall
    /// ([`PhotonicInterposer::switch_stall`]), a function of the
    /// active set the previous layer left (the all-on boot set for a
    /// stream's first layer) and the one this layer's demand selects;
    /// each set depends only on its layer's shape and `contention`, and
    /// the stall is zero on the other platforms. So each distinct shape
    /// of the selected streams is simulated once, in order of first
    /// occurrence, on one backend, each starting where the previous one
    /// finished. A stream's total is the integer-picosecond sum over its
    /// layers of `overhead + dur` plus its own chain of transition
    /// stalls, starting from the boot set. Nothing is rounded, and no
    /// energy, report, trace or metric is produced. A GPT-2 decode
    /// step's 124 layers cost 11 shape simulations; a GPT-2 generator's
    /// 13 stages and 36 decode steps re-lowered at batch depth 2–4 hold
    /// 190 shapes between them.
    ///
    /// With [`prefetch_weights`](crate::calibration::Calibration::prefetch_weights)
    /// on, a layer's weights queue behind its predecessor's traffic, so
    /// each stream's latency is `execute(stream, contention)?.total_latency`.
    ///
    /// # Errors
    ///
    /// Those of [`RunPlan::execute`], for the same inputs: the first
    /// selected stream that fails gives the error.
    ///
    /// # Panics
    ///
    /// Panics if a selected stream was not added.
    pub fn latencies(
        &self,
        contention: &ContentionModel,
        streams: &[usize],
    ) -> Result<Vec<SimTime>, CoreError> {
        let runner = self.runner;
        if runner.cfg.calibration.prefetch_weights {
            return streams
                .iter()
                .map(|&stream| Ok(self.execute(stream, contention)?.total_latency))
                .collect();
        }
        contention.validate()?;
        let platform = self.platform;
        let bw_share = contention.bandwidth_share();
        let mut backend = runner.build_backend(&platform, contention)?;
        let overhead = SimTime::from_ns(runner.cfg.calibration.layer_overhead_ns);
        // The interposer's active set before a stream's first layer:
        // all on.
        let boot = match &backend {
            Backend::Siph { net, .. } => Some(net.active_set().clone()),
            _ => None,
        };

        // Each selected shape's duration, start to last finish, and
        // (photonic interposer) the active set it runs on, by shape id;
        // `None` for shapes no selected stream holds. `SimTime::MAX`
        // marks a shape whose compute span alone passes the horizon.
        // Shapes are simulated at their first occurrence, one after
        // another on idle links, so each starts after its predecessor's
        // finish and reconfiguration stall, as in a run.
        let mut durs: Vec<Option<SimTime>> = vec![None; self.shapes.len()];
        let mut sets = vec![None; if boot.is_some() { self.shapes.len() } else { 0 }];
        let mut mesh = Vec::new();
        let mut t = SimTime::ZERO;
        for &shape in streams.iter().flat_map(|&stream| &self.streams[stream]) {
            if durs[shape].is_some() {
                continue;
            }
            if t > HORIZON {
                // Start again from zero on idle links, so the clock
                // stays in range however many shapes there are.
                backend = runner.build_backend(&platform, contention)?;
                t = SimTime::ZERO;
            }
            let placement = &self.placements[shape];
            let io = LayerIo::new(&self.shapes[shape], placement);
            let compute_s = runner
                .share_spans(platform, placement, contention)
                .fold(0.0f64, |slowest, share| slowest.max(share.secs));
            let stall = match &mut backend {
                Backend::Siph { net, .. } => {
                    let stall = net.reconfigure(t, &runner.resipi_demand(&io, compute_s, bw_share));
                    sets[shape] = Some(net.active_set().clone());
                    stall
                }
                _ => SimTime::ZERO,
            };
            let start = t + stall + overhead;
            let compute_span = SimTime::from_secs_f64(compute_s);
            durs[shape] = Some(if compute_span > HORIZON {
                t = start;
                SimTime::MAX
            } else {
                mesh.clear();
                t = backend
                    .simulate(&io, start, start, start + compute_span, &mut mesh)
                    .finish();
                t - start
            });
        }

        // Totals are summed in u128 picoseconds, which no stream
        // overflows, and then checked against the horizon once.
        let ps = |t: SimTime| u128::from(t.as_ps());
        let step = ps(overhead);
        streams
            .iter()
            .map(|&stream| {
                let seq = &self.streams[stream];
                let mut total = 0u128;
                for &shape in seq {
                    total += step + ps(durs[shape].expect("every selected shape is simulated"));
                }
                if let (Backend::Siph { net, .. }, Some(boot)) = (&backend, &boot) {
                    let mut from = boot;
                    for &shape in seq {
                        let to = sets[shape]
                            .as_ref()
                            .expect("every selected shape is simulated");
                        total += ps(net.switch_stall(from, to));
                        from = to;
                    }
                }
                if total <= ps(HORIZON) {
                    Ok(SimTime::from_ps(total as u64))
                } else {
                    Err(beyond_horizon(contention))
                }
            })
            .collect()
    }
}

/// The error of a run whose clock would pass [`HORIZON`] under
/// `contention`.
fn beyond_horizon(contention: &ContentionModel) -> CoreError {
    let units = MacClass::all().map(|class| contention.unit_share(class));
    CoreError::BadConfig {
        reason: format!(
            "unit shares {units:?} with bandwidth share {:?} stretch the run past {HORIZON}",
            contention.bandwidth_share()
        ),
    }
}

/// `at + by`, or [`beyond_horizon`] where that passes [`HORIZON`].
fn advance(at: SimTime, by: SimTime, contention: &ContentionModel) -> Result<SimTime, CoreError> {
    at.checked_add(by)
        .filter(|&t| t <= HORIZON)
        .ok_or_else(|| beyond_horizon(contention))
}

// Trace lanes (tids) of one platform run: the rolled-up per-layer op on
// lane 0, its end-aligned compute span on lane 1, and the two link
// families (HBM vs. interposer/bus fabric) on lanes 2 and 3.
const TID_OP: u32 = 0;
const TID_COMPUTE: u32 = 1;
const TID_HBM: u32 = 2;
const TID_NET: u32 = 3;

/// The trace category of `class` — the kernel-shape attribution
/// dimension (`kernel:conv3x3`, `kernel:gemv`, …) the summary rollup
/// groups by.
fn kernel_label(class: lumos_dnn::workload::KernelClass) -> String {
    use lumos_dnn::workload::KernelClass;
    match class {
        KernelClass::Conv { k } => format!("conv{k}x{k}"),
        KernelClass::Depthwise { k } => format!("depthwise{k}x{k}"),
        KernelClass::Dense => "dense".to_owned(),
        KernelClass::Gemm { .. } if class.is_gemv() => "gemv".to_owned(),
        KernelClass::Gemm { .. } => "gemm".to_owned(),
        KernelClass::Softmax => "softmax".to_owned(),
        KernelClass::Norm => "norm".to_owned(),
    }
}

/// Per-run metric handles: one compute-utilization counter per MAC
/// class (weighted busy picoseconds — a window's sum divided by the
/// window width is the class's unit-utilization), one link-occupancy
/// counter per link family, and the MAC active-energy rate series.
/// Built once per run when the registry is enabled, so the hot loop
/// only touches pre-registered [`MetricId`]s.
struct RunMeter {
    reg: MetricsRegistry,
    compute: Vec<(MacClass, MetricId, f64)>,
    hbm: MetricId,
    net: MetricId,
    mac_active: MetricId,
}

impl RunMeter {
    fn new(
        reg: &MetricsRegistry,
        platform: &Platform,
        net_link: &str,
        class_units: &[(MacClass, usize)],
    ) -> Self {
        let p = platform.label();
        let compute = class_units
            .iter()
            .filter(|(_, units)| *units > 0)
            .map(|(class, units)| {
                let id = reg.counter(&format!(
                    "runner_compute_busy_ps{{platform=\"{p}\",class=\"{class:?}\"}}"
                ));
                (*class, id, *units as f64)
            })
            .collect();
        RunMeter {
            reg: reg.clone(),
            compute,
            hbm: reg.counter(&format!(
                "runner_link_busy_ps{{platform=\"{p}\",link=\"hbm\"}}"
            )),
            net: reg.counter(&format!(
                "runner_link_busy_ps{{platform=\"{p}\",link=\"{net_link}\"}}"
            )),
            mac_active: reg.counter(&format!("runner_mac_active_j{{platform=\"{p}\"}}")),
        }
    }

    fn compute_id(&self, class: MacClass) -> Option<(MetricId, f64)> {
        self.compute
            .iter()
            .find(|(c, _, _)| *c == class)
            .map(|(_, id, total)| (*id, *total))
    }

    /// Records a busy span on a link-family occupancy counter.
    fn link_span(&self, id: MetricId, from: SimTime, to: SimTime) {
        let dur = to.saturating_sub(from).as_ps();
        if dur > 0 {
            self.reg.add_span(id, from.as_ps(), dur, dur as f64);
        }
    }
}

/// The instants one layer's streams finish at: inbound HBM reads and
/// fabric deliveries, compute, and the write-back on each link family.
#[derive(Clone, Copy)]
struct LayerTimes {
    hbm_in_fin: SimTime,
    net_in_fin: SimTime,
    compute_fin: SimTime,
    hbm_out_fin: SimTime,
    net_out_fin: SimTime,
}

impl LayerTimes {
    /// Every instant moved `by` later.
    fn shifted(self, by: SimTime) -> Self {
        LayerTimes {
            hbm_in_fin: self.hbm_in_fin + by,
            net_in_fin: self.net_in_fin + by,
            compute_fin: self.compute_fin + by,
            hbm_out_fin: self.hbm_out_fin + by,
            net_out_fin: self.net_out_fin + by,
        }
    }

    /// When the layer's last stream, its write-back, finishes.
    fn finish(&self) -> SimTime {
        self.hbm_out_fin.max(self.net_out_fin)
    }
}

/// A layer as its streams see it: the workload, the chiplets it is
/// sharded over, and each chiplet's weight and output shard
/// (output-channel partitioning).
struct LayerIo<'w> {
    w: &'w LayerWorkload,
    chiplets: &'w [usize],
    weight_shard: u64,
    output_shard: u64,
}

impl<'w> LayerIo<'w> {
    fn new(w: &'w LayerWorkload, placement: &'w Placement) -> Self {
        let n_shards = placement.chiplets.len() as u64;
        LayerIo {
            w,
            chiplets: &placement.chiplets,
            weight_shard: w.weight_bits.div_ceil(n_shards),
            output_shard: w.output_bits.div_ceil(n_shards),
        }
    }
}

/// One placement share as a layer runs it under a contention model.
struct ShareSpan {
    class: MacClass,
    unit: MacUnit,
    /// The class's units in the share, as the platform runs them.
    units: usize,
    /// The fraction of those units allocated to the stream.
    alloc: f64,
    /// The share's compute span, seconds.
    secs: f64,
}

/// One mesh transfer a layer issued: issue instant, transfer, payload
/// bits.
type MeshSend = (SimTime, MeshTransfer, u64);

/// The simulated first occurrence of a shape within one execution:
/// its start, its timing, and (electrical mesh only) the transfers a
/// later occurrence charges again.
#[derive(Clone)]
struct Simulated {
    start: SimTime,
    times: LayerTimes,
    mesh: Vec<MeshSend>,
}

/// Everything the simulation reads of a workload but its name: two
/// workloads of one shape place identically and, over idle links,
/// stream identically.
type Shape = (KernelClass, [u64; 7]);

fn shape_of(w: &LayerWorkload) -> Shape {
    // Destructured in full, so a new field cannot miss the key.
    let LayerWorkload {
        name: _,
        class,
        dot_products,
        dot_length,
        window,
        macs,
        weight_bits,
        input_bits,
        output_bits,
    } = *w;
    (
        class,
        [
            dot_products,
            dot_length,
            window,
            macs,
            weight_bits,
            input_bits,
            output_bits,
        ],
    )
}

enum Backend {
    Siph {
        net: Box<PhotonicInterposer>,
        hbm: HbmStack,
    },
    Elec {
        net: Box<MeshNetwork>,
        hbm: HbmStack,
        mem: Coord,
        positions: Vec<Coord>,
        packet_bits: u64,
    },
    Mono {
        bus: BandwidthServer,
        hbm: HbmStack,
    },
}

impl Backend {
    /// Simulates a layer's streams: the inbound ones
    /// ([`Backend::stream_in`]), compute overlapping them (double
    /// buffering: it cannot finish before either the data or its span
    /// of passes from `start`, ending at `compute_end`, do), and the
    /// write-back at compute finish ([`Backend::stream_out`]).
    fn simulate(
        &mut self,
        io: &LayerIo,
        weight_issue: SimTime,
        start: SimTime,
        compute_end: SimTime,
        mesh: &mut Vec<MeshSend>,
    ) -> LayerTimes {
        let (hbm_in_fin, net_in_fin) = self.stream_in(io, weight_issue, start, mesh);
        let compute_fin = hbm_in_fin.max(net_in_fin).max(compute_end);
        let (hbm_out_fin, net_out_fin) = self.stream_out(io, compute_fin, mesh);
        LayerTimes {
            hbm_in_fin,
            net_in_fin,
            compute_fin,
            hbm_out_fin,
            net_out_fin,
        }
    }

    /// Issues a layer's inbound streams: its weights, sharded over its
    /// chiplets and issued at `weight_issue`, and its input
    /// activations, broadcast to them at `start`. Returns when the HBM
    /// reads and when the fabric deliveries finish. The two link
    /// families finish independently (HBM channel vs. interposer/bus
    /// fabric) so the trace can attribute the stream to each. Mesh
    /// transfers are logged to `mesh`.
    fn stream_in(
        &mut self,
        io: &LayerIo,
        weight_issue: SimTime,
        start: SimTime,
        mesh: &mut Vec<MeshSend>,
    ) -> (SimTime, SimTime) {
        let LayerIo {
            w,
            chiplets,
            weight_shard,
            ..
        } = *io;
        match self {
            Backend::Siph { net, hbm } => {
                let hbm_w = hbm.read(weight_issue, w.weight_bits).finish;
                let hbm_a = hbm.read(start, w.input_bits).finish;
                let mut net_fin = SimTime::ZERO;
                for &c in chiplets {
                    net_fin = net_fin.max(net.read_unicast(weight_issue, c, weight_shard).finish);
                }
                net_fin = net_fin.max(net.read_broadcast(start, w.input_bits).finish);
                (hbm_w.max(hbm_a), net_fin)
            }
            Backend::Elec {
                net,
                hbm,
                mem,
                positions,
                packet_bits,
            } => {
                let hbm_w = hbm.read(weight_issue, w.weight_bits).finish;
                let hbm_a = hbm.read(start, w.input_bits).finish;
                let mut send = |at: SimTime, dst: Coord, bits: u64| {
                    let t = net.transfer_packets(at, *mem, dst, bits, *packet_bits);
                    mesh.push((at, t, bits));
                    t.finish
                };
                let mut net_fin = SimTime::ZERO;
                for &c in chiplets {
                    net_fin = net_fin.max(send(weight_issue, positions[c], weight_shard));
                }
                // Replicated unicast: a passive electrical interposer
                // has no multicast.
                let mut broadcast_fin = start;
                for &c in chiplets {
                    broadcast_fin = broadcast_fin.max(send(start, positions[c], w.input_bits));
                }
                (hbm_w.max(hbm_a), net_fin.max(broadcast_fin))
            }
            Backend::Mono { bus, hbm } => {
                let hbm_w = hbm.read(weight_issue, w.weight_bits).finish;
                let hbm_a = hbm.read(start, w.input_bits).finish;
                let w_grant = bus.serve(weight_issue, w.weight_bits);
                let a_grant = bus.serve(start, w.input_bits);
                (hbm_w.max(hbm_a), w_grant.finish.max(a_grant.finish))
            }
        }
    }

    /// Issues a layer's write-back at `at`, one output shard per chiplet;
    /// returns when the HBM write and the fabric finish. Mesh transfers
    /// are logged to `mesh`.
    fn stream_out(
        &mut self,
        io: &LayerIo,
        at: SimTime,
        mesh: &mut Vec<MeshSend>,
    ) -> (SimTime, SimTime) {
        let LayerIo {
            w,
            chiplets,
            output_shard,
            ..
        } = *io;
        match self {
            Backend::Siph { net, hbm } => {
                let hbm_fin = hbm.write(at, w.output_bits).finish;
                let mut net_fin = SimTime::ZERO;
                for &c in chiplets {
                    net_fin = net_fin.max(net.write(at, c, output_shard).finish);
                }
                (hbm_fin, net_fin)
            }
            Backend::Elec {
                net,
                hbm,
                mem,
                positions,
                packet_bits,
            } => {
                let hbm_fin = hbm.write(at, w.output_bits).finish;
                let mut net_fin = SimTime::ZERO;
                for &c in chiplets {
                    let t =
                        net.transfer_packets(at, positions[c], *mem, output_shard, *packet_bits);
                    mesh.push((at, t, output_shard));
                    net_fin = net_fin.max(t.finish);
                }
                (hbm_fin, net_fin)
            }
            Backend::Mono { bus, hbm } => {
                let hbm_fin = hbm.write(at, w.output_bits).finish;
                (hbm_fin, bus.serve(at, w.output_bits).finish)
            }
        }
    }

    /// Charges a repeat of a layer whose timing is already known: the
    /// accounting half of every stream [`Backend::stream_in`] and
    /// [`Backend::stream_out`] issue, in their order per accumulator,
    /// with `mesh` (the first occurrence's transfers) moved `shift`
    /// later.
    fn replay(&mut self, io: &LayerIo, mesh: &[MeshSend], shift: SimTime) {
        let LayerIo {
            w,
            chiplets,
            weight_shard,
            output_shard,
        } = *io;
        match self {
            Backend::Siph { net, hbm } => {
                hbm.account(w.weight_bits);
                hbm.account(w.input_bits);
                for _ in chiplets {
                    net.account_unicast(weight_shard);
                }
                net.account_broadcast(w.input_bits);
                hbm.account(w.output_bits);
                for _ in chiplets {
                    net.account_write(output_shard);
                }
            }
            Backend::Elec { net, hbm, .. } => {
                hbm.account(w.weight_bits);
                hbm.account(w.input_bits);
                hbm.account(w.output_bits);
                for &(at, t, bits) in mesh {
                    let moved = MeshTransfer {
                        start: t.start + shift,
                        finish: t.finish + shift,
                        hops: t.hops,
                    };
                    net.account_transfer(at + shift, &moved, bits);
                }
            }
            Backend::Mono { bus, hbm } => {
                hbm.account(w.weight_bits);
                hbm.account(w.input_bits);
                bus.account(w.weight_bits);
                bus.account(w.input_bits);
                hbm.account(w.output_bits);
                bus.account(w.output_bits);
            }
        }
    }
}

impl Runner {
    /// Creates a runner for `cfg` (tracing and metrics off).
    pub fn new(cfg: PlatformConfig) -> Self {
        Runner {
            cfg,
            tracer: Tracer::off(),
            metrics: MetricsRegistry::off(),
            placement: PlacementPolicy::unrestricted(),
        }
    }

    /// Attaches a [`PlacementPolicy`]: every subsequent run places
    /// pinned classes on their pinned chiplet subsets (and their
    /// proportionally smaller unit pools). With
    /// [`PlacementPolicy::unrestricted`] (the [`Runner::new`] default)
    /// runs are bit-identical to the unpoliced runner. Pair with
    /// [`crate::flow::FlowTopology::route_for_chiplets`] to ask
    /// placement questions under flow-level contention.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// The placement policy in force.
    pub fn placement(&self) -> &PlacementPolicy {
        &self.placement
    }

    /// Attaches a [`Tracer`]: every subsequent run emits per-layer op
    /// spans (lane 0), end-aligned compute spans categorized by kernel
    /// shape (lane 1), and per-link-family stream spans for HBM and the
    /// platform fabric (lanes 2–3), plus end-of-run energy counters —
    /// all on the virtual clock, at the platform's
    /// [`Platform::trace_pid`]. Tracing never perturbs the simulated
    /// numbers; with [`Tracer::off`] (the [`Runner::new`] default) the
    /// cost is one branch per emission site.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer runs emit through ([`Tracer::off`] unless
    /// [`Runner::with_tracer`] attached one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a [`MetricsRegistry`]: every subsequent run records
    /// windowed time series on the virtual clock — per-MAC-class
    /// compute utilization (weighted busy picoseconds), HBM and
    /// interposer/mesh/bus link occupancy, the MAC active-energy rate,
    /// and end-of-run energy totals per component. Series are labelled
    /// by platform, so one registry can aggregate runs across
    /// platforms; runs of the *same* platform overlay on the shared
    /// virtual clock (attach a fresh registry per run to keep them
    /// apart). Metering never perturbs the simulated numbers; with
    /// [`MetricsRegistry::off`] (the [`Runner::new`] default) the cost
    /// is one branch per run.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The registry runs record through ([`MetricsRegistry::off`]
    /// unless [`Runner::with_metrics`] attached one).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Runs one inference of `model` on `platform`, extracting workloads
    /// at the configured uniform precision.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadConfig`] for inconsistent configurations,
    /// * [`CoreError::InfeasiblePhotonics`] when the photonic interposer
    ///   cannot close its link budget,
    /// * [`CoreError::UnmappableLayer`] for kernels no class covers.
    pub fn run(&self, platform: &Platform, model: &Model) -> Result<RunReport, CoreError> {
        let workloads = extract_workloads(model, self.cfg.precision);
        self.run_workloads(platform, model.name(), &workloads)
    }

    /// Runs a pre-extracted workload sequence — the entry point for
    /// custom traffic schedules. Pair it with
    /// [`lumos_dnn::quantization::extract_quantized_workloads`] for
    /// heterogeneous quantization, or with
    /// `lumos_xformer::extract_transformer_workloads` for transformer
    /// workloads.
    ///
    /// # Errors
    ///
    /// Same as [`Runner::run`].
    pub fn run_workloads(
        &self,
        platform: &Platform,
        model_name: &str,
        workloads: &[lumos_dnn::LayerWorkload],
    ) -> Result<RunReport, CoreError> {
        self.run_workloads_scaled(
            platform,
            model_name,
            workloads,
            &ContentionModel::uncontended(),
        )
    }

    /// [`Runner::run_workloads`] under a [`ContentionModel`] — the
    /// multi-tenant hook `lumos_serve` uses to time-share the platform
    /// between concurrently resident layer streams.
    ///
    /// Each [`PlacementShare`](crate::mapper::PlacementShare) executes
    /// on its class's allocated unit fraction (its compute span dilates
    /// by the inverse share; active MAC energy is conserved because the
    /// same work runs on fewer units for longer), and every
    /// interposer/memory link is derated to the allocated bandwidth
    /// fraction. With [`ContentionModel::uncontended`] this is exactly
    /// [`Runner::run_workloads`].
    ///
    /// The report still charges the *whole* platform's static power to
    /// the stream (a single-tenant view); a serving layer accounting
    /// energy across tenants should use the uncontended run's energy,
    /// which time-sharing conserves.
    ///
    /// This is [`Runner::plan`] followed by [`RunPlan::execute`];
    /// callers that run one stream under many contention models should
    /// plan it once and execute the plan per model.
    ///
    /// # Errors
    ///
    /// Same as [`Runner::run`], plus [`CoreError::BadConfig`] for
    /// shares outside `(0, 1]` and for shares too small to simulate
    /// (see [`RunPlan::execute`]).
    pub fn run_workloads_scaled(
        &self,
        platform: &Platform,
        model_name: &str,
        workloads: &[lumos_dnn::LayerWorkload],
        contention: &ContentionModel,
    ) -> Result<RunReport, CoreError> {
        self.plan(platform, model_name, workloads)?
            .execute(contention)
    }

    /// An empty [`ShapeTable`] for `platform` on this runner's
    /// configuration and [`PlacementPolicy`], after validating the
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for inconsistent configurations.
    pub fn shape_table(&self, platform: &Platform) -> Result<ShapeTable<'_>, CoreError> {
        self.cfg.validate()?;
        Ok(ShapeTable {
            runner: self,
            platform: *platform,
            ids: HashMap::new(),
            shapes: Vec::new(),
            placements: Vec::new(),
            streams: Vec::new(),
        })
    }

    /// The contention-independent half of a run: validates the
    /// configuration, groups the workloads by shape (every
    /// [`LayerWorkload`] field but `name`) and places each distinct
    /// shape once under the runner's [`PlacementPolicy`]: a one-stream
    /// [`ShapeTable`]. The plan holds one placement per shape, which its
    /// repeats share. A GPT-2 decode step's 124 workloads are 11
    /// shapes, so it places 11 times. The grouping is also what lets
    /// [`RunPlan::execute`] and [`RunPlan::latency`] simulate each shape
    /// once. The plan borrows this runner, `workloads` and the name, so
    /// it always runs on this runner's configuration and this stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for inconsistent configurations or
    /// placement pins, [`CoreError::UnmappableLayer`] for kernels no
    /// class covers.
    ///
    /// # Examples
    ///
    /// ```
    /// use lumos_core::{ContentionModel, Platform, PlatformConfig, Runner};
    /// use lumos_dnn::workload::{extract_workloads, Precision};
    ///
    /// let runner = Runner::new(PlatformConfig::paper_table1());
    /// let work = extract_workloads(&lumos_dnn::zoo::lenet5(), Precision::int8());
    /// let plan = runner.plan(&Platform::Siph2p5D, "lenet5", &work)?;
    /// let solo = plan.execute(&ContentionModel::uncontended())?;
    /// let half = plan.execute(&ContentionModel::of_resident_streams(2))?;
    /// assert!(half.total_latency > solo.total_latency);
    /// # Ok::<(), lumos_core::error::CoreError>(())
    /// ```
    pub fn plan<'a>(
        &'a self,
        platform: &Platform,
        model_name: &'a str,
        workloads: &'a [LayerWorkload],
    ) -> Result<RunPlan<'a>, CoreError> {
        let mut table = self.shape_table(platform)?;
        table.add_stream(workloads)?;
        Ok(RunPlan {
            model_name,
            workloads,
            table,
        })
    }

    /// `n` MAC units as `platform` runs them: monolithic CrossLight
    /// scales every pool ([`Calibration::mono_units`]).
    ///
    /// [`Calibration::mono_units`]: crate::calibration::Calibration::mono_units
    fn units_on(&self, platform: Platform, n: usize) -> usize {
        if platform == Platform::Monolithic {
            self.cfg.calibration.mono_units(n)
        } else {
            n
        }
    }

    /// Each share of `placement` as it runs on `platform` under
    /// `contention`. Every class runs its passes in parallel, so a
    /// layer's compute span is its slowest share's (the
    /// throughput-proportional GEMM split keeps the shares within one
    /// pass of each other; single-share CNN layers reduce to the
    /// one-class arithmetic exactly). Only `alloc` of the class's units
    /// serve this stream, so the span dilates by `1/alloc` while the
    /// unit-seconds (energy, idle correction) are invariant.
    fn share_spans<'p>(
        &'p self,
        platform: Platform,
        placement: &'p Placement,
        contention: &'p ContentionModel,
    ) -> impl Iterator<Item = ShareSpan> + 'p {
        placement.shares.iter().map(move |share| {
            let unit = MacUnit::new(share.class, &self.cfg.calibration);
            let units = self.units_on(platform, share.units);
            let alloc = contention.unit_share(share.class);
            ShareSpan {
                class: share.class,
                secs: unit.compute_seconds(share.passes, units) / alloc,
                unit,
                units,
                alloc,
            }
        })
    }

    /// The per-chiplet demand (bits/s) a layer announces to the
    /// photonic interposer's ReSiPI controller, which reacts to the
    /// traffic it observes per epoch. A layer whose stream exceeds what
    /// one gateway can deliver in an epoch at the stream's bandwidth
    /// share `bw_share` looks like a full-rate burst to the controller,
    /// which keeps the chiplet's whole gateway complement active;
    /// lighter layers are provisioned to finish within a margin of
    /// their compute time (this is what deactivates gateways on small
    /// models like LeNet5).
    fn resipi_demand(&self, io: &LayerIo, compute_s: f64, bw_share: f64) -> Vec<f64> {
        let phnet = &self.cfg.phnet;
        let gw_bps = phnet.gateway_rate_gbps() * bw_share * 1e9;
        let epoch_bits = gw_bps * phnet.epoch_us as f64 * 1e-6;
        let burst_bps = phnet.gateways_per_chiplet as f64 * gw_bps;
        let est = (compute_s * self.cfg.calibration.comm_overlap_margin).max(1e-6);
        let layer_bits = io.weight_shard + io.w.input_bits + io.output_shard;
        let mut demand = vec![0.0; self.cfg.compute_chiplets()];
        for &c in io.chiplets {
            demand[c] = if layer_bits as f64 >= epoch_bits {
                burst_bps
            } else {
                layer_bits as f64 / est
            };
        }
        demand
    }

    /// [`RunPlan::execute`] of `layers`, each workload with its shape
    /// id into `placements`, named `model_name`.
    fn execute<'w>(
        &self,
        platform: &Platform,
        model_name: &str,
        layers: impl ExactSizeIterator<Item = (&'w LayerWorkload, usize)>,
        placements: &[Placement],
        contention: &ContentionModel,
    ) -> Result<RunReport, CoreError> {
        contention.validate()?;
        let bw_share = contention.bandwidth_share();
        let calib = &self.cfg.calibration;
        let mut backend = self.build_backend(platform, contention)?;

        let trace_pid = platform.trace_pid();
        let net_cat = match platform {
            Platform::Siph2p5D => "link:phnet",
            Platform::Elec2p5D => "link:mesh",
            Platform::Monolithic => "link:bus",
        };
        if self.tracer.enabled() {
            self.tracer.name_process(trace_pid, platform.label());
            self.tracer.name_thread(trace_pid, TID_OP, "op");
            self.tracer.name_thread(trace_pid, TID_COMPUTE, "compute");
            self.tracer.name_thread(trace_pid, TID_HBM, "link:hbm");
            self.tracer.name_thread(trace_pid, TID_NET, net_cat);
        }

        let meter = if self.metrics.enabled() {
            let net_link = &net_cat["link:".len()..];
            let class_units: Vec<(MacClass, usize)> = MacClass::all()
                .iter()
                .map(|&c| (c, self.units_on(*platform, self.cfg.class(c).total_units())))
                .collect();
            Some(RunMeter::new(
                &self.metrics,
                platform,
                net_link,
                &class_units,
            ))
        } else {
            None
        };

        let mut t = SimTime::ZERO;
        let mut reports = Vec::with_capacity(layers.len());
        let mut mac_active_j = 0.0;
        let mut active_idle_correction_j = 0.0;
        let mut bits_moved = 0u64;
        let overhead = SimTime::from_ns(calib.layer_overhead_ns);
        // With weight prefetching, layer i+1's weight streams are issued
        // at layer i's start (weights are static; the FIFO servers then
        // naturally overlap them with layer i's tail traffic).
        let mut prev_start: Option<SimTime> = None;
        // Without it, the first occurrence of each shape is simulated
        // and its later ones reuse that timing (see `RunPlan::execute`).
        let mut memo: Vec<Option<Simulated>> = if calib.prefetch_weights {
            Vec::new()
        } else {
            vec![None; placements.len()]
        };

        for (w, shape) in layers {
            let placement = &placements[shape];
            let mut compute_s = 0.0f64;
            let mut layer_mac_j = 0.0f64;
            let mut share_samples: Vec<(MacClass, f64, f64)> = Vec::new();
            for share in self.share_spans(*platform, placement, contention) {
                let ShareSpan {
                    class,
                    unit,
                    units,
                    alloc,
                    secs,
                } = share;
                compute_s = compute_s.max(secs);
                let share_j = unit.active_energy_j(units, secs) * alloc;
                mac_active_j += share_j;
                layer_mac_j += share_j;
                active_idle_correction_j += unit.idle_power_w() * units as f64 * alloc * secs;
                if meter.is_some() {
                    share_samples.push((class, secs, units as f64 * alloc));
                }
            }
            let io = LayerIo::new(w, placement);

            // Reconfiguration (photonic platform only): announce this
            // layer's demand so the ReSiPI controller can scale gateways.
            let stall = match &mut backend {
                Backend::Siph { net, .. } => {
                    net.reconfigure(t, &self.resipi_demand(&io, compute_s, bw_share))
                }
                _ => SimTime::ZERO,
            };
            let start = advance(t, stall + overhead, contention)?;

            // Inbound streams: weights (sharded) + activations (broadcast).
            let weight_issue = if calib.prefetch_weights {
                prev_start.unwrap_or(start)
            } else {
                start
            };
            prev_start = Some(start);
            let compute_span = SimTime::from_secs_f64(compute_s);
            let compute_end = advance(start, compute_span, contention)?;
            let times = match memo.get(shape) {
                Some(Some(first)) => {
                    // A repeat over idle links: the first occurrence's
                    // timing, moved to this start, and its accounting.
                    let shift = start - first.start;
                    backend.replay(&io, &first.mesh, shift);
                    first.times.shifted(shift)
                }
                _ => {
                    let mut mesh = Vec::new();
                    let times = backend.simulate(&io, weight_issue, start, compute_end, &mut mesh);
                    if let Some(slot) = memo.get_mut(shape) {
                        *slot = Some(Simulated { start, times, mesh });
                    }
                    times
                }
            };
            let LayerTimes {
                hbm_in_fin,
                net_in_fin,
                compute_fin,
                hbm_out_fin,
                net_out_fin,
            } = times;
            let comm_in_fin = hbm_in_fin.max(net_in_fin);
            let layer_fin = times.finish();
            if layer_fin > HORIZON {
                return Err(beyond_horizon(contention));
            }

            bits_moved += w.total_bits();

            if self.tracer.enabled() {
                let kernel = kernel_label(w.class);
                // Flow-level attribution: when the contention model
                // carries a modeled bottleneck, the fabric spans name
                // the link that froze this stream's allocation.
                let net_args = |dir: &'static str| -> Vec<(&'static str, ArgValue)> {
                    let mut args = vec![("dir", ArgValue::from(dir))];
                    if let Some((link, gbps)) = contention.bottleneck() {
                        args.push(("bottleneck", ArgValue::from(link)));
                        args.push(("alloc_gbps", ArgValue::F64(gbps)));
                    }
                    args
                };
                self.tracer.span(
                    trace_pid,
                    TID_OP,
                    "op",
                    &w.name,
                    t.as_ps(),
                    layer_fin.saturating_sub(t).as_ps(),
                    vec![
                        ("class", ArgValue::from(format!("{:?}", placement.class))),
                        ("kernel", ArgValue::from(kernel.as_str())),
                        ("bits", ArgValue::U64(w.total_bits())),
                        ("macs", ArgValue::U64(w.macs)),
                    ],
                );
                self.tracer.span(
                    trace_pid,
                    TID_COMPUTE,
                    &format!("kernel:{kernel}"),
                    &w.name,
                    compute_fin.saturating_sub(compute_span).as_ps(),
                    compute_span.as_ps(),
                    Vec::new(),
                );
                self.tracer.span(
                    trace_pid,
                    TID_HBM,
                    "link:hbm",
                    &w.name,
                    weight_issue.as_ps(),
                    hbm_in_fin.saturating_sub(weight_issue).as_ps(),
                    vec![("dir", ArgValue::from("in"))],
                );
                self.tracer.span(
                    trace_pid,
                    TID_NET,
                    net_cat,
                    &w.name,
                    weight_issue.as_ps(),
                    net_in_fin.saturating_sub(weight_issue).as_ps(),
                    net_args("in"),
                );
                self.tracer.span(
                    trace_pid,
                    TID_HBM,
                    "link:hbm",
                    &w.name,
                    compute_fin.as_ps(),
                    hbm_out_fin.saturating_sub(compute_fin).as_ps(),
                    vec![("dir", ArgValue::from("out"))],
                );
                self.tracer.span(
                    trace_pid,
                    TID_NET,
                    net_cat,
                    &w.name,
                    compute_fin.as_ps(),
                    net_out_fin.saturating_sub(compute_fin).as_ps(),
                    net_args("out"),
                );
            }

            if let Some(m) = &meter {
                // Per-class utilization: each share's end-aligned span,
                // weighted by the fraction of the class's units it kept
                // busy — a window's sum over the window width is the
                // class utilization in that window.
                for (class, share_s, busy_units) in &share_samples {
                    if let Some((id, total_units)) = m.compute_id(*class) {
                        let span = SimTime::from_secs_f64(*share_s);
                        let dur = span.as_ps();
                        if dur > 0 && total_units > 0.0 {
                            let start = compute_fin.saturating_sub(span).as_ps();
                            m.reg
                                .add_span(id, start, dur, dur as f64 * (busy_units / total_units));
                        }
                    }
                }
                // Link-family occupancy: inbound streams start at weight
                // issue, write-back at compute finish.
                m.link_span(m.hbm, weight_issue, hbm_in_fin);
                m.link_span(m.net, weight_issue, net_in_fin);
                m.link_span(m.hbm, compute_fin, hbm_out_fin);
                m.link_span(m.net, compute_fin, net_out_fin);
                // Energy rate: the layer's active MAC energy spread over
                // its compute span (joules per window).
                m.reg.add_span(
                    m.mac_active,
                    compute_fin.saturating_sub(compute_span).as_ps(),
                    compute_span.as_ps(),
                    layer_mac_j,
                );
            }

            reports.push(LayerReport {
                name: w.name.clone(),
                class: placement.class,
                start: t,
                finish: layer_fin,
                compute_s,
                comm_in_s: comm_in_fin.saturating_sub(start).as_secs_f64(),
                comm_out_s: layer_fin.saturating_sub(compute_fin).as_secs_f64(),
                bits: w.total_bits(),
            });
            t = layer_fin;
        }

        let total_s = t.as_secs_f64();

        // MAC idle energy: every unit of the platform idles (locked) for
        // the whole run, minus the spans where it was counted active.
        let idle_power_total: f64 = MacClass::all()
            .iter()
            .map(|&c| {
                let unit = MacUnit::new(c, calib);
                unit.idle_power_w()
                    * self.units_on(*platform, self.cfg.class(c).total_units()) as f64
            })
            .sum();
        let mac_idle_j = (idle_power_total * total_s - active_idle_correction_j).max(0.0);

        let (network_j, memory_j) = match backend {
            Backend::Siph { mut net, hbm } => {
                let report = net.finalize(t);
                (
                    report.energy_j,
                    hbm.total_energy_j() + hbm.static_power_w() * total_s,
                )
            }
            Backend::Elec { net, hbm, .. } => (
                net.total_energy_j() + (net.static_power_w() + calib.elec_phy_static_w) * total_s,
                hbm.total_energy_j() + hbm.static_power_w() * total_s,
            ),
            Backend::Mono { bus, hbm } => {
                // On-chip distribution energy (~0.3 pJ/bit of short
                // global wiring) plus the monolithic chip's photonic
                // network power floor (broadcast laser + ring tuning).
                let dist_j = 0.3e-12 * bus.served_bits() as f64 + calib.mono_static_w * total_s;
                (
                    dist_j,
                    hbm.total_energy_j() + hbm.static_power_w() * total_s,
                )
            }
        };

        let energy = EnergyBreakdown {
            mac_j: mac_active_j + mac_idle_j,
            network_j,
            memory_j,
            digital_j: calib.digital_static_w * total_s,
        };
        if self.tracer.enabled() {
            let end_ps = t.as_ps();
            self.tracer
                .counter(trace_pid, "energy.mac_j", end_ps, energy.mac_j);
            self.tracer
                .counter(trace_pid, "energy.network_j", end_ps, energy.network_j);
            self.tracer
                .counter(trace_pid, "energy.memory_j", end_ps, energy.memory_j);
            self.tracer
                .counter(trace_pid, "energy.digital_j", end_ps, energy.digital_j);
        }
        if let Some(m) = &meter {
            let end_ps = t.as_ps();
            let p = platform.label();
            for (component, value) in [
                ("mac", energy.mac_j),
                ("network", energy.network_j),
                ("memory", energy.memory_j),
                ("digital", energy.digital_j),
            ] {
                let id = m.reg.counter(&format!(
                    "runner_energy_total_j{{platform=\"{p}\",component=\"{component}\"}}"
                ));
                m.reg.add(id, end_ps, value);
            }
            // Flow-level attribution: the modeled bottleneck link and
            // the absolute throughput this stream was allocated there.
            if let Some((link, gbps)) = contention.bottleneck() {
                let id = m.reg.gauge(&format!(
                    "runner_bottleneck_gbps{{platform=\"{p}\",link=\"{link}\"}}"
                ));
                m.reg.set(id, end_ps, gbps);
            }
        }

        Ok(RunReport {
            model: model_name.to_owned(),
            platform: *platform,
            total_latency: t,
            energy,
            bits_moved,
            layers: reports,
        })
    }

    /// Runs a batch of `batch` inferences with layer-level weight reuse:
    /// weights stream from memory once per layer while activations,
    /// outputs, and compute scale with the batch — the standard
    /// throughput mode that amortizes weight traffic (an extension
    /// beyond the paper's single-inference evaluation).
    ///
    /// # Errors
    ///
    /// Same as [`Runner::run`].
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn run_batch(
        &self,
        platform: &Platform,
        model: &Model,
        batch: u32,
    ) -> Result<RunReport, CoreError> {
        assert!(batch > 0, "batch must be at least 1");
        let workloads: Vec<lumos_dnn::LayerWorkload> = extract_workloads(model, self.cfg.precision)
            .into_iter()
            .map(|mut w| {
                w.dot_products *= batch as u64;
                w.macs *= batch as u64;
                w.input_bits *= batch as u64;
                w.output_bits *= batch as u64;
                w
            })
            .collect();
        let name = format!("{} (batch {batch})", model.name());
        self.run_workloads(platform, &name, &workloads)
    }

    /// Runs every Table 2 model on `platform`, in the paper's row order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CoreError`] encountered.
    pub fn run_table2(&self, platform: &Platform) -> Result<Vec<RunReport>, CoreError> {
        lumos_dnn::zoo::table2_models()
            .iter()
            .map(|m| self.run(platform, m))
            .collect()
    }

    fn build_backend(
        &self,
        platform: &Platform,
        contention: &ContentionModel,
    ) -> Result<Backend, CoreError> {
        let calib = &self.cfg.calibration;
        // Time-shared links: this stream sees `bw` of every link's rate
        // (per-wavelength optical rate, mesh link clock, HBM channel
        // rate, monolithic bus). At bw = 1.0 every rate is untouched.
        let bw = contention.bandwidth_share();
        // A link server keeps its rate in whole Mb/s and runs a slower
        // one at one Mb/s, faster than allocated: refuse a share that
        // derates a link that far.
        let derate = |link: &str, gbps: f64| {
            if gbps >= BandwidthServer::RESOLUTION_GBPS {
                Ok(())
            } else {
                Err(CoreError::BadConfig {
                    reason: format!(
                        "bandwidth share {bw:?} derates the {link} to {gbps:?} Gb/s, \
                         below the {} Gb/s a link server resolves",
                        BandwidthServer::RESOLUTION_GBPS
                    ),
                })
            }
        };
        let mut hbm_cfg = self.cfg.hbm;
        hbm_cfg.channel_rate_gbps *= bw;
        derate("HBM channel", hbm_cfg.channel_rate_gbps)?;
        Ok(match platform {
            Platform::Siph2p5D => {
                let mut phnet_cfg = self.cfg.phnet.clone();
                phnet_cfg.rate_gbps *= bw;
                derate("interposer wavelength", phnet_cfg.rate_gbps)?;
                Backend::Siph {
                    net: Box::new(PhotonicInterposer::new(phnet_cfg)?),
                    hbm: HbmStack::new(hbm_cfg),
                }
            }
            Platform::Elec2p5D => {
                // 3×3 mesh: memory at the centre, compute chiplets around
                // it in id order (Fig. 3's floorplan); the stream sees
                // its bandwidth share as a derated link clock.
                derate(
                    "mesh link",
                    LinkModel::paper_table1(calib.hop_mm_2p5d).bandwidth_gbps() * bw,
                )?;
                let net = MeshNetwork::paper_table1_scaled(3, 3, calib.hop_mm_2p5d, bw);
                let mem = Coord::new(1, 1);
                let positions: Vec<Coord> = (0..3u32)
                    .flat_map(|y| (0..3u32).map(move |x| Coord::new(x, y)))
                    .filter(|&c| c != mem)
                    .collect();
                if positions.len() < self.cfg.compute_chiplets() {
                    return Err(CoreError::BadConfig {
                        reason: format!(
                            "3x3 interposer fits 8 compute chiplets, platform has {}",
                            self.cfg.compute_chiplets()
                        ),
                    });
                }
                Backend::Elec {
                    net: Box::new(net),
                    hbm: HbmStack::new(hbm_cfg),
                    mem,
                    positions,
                    packet_bits: calib.elec_packet_bits,
                }
            }
            Platform::Monolithic => {
                derate("memory bus", calib.mono_mem_gbps * bw)?;
                Backend::Mono {
                    bus: BandwidthServer::new(calib.mono_mem_gbps * bw),
                    hbm: HbmStack::new(hbm_cfg),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_dnn::zoo;

    fn runner() -> Runner {
        Runner::new(PlatformConfig::paper_table1())
    }

    #[test]
    fn lenet_runs_on_all_platforms() {
        let r = runner();
        for p in Platform::all() {
            let report = r.run(&p, &zoo::lenet5()).expect("lenet runs");
            assert_eq!(report.layers.len(), 6); // 5 weighted + softmax
            assert!(report.total_latency > SimTime::ZERO, "{p}");
            assert!(report.energy.total_j() > 0.0, "{p}");
            assert!(report.bits_moved > 0, "{p}");
        }
    }

    #[test]
    fn siph_beats_elec_on_large_models() {
        let r = runner();
        let siph = r
            .run(&Platform::Siph2p5D, &zoo::resnet50())
            .expect("resnet50 runs on 2.5D-SiPh");
        let elec = r
            .run(&Platform::Elec2p5D, &zoo::resnet50())
            .expect("resnet50 runs on 2.5D-Elec");
        assert!(
            siph.total_latency < elec.total_latency,
            "siph {} vs elec {}",
            siph.total_latency,
            elec.total_latency
        );
    }

    #[test]
    fn siph_beats_mono_on_large_models() {
        let r = runner();
        let siph = r
            .run(&Platform::Siph2p5D, &zoo::vgg16())
            .expect("vgg16 runs on 2.5D-SiPh");
        let mono = r
            .run(&Platform::Monolithic, &zoo::vgg16())
            .expect("vgg16 runs on monolithic CrossLight");
        assert!(siph.total_latency < mono.total_latency);
    }

    #[test]
    fn mono_competitive_on_lenet() {
        // Paper §VI: for very small models the 2.5D photonic overheads
        // dominate and monolithic wins.
        let r = runner();
        let siph = r
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect("lenet5 runs on 2.5D-SiPh");
        let mono = r
            .run(&Platform::Monolithic, &zoo::lenet5())
            .expect("lenet5 runs on monolithic CrossLight");
        assert!(
            mono.epb_nj() < siph.epb_nj(),
            "mono EPB {} should beat siph {} on LeNet5",
            mono.epb_nj(),
            siph.epb_nj()
        );
    }

    #[test]
    fn layer_reports_are_causal() {
        let r = runner();
        let report = r
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect("lenet5 runs on 2.5D-SiPh");
        let mut last = SimTime::ZERO;
        for l in &report.layers {
            assert!(
                l.start >= last,
                "layer {} starts before predecessor",
                l.name
            );
            assert!(l.finish >= l.start);
            last = l.finish;
        }
        assert_eq!(report.total_latency, last);
    }

    #[test]
    fn energy_breakdown_components_positive() {
        let r = runner();
        let report = r
            .run(&Platform::Siph2p5D, &zoo::densenet121())
            .expect("densenet121 runs on 2.5D-SiPh");
        assert!(report.energy.mac_j > 0.0);
        assert!(report.energy.network_j > 0.0);
        assert!(report.energy.memory_j > 0.0);
        assert!(report.energy.digital_j > 0.0);
    }

    #[test]
    fn bits_moved_matches_workloads() {
        use lumos_dnn::workload::{extract_workloads, totals, Precision};
        let r = runner();
        let model = zoo::mobilenet_v2();
        let report = r
            .run(&Platform::Monolithic, &model)
            .expect("mobilenet_v2 runs on monolithic CrossLight");
        let t = totals(&extract_workloads(&model, Precision::int8()));
        assert_eq!(report.bits_moved, t.total_bits);
    }

    #[test]
    fn batching_amortizes_weight_traffic() {
        let r = runner();
        let model = zoo::vgg16(); // weight-dominated
        let single = r
            .run(&Platform::Siph2p5D, &model)
            .expect("vgg16 runs on 2.5D-SiPh");
        let batched = r
            .run_batch(&Platform::Siph2p5D, &model, 4)
            .expect("vgg16 batch-4 runs on 2.5D-SiPh");
        // Weights counted once: traffic grows by less than 4x.
        assert!(batched.bits_moved < 4 * single.bits_moved);
        // Throughput improves: batch-4 latency < 4x single latency.
        assert!(
            batched.total_latency.as_secs_f64() < 4.0 * single.total_latency.as_secs_f64(),
            "batching should amortize: {} vs 4x {}",
            batched.total_latency,
            single.total_latency
        );
        // Name records the batch.
        assert!(batched.model.contains("batch 4"));
    }

    #[test]
    fn batch_one_equals_single_run() {
        let r = runner();
        let single = r
            .run(&Platform::Monolithic, &zoo::lenet5())
            .expect("lenet5 runs on monolithic CrossLight");
        let batch1 = r
            .run_batch(&Platform::Monolithic, &zoo::lenet5(), 1)
            .expect("lenet5 batch-1 runs on monolithic CrossLight");
        assert_eq!(single.total_latency, batch1.total_latency);
        assert_eq!(single.bits_moved, batch1.bits_moved);
    }

    #[test]
    fn csv_trace_lists_all_layers() {
        let r = runner();
        let report = r
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect("lenet5 runs on 2.5D-SiPh");
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + report.layers.len());
        assert!(lines[0].starts_with("layer,class,start_us"));
        assert!(lines[1].starts_with("c1,"));
    }

    #[test]
    fn prefetch_never_hurts_and_helps_comm_bound() {
        let model = zoo::vgg16();
        let base = Runner::new(PlatformConfig::paper_table1());
        let mut cfg = PlatformConfig::paper_table1();
        cfg.calibration.prefetch_weights = true;
        let pre = Runner::new(cfg);
        for p in Platform::all() {
            let without = base.run(&p, &model).expect("vgg16 runs without prefetch");
            let with = pre.run(&p, &model).expect("vgg16 runs with prefetch");
            assert!(
                with.total_latency <= without.total_latency,
                "{p}: prefetch regressed {} -> {}",
                without.total_latency,
                with.total_latency
            );
        }
        // The packetized electrical platform is weight-stream bound on
        // VGG16's FC layers; prefetch must buy a visible win there.
        let without = base
            .run(&Platform::Elec2p5D, &model)
            .expect("vgg16 runs on 2.5D-Elec without prefetch");
        let with = pre
            .run(&Platform::Elec2p5D, &model)
            .expect("vgg16 runs on 2.5D-Elec with prefetch");
        assert!(
            with.latency_ms() < 0.98 * without.latency_ms(),
            "prefetch should overlap FC weight streams: {} vs {}",
            with.latency_ms(),
            without.latency_ms()
        );
    }

    #[test]
    fn batched_gemm_schedule_runs_on_all_platforms() {
        use lumos_dnn::workload::{KernelClass, LayerWorkload};
        let make = |name: &str, m: u32, n: u32, k: u32, batch: u32| {
            let dots = batch as u64 * m as u64 * n as u64;
            LayerWorkload {
                name: name.into(),
                class: KernelClass::Gemm { m, n, k, batch },
                dot_products: dots,
                dot_length: k as u64,
                window: k as u64,
                macs: dots * k as u64,
                weight_bits: (n as u64 * k as u64) * 8,
                input_bits: (batch as u64 * m as u64 * k as u64) * 8,
                output_bits: dots * 8,
            }
        };
        let work = vec![
            make("qkv", 128, 2304, 768, 2),
            make("scores", 128, 128, 64, 24),
            make("ff1", 128, 3072, 768, 2),
        ];
        let r = runner();
        for p in Platform::all() {
            let report = r.run_workloads(&p, "gemm-smoke", &work).expect("runs");
            assert_eq!(report.layers.len(), 3);
            assert!(report.total_latency > SimTime::ZERO, "{p}");
            assert!(report.energy.total_j() > 0.0, "{p}");
            assert!(report.avg_power_w().is_finite(), "{p}");
        }
    }

    #[test]
    fn uncontended_scaled_run_matches_plain_run() {
        // `run_workloads` delegates to the scaled path, so the equality
        // below only proves the delegation is consistent; the golden
        // latencies pin the *pre-contention-refactor* runner behavior
        // (the quickstart reference numbers) so a share-1.0 multiply
        // that stops being an exact identity cannot slip through.
        let golden_ms = [
            (Platform::Monolithic, 7.823),
            (Platform::Elec2p5D, 34.984),
            (Platform::Siph2p5D, 1.068),
        ];
        let r = runner();
        let work = extract_workloads(&zoo::resnet50(), r.config().precision);
        for (p, expected_ms) in golden_ms {
            let plain = r
                .run_workloads(&p, "resnet50", &work)
                .expect("resnet50 plain run");
            let scaled = r
                .run_workloads_scaled(&p, "resnet50", &work, &ContentionModel::uncontended())
                .expect("resnet50 uncontended scaled run");
            assert_eq!(plain.total_latency, scaled.total_latency, "{p}");
            assert_eq!(plain.energy, scaled.energy, "{p}");
            assert_eq!(plain.bits_moved, scaled.bits_moved, "{p}");
            assert!(
                (scaled.latency_ms() - expected_ms).abs() < 5e-4,
                "{p}: {} ms drifted from the pre-refactor {expected_ms} ms",
                scaled.latency_ms()
            );
        }
    }

    #[test]
    fn half_share_dilates_latency_but_bounds_at_double() {
        let r = runner();
        let work = extract_workloads(&zoo::resnet50(), r.config().precision);
        let half = ContentionModel::of_resident_streams(2);
        for p in Platform::all() {
            let full = r
                .run_workloads(&p, "resnet50", &work)
                .expect("resnet50 full-platform run");
            let shared = r
                .run_workloads_scaled(&p, "resnet50", &work, &half)
                .expect("resnet50 half-share run");
            assert!(
                shared.total_latency > full.total_latency,
                "{p}: half a platform must be slower"
            );
            // Per-layer overheads and conversion latencies do not scale,
            // so halving every rate at most doubles the latency.
            assert!(
                shared.total_latency.as_secs_f64() <= 2.0 * full.total_latency.as_secs_f64() + 1e-9,
                "{p}: {} vs 2x {}",
                shared.total_latency,
                full.total_latency
            );
            assert_eq!(shared.bits_moved, full.bits_moved, "{p}: traffic conserved");
        }
    }

    #[test]
    fn contention_conserves_active_mac_energy() {
        // The same passes run on a quarter of the units for 4x as long:
        // active MAC energy (work x power) must not change. Compare on
        // a compute-bound model where the MAC term dominates.
        let r = runner();
        let work = extract_workloads(&zoo::vgg16(), r.config().precision);
        let full = r
            .run_workloads(&Platform::Siph2p5D, "vgg16", &work)
            .expect("vgg16 full-platform run");
        let quarter = r
            .run_workloads_scaled(
                &Platform::Siph2p5D,
                "vgg16",
                &work,
                &ContentionModel::of_resident_streams(4),
            )
            .expect("vgg16 quarter-share run");
        // mac_j also folds in idle energy over the (longer) run, so
        // compare loosely: the active component is invariant, the idle
        // component grows at most with the latency dilation.
        assert!(quarter.energy.mac_j >= full.energy.mac_j);
        assert!(
            quarter.energy.mac_j
                <= full.energy.mac_j
                    * (quarter.total_latency.as_secs_f64() / full.total_latency.as_secs_f64())
                    + 1e-9
        );
    }

    #[test]
    fn invalid_contention_shares_rejected() {
        let r = runner();
        let work = extract_workloads(&zoo::lenet5(), r.config().precision);
        let err = r
            .run_workloads_scaled(
                &Platform::Siph2p5D,
                "lenet5",
                &work,
                &ContentionModel::uniform(0.0),
            )
            .expect_err("zero share must be rejected");
        assert!(err.to_string().contains("share"));
    }

    #[test]
    fn traced_run_identical_to_untraced_and_attributes_every_layer() {
        use lumos_trace::{Attribution, EventKind};
        let plain = runner();
        for p in Platform::all() {
            let base = plain.run(&p, &zoo::lenet5()).expect("untraced run");
            let traced_runner = runner().with_tracer(Tracer::ring(1 << 14));
            let traced = traced_runner.run(&p, &zoo::lenet5()).expect("traced run");
            // Tracing must not perturb a single simulated number.
            assert_eq!(base.total_latency, traced.total_latency, "{p}");
            assert_eq!(base.energy, traced.energy, "{p}");
            assert_eq!(base.bits_moved, traced.bits_moved, "{p}");

            let events = traced_runner.tracer().drain();
            let op_spans = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Span { .. }) && e.cat == "op")
                .count();
            assert_eq!(op_spans, traced.layers.len(), "{p}: one op span per layer");
            assert!(
                events
                    .iter()
                    .all(|e| e.pid == p.trace_pid() || e.cat == "__metadata"),
                "{p}: events land in the platform's process"
            );
            let attribution = Attribution::of_spans(&events);
            assert!(
                attribution
                    .rows()
                    .iter()
                    .any(|r| r.cat.starts_with("kernel:")),
                "{p}: kernel categories attributed"
            );
            assert!(
                attribution
                    .rows()
                    .iter()
                    .any(|r| r.cat.starts_with("link:")),
                "{p}: link categories attributed"
            );
            let energy_counters = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Counter { .. }))
                .count();
            assert_eq!(energy_counters, 4, "{p}: four energy counters");
        }
        // The default runner traces nothing at zero cost.
        assert!(!plain.tracer().enabled());
    }

    #[test]
    fn metered_run_identical_to_unmetered_with_utilization_series() {
        use lumos_metrics::MetricKind;
        let plain = runner();
        for p in Platform::all() {
            let base = plain.run(&p, &zoo::lenet5()).expect("unmetered run");
            // 10 µs windows resolve LeNet5's sub-ms runs.
            let metered_runner = runner().with_metrics(MetricsRegistry::windowed(10_000_000, 256));
            let metered = metered_runner.run(&p, &zoo::lenet5()).expect("metered run");
            // Metering must not perturb a single simulated number.
            assert_eq!(base.total_latency, metered.total_latency, "{p}");
            assert_eq!(base.energy, metered.energy, "{p}");
            assert_eq!(base.bits_moved, metered.bits_moved, "{p}");

            let snap = metered_runner.metrics().snapshot();
            assert!(
                snap.series
                    .iter()
                    .any(|s| s.base_name() == "runner_compute_busy_ps"
                        && s.total_sum > 0.0
                        && s.kind == MetricKind::Counter),
                "{p}: compute utilization series recorded"
            );
            assert!(
                snap.series
                    .iter()
                    .any(|s| s.name.contains("link=\"hbm\"") && s.total_sum > 0.0),
                "{p}: HBM occupancy recorded"
            );
            // Four end-of-run energy totals, each matching the report.
            let totals: Vec<_> = snap
                .series
                .iter()
                .filter(|s| s.base_name() == "runner_energy_total_j")
                .collect();
            assert_eq!(totals.len(), 4, "{p}");
            let mac = totals
                .iter()
                .find(|s| s.name.contains("component=\"mac\""))
                .expect("mac energy total");
            assert_eq!(mac.total_sum, metered.energy.mac_j, "{p}");
            // Utilization never exceeds 1: every window's busy-ps sum is
            // bounded by the (effective) window width.
            for s in snap
                .series
                .iter()
                .filter(|s| s.base_name() == "runner_compute_busy_ps")
            {
                for w in &s.windows {
                    assert!(
                        w.sum <= s.window_ps as f64 * (1.0 + 1e-9),
                        "{p}: {} window at {} ps overfull: {}",
                        s.name,
                        w.start_ps,
                        w.sum
                    );
                }
            }
        }
        // The default runner meters nothing at zero cost.
        assert!(!plain.metrics().enabled());
    }

    #[test]
    fn deterministic_runs() {
        let r = runner();
        let a = r
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect("lenet5 first run on 2.5D-SiPh");
        let b = r
            .run(&Platform::Siph2p5D, &zoo::lenet5())
            .expect("lenet5 second run on 2.5D-SiPh");
        assert_eq!(a.total_latency, b.total_latency);
        assert_eq!(a.energy, b.energy);
    }
}
