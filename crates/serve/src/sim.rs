//! The open-loop serving simulation: Poisson arrivals, policy-driven
//! admission, and processor-sharing execution.
//!
//! # Mechanics
//!
//! Arrivals for each model are generated up front from a forked
//! [`SimRng`] stream (exponential inter-arrivals at the model's offered
//! rate) and merged in time order, so the traffic is deterministic in
//! the seed and independent of scheduling.
//!
//! At most [`ServeConfig::max_concurrency`] layer streams are
//! *resident* at once; the rest queue per model and the configured
//! [`ServePolicy`] picks which queue head is admitted when a slot
//! frees. Resident streams progress under processor sharing: under the
//! default [`SharePolicy::Uniform`] discipline, `k` resident streams
//! each hold a `1/k` slice of every MAC class and link
//! ([`ContentionModel::of_resident_streams`]), so a stream's
//! remaining-work fraction drains at rate `1 / service_s(k)` from its
//! model's tabulated [`ServiceProfiles`]. Every arrival, admission, and
//! completion re-evaluates the rates — the classic generalized
//! processor-sharing queue, but with service times that come from the
//! platform simulator instead of a closed form.
//!
//! [`SharePolicy::SloPressure`] replaces the uniform split with
//! EDF-slack weighting: each resident stream is weighted by the
//! inverse of its time-to-deadline (floored at 1 µs, so overdue
//! streams saturate rather than diverge), shares are the normalized
//! weights, and per-stream service times come from the same tabulated
//! profiles via share-space interpolation
//! ([`ModelProfile::stage_service_at_share`]). Shares are frozen
//! between events — the standard event-driven approximation of a
//! continuously drifting weight.
//!
//! A **generator** model ([`ServedModel::generator`]) runs each
//! request through multiple stages — prefill, then one KV-cached
//! decode step per token — without releasing its residency slot
//! between stages. Stage-0 completion records time-to-first-token;
//! every decode-stage completion emits a token and records the gap
//! since the previous stage as per-token latency.
//!
//! # Continuous batching
//!
//! One event loop runs every batching policy. The decode phase runs at
//! token granularity: resident generations of the same model coalesce
//! into per-model **batch groups** that advance through shared *decode
//! ticks* — one batched-GEMV stage per tick, with service times from
//! the profile's batch planes
//! ([`ModelProfile::batched_stage_service`]). A generation whose
//! prefill just finished joins a running group at that group's next
//! tick boundary when one has space, and otherwise starts a fresh
//! group immediately; finished generations are evicted at the boundary
//! without stalling the survivors; leftover waiters regroup at every
//! boundary, so no generation waits longer than one tick. Prefills are
//! never batched — each executes as its own stream alongside the
//! groups.
//!
//! Per-stream decode ([`BatchPolicy::PerStream`]) is the cap-1 case:
//! every group is a singleton that never waits and reads the per-stream
//! stage table, of which batch plane 1 is a bit-for-bit copy. So
//! `Continuous { max_batch: 1 }` schedules exactly like per-stream
//! decode; the policies differ only in what a decode tick reports —
//! tick stats, a `serve_batch_occupancy` observation and a
//! `decode-tick` span under continuous batching, the request's own
//! `decode` segment per-stream.
//!
//! # Cost of an event
//!
//! An event costs in proportion to what changed. Under uniform sharing
//! the streams that run one model's stage with one member count hold
//! one service time at an event, so the loop computes one service and
//! one `dt / service` per such **service group** (under SLO-pressure
//! weights each stream is its own group), and finds the earliest
//! completion in the pass that assigns them. Flow-level shares come
//! from a graph of the residency mixes the run meets: an event walks
//! from the previous mix's node by a few integer compares instead of
//! hashing its mix, and water-fills a mix once. Each stream still sees
//! exactly the float operations it would see on its own: the service
//! its own lookup returns, `dt / service`, `(remaining - step).max(0)`
//! and `now + remaining * service`, with ties to the lowest stream
//! index. So grouping never moves a report bit.
//!
//! # Horizon censoring
//!
//! The simulation hard-stops at the horizon: requests still queued or
//! in flight count as arrived but not served, which is what makes
//! saturation visible (served throughput plateaus at capacity while
//! arrivals keep growing). Those censored requests contribute **no**
//! latency or queue-delay samples — a queued request that would have
//! blown its SLO is invisible to `slo_attainment` — so saturation
//! diagnostics must look at the explicit
//! [`in_flight`](ModelServeStats::in_flight) and
//! [`queued_at_horizon`](ModelServeStats::queued_at_horizon) counts,
//! which satisfy `arrived == served + in_flight + queued_at_horizon`
//! per model.
//!
//! [`ContentionModel::of_resident_streams`]: lumos_core::contention::ContentionModel::of_resident_streams
//! [`ModelProfile::stage_service_at_share`]: crate::profile::ModelProfile::stage_service_at_share
//! [`ModelProfile::batched_stage_service`]: crate::profile::ModelProfile::batched_stage_service
//! [`ServedModel::generator`]: crate::config::ServedModel::generator
//! [`BatchPolicy::PerStream`]: lumos_dse::BatchPolicy::PerStream
//! [`ModelServeStats::in_flight`]: crate::report::ModelServeStats::in_flight
//! [`ModelServeStats::queued_at_horizon`]: crate::report::ModelServeStats::queued_at_horizon

use std::collections::{HashMap, VecDeque};

use lumos_core::flow::{max_min_shares, FlowRoute};
use lumos_dse::{ContentionKind, ServePolicy, SharePolicy};
use lumos_metrics::{MetricId, MetricsRegistry, MetricsSnapshot};
use lumos_sim::SimRng;
use lumos_trace::{ps_from_secs as ps, ArgValue, TraceEvent, Tracer};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::profile::{build_profiles, FlowModel, ModelProfile, ServiceProfiles};
use crate::report::{BatchStats, ModelServeStats, Percentiles, ServeReport};

/// A request waiting for admission.
#[derive(Debug, Clone, Copy)]
struct Pending {
    model: usize,
    arrival_s: f64,
    /// Trace identity: position in the merged arrival order (stable
    /// across reruns of one config).
    id: u64,
}

/// A request holding a residency slot.
#[derive(Debug, Clone, Copy)]
struct Resident {
    model: usize,
    arrival_s: f64,
    admitted_s: f64,
    /// Admission order within the run — what orders the execution
    /// streams.
    seq: u64,
    /// Stage currently executing (0 = single-pass stream or prefill;
    /// `1..` = decode steps).
    stage: usize,
    /// Completion time of the previous stage (admission time while
    /// stage 0 runs) — the per-token latency baseline.
    last_boundary_s: f64,
    /// Trace identity inherited from the [`Pending`] arrival.
    id: u64,
    /// Trace lane (residency-slot tid) held from admission to
    /// completion.
    lane: u32,
}

/// One execution stream: a stage-0 resident running alone (a
/// single-pass request or a prefill), or a decode group — co-resident
/// generations of one model advancing through shared decode ticks.
#[derive(Debug, Clone)]
struct Cohort {
    model: usize,
    /// Stage the stream executes: 0, or for a decode group the deepest
    /// member's decode stage (decode cost is nondecreasing in cache
    /// depth).
    stage: usize,
    /// Admission order of the earliest-admitted member: the stream
    /// order key.
    anchor: u64,
    /// Fraction of the current stage or tick still to execute.
    remaining: f64,
    /// When the current stage or tick started (trace only).
    started_s: f64,
    /// Members in joining order. Non-empty; one unless a decode group.
    members: Vec<Resident>,
    /// The [`ServiceSlots`] slot of the current stage or tick: its model,
    /// stage and member count.
    slot: usize,
}

impl Cohort {
    fn new(model: usize, members: Vec<Resident>, now: f64, slots: &ServiceSlots) -> Self {
        let mut cohort = Cohort {
            model,
            stage: 0,
            anchor: 0,
            remaining: 1.0,
            started_s: now,
            members,
            slot: 0,
        };
        cohort.restart(now, slots);
        cohort
    }

    /// Starts the next stage or tick at `now` over the current members.
    fn restart(&mut self, now: f64, slots: &ServiceSlots) {
        self.stage = self
            .members
            .iter()
            .map(|r| r.stage)
            .max()
            .expect("non-empty");
        self.anchor = self.members.iter().map(|r| r.seq).min().expect("non-empty");
        self.remaining = 1.0;
        self.started_s = now;
        self.slot = slots.slot(self.model, self.stage, self.members.len());
    }

    /// Service time of the current stage or tick as one of `k` streams
    /// sharing the platform uniformly. A singleton reads the per-stream
    /// stage table; a group of `b ≥ 2` reads batch plane `b`.
    fn service(&self, profile: &ModelProfile, k: usize) -> f64 {
        match self.members.len() {
            1 => profile.stage_service(self.stage, k),
            b => profile.batched_stage_service(self.stage, b, k),
        }
    }

    /// [`service`](Self::service) at an arbitrary platform share.
    fn service_at_share(&self, profile: &ModelProfile, share: f64) -> f64 {
        match self.members.len() {
            1 => profile.stage_service_at_share(self.stage, share),
            b => profile.batched_stage_service_at_share(self.stage, b, share),
        }
    }
}

/// One slot per (model, stage, member count) an execution stream can
/// run: model `m`'s `n_stages × cap[m]` slots are consecutive,
/// stage-major. Under uniform sharing the streams of one slot share
/// one service time at every event ([`Services`]).
struct ServiceSlots {
    /// Per-model batch-group cap: the configured cap (1 per-stream), clamped
    /// to the planes the profile actually tabulates.
    cap: Vec<usize>,
    /// Each model's first slot, then the slot count.
    base: Vec<usize>,
}

impl ServiceSlots {
    fn new(cfg: &ServeConfig, profiles: &ServiceProfiles) -> Self {
        let cap: Vec<usize> = profiles
            .models
            .iter()
            .map(|p| p.max_batch().min(cfg.effective_max_batch()).max(1))
            .collect();
        let mut base = vec![0];
        for (p, &cap) in profiles.models.iter().zip(&cap) {
            base.push(base[base.len() - 1] + p.n_stages() * cap);
        }
        ServiceSlots { cap, base }
    }

    fn len(&self) -> usize {
        self.base[self.base.len() - 1]
    }

    /// The slot of `model`'s stage `stage` run by `members` members
    /// (`1..=cap[model]`).
    fn slot(&self, model: usize, stage: usize, members: usize) -> usize {
        self.base[model] + stage * self.cap[model] + members - 1
    }
}

/// The trace context of one serving simulation: the [`Tracer`] plus
/// the pid/tid lane map. The pid is the platform's
/// ([`Platform::trace_pid`](lumos_core::Platform::trace_pid)); tid 0
/// is unused, tids `1..=max_concurrency` are residency-slot lanes (a
/// request holds one lane from admission to completion), and one
/// per-model queue lane follows. Every emission is keyed to the
/// virtual clock via [`ps_from_secs`](lumos_trace::ps_from_secs) and
/// guarded on [`Tracer::enabled`], so a disabled trace costs one
/// branch per site and never perturbs the schedule.
struct ServeTrace {
    tracer: Tracer,
    pid: u32,
    /// Occupancy flags of the residency-slot lanes.
    lanes: Vec<bool>,
    queue_tid_base: u32,
}

impl ServeTrace {
    fn new(cfg: &ServeConfig, tracer: Tracer) -> Self {
        let pid = cfg.platform.trace_pid();
        let queue_tid_base = 1 + cfg.max_concurrency as u32;
        if tracer.enabled() {
            tracer.name_process(pid, cfg.platform.label());
            for slot in 0..cfg.max_concurrency {
                tracer.name_thread(pid, 1 + slot as u32, &format!("slot {slot}"));
            }
            for (m, model) in cfg.models.iter().enumerate() {
                tracer.name_thread(
                    pid,
                    queue_tid_base + m as u32,
                    &format!("queue:{}", model.name),
                );
            }
        }
        ServeTrace {
            tracer,
            pid,
            lanes: vec![false; cfg.max_concurrency],
            queue_tid_base,
        }
    }

    fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn queue_tid(&self, model: usize) -> u32 {
        self.queue_tid_base + model as u32
    }

    fn lane_tid(lane: u32) -> u32 {
        1 + lane
    }

    /// Claims the smallest free residency-slot lane (lanes mirror the
    /// residency count, so one is always free when admitting).
    fn alloc_lane(&mut self) -> u32 {
        let lane = self
            .lanes
            .iter()
            .position(|&held| !held)
            .expect("a residency lane is free when admitting");
        self.lanes[lane] = true;
        lane as u32
    }

    fn free_lane(&mut self, lane: u32) {
        self.lanes[lane as usize] = false;
    }

    /// Marks a request's arrival on its model's queue lane.
    fn arrival(&self, p: &Pending) {
        if self.enabled() {
            self.tracer.instant(
                self.pid,
                self.queue_tid(p.model),
                "request",
                "arrive",
                ps(p.arrival_s),
                vec![("id", ArgValue::U64(p.id))],
            );
        }
    }

    /// Claims a lane for an admitted request, closing its queue span.
    fn admit(&mut self, p: &Pending, now: f64) -> u32 {
        let lane = self.alloc_lane();
        if self.enabled() {
            self.tracer.span(
                self.pid,
                self.queue_tid(p.model),
                "queue",
                "queued",
                ps(p.arrival_s),
                ps(now).saturating_sub(ps(p.arrival_s)),
                vec![("id", ArgValue::U64(p.id))],
            );
            self.tracer.instant(
                self.pid,
                Self::lane_tid(lane),
                "request",
                "admit",
                ps(now),
                vec![("id", ArgValue::U64(p.id))],
            );
        }
        lane
    }

    /// Closes the stage `r` just executed on its lane (`execute`,
    /// `prefill`, or `decode`), from its last stage boundary to `now`.
    fn segment(&self, r: &Resident, cat: &str, name: &str, now: f64) {
        if self.enabled() {
            self.tracer.span(
                self.pid,
                Self::lane_tid(r.lane),
                cat,
                name,
                ps(r.last_boundary_s),
                ps(now).saturating_sub(ps(r.last_boundary_s)),
                vec![
                    ("id", ArgValue::U64(r.id)),
                    ("stage", ArgValue::U64(r.stage as u64)),
                ],
            );
        }
    }

    /// Marks a generation parking for the next batch boundary.
    fn await_batch(&self, lane: u32, now: f64, id: u64) {
        if self.enabled() {
            self.tracer.instant(
                self.pid,
                Self::lane_tid(lane),
                "request",
                "await-batch",
                ps(now),
                vec![("id", ArgValue::U64(id))],
            );
        }
    }

    /// Closes one batched decode tick on the group anchor's lane.
    fn decode_tick(
        &self,
        lane: u32,
        name: &str,
        start_s: f64,
        now: f64,
        occupancy: usize,
        stage: usize,
    ) {
        if self.enabled() {
            self.tracer.span(
                self.pid,
                Self::lane_tid(lane),
                "decode-tick",
                name,
                ps(start_s),
                ps(now).saturating_sub(ps(start_s)),
                vec![
                    ("occupancy", ArgValue::U64(occupancy as u64)),
                    ("stage", ArgValue::U64(stage as u64)),
                ],
            );
        }
    }

    /// Marks a completion and frees the request's lane.
    fn complete(&mut self, lane: u32, now: f64, id: u64) {
        if self.enabled() {
            self.tracer.instant(
                self.pid,
                Self::lane_tid(lane),
                "request",
                "complete",
                ps(now),
                vec![("id", ArgValue::U64(id))],
            );
        }
        self.free_lane(lane);
    }

    /// Samples the `resident` / `queued` occupancy counter series.
    fn occupancy(&self, now: f64, resident: usize, queued: usize) {
        if self.enabled() {
            self.tracer
                .counter(self.pid, "resident", ps(now), resident as f64);
            self.tracer
                .counter(self.pid, "queued", ps(now), queued as f64);
        }
    }
}

/// The metering context of one serving simulation: a
/// [`MetricsRegistry`] plus the pre-registered series handles. Every
/// emission is keyed to the virtual clock via
/// [`ps_from_secs`](lumos_trace::ps_from_secs) and guarded on
/// [`MetricsRegistry::enabled`], so — like [`ServeTrace`] — a disabled
/// meter costs one branch per site and never perturbs the schedule.
///
/// Series registered (all labelled per model where noted):
/// `serve_resident` / `serve_queued` gauges (total occupancy sampled at
/// every event), `serve_queue_depth{model=}` gauges,
/// `serve_tokens_total{model=}` counters (one increment per decode-step
/// token, matching [`ModelServeStats::tokens`]),
/// `serve_requests_total{model=}` / `serve_slo_ok_total{model=}`
/// counters (per-window SLO attainment is their increment ratio; run
/// totals match `served` and `slo_attainment · served`), and the
/// `serve_batch_occupancy` histogram over completed decode-tick batch
/// sizes (continuous batching only).
///
/// [`ModelServeStats::tokens`]: crate::report::ModelServeStats::tokens
struct ServeMeter {
    reg: MetricsRegistry,
    /// Per-model SLO deadlines in seconds, precomputed exactly as
    /// [`roll_up`] computes them so attainment counts agree.
    slo_s: Vec<f64>,
    resident: MetricId,
    queued: MetricId,
    depth: Vec<MetricId>,
    tokens: Vec<MetricId>,
    served: Vec<MetricId>,
    slo_ok: Vec<MetricId>,
    batch: MetricId,
}

impl ServeMeter {
    /// Histogram bounds for decode-tick batch occupancy (powers of two
    /// up to the largest cap the configs exercise; larger ticks land in
    /// the implicit overflow bucket).
    const BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

    fn new(cfg: &ServeConfig, reg: MetricsRegistry) -> Self {
        let mut depth = Vec::with_capacity(cfg.models.len());
        let mut tokens = Vec::with_capacity(cfg.models.len());
        let mut served = Vec::with_capacity(cfg.models.len());
        let mut slo_ok = Vec::with_capacity(cfg.models.len());
        for m in &cfg.models {
            depth.push(reg.gauge(&format!("serve_queue_depth{{model=\"{}\"}}", m.name)));
            tokens.push(reg.counter(&format!("serve_tokens_total{{model=\"{}\"}}", m.name)));
            served.push(reg.counter(&format!("serve_requests_total{{model=\"{}\"}}", m.name)));
            slo_ok.push(reg.counter(&format!("serve_slo_ok_total{{model=\"{}\"}}", m.name)));
        }
        ServeMeter {
            slo_s: cfg.models.iter().map(|m| m.slo_ms * 1e-3).collect(),
            resident: reg.gauge("serve_resident"),
            queued: reg.gauge("serve_queued"),
            depth,
            tokens,
            served,
            slo_ok,
            batch: reg.histogram("serve_batch_occupancy", &Self::BATCH_BOUNDS),
            reg,
        }
    }

    fn enabled(&self) -> bool {
        self.reg.enabled()
    }

    /// Samples residency, total queue backlog, and per-model queue
    /// depth at an event boundary.
    fn occupancy(&self, now: f64, resident: usize, queues: &[VecDeque<Pending>]) {
        if self.enabled() {
            let t = ps(now);
            self.reg.set(self.resident, t, resident as f64);
            let backlog: usize = queues.iter().map(|q| q.len()).sum();
            self.reg.set(self.queued, t, backlog as f64);
            for (m, q) in queues.iter().enumerate() {
                self.reg.set(self.depth[m], t, q.len() as f64);
            }
        }
    }

    /// Counts one emitted token (a decode-step completion).
    fn token(&self, model: usize, now: f64) {
        if self.enabled() {
            self.reg.add(self.tokens[model], ps(now), 1.0);
        }
    }

    /// Counts one completed request and, when its end-to-end latency
    /// met the model's SLO, one attainment.
    fn complete(&self, model: usize, now: f64, latency_s: f64) {
        if self.enabled() {
            let t = ps(now);
            self.reg.add(self.served[model], t, 1.0);
            if latency_s <= self.slo_s[model] {
                self.reg.add(self.slo_ok[model], t, 1.0);
            }
        }
    }

    /// Observes one completed decode tick's batch occupancy.
    fn batch_tick(&self, now: f64, occupancy: usize) {
        if self.enabled() {
            self.reg.observe(self.batch, ps(now), occupancy as f64);
        }
    }
}

/// Slack floor for SLO-pressure weighting, seconds: streams at or past
/// their deadline weigh `1/SLACK_FLOOR_S` instead of diverging.
const SLACK_FLOOR_S: f64 = 1e-6;

/// Everything the event loop tallies; [`roll_up`] turns one of these
/// into the [`ServeReport`].
struct SimTallies {
    latencies: Vec<Vec<f64>>,
    delays: Vec<Vec<f64>>,
    ttfts: Vec<Vec<f64>>,
    token_gaps: Vec<Vec<f64>>,
    arrived: Vec<u64>,
    in_flight: Vec<u64>,
    queued_at_horizon: Vec<u64>,
    concurrency_integral: f64,
    /// Batch size of every completed decode tick (continuous mode
    /// only; empty per-stream).
    tick_occupancy: Vec<f64>,
}

impl SimTallies {
    fn new(n: usize) -> Self {
        SimTallies {
            latencies: vec![Vec::new(); n],
            delays: vec![Vec::new(); n],
            ttfts: vec![Vec::new(); n],
            token_gaps: vec![Vec::new(); n],
            arrived: vec![0; n],
            in_flight: vec![0; n],
            queued_at_horizon: Vec::new(),
            concurrency_integral: 0.0,
            tick_occupancy: Vec::new(),
        }
    }

    /// Records a finished request: its latency and queue-delay samples,
    /// its trace completion (freeing its lane) and its meter counts.
    fn complete(&mut self, r: &Resident, now: f64, tr: &mut ServeTrace, mm: &ServeMeter) {
        self.latencies[r.model].push(now - r.arrival_s);
        self.delays[r.model].push(r.admitted_s - r.arrival_s);
        tr.complete(r.lane, now, r.id);
        mm.complete(r.model, now, now - r.arrival_s);
    }
}

/// Each model's max-min bandwidth share under every residency mix one
/// flow-level simulation meets, kept as a graph of those mixes.
///
/// Each execution stream is one flow on its model's route (flow-level
/// contention runs per-stream decode only, so every stream is one
/// request). A mix is its per-model stream counts, and each distinct
/// count vector met is one node. A node holds its counts, its per-model
/// shares (water-filled over the mix's model-major expansion on its
/// first lookup) and, per model, an edge to the mix with one stream of
/// that model fewer and one with one more, each memoized the first time
/// it is taken. A lookup walks edges from the previous lookup's node,
/// model by model, until every count matches: between two events the
/// counts move by a stream or two, so that is a few integer compares,
/// with no hashing and no allocation. The count-vector index is
/// consulted only when an edge is first taken, and a walk through a mix
/// that is never looked up does not water-fill it. So the graph holds
/// no more nodes than the mixes the run steps through, and a run meets
/// few of them across many events.
///
/// The shares are exact: [`max_min_shares`] is a function of the route
/// multiset, so the per-model counts fix every stream's share bit for
/// bit, whatever order the streams hold.
struct FlowShares<'p> {
    flow: &'p FlowModel,
    nodes: Vec<MixNode>,
    /// Per-model counts → node.
    index: HashMap<Vec<u32>, u32>,
    /// The node of the last lookup, where the next walk starts.
    at: usize,
}

/// One residency mix in [`FlowShares`]' graph.
struct MixNode {
    counts: Vec<u32>,
    /// Per-model share (`NaN` for a model with no stream in the mix; it
    /// is never read). Empty until the mix is first looked up.
    shares: Vec<f64>,
    /// Per model: the node with one stream of it fewer, then one more
    /// ([`UNTAKEN`] until that edge is first taken).
    edges: Vec<[u32; 2]>,
}

/// A mix-graph edge not taken yet.
const UNTAKEN: u32 = u32::MAX;

impl MixNode {
    fn new(counts: Vec<u32>) -> Self {
        MixNode {
            edges: vec![[UNTAKEN; 2]; counts.len()],
            counts,
            shares: Vec::new(),
        }
    }
}

impl<'p> FlowShares<'p> {
    /// A graph holding the empty mix.
    fn new(flow: &'p FlowModel) -> Self {
        let empty = vec![0; flow.routes.len()];
        FlowShares {
            flow,
            index: HashMap::from([(empty.clone(), 0)]),
            nodes: vec![MixNode::new(empty)],
            at: 0,
        }
    }

    /// Each model's share in the mix of per-model stream counts
    /// `counts`.
    fn shares(&mut self, counts: &[u32]) -> &[f64] {
        let mut at = self.at;
        for (m, &c) in counts.iter().enumerate() {
            while self.nodes[at].counts[m] != c {
                let up = self.nodes[at].counts[m] < c;
                at = self.neighbour(at, m, up);
            }
        }
        self.at = at;
        if self.nodes[at].shares.is_empty() {
            let shares = self.water_fill(&self.nodes[at].counts);
            self.nodes[at].shares = shares;
        }
        &self.nodes[at].shares
    }

    /// The node one stream of model `m` away from node `from` (one more
    /// when `up`), taking its edge (both ways) the first time.
    fn neighbour(&mut self, from: usize, m: usize, up: bool) -> usize {
        let dir = usize::from(up);
        let to = self.nodes[from].edges[m][dir];
        if to != UNTAKEN {
            return to as usize;
        }
        let mut counts = self.nodes[from].counts.clone();
        if up {
            counts[m] += 1;
        } else {
            counts[m] -= 1;
        }
        let to = match self.index.get(&counts) {
            Some(&to) => to,
            None => {
                let to =
                    u32::try_from(self.nodes.len()).expect("a run meets fewer than 2^32 mixes");
                self.nodes.push(MixNode::new(counts.clone()));
                self.index.insert(counts, to);
                to
            }
        };
        self.nodes[from].edges[m][dir] = to;
        self.nodes[to as usize].edges[m][1 - dir] = from as u32;
        to as usize
    }

    /// Per-model shares of the mix `counts`: one water-fill over its
    /// model-major expansion.
    fn water_fill(&self, counts: &[u32]) -> Vec<f64> {
        let routes: Vec<FlowRoute> = counts
            .iter()
            .zip(&self.flow.routes)
            .flat_map(|(&c, route)| std::iter::repeat_n(route, c as usize))
            .cloned()
            .collect();
        let alloc = max_min_shares(&self.flow.topology, &routes)
            .expect("topology and routes validated at config time");
        let mut first = 0;
        let mut shares = Vec::with_capacity(counts.len());
        for &c in counts {
            shares.push(if c == 0 { f64::NAN } else { alloc.share(first) });
            first += c as usize;
        }
        shares
    }
}

/// Each event's service times under the configured sharing discipline,
/// frozen at the event: one per group of streams that share one.
///
/// Under uniform sharing, on either contention tier, a stream's service
/// is a function of its model, stage and member count (its
/// [`ServiceSlots`] slot) and of the event's mix, so the streams of one
/// slot form a group: the first of them opens the group at an event and
/// the rest read its service. Uniform contention indexes the tabulated
/// `1/k` contention level directly. Flow-level contention looks the
/// model's flow plane at level `k` up at its max-min share over the
/// platform's link set ([`FlowShares`]): a route that shares no
/// bottleneck gets share 1.0 (the uncontended column), and when every
/// route crosses every bottleneck the shares are exactly `1/k` and the
/// lookup returns the uniform table bit for bit.
///
/// Under SLO-pressure sharing each stream's service follows its own
/// weight, so each stream is its own group. Weights are inverse EDF
/// slack (floored at `SLACK_FLOOR_S`; a decode group weighs the sum of
/// its members' pressures), normalized into shares and looked up
/// through the same tables in share space
/// (`ModelProfile::stage_service_at_share`). That lookup returns the
/// tabulated values bit for bit whenever the shares are the uniform
/// `1/k` (equal weights, or a single stream), so the two disciplines
/// agree exactly wherever their allocations coincide (property-tested
/// in `tests/properties.rs`).
///
/// The discipline only decides groups and their services; the scan for
/// the earliest completion and the advance are shared. Each stream's
/// float operations keep their operands: its service is the value its
/// own lookup would return, and its step is its group's `dt / service`.
struct Services<'p> {
    cfg: &'p ServeConfig,
    profiles: &'p ServiceProfiles,
    /// The run's mix graph, present exactly under flow-level contention.
    flow: Option<FlowShares<'p>>,
    /// Per-model stream counts of the event's mix (flow-level only).
    counts: Vec<u32>,
    /// Each stream's group at the event, in stream order.
    group: Vec<usize>,
    /// Each group's service time at the event, seconds.
    service: Vec<f64>,
    /// Each group's progress over an advance of `dt`: `dt / service`.
    step: Vec<f64>,
    /// Per slot: the last event that opened its group, and that group.
    open: Vec<(u64, usize)>,
    /// Events scanned so far.
    event: u64,
}

impl<'p> Services<'p> {
    fn new(cfg: &'p ServeConfig, profiles: &'p ServiceProfiles, slots: &ServiceSlots) -> Self {
        let flow = match cfg.contention {
            ContentionKind::FlowLevel => Some(FlowShares::new(
                profiles
                    .flow
                    .as_ref()
                    .expect("flow-level validation guarantees a flow model"),
            )),
            ContentionKind::Uniform => None,
        };
        Services {
            cfg,
            profiles,
            flow,
            counts: vec![0; cfg.models.len()],
            group: Vec::with_capacity(cfg.max_concurrency),
            service: Vec::with_capacity(cfg.max_concurrency),
            step: Vec::with_capacity(cfg.max_concurrency),
            open: vec![(0, 0); slots.len()],
            event: 0,
        }
    }

    /// Assigns each stream its group and each group its service time at
    /// `now`, and returns the earliest completion as `(time, stream)`:
    /// the first strictly smallest `now + remaining * service`, so ties
    /// break by stream order.
    fn earliest(&mut self, streams: &[Cohort], now: f64) -> Option<(f64, usize)> {
        self.group.clear();
        self.service.clear();
        self.event += 1;
        let k = streams.len();
        let weighted = self.cfg.sharing == SharePolicy::SloPressure;
        if weighted {
            // Weights first, then each weight becomes its service time.
            let models = &self.cfg.models;
            self.service.extend(streams.iter().map(|s| {
                s.members
                    .iter()
                    .map(|r| {
                        let deadline = r.arrival_s + models[r.model].slo_ms * 1e-3;
                        1.0 / (deadline - now).max(SLACK_FLOOR_S)
                    })
                    .sum::<f64>()
            }));
            let total: f64 = self.service.iter().sum();
            for (w, s) in self.service.iter_mut().zip(streams) {
                *w = s.service_at_share(&self.profiles.models[s.model], *w / total);
            }
        }
        let shares = match &mut self.flow {
            Some(flow) if k > 0 => {
                self.counts.fill(0);
                for s in streams {
                    self.counts[s.model] += 1;
                }
                Some(flow.shares(&self.counts))
            }
            _ => None,
        };
        let mut earliest: Option<(f64, usize)> = None;
        for (j, s) in streams.iter().enumerate() {
            let g = if weighted {
                j
            } else {
                let (event, g) = &mut self.open[s.slot];
                if *event != self.event {
                    *event = self.event;
                    *g = self.service.len();
                    let p = &self.profiles.models[s.model];
                    self.service.push(match shares {
                        Some(shares) => p.flow_stage_service(s.stage, k, shares[s.model]),
                        None => s.service(p, k),
                    });
                }
                *g
            };
            self.group.push(g);
            let tc = now + s.remaining * self.service[g];
            if earliest.is_none_or(|(t, _)| tc.total_cmp(&t).is_lt()) {
                earliest = Some((tc, j));
            }
        }
        earliest
    }

    /// Advances every stream's remaining work over `dt` at the services
    /// [`earliest`](Self::earliest) assigned.
    fn advance(&mut self, streams: &mut [Cohort], dt: f64) {
        self.step.clear();
        self.step
            .extend(self.service.iter().map(|service| dt / service));
        for (s, &g) in streams.iter_mut().zip(&self.group) {
            s.remaining = (s.remaining - self.step[g]).max(0.0);
        }
    }
}

/// Generates every model's Poisson arrivals over `[0, duration)` and
/// merges them in time order (ties break by mix position).
fn generate_arrivals(cfg: &ServeConfig) -> Vec<Pending> {
    let mut root = SimRng::seed_from(cfg.seed);
    let mut arrivals = Vec::new();
    for (model, m) in cfg.models.iter().enumerate() {
        let mut rng = root.fork(model as u64);
        let rate = m.rate_rps * cfg.load_scale;
        if rate <= 0.0 {
            continue;
        }
        let mut t = rng.exponential(rate);
        while t < cfg.duration_s {
            arrivals.push(Pending {
                model,
                arrival_s: t,
                id: 0,
            });
            t += rng.exponential(rate);
        }
    }
    arrivals.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then_with(|| a.model.cmp(&b.model))
    });
    // Trace identities follow the merged arrival order, so `id` is
    // stable across reruns and batching policies of one mix.
    for (id, p) in arrivals.iter_mut().enumerate() {
        p.id = id as u64;
    }
    arrivals
}

/// Picks which model's queue head to admit next, per the policy.
/// Deterministic: every comparison ties-breaks by mix position.
fn select_next(
    cfg: &ServeConfig,
    profiles: &ServiceProfiles,
    queues: &[VecDeque<Pending>],
    rr_cursor: &mut usize,
) -> Option<usize> {
    let min_of = |it: &mut dyn Iterator<Item = (f64, usize)>| -> Option<usize> {
        it.min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
            .map(|(_, i)| i)
    };
    match cfg.policy {
        ServePolicy::Fifo => min_of(
            &mut queues
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.front().map(|p| (p.arrival_s, i))),
        ),
        ServePolicy::RoundRobin => {
            let n = queues.len();
            for off in 0..n {
                let i = (*rr_cursor + off) % n;
                if !queues[i].is_empty() {
                    *rr_cursor = (i + 1) % n;
                    return Some(i);
                }
            }
            None
        }
        ServePolicy::ShortestJob => min_of(
            &mut queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(i, _)| (profiles.models[i].service_s(1), i)),
        ),
        ServePolicy::SloAware => min_of(&mut queues.iter().enumerate().filter_map(|(i, q)| {
            q.front()
                .map(|p| (p.arrival_s + cfg.models[i].slo_ms * 1e-3, i))
        })),
    }
}

/// Runs one open-loop serving simulation.
///
/// Deterministic: the report is a pure function of `cfg` (identical
/// seeds give bit-identical reports).
///
/// # Horizon censoring
///
/// Requests admitted but unfinished at the horizon, and requests still
/// queued, count as arrived but not served and contribute no latency
/// or queue-delay samples. They are reported explicitly as
/// [`ModelServeStats::in_flight`] and
/// [`ModelServeStats::queued_at_horizon`]
/// (`arrived == served + in_flight + queued_at_horizon` per model), so
/// saturation is visible rather than silently censored.
///
/// # Errors
///
/// Propagates configuration validation failures and platform-simulation
/// errors from the profile build.
///
/// # Examples
///
/// ```
/// use lumos_core::{Platform, PlatformConfig};
/// use lumos_dnn::workload::Precision;
/// use lumos_serve::{simulate, ServeConfig, ServedModel};
///
/// let cfg = ServeConfig::new(
///     PlatformConfig::paper_table1(),
///     Platform::Siph2p5D,
///     vec![ServedModel::cnn(&lumos_dnn::zoo::lenet5(), Precision::int8(), 500.0, 5.0)],
/// )
/// .with_duration_s(0.05);
/// let report = simulate(&cfg)?;
/// assert!(report.total_served <= report.total_arrived);
/// assert!(report.aggregate_latency.p50_ms <= report.aggregate_latency.p99_ms);
/// # Ok::<(), lumos_serve::ServeError>(())
/// ```
pub fn simulate(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let profiles = build_profiles(cfg)?; // validates cfg
    simulate_with_profiles(cfg, &profiles)
}

/// [`simulate`] against pre-built [`ServiceProfiles`].
///
/// Profiles depend only on the platform (configuration + organization),
/// the model mix, `max_concurrency`, and the batching policy — not on
/// the load scale, policy, seed, or horizon — so a load curve or policy
/// sweep can build them once with [`build_profiles`] and amortize the
/// platform simulations across every point.
///
/// # Errors
///
/// Returns [`ServeError::BadConfig`] when `profiles` does not cover
/// `cfg` (wrong model count, too shallow a contention table, or — under
/// [`BatchPolicy::Continuous`] — fewer batched decode planes than the
/// configured cap needs for a generator with a
/// [`GeneratorSpec`](crate::config::GeneratorSpec)), plus everything
/// [`simulate`] reports.
///
/// [`BatchPolicy::Continuous`]: lumos_dse::BatchPolicy::Continuous
pub fn simulate_with_profiles(
    cfg: &ServeConfig,
    profiles: &ServiceProfiles,
) -> Result<ServeReport, ServeError> {
    simulate_with_profiles_inner(cfg, profiles, Tracer::off(), MetricsRegistry::off())
}

/// [`simulate`] with request-lifecycle tracing: returns the report
/// plus every [`TraceEvent`] the run emitted (arrival → queue → admit
/// → prefill → decode → completion, with `resident` / `queued`
/// occupancy counters), per [`ServeConfig::trace`].
///
/// Tracing is observational: the report is **bitwise identical** to
/// [`simulate`]'s for the same configuration (pinned by
/// `tests/tracing.rs`), and with [`ServeConfig::trace`] disabled the
/// event list is empty. Feed the events to
/// [`lumos_trace::export_chrome_trace`] for a Perfetto-loadable file —
/// byte-identical across reruns of one configuration — or to
/// [`lumos_trace::Attribution`] for a where-did-the-time-go rollup.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_traced(cfg: &ServeConfig) -> Result<(ServeReport, Vec<TraceEvent>), ServeError> {
    let profiles = build_profiles(cfg)?; // validates cfg
    let tracer = cfg.trace.tracer();
    let report =
        simulate_with_profiles_inner(cfg, &profiles, tracer.clone(), MetricsRegistry::off())?;
    Ok((report, tracer.drain()))
}

/// [`simulate`] with windowed time-series metering: returns the report
/// plus a [`MetricsSnapshot`] of occupancy gauges
/// (`serve_resident` / `serve_queued` / `serve_queue_depth{model=}`),
/// token / request / SLO-attainment counters
/// (`serve_tokens_total{model=}` / `serve_requests_total{model=}` /
/// `serve_slo_ok_total{model=}`), and the `serve_batch_occupancy`
/// histogram, all keyed to the virtual clock per
/// [`ServeConfig::metrics`].
///
/// Metering is observational: the report is **bitwise identical** to
/// [`simulate`]'s for the same configuration (pinned by
/// `tests/metrics.rs`), and with [`ServeConfig::metrics`] disabled the
/// snapshot is empty. Feed the snapshot to
/// [`lumos_metrics::export_prometheus`] /
/// [`lumos_metrics::export_jsonl`] — both byte-identical across reruns
/// of one configuration.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_metered(cfg: &ServeConfig) -> Result<(ServeReport, MetricsSnapshot), ServeError> {
    let profiles = build_profiles(cfg)?; // validates cfg
    let registry = cfg.metrics.registry();
    let report = simulate_with_profiles_inner(cfg, &profiles, Tracer::off(), registry.clone())?;
    Ok((report, registry.snapshot()))
}

fn simulate_with_profiles_inner(
    cfg: &ServeConfig,
    profiles: &ServiceProfiles,
    tracer: Tracer,
    metrics: MetricsRegistry,
) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    if profiles.models.len() != cfg.models.len() {
        return Err(ServeError::BadConfig {
            reason: format!(
                "profiles cover {} models, mix has {}",
                profiles.models.len(),
                cfg.models.len()
            ),
        });
    }
    if let Some(shallow) = profiles
        .models
        .iter()
        .find(|m| m.depth() < cfg.max_concurrency)
    {
        return Err(ServeError::BadConfig {
            reason: format!(
                "profile for {} tabulates {} contention levels, need {}",
                shallow.name,
                shallow.depth(),
                cfg.max_concurrency
            ),
        });
    }
    if let Some((p, m)) = profiles
        .models
        .iter()
        .zip(&cfg.models)
        .find(|(p, m)| p.n_stages() != m.n_stages())
    {
        return Err(ServeError::BadConfig {
            reason: format!(
                "profile for {} tabulates {} stages, model has {}",
                p.name,
                p.n_stages(),
                m.n_stages()
            ),
        });
    }
    if cfg.batching.is_continuous() {
        for (p, m) in profiles.models.iter().zip(&cfg.models) {
            if p.n_stages() <= 1 {
                continue;
            }
            // A generator with a `GeneratorSpec` batches up to the
            // configured cap; one without decodes per-stream from
            // plane 1.
            let need = match m.generator_spec {
                Some(_) => cfg.effective_max_batch(),
                None => 1,
            };
            if p.max_batch() < need {
                return Err(ServeError::BadConfig {
                    reason: format!(
                        "profile for {} tabulates {} batched decode planes, need {need}; \
                         build profiles with the continuous-batching config",
                        p.name,
                        p.max_batch()
                    ),
                });
            }
            for b in 1..=p.max_batch().min(cfg.effective_max_batch()) {
                if p.batched[b - 1].len() != p.n_stages() - 1 {
                    return Err(ServeError::BadConfig {
                        reason: format!(
                            "profile for {} tabulates {} decode stages in batch plane {b}, \
                             model has {}",
                            p.name,
                            p.batched[b - 1].len(),
                            p.n_stages() - 1
                        ),
                    });
                }
                let need = cfg.max_concurrency - b + 1;
                if p.batched_depth(b) < need {
                    return Err(ServeError::BadConfig {
                        reason: format!(
                            "profile for {} tabulates {} contention levels in batch plane {b}, \
                             need {need}",
                            p.name,
                            p.batched_depth(b)
                        ),
                    });
                }
            }
        }
    }
    if cfg.contention == ContentionKind::FlowLevel {
        let flow = profiles
            .flow
            .as_ref()
            .ok_or_else(|| ServeError::BadConfig {
                reason: "flow-level contention needs profiles built with it \
                     (no flow topology/routes tabulated)"
                    .into(),
            })?;
        if flow.routes.len() != cfg.models.len() {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "flow model covers {} routes, mix has {} models",
                    flow.routes.len(),
                    cfg.models.len()
                ),
            });
        }
        if let Some(shallow) = profiles
            .models
            .iter()
            .find(|m| m.flow_depth() < cfg.max_concurrency)
        {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "profile for {} tabulates {} flow contention levels, need {}",
                    shallow.name,
                    shallow.flow_depth(),
                    cfg.max_concurrency
                ),
            });
        }
        if let Some(p) = profiles
            .models
            .iter()
            .find(|p| p.flow_stages.len() != p.n_stages())
        {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "profile for {} tabulates {} flow stages, model has {}",
                    p.name,
                    p.flow_stages.len(),
                    p.n_stages()
                ),
            });
        }
    }
    let mut tr = ServeTrace::new(cfg, tracer);
    let mm = ServeMeter::new(cfg, metrics);
    let tallies = run(cfg, profiles, &mut tr, &mm);
    Ok(roll_up(cfg, profiles, tallies))
}

/// The event loop, for every batching policy (see the module docs).
///
/// Each resident executes in one execution stream — alone while at
/// stage 0, then in a decode group — except while it waits for a batch
/// boundary, holding its slot but no platform share. Under per-stream
/// decode, and for a generator whose profile tabulates no deeper batch
/// plane, the group cap is 1: every group is a singleton that never
/// waits.
///
/// `streams` stays sorted by anchor, which fixes completion tie-breaks
/// and the order of the SLO-pressure weight sum. An admission appends
/// the newest anchor and a removal keeps the order, so only a decode
/// tick that changes a group's membership re-sorts.
fn run(
    cfg: &ServeConfig,
    profiles: &ServiceProfiles,
    tr: &mut ServeTrace,
    mm: &ServeMeter,
) -> SimTallies {
    let arrivals = generate_arrivals(cfg);
    let n = cfg.models.len();
    let horizon = cfg.duration_s;
    let continuous = cfg.batching.is_continuous();
    let slots = ServiceSlots::new(cfg, profiles);

    let mut t = SimTallies::new(n);
    let mut queues: Vec<VecDeque<Pending>> = vec![VecDeque::new(); n];
    let mut streams: Vec<Cohort> = Vec::with_capacity(cfg.max_concurrency);
    // Per-model generations that finished prefill and wait for a batch
    // boundary to join a group with space (bounded by one tick).
    let mut waiting: Vec<VecDeque<Resident>> = vec![VecDeque::new(); n];
    // Residents, waiting ones included.
    let mut n_resident = 0usize;
    let mut admitted = 0u64;
    let mut rr_cursor = 0usize;
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut services = Services::new(cfg, profiles, &slots);

    enum Event {
        /// Stream `j` finished its current stage or decode tick.
        Done(usize),
        Arrival,
    }

    loop {
        // Service times under the sharing discipline, frozen at `now`
        // (re-evaluated at every event), and the earliest completion.
        let completion = services.earliest(&streams, now);
        let arrival = arrivals.get(next_arrival).map(|p| p.arrival_s);

        // Completions win ties so a freed slot is visible to the
        // simultaneous arrival.
        let (at, event) = match (completion, arrival) {
            (None, None) => break,
            (Some((tc, j)), None) => (tc, Event::Done(j)),
            (None, Some(ta)) => (ta, Event::Arrival),
            (Some((tc, j)), Some(ta)) => {
                if tc <= ta {
                    (tc, Event::Done(j))
                } else {
                    (ta, Event::Arrival)
                }
            }
        };
        if at > horizon {
            break;
        }

        // Advance every stream's remaining work to `at`.
        let dt = at - now;
        if dt > 0.0 {
            services.advance(&mut streams, dt);
            t.concurrency_integral += streams.len() as f64 * dt;
        }
        now = at;

        match event {
            Event::Done(j) if streams[j].stage == 0 => {
                let model = streams[j].model;
                let name = &cfg.models[model].name;
                let mut r = streams[j].members[0];
                if profiles.models[model].n_stages() == 1 {
                    tr.segment(&r, "execute", name, now);
                    streams.remove(j);
                    t.complete(&r, now, tr, mm);
                    n_resident -= 1;
                } else {
                    tr.segment(&r, "prefill", name, now);
                    // Prefill done: the first token is out (TTFT); the
                    // generation enters the decode phase.
                    t.ttfts[model].push(now - r.arrival_s);
                    r.stage = 1;
                    r.last_boundary_s = now;
                    let cap = slots.cap[model];
                    let joinable = cap > 1
                        && streams
                            .iter()
                            .any(|g| g.model == model && g.stage > 0 && g.members.len() < cap);
                    if joinable {
                        // A running group has space: join at its next
                        // tick boundary.
                        streams.remove(j);
                        tr.await_batch(r.lane, now, r.id);
                        waiting[model].push_back(r);
                    } else {
                        // No space anywhere: start a fresh group in
                        // place, immediately (always the path at cap 1).
                        let s = &mut streams[j];
                        s.members[0] = r;
                        s.restart(now, &slots);
                    }
                }
            }
            Event::Done(j) => {
                let s = &mut streams[j];
                let model = s.model;
                let name = &cfg.models[model].name;
                let n_stages = profiles.models[model].n_stages();
                // The policy only decides what the tick reports.
                if continuous {
                    let b = s.members.len();
                    t.tick_occupancy.push(b as f64);
                    mm.batch_tick(now, b);
                    // The tick span rides the anchor member's lane,
                    // carrying the occupancy and the stage that just
                    // executed.
                    let anchor = s.members.iter().find(|r| r.seq == s.anchor);
                    let lane = anchor.expect("the anchor is a member").lane;
                    tr.decode_tick(lane, name, s.started_s, now, b, s.stage);
                } else {
                    tr.segment(&s.members[0], "decode", name, now);
                }
                // Every member emits one token and advances one decode
                // stage.
                for r in &mut s.members {
                    t.token_gaps[model].push(now - r.last_boundary_s);
                    mm.token(model, now);
                    r.stage += 1;
                    r.last_boundary_s = now;
                }
                // Evict finished generations, latest admission first,
                // without stalling the survivors.
                let last_finished = |members: &[Resident]| {
                    members
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.stage >= n_stages)
                        .max_by_key(|(_, r)| r.seq)
                        .map(|(i, _)| i)
                };
                let mut regroup = false;
                while let Some(i) = last_finished(&s.members) {
                    let r = s.members.remove(i);
                    t.complete(&r, now, tr, mm);
                    n_resident -= 1;
                    regroup = true;
                }
                // Boundary admission: absorb waiters into the freed
                // space, then regroup any leftovers so nobody waits
                // past this boundary.
                let cap = slots.cap[model];
                while s.members.len() < cap {
                    let Some(r) = waiting[model].pop_front() else {
                        break;
                    };
                    s.members.push(r);
                    regroup = true;
                }
                if s.members.is_empty() {
                    streams.remove(j);
                } else {
                    s.restart(now, &slots);
                    regroup |= !waiting[model].is_empty();
                    while !waiting[model].is_empty() {
                        let take = waiting[model].len().min(cap);
                        let members = waiting[model].drain(..take).collect();
                        streams.push(Cohort::new(model, members, now, &slots));
                    }
                    if regroup {
                        streams.sort_by_key(|s| s.anchor);
                    }
                }
            }
            Event::Arrival => {
                let p = arrivals[next_arrival];
                next_arrival += 1;
                t.arrived[p.model] += 1;
                queues[p.model].push_back(p);
                tr.arrival(&p);
            }
        }

        // Fill freed slots per the policy (waiting residents still
        // hold their slot).
        while n_resident < cfg.max_concurrency {
            let Some(model) = select_next(cfg, profiles, &queues, &mut rr_cursor) else {
                break;
            };
            let p = queues[model].pop_front().expect("selected queue non-empty");
            let lane = tr.admit(&p, now);
            let r = Resident {
                model,
                arrival_s: p.arrival_s,
                admitted_s: now,
                seq: admitted,
                stage: 0,
                last_boundary_s: now,
                id: p.id,
                lane,
            };
            streams.push(Cohort::new(model, vec![r], now, &slots));
            admitted += 1;
            n_resident += 1;
        }
        tr.occupancy(now, n_resident, queues.iter().map(|q| q.len()).sum());
        mm.occupancy(now, n_resident, &queues);
    }
    t.concurrency_integral += streams.len() as f64 * (horizon - now).max(0.0);
    for r in streams
        .iter()
        .flat_map(|s| &s.members)
        .chain(waiting.iter().flatten())
    {
        t.in_flight[r.model] += 1;
    }
    t.queued_at_horizon = queues.iter().map(|q| q.len() as u64).collect();
    t
}

/// Rolls the event loop's tallies up into the report.
fn roll_up(cfg: &ServeConfig, profiles: &ServiceProfiles, mut t: SimTallies) -> ServeReport {
    let n = cfg.models.len();
    let horizon = cfg.duration_s;
    // Each model's samples sorted once: its percentiles read them, and
    // the aggregates merge them.
    for samples in t
        .latencies
        .iter_mut()
        .chain(&mut t.ttfts)
        .chain(&mut t.token_gaps)
    {
        samples.sort_unstable_by(f64::total_cmp);
    }
    let mut models = Vec::with_capacity(n);
    let mut total_energy_j = 0.0f64;
    let mut total_bits = 0u64;
    let mut class_demand = [0.0f64; 4];
    for (i, m) in cfg.models.iter().enumerate() {
        let profile = &profiles.models[i];
        let served = t.latencies[i].len() as u64;
        total_energy_j += served as f64 * profile.energy_j;
        total_bits += served * profile.bits;
        for (c, demand) in class_demand.iter_mut().enumerate() {
            *demand += served as f64 * profile.class_unit_seconds[c];
        }
        let slo_s = m.slo_ms * 1e-3;
        let within = t.latencies[i].iter().filter(|&&l| l <= slo_s).count();
        let tokens = t.token_gaps[i].len() as u64;
        models.push(ModelServeStats {
            name: m.name.clone(),
            offered_rps: m.rate_rps * cfg.load_scale,
            arrived: t.arrived[i],
            served,
            throughput_rps: served as f64 / horizon,
            latency: Percentiles::from_seconds(&t.latencies[i]),
            queue_delay: Percentiles::from_seconds(&t.delays[i]),
            slo_ms: m.slo_ms,
            // A model that completes nothing attains nothing — never
            // a vacuous 1.0.
            slo_attainment: if served == 0 {
                0.0
            } else {
                within as f64 / served as f64
            },
            in_flight: t.in_flight[i],
            queued_at_horizon: t.queued_at_horizon[i],
            ttft: Percentiles::from_seconds(&t.ttfts[i]),
            per_token: Percentiles::from_seconds(&t.token_gaps[i]),
            tokens,
            tokens_per_s: tokens as f64 / horizon,
        });
    }
    let all_token_gaps = merge_sorted(&t.token_gaps);
    let total_arrived: u64 = t.arrived.iter().sum();
    let total_served: u64 = models.iter().map(|m| m.served).sum();
    let mut class_utilization = [0.0f64; 4];
    for (c, util) in class_utilization.iter_mut().enumerate() {
        *util = class_demand[c] / (profiles.class_units[c] * horizon);
    }

    ServeReport {
        platform: cfg.platform,
        policy: cfg.policy,
        sharing: cfg.sharing,
        batching: cfg.batching,
        duration_s: horizon,
        seed: cfg.seed,
        load_scale: cfg.load_scale,
        max_concurrency: cfg.max_concurrency,
        models,
        total_arrived,
        total_served,
        aggregate_throughput_rps: total_served as f64 / horizon,
        aggregate_latency: Percentiles::from_seconds(&merge_sorted(&t.latencies)),
        aggregate_ttft: Percentiles::from_seconds(&merge_sorted(&t.ttfts)),
        aggregate_per_token: Percentiles::from_seconds(&all_token_gaps),
        aggregate_tokens_per_s: all_token_gaps.len() as f64 / horizon,
        batch: BatchStats::from_samples(&t.tick_occupancy),
        class_utilization,
        mean_concurrency: t.concurrency_integral / horizon,
        avg_power_w: total_energy_j / horizon,
        epb_nj: if total_bits > 0 {
            total_energy_j / total_bits as f64 * 1e9
        } else {
            0.0
        },
    }
}

/// Merges sample vectors, each sorted by [`f64::total_cmp`], into one
/// sorted vector: the array sorting their concatenation gives, since
/// samples that compare equal have equal bits.
fn merge_sorted(runs: &[Vec<f64>]) -> Vec<f64> {
    let mut merged = Vec::new();
    for run in runs {
        let mut out = Vec::with_capacity(merged.len() + run.len());
        let (mut i, mut j) = (0, 0);
        while i < merged.len() && j < run.len() {
            if run[j].total_cmp(&merged[i]).is_lt() {
                out.push(run[j]);
                j += 1;
            } else {
                out.push(merged[i]);
                i += 1;
            }
        }
        out.extend_from_slice(&merged[i..]);
        out.extend_from_slice(&run[j..]);
        merged = out;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServedModel;
    use lumos_core::{Platform, PlatformConfig};
    use lumos_dnn::workload::Precision;
    use lumos_dnn::zoo;
    use lumos_dse::BatchPolicy;

    fn lenet(rate: f64, slo_ms: f64) -> ServedModel {
        ServedModel::cnn(&zoo::lenet5(), Precision::int8(), rate, slo_ms)
    }

    fn base(models: Vec<ServedModel>) -> ServeConfig {
        ServeConfig::new(PlatformConfig::paper_table1(), Platform::Siph2p5D, models)
            .with_duration_s(0.05)
            .with_max_concurrency(2)
    }

    #[test]
    fn light_load_serves_nearly_everything() {
        let report = simulate(&base(vec![lenet(400.0, 5.0)])).expect("lenet5 serves on 2.5D-SiPh");
        assert!(report.total_arrived > 0);
        assert!(report.total_served <= report.total_arrived);
        assert!(
            report.sustained(),
            "light load must be sustained: {report:?}"
        );
        assert!(report.aggregate_latency.p50_ms > 0.0);
        assert!(report.avg_power_w > 0.0 && report.epb_nj > 0.0);
        for u in report.class_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn overload_saturates() {
        // LeNet5 takes ~10 us on SiPh; 2e6 rps offered with 2 resident
        // streams is far beyond capacity.
        let report = simulate(&base(vec![lenet(2.0e6, 5.0)]).with_duration_s(0.002))
            .expect("overloaded lenet5 mix simulates");
        assert!(!report.sustained(), "overload must not be sustained");
        assert!((report.aggregate_throughput_rps) < report.offered_rps());
        // Queue grows: tail latency far above the isolated service time.
        assert!(report.aggregate_latency.p99_ms > 2.0 * report.aggregate_latency.min_ms);
    }

    #[test]
    fn served_nothing_reports_zero_attainment() {
        // ResNet-50 takes on the order of milliseconds per request;
        // a microseconds-scale horizon admits arrivals but completes
        // none of them. Attainment must read 0.0 — not a vacuous 1.0 —
        // and the censored requests must show up in the explicit
        // counts.
        let saturated = vec![ServedModel::cnn(
            &zoo::resnet50(),
            Precision::int8(),
            100_000.0,
            1.0,
        )];
        let report = simulate(&base(saturated).with_duration_s(1e-4))
            .expect("saturated resnet50 mix simulates");
        let m = &report.models[0];
        assert!(m.arrived > 0, "test needs arrivals");
        assert_eq!(m.served, 0, "test needs a fully censored horizon");
        assert_eq!(m.slo_attainment, 0.0);
        assert_eq!(m.arrived, m.in_flight + m.queued_at_horizon);
        assert!(m.in_flight as usize <= report.max_concurrency);
    }

    #[test]
    fn censoring_counts_balance_at_every_load() {
        for load in [1.0, 50.0, 2_000.0] {
            let report = simulate(
                &base(vec![lenet(400.0, 5.0), lenet(200.0, 5.0)])
                    .with_duration_s(0.01)
                    .with_load_scale(load),
            )
            .expect("mix simulates");
            for m in &report.models {
                assert_eq!(
                    m.arrived,
                    m.served + m.in_flight + m.queued_at_horizon,
                    "load {load}: censoring counts must conserve arrivals"
                );
            }
        }
    }

    #[test]
    fn sjf_prioritizes_the_short_model_under_backlog() {
        let models = vec![
            ServedModel::cnn(&zoo::resnet50(), Precision::int8(), 2000.0, 50.0),
            lenet(2000.0, 5.0),
        ];
        let cfg = base(models).with_duration_s(0.01).with_max_concurrency(1);
        let fifo = simulate(&cfg.clone().with_policy(ServePolicy::Fifo)).expect("fifo");
        let sjf = simulate(&cfg.with_policy(ServePolicy::ShortestJob)).expect("sjf");
        // Short jobs first: strictly more LeNets served, higher total.
        assert!(sjf.models[1].served > fifo.models[1].served);
        assert!(sjf.total_served >= fifo.total_served);
    }

    #[test]
    fn round_robin_balances_unequal_rates() {
        // LeNet5 on SiPh serves ~4.7 us, so ~210k rps saturates one
        // resident stream; offer 4x that, split 9:1 across two tenants.
        let models = vec![lenet(810_000.0, 5.0), lenet(90_000.0, 5.0)];
        let cfg = base(models).with_duration_s(0.002).with_max_concurrency(1);
        let rr = simulate(&cfg.clone().with_policy(ServePolicy::RoundRobin)).expect("rr");
        let fifo = simulate(&cfg.with_policy(ServePolicy::Fifo)).expect("fifo");
        assert!(!rr.sustained() && !fifo.sustained(), "test needs backlog");
        // Under backlog FIFO serves proportionally to arrivals (9:1);
        // round-robin alternates, so the low-rate model gets a far
        // larger share of service.
        let rr_share = rr.models[1].served as f64 / rr.total_served.max(1) as f64;
        let fifo_share = fifo.models[1].served as f64 / fifo.total_served.max(1) as f64;
        assert!(
            rr_share > 1.5 * fifo_share,
            "rr share {rr_share} vs fifo share {fifo_share}"
        );
    }

    #[test]
    fn slo_aware_favors_tight_deadlines() {
        // Identical models, identical rates, only the SLO differs; the
        // offered load is ~2x one resident stream's capacity.
        let models = vec![lenet(200_000.0, 100.0), lenet(200_000.0, 1.0)];
        let cfg = base(models).with_duration_s(0.002).with_max_concurrency(1);
        let fifo = simulate(&cfg.clone().with_policy(ServePolicy::Fifo)).expect("fifo");
        let edf = simulate(&cfg.with_policy(ServePolicy::SloAware)).expect("slo-edf");
        assert!(!edf.sustained(), "test needs backlog");
        // The 1 ms-SLO model's requests jump the 100 ms-SLO queue, so
        // EDF serves more of them and with less queueing than FIFO.
        assert!(edf.models[1].served > edf.models[0].served);
        assert!(
            edf.models[1].queue_delay.mean_ms < fifo.models[1].queue_delay.mean_ms,
            "edf tight-SLO delay {} vs fifo {}",
            edf.models[1].queue_delay.mean_ms,
            fifo.models[1].queue_delay.mean_ms
        );
    }

    #[test]
    fn prebuilt_profiles_reproduce_simulate_and_are_checked() {
        use crate::profile::build_profiles;
        let cfg = base(vec![lenet(400.0, 5.0)]);
        let profiles = build_profiles(&cfg).expect("profiles build");
        let direct = simulate(&cfg).expect("simulate");
        let reused = simulate_with_profiles(&cfg, &profiles).expect("simulate with profiles");
        assert_eq!(direct, reused);
        // Load scale changes reuse the same profiles.
        let loaded = cfg.clone().with_load_scale(2.0);
        assert_eq!(
            simulate(&loaded).expect("simulate loaded"),
            simulate_with_profiles(&loaded, &profiles).expect("reuse at 2x load")
        );
        // Mismatched profiles are rejected, not silently misused.
        let deeper = cfg.clone().with_max_concurrency(5);
        assert!(simulate_with_profiles(&deeper, &profiles).is_err());
        let mut two_models = cfg.models.clone();
        two_models.push(lenet(100.0, 5.0));
        let mut wider = cfg;
        wider.models = two_models;
        assert!(simulate_with_profiles(&wider, &profiles).is_err());
    }

    #[test]
    fn generator_reports_ttft_and_per_token() {
        let gen = ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            4,
            1,
            Precision::int8(),
            40.0,
            1_000.0,
        );
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            vec![gen],
        )
        .with_duration_s(0.25)
        .with_max_concurrency(2);
        let r = simulate(&cfg).expect("generator mix simulates");
        let m = &r.models[0];
        assert!(m.served > 0, "light generator load must serve");
        // Every served generation emitted 4 tokens after its prefill;
        // in-flight generations may add a partial tail.
        assert!(m.tokens >= 4 * m.served);
        assert_eq!(m.tokens_per_s, m.tokens as f64 / r.duration_s);
        assert_eq!(r.aggregate_tokens_per_s, m.tokens_per_s);
        assert!(m.ttft.p50_ms > 0.0);
        assert!(m.ttft.p50_ms <= m.ttft.p99_ms);
        assert!(m.per_token.p50_ms > 0.0);
        assert!(m.per_token.p50_ms <= m.per_token.p99_ms);
        // First token out strictly before the full generation is done,
        // and a single token costs less than the whole response.
        assert!(m.ttft.min_ms < m.latency.min_ms);
        assert!(m.per_token.max_ms < m.latency.max_ms);
        // Single-model mix: aggregates mirror the model rows.
        assert_eq!(r.aggregate_ttft, m.ttft);
        assert_eq!(r.aggregate_per_token, m.per_token);
        // Per-stream decode runs no batch ticks.
        assert_eq!(r.batch, BatchStats::default());
    }

    #[test]
    fn single_pass_models_report_no_token_metrics() {
        let r = simulate(&base(vec![lenet(400.0, 5.0)])).expect("single-pass mix");
        assert_eq!(r.models[0].tokens, 0);
        assert_eq!(r.models[0].tokens_per_s, 0.0);
        assert_eq!(r.models[0].ttft, Percentiles::default());
        assert_eq!(r.aggregate_per_token, Percentiles::default());
    }

    #[test]
    fn slo_pressure_shifts_service_toward_tight_deadlines() {
        use lumos_dse::SharePolicy;
        // Identical models and rates; only the SLO differs. Offered
        // load saturates two resident streams, so both models are
        // continuously resident and the sharing weights decide who
        // drains faster.
        let models = vec![lenet(150_000.0, 50.0), lenet(150_000.0, 0.2)];
        let cfg = base(models).with_duration_s(0.004);
        let uniform = simulate(&cfg.clone()).expect("uniform sharing");
        let weighted =
            simulate(&cfg.with_sharing(SharePolicy::SloPressure)).expect("slo-pressure sharing");
        assert_eq!(weighted.sharing, SharePolicy::SloPressure);
        // Sharing shapes *execution*, not admission: compare the time
        // requests spend in service (end-to-end minus queueing). The
        // overdue tight-SLO streams out-weigh their co-residents and
        // drain faster; the loose-SLO streams pay for it.
        let in_service = |r: &ServeReport, i: usize| {
            r.models[i].latency.mean_ms - r.models[i].queue_delay.mean_ms
        };
        assert!(
            in_service(&weighted, 1) < in_service(&uniform, 1),
            "tight-SLO in-service time: weighted {} vs uniform {}",
            in_service(&weighted, 1),
            in_service(&uniform, 1)
        );
        assert!(
            in_service(&weighted, 0) > in_service(&uniform, 0),
            "loose-SLO streams should pay for the tight model's shares"
        );
    }

    /// SplitMix64: the seeded generator behind the mix-graph walks.
    struct SplitMix(u64);

    impl SplitMix {
        /// A value in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn mix_graph_lookups_equal_fresh_water_fills() {
        use lumos_core::flow::FlowTopology;
        use std::collections::HashSet;

        let topology =
            FlowTopology::for_platform(&PlatformConfig::paper_table1(), Platform::Elec2p5D)
                .expect("Elec link set");
        // `tests/flow_goldens.rs`' partly overlapping routes: LeNet5
        // layer 0 (chiplets 3–4), LeNet5 layer 3 (chiplets 0–1) and
        // ResNet-50 layer 0 (chiplet 2), then one over chiplets 1–3
        // that overlaps each of them in part.
        let routes: Vec<FlowRoute> = [&[3, 4][..], &[0, 1], &[2], &[1, 2, 3]]
            .iter()
            .map(|chiplets| topology.route_for_chiplets(chiplets))
            .collect();
        let mut rng = SplitMix(0x6d69_7867_7261_7068);
        let (mut off_grid, mut revisits) = (0, 0);
        for n in 2..=4 {
            for k_max in [3, 8, 16] {
                let flow = FlowModel {
                    topology: topology.clone(),
                    routes: routes[..n].to_vec(),
                };
                let mut graph = FlowShares::new(&flow);
                let mut counts = vec![0u32; n];
                // Every mix the lookups walk through, model by model as
                // the graph walks.
                let mut met = HashSet::from([counts.clone()]);
                for _ in 0..300 {
                    let mut walk = counts.clone();
                    // One to three single-stream changes, at most
                    // `k_max` streams in all.
                    for _ in 0..=rng.below(3) {
                        let m = rng.below(n);
                        let total: u32 = counts.iter().sum();
                        if rng.below(2) == 0 && total < k_max {
                            counts[m] += 1;
                        } else if counts[m] > 0 {
                            counts[m] -= 1;
                        }
                    }
                    revisits += usize::from(met.contains(&counts));
                    for (m, &c) in counts.iter().enumerate() {
                        while walk[m] != c {
                            walk[m] = if walk[m] < c {
                                walk[m] + 1
                            } else {
                                walk[m] - 1
                            };
                            met.insert(walk.clone());
                        }
                    }

                    let got = graph.shares(&counts).to_vec();
                    let expanded: Vec<FlowRoute> = counts
                        .iter()
                        .zip(&flow.routes)
                        .flat_map(|(&c, route)| std::iter::repeat_n(route.clone(), c as usize))
                        .collect();
                    let fresh = max_min_shares(&flow.topology, &expanded).expect("solves");
                    let mut first = 0;
                    for (m, &c) in counts.iter().enumerate() {
                        if c == 0 {
                            assert!(got[m].is_nan(), "{counts:?}: model {m} has no stream");
                        } else {
                            let want = fresh.share(first);
                            assert_eq!(
                                got[m].to_bits(),
                                want.to_bits(),
                                "{counts:?}: model {m} share {} vs fresh {want}",
                                got[m]
                            );
                            off_grid += usize::from((1..=64).all(|j| want != 1.0 / j as f64));
                        }
                        first += c as usize;
                    }
                    assert_eq!(graph.nodes.len(), met.len(), "one node per mix met");
                }
            }
        }
        assert!(off_grid > 0, "the routes must water-fill off the 1/j grid");
        assert!(revisits > 0, "the walks must revisit mixes");
    }

    #[test]
    fn arrivals_are_seeded_and_sorted() {
        let cfg = base(vec![lenet(1000.0, 5.0), lenet(500.0, 5.0)]);
        let a = generate_arrivals(&cfg);
        let b = generate_arrivals(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s.to_bits(), y.arrival_s.to_bits());
            assert_eq!(x.model, y.model);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        let c = generate_arrivals(&cfg.with_seed(7));
        assert_ne!(
            a.first().map(|p| p.arrival_s.to_bits()),
            c.first().map(|p| p.arrival_s.to_bits()),
            "different seeds should move the first arrival"
        );
    }

    fn gpt2_mix(rate: f64) -> Vec<ServedModel> {
        vec![ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            4,
            1,
            Precision::int8(),
            rate,
            1_000.0,
        )]
    }

    #[test]
    fn continuous_with_max_batch_one_matches_per_stream_bitwise() {
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            gpt2_mix(40.0),
        )
        .with_duration_s(0.25)
        .with_max_concurrency(2);
        let per_stream = simulate(&cfg).expect("per-stream");
        let singleton = simulate(&cfg.clone().with_batching(BatchPolicy::continuous(1)))
            .expect("continuous mb=1");
        // Per-stream decode is the cap-1 case of the same loop; only
        // the policy label and the (now non-empty) tick stats may
        // differ.
        assert!(singleton.batch.ticks > 0);
        assert_eq!(singleton.batch.max_occupancy, 1.0);
        let mut normalized = singleton.clone();
        normalized.batching = per_stream.batching;
        normalized.batch = per_stream.batch;
        assert_eq!(normalized, per_stream);
    }

    #[test]
    fn continuous_batching_coalesces_and_speeds_decode() {
        // ~600 rps offered against a ~350 rps per-stream capacity
        // (5 stages x ~2.1 ms at 4-way contention): the per-stream
        // scheduler saturates, while batched decode ticks amortize the
        // weight streaming (~4 tokens for ~1x the solo step cost).
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            gpt2_mix(600.0),
        )
        .with_duration_s(0.25)
        .with_max_concurrency(4);
        let per_stream = simulate(&cfg).expect("per-stream");
        let batched = simulate(&cfg.clone().with_batching(BatchPolicy::continuous(4)))
            .expect("continuous mb=4");
        // Load high enough to co-locate generations: ticks really
        // coalesce...
        assert!(batched.batch.ticks > 0);
        assert!(
            batched.batch.max_occupancy > 1.0,
            "offered load must actually batch: {:?}",
            batched.batch
        );
        assert!(batched.batch.mean_occupancy >= 1.0);
        assert!(batched.batch.max_occupancy <= 4.0);
        // ...and the batched plane amortizes weight traffic into
        // strictly higher sustained token throughput.
        assert!(
            batched.aggregate_tokens_per_s > per_stream.aggregate_tokens_per_s,
            "batched {} tok/s vs per-stream {} tok/s",
            batched.aggregate_tokens_per_s,
            per_stream.aggregate_tokens_per_s
        );
        // Censoring counts still conserve arrivals.
        for m in &batched.models {
            assert_eq!(m.arrived, m.served + m.in_flight + m.queued_at_horizon);
        }
    }

    #[test]
    fn continuous_rejects_profiles_without_batch_planes() {
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            gpt2_mix(40.0),
        )
        .with_duration_s(0.05)
        .with_max_concurrency(2);
        let per_stream_profiles = build_profiles(&cfg).expect("per-stream profiles");
        let batched_cfg = cfg.clone().with_batching(BatchPolicy::continuous(2));
        let err = simulate_with_profiles(&batched_cfg, &per_stream_profiles)
            .expect_err("per-stream profiles lack batch planes");
        assert!(err.to_string().contains("batched decode planes"), "{err}");
        // Profiles built for a shallower cap are rejected too, rather
        // than silently capping the run's decode ticks at their depth.
        let wide = cfg.with_max_concurrency(4);
        let cap2 = wide.clone().with_batching(BatchPolicy::continuous(2));
        let cap2_profiles = build_profiles(&cap2).expect("continuous(2) profiles");
        let err = simulate_with_profiles(
            &wide.clone().with_batching(BatchPolicy::continuous(4)),
            &cap2_profiles,
        )
        .expect_err("continuous(2) profiles lack planes 3 and 4");
        assert!(err.to_string().contains("batched decode planes"), "{err}");
        // A cap the planes cover still serves.
        for batching in [BatchPolicy::continuous(1), BatchPolicy::continuous(2)] {
            simulate_with_profiles(&wide.clone().with_batching(batching), &cap2_profiles)
                .expect("planes cover the cap");
        }
        // A generator without a `GeneratorSpec` tabulates plane 1 only
        // and keeps decoding per-stream under any cap.
        let mut specless = wide
            .with_batching(BatchPolicy::continuous(4))
            .with_duration_s(0.25);
        specless.models[0].generator_spec = None;
        let profiles = build_profiles(&specless).expect("spec-less profiles");
        let r = simulate_with_profiles(&specless, &profiles).expect("spec-less generator serves");
        assert!(r.batch.ticks > 0);
        assert_eq!(r.batch.max_occupancy, 1.0);
    }
}
