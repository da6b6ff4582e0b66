//! The swept axes and evaluated points of a design-space exploration.
//!
//! These types used to live in `lumos_core::dse`; they are pure data
//! (counts and metrics, no platform machinery) and moved here so the
//! engine, core, benches, and examples all share one definition.

/// The metrics of one evaluated (configuration, model) point — the value
/// stored in the memo cache.
///
/// Infeasible points carry NaN metrics and `feasible = false`; they are
/// kept rather than dropped because *where* the laser/crosstalk wall
/// sits is part of the exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseMetrics {
    /// End-to-end latency, milliseconds.
    pub latency_ms: f64,
    /// Time-averaged power, watts.
    pub power_w: f64,
    /// Energy per bit, nanojoules.
    pub epb_nj: f64,
    /// Whether the photonic link budget closed for this point.
    pub feasible: bool,
}

impl DseMetrics {
    /// The record of a point whose link budget did not close.
    pub fn infeasible() -> Self {
        DseMetrics {
            latency_ms: f64::NAN,
            power_w: f64::NAN,
            epb_nj: f64::NAN,
            feasible: false,
        }
    }

    /// Bit-exact equality (NaN payloads included) — the cache must
    /// return exactly what was stored.
    pub fn bit_eq(&self, other: &DseMetrics) -> bool {
        self.latency_ms.to_bits() == other.latency_ms.to_bits()
            && self.power_w.to_bits() == other.power_w.to_bits()
            && self.epb_nj.to_bits() == other.epb_nj.to_bits()
            && self.feasible == other.feasible
    }
}

/// One evaluated configuration: its grid coordinates plus its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Wavelengths per gateway.
    pub wavelengths: usize,
    /// Gateways per compute chiplet.
    pub gateways: usize,
    /// MAC-count scale factor applied to every chiplet class.
    pub mac_scale: f64,
    /// End-to-end latency, milliseconds.
    pub latency_ms: f64,
    /// Time-averaged power, watts.
    pub power_w: f64,
    /// Energy per bit, nanojoules.
    pub epb_nj: f64,
    /// Whether the photonic link budget closed for this point.
    pub feasible: bool,
}

impl DsePoint {
    /// Assembles a point from its grid coordinates and metrics.
    pub fn new(wavelengths: usize, gateways: usize, mac_scale: f64, m: DseMetrics) -> Self {
        DsePoint {
            wavelengths,
            gateways,
            mac_scale,
            latency_ms: m.latency_ms,
            power_w: m.power_w,
            epb_nj: m.epb_nj,
            feasible: m.feasible,
        }
    }

    /// The metrics portion of this point.
    pub fn metrics(&self) -> DseMetrics {
        DseMetrics {
            latency_ms: self.latency_ms,
            power_w: self.power_w,
            epb_nj: self.epb_nj,
            feasible: self.feasible,
        }
    }

    /// Bit-exact equality of coordinates and metrics.
    pub fn bit_eq(&self, other: &DsePoint) -> bool {
        self.wavelengths == other.wavelengths
            && self.gateways == other.gateways
            && self.mac_scale.to_bits() == other.mac_scale.to_bits()
            && self.metrics().bit_eq(&other.metrics())
    }

    /// Renders the point as one deterministic JSON object (fixed key
    /// order, shortest-roundtrip float formatting, non-finite metrics —
    /// infeasible points — as `null`), the record shape `lumos_perf`
    /// digests.
    ///
    /// # Examples
    ///
    /// ```
    /// use lumos_dse::{DseMetrics, DsePoint};
    ///
    /// let p = DsePoint::new(64, 4, 1.0, DseMetrics {
    ///     latency_ms: 1.25,
    ///     power_w: 30.0,
    ///     epb_nj: 0.5,
    ///     feasible: true,
    /// });
    /// assert_eq!(
    ///     p.to_json(),
    ///     "{\"wavelengths\":64,\"gateways\":4,\"mac_scale\":1,\
    ///      \"latency_ms\":1.25,\"power_w\":30,\"epb_nj\":0.5,\"feasible\":true}"
    /// );
    /// assert_eq!(p.to_json(), p.clone().to_json());
    /// ```
    pub fn to_json(&self) -> String {
        use lumos_metrics::json;
        json::object(&[
            ("wavelengths", self.wavelengths.to_string()),
            ("gateways", self.gateways.to_string()),
            ("mac_scale", json::num(self.mac_scale)),
            ("latency_ms", json::num(self.latency_ms)),
            ("power_w", json::num(self.power_w)),
            ("epb_nj", json::num(self.epb_nj)),
            ("feasible", self.feasible.to_string()),
        ])
    }
}

/// The swept axes: the cartesian grid of wavelength counts,
/// gateways-per-chiplet values, and MAC scale factors.
#[derive(Debug, Clone, PartialEq)]
pub struct DseAxes {
    /// Wavelength counts to try.
    pub wavelengths: Vec<usize>,
    /// Gateways-per-chiplet values to try.
    pub gateways: Vec<usize>,
    /// MAC-count scale factors to try (1.0 = Table 1).
    pub mac_scales: Vec<f64>,
}

impl DseAxes {
    /// Wavelength axis of the paper-conclusion sweep (§VII).
    const PAPER_WAVELENGTHS: &'static [usize] = &[16, 32, 64];
    /// Gateway axis of the paper-conclusion sweep.
    const PAPER_GATEWAYS: &'static [usize] = &[1, 2, 4];
    /// MAC-scale axis of the paper-conclusion sweep.
    const PAPER_MAC_SCALES: &'static [f64] = &[0.5, 1.0];

    /// Wavelength axis of the `design_space` example grid.
    const EXAMPLE_WAVELENGTHS: &'static [usize] = &[16, 32, 48, 64];
    /// Gateway axis of the `design_space` example grid.
    const EXAMPLE_GATEWAYS: &'static [usize] = &[1, 2, 4, 8];

    /// Wavelength axis of the A1 ablation (the `ablations` binary).
    const ABLATION_WAVELENGTHS: &'static [usize] = &[8, 16, 32, 48, 64];
    /// Gateway axis of the A2 ablation (the `ablations` binary).
    const ABLATION_GATEWAYS: &'static [usize] = &[1, 2, 4, 6, 8];

    /// Builds axes from borrowed slices (the `const`-friendly form — the
    /// named grids below are all defined over `&'static [..]` tables).
    pub fn from_slices(wavelengths: &[usize], gateways: &[usize], mac_scales: &[f64]) -> Self {
        DseAxes {
            wavelengths: wavelengths.to_vec(),
            gateways: gateways.to_vec(),
            mac_scales: mac_scales.to_vec(),
        }
    }

    /// The sweep named by the paper's conclusion, shared by the DSE
    /// engine tests and `lumos_perf`'s `eval_grid` workload.
    pub fn paper_conclusion() -> Self {
        Self::from_slices(
            Self::PAPER_WAVELENGTHS,
            Self::PAPER_GATEWAYS,
            Self::PAPER_MAC_SCALES,
        )
    }

    /// The `design_space` example grid: 4 wavelength counts × 4 gateway
    /// counts at Table 1 MAC counts.
    pub fn example_grid() -> Self {
        Self::from_slices(Self::EXAMPLE_WAVELENGTHS, Self::EXAMPLE_GATEWAYS, &[1.0])
    }

    /// The A1 wavelength-ablation grid (gateways fixed at Table 1's 4).
    pub fn wavelength_ablation() -> Self {
        Self::from_slices(Self::ABLATION_WAVELENGTHS, &[4], &[1.0])
    }

    /// The A2 gateway-ablation grid (wavelengths fixed at Table 1's 64).
    pub fn gateway_ablation() -> Self {
        Self::from_slices(&[64], Self::ABLATION_GATEWAYS, &[1.0])
    }

    /// Number of grid points (the cartesian product of the axes).
    pub fn len(&self) -> usize {
        self.wavelengths.len() * self.gateways.len() * self.mac_scales.len()
    }

    /// Whether the grid is empty (any axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the grid in sweep order: wavelengths outermost, then
    /// gateways, then MAC scales — the order every sweep reports in.
    pub fn points(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.wavelengths.iter().flat_map(move |&w| {
            self.gateways
                .iter()
                .flat_map(move |&g| self.mac_scales.iter().map(move |&s| (w, g, s)))
        })
    }
}

/// The transformer scenario grid: the cartesian product of sequence
/// lengths and batch sizes a transformer model is evaluated at.
///
/// The configuration axes ([`DseAxes`]) describe the *platform*; these
/// axes describe the *workload* — the two knobs that move a transformer
/// between compute-bound (short sequences, weight-dominated
/// projections) and bandwidth-bound (long sequences, `seq²` attention
/// traffic) regimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XformerAxes {
    /// Sequence lengths (tokens) to try.
    pub seq_lens: Vec<u32>,
    /// Batch sizes to try.
    pub batches: Vec<u32>,
}

impl XformerAxes {
    /// Sequence-length axis of the `transformers` example grid.
    pub const EXAMPLE_SEQ_LENS: &'static [u32] = &[128, 512];
    /// Batch axis of the `transformers` example grid.
    pub const EXAMPLE_BATCHES: &'static [u32] = &[1, 8];

    /// Builds axes from borrowed slices (the `const`-friendly form).
    pub fn from_slices(seq_lens: &[u32], batches: &[u32]) -> Self {
        XformerAxes {
            seq_lens: seq_lens.to_vec(),
            batches: batches.to_vec(),
        }
    }

    /// The `transformers` example grid: 2 sequence lengths × 2 batches.
    pub fn example_grid() -> Self {
        Self::from_slices(Self::EXAMPLE_SEQ_LENS, Self::EXAMPLE_BATCHES)
    }

    /// Number of scenarios (the cartesian product of the axes).
    pub fn len(&self) -> usize {
        self.seq_lens.len() * self.batches.len()
    }

    /// Whether the grid is empty (either axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the grid in sweep order: sequence lengths outermost,
    /// batches innermost — the order every scenario sweep reports in.
    pub fn points(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.seq_lens
            .iter()
            .flat_map(move |&s| self.batches.iter().map(move |&b| (s, b)))
    }
}

/// The autoregressive-decode scenario grid: the cartesian product of
/// KV-cache depths and batch sizes one decode step is evaluated at.
///
/// [`XformerAxes`] parameterizes the *prefill* pass (sequence length ×
/// batch); these axes parameterize the *generation* regime — one token
/// attending against a `cache_len`-deep KV cache. Cache depth is the
/// knob that walks a decode step from weight-bound (shallow cache, the
/// projection GEMVs dominate) to KV-bandwidth-bound (deep cache, the
/// per-step cache read dominates), which is exactly where the photonic
/// interposer's edge is contested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeAxes {
    /// KV-cache depths (tokens already cached) to try.
    pub cache_lens: Vec<u32>,
    /// Batch sizes (concurrent generation streams) to try.
    pub batches: Vec<u32>,
}

impl DecodeAxes {
    /// Cache-depth axis of the `decode` example grid.
    const EXAMPLE_CACHE_LENS: &'static [u32] = &[128, 512, 2048];
    /// Batch axis of the `decode` example grid.
    const EXAMPLE_BATCHES: &'static [u32] = &[1];

    /// Builds axes from borrowed slices (the `const`-friendly form).
    pub fn from_slices(cache_lens: &[u32], batches: &[u32]) -> Self {
        DecodeAxes {
            cache_lens: cache_lens.to_vec(),
            batches: batches.to_vec(),
        }
    }

    /// The `decode` example grid: 3 cache depths at batch 1.
    pub fn example_grid() -> Self {
        Self::from_slices(Self::EXAMPLE_CACHE_LENS, Self::EXAMPLE_BATCHES)
    }

    /// Number of scenarios (the cartesian product of the axes).
    pub fn len(&self) -> usize {
        self.cache_lens.len() * self.batches.len()
    }

    /// Whether the grid is empty (either axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the grid in sweep order: cache depths outermost,
    /// batches innermost — the order every decode sweep reports in.
    pub fn points(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.cache_lens
            .iter()
            .flat_map(move |&c| self.batches.iter().map(move |&b| (c, b)))
    }
}

/// Admission-scheduling policies of the `lumos_serve` multi-model
/// serving simulator.
///
/// Pure data here (like the grids above) so sweep axes and cache
/// fingerprints can name a policy without pulling in the serving
/// machinery; `lumos_serve` implements the actual schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServePolicy {
    /// Globally earliest arrival first, across all models.
    Fifo,
    /// Rotate over the per-model queues, one admission each.
    RoundRobin,
    /// Admit the queued request with the shortest isolated service time.
    ShortestJob,
    /// Earliest-deadline-first against each model's latency SLO.
    SloAware,
}

impl ServePolicy {
    /// All policies, in fingerprint-tag order.
    pub fn all() -> [ServePolicy; 4] {
        [
            ServePolicy::Fifo,
            ServePolicy::RoundRobin,
            ServePolicy::ShortestJob,
            ServePolicy::SloAware,
        ]
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            ServePolicy::Fifo => "fifo",
            ServePolicy::RoundRobin => "round-robin",
            ServePolicy::ShortestJob => "sjf",
            ServePolicy::SloAware => "slo-edf",
        }
    }

    /// Stable discriminant for cache fingerprints (never reorder).
    pub fn tag(self) -> u64 {
        match self {
            ServePolicy::Fifo => 0,
            ServePolicy::RoundRobin => 1,
            ServePolicy::ShortestJob => 2,
            ServePolicy::SloAware => 3,
        }
    }
}

impl std::fmt::Display for ServePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How `lumos_serve` splits the platform between concurrently resident
/// streams — the *execution*-shaping counterpart of the
/// admission-shaping [`ServePolicy`].
///
/// Pure data here (like [`ServePolicy`]) so sweep axes and cache
/// fingerprints can name a sharing discipline without pulling in the
/// serving machinery; `lumos_serve` implements the actual weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharePolicy {
    /// Classic generalized processor sharing: `k` resident streams each
    /// hold a `1/k` slice of every MAC class and link.
    #[default]
    Uniform,
    /// SLO-pressure-weighted sharing: each resident stream is weighted
    /// by the inverse of its EDF slack (time to its SLO deadline), so
    /// streams close to — or past — their deadline drain faster at the
    /// expense of streams with headroom.
    SloPressure,
}

impl SharePolicy {
    /// All sharing disciplines, in fingerprint-tag order.
    pub fn all() -> [SharePolicy; 2] {
        [SharePolicy::Uniform, SharePolicy::SloPressure]
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SharePolicy::Uniform => "uniform",
            SharePolicy::SloPressure => "slo-pressure",
        }
    }

    /// Stable discriminant for cache fingerprints (never reorder).
    pub fn tag(self) -> u64 {
        match self {
            SharePolicy::Uniform => 0,
            SharePolicy::SloPressure => 1,
        }
    }
}

impl std::fmt::Display for SharePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How `lumos_serve` turns co-resident generator streams into platform
/// work: one execution stream per request, or vLLM-style continuous
/// batching where co-resident generations of the same model coalesce
/// into shared batched decode ticks.
///
/// Pure data here (like [`ServePolicy`] and [`SharePolicy`]) so sweep
/// axes and cache fingerprints can name a batching discipline without
/// pulling in the serving machinery; `lumos_serve` implements the
/// actual scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchPolicy {
    /// Every resident request is its own execution stream (the
    /// pre-batching simulator, bit-for-bit).
    #[default]
    PerStream,
    /// Continuous token-level batching: resident generations of the
    /// same model advance through shared decode ticks — one batched
    /// GEMV stage per tick, at most `max_batch` generations per tick.
    /// New prefill-finishers join a running batch at tick boundaries
    /// and finished generations are evicted without stalling the rest.
    /// `max_batch = 1` reproduces [`BatchPolicy::PerStream`]
    /// bit-for-bit.
    Continuous {
        /// Most generations one decode tick may coalesce.
        max_batch: usize,
    },
}

impl BatchPolicy {
    /// Continuous batching capped at `max_batch` generations per tick.
    pub fn continuous(max_batch: usize) -> Self {
        BatchPolicy::Continuous { max_batch }
    }

    /// Whether decode ticks may coalesce more than one generation.
    pub fn is_continuous(self) -> bool {
        matches!(self, BatchPolicy::Continuous { .. })
    }

    /// The deepest batch one decode tick may reach under this policy
    /// (1 for [`BatchPolicy::PerStream`]).
    pub fn max_batch(self) -> usize {
        match self {
            BatchPolicy::PerStream => 1,
            BatchPolicy::Continuous { max_batch } => max_batch,
        }
    }

    /// Short display label.
    pub fn label(self) -> String {
        match self {
            BatchPolicy::PerStream => "per-stream".into(),
            BatchPolicy::Continuous { max_batch } => format!("continuous({max_batch})"),
        }
    }

    /// Stable discriminant for cache fingerprints (never reorder): the
    /// policy kind in the high bits, the batch cap in the low bits.
    pub fn tag(self) -> u64 {
        match self {
            BatchPolicy::PerStream => 0,
            BatchPolicy::Continuous { max_batch } => (1 << 32) | max_batch as u64,
        }
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// How `lumos_serve` models the bandwidth slice each resident stream
/// gets: the legacy platform-wide uniform derate, or topology-aware
/// flow-level max-min fair sharing over the platform's actual link set
/// (`lumos_core::flow`).
///
/// Pure data here (like [`ServePolicy`] and [`SharePolicy`]) so sweep
/// axes and cache fingerprints can name a contention model without
/// pulling in the serving machinery; `lumos_serve` implements the
/// actual water-filling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContentionKind {
    /// Every resident stream gets `1/k` of every link — the legacy
    /// platform-wide average.
    #[default]
    Uniform,
    /// Per-stream max-min fair shares over the links each stream's
    /// route actually crosses. Degenerates to [`ContentionKind::Uniform`]
    /// bit-for-bit when all routes share every bottleneck (and when a
    /// stream contends with nobody, to the uncontended runner).
    FlowLevel,
}

impl ContentionKind {
    /// All kinds, in sweep order.
    pub fn all() -> [ContentionKind; 2] {
        [ContentionKind::Uniform, ContentionKind::FlowLevel]
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            ContentionKind::Uniform => "uniform",
            ContentionKind::FlowLevel => "flow-level",
        }
    }

    /// Stable discriminant for cache fingerprints (never reorder).
    pub fn tag(self) -> u64 {
        match self {
            ContentionKind::Uniform => 0,
            ContentionKind::FlowLevel => 1,
        }
    }
}

impl std::fmt::Display for ContentionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The serving sweep grid: offered-load multipliers × scheduling
/// policies.
///
/// [`DseAxes`] describes the *platform* and [`XformerAxes`] the
/// *workload shape*; these axes describe the *traffic* — the knobs a
/// capacity planner turns. Load scales multiply every model's base
/// arrival rate in the mix, so `1.0` is the mix as configured and the
/// axis walks the saturation curve. Platforms are swept by the caller
/// (`lumos_serve::dse::sweep`), which takes a platform list alongside
/// these axes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeAxes {
    /// Multipliers applied to every model's offered arrival rate.
    pub load_scales: Vec<f64>,
    /// Scheduling policies to try.
    pub policies: Vec<ServePolicy>,
}

impl ServeAxes {
    /// Load axis of the `serving` example grid.
    pub const EXAMPLE_LOADS: &'static [f64] = &[0.25, 0.5, 1.0, 2.0, 3.0];

    /// Builds axes from borrowed slices (the `const`-friendly form).
    pub fn from_slices(load_scales: &[f64], policies: &[ServePolicy]) -> Self {
        ServeAxes {
            load_scales: load_scales.to_vec(),
            policies: policies.to_vec(),
        }
    }

    /// The `serving` example grid: 5 load points under FIFO.
    pub fn example_grid() -> Self {
        Self::from_slices(Self::EXAMPLE_LOADS, &[ServePolicy::Fifo])
    }

    /// Number of grid points (the cartesian product of the axes).
    pub fn len(&self) -> usize {
        self.load_scales.len() * self.policies.len()
    }

    /// Whether the grid is empty (either axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the grid in sweep order: load scales outermost,
    /// policies innermost — the order every serving sweep reports in.
    pub fn points(&self) -> impl Iterator<Item = (f64, ServePolicy)> + '_ {
        self.load_scales
            .iter()
            .flat_map(move |&l| self.policies.iter().map(move |&p| (l, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_conclusion_matches_consts() {
        let a = DseAxes::paper_conclusion();
        assert_eq!(a.wavelengths, DseAxes::PAPER_WAVELENGTHS);
        assert_eq!(a.gateways, DseAxes::PAPER_GATEWAYS);
        assert_eq!(a.mac_scales, DseAxes::PAPER_MAC_SCALES);
        assert_eq!(a.len(), 18);
    }

    #[test]
    fn points_iterate_in_sweep_order() {
        let a = DseAxes::from_slices(&[16, 64], &[1, 4], &[1.0]);
        let pts: Vec<(usize, usize, f64)> = a.points().collect();
        assert_eq!(
            pts,
            vec![(16, 1, 1.0), (16, 4, 1.0), (64, 1, 1.0), (64, 4, 1.0)]
        );
        assert_eq!(pts.len(), a.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn infeasible_metrics_are_nan_but_bit_stable() {
        let m = DseMetrics::infeasible();
        assert!(m.latency_ms.is_nan() && !m.feasible);
        assert!(m.bit_eq(&DseMetrics::infeasible()));
    }

    #[test]
    fn xformer_axes_iterate_in_sweep_order() {
        let a = XformerAxes::from_slices(&[128, 512], &[1, 8]);
        let pts: Vec<(u32, u32)> = a.points().collect();
        assert_eq!(pts, vec![(128, 1), (128, 8), (512, 1), (512, 8)]);
        assert_eq!(pts.len(), a.len());
        assert!(!a.is_empty());
        assert_eq!(XformerAxes::example_grid().len(), 4);
    }

    #[test]
    fn serve_axes_iterate_in_sweep_order() {
        let a = ServeAxes::from_slices(&[0.5, 1.0], &[ServePolicy::Fifo, ServePolicy::SloAware]);
        let pts: Vec<(f64, ServePolicy)> = a.points().collect();
        assert_eq!(
            pts,
            vec![
                (0.5, ServePolicy::Fifo),
                (0.5, ServePolicy::SloAware),
                (1.0, ServePolicy::Fifo),
                (1.0, ServePolicy::SloAware),
            ]
        );
        assert_eq!(pts.len(), a.len());
        assert!(!a.is_empty());
        assert_eq!(ServeAxes::example_grid().len(), 5);
    }

    #[test]
    fn decode_axes_iterate_in_sweep_order() {
        let a = DecodeAxes::from_slices(&[128, 2048], &[1, 8]);
        let pts: Vec<(u32, u32)> = a.points().collect();
        assert_eq!(pts, vec![(128, 1), (128, 8), (2048, 1), (2048, 8)]);
        assert_eq!(pts.len(), a.len());
        assert!(!a.is_empty());
        assert_eq!(DecodeAxes::example_grid().len(), 3);
        assert!(DecodeAxes::from_slices(&[], &[1]).is_empty());
    }

    #[test]
    fn share_policy_tags_are_distinct_and_stable() {
        let tags: Vec<u64> = SharePolicy::all().iter().map(|p| p.tag()).collect();
        assert_eq!(tags, vec![0, 1]);
        assert_eq!(SharePolicy::default(), SharePolicy::Uniform);
        assert_eq!(SharePolicy::SloPressure.to_string(), "slo-pressure");
    }

    #[test]
    fn batch_policy_tags_are_distinct_and_stable() {
        assert_eq!(BatchPolicy::default(), BatchPolicy::PerStream);
        assert_eq!(BatchPolicy::PerStream.tag(), 0);
        assert_eq!(BatchPolicy::continuous(4).tag(), (1 << 32) | 4);
        assert_ne!(
            BatchPolicy::continuous(1).tag(),
            BatchPolicy::PerStream.tag(),
            "continuous(1) is behaviorally identical but keyed apart"
        );
        assert_eq!(BatchPolicy::PerStream.max_batch(), 1);
        assert_eq!(BatchPolicy::continuous(8).max_batch(), 8);
        assert!(BatchPolicy::continuous(8).is_continuous());
        assert!(!BatchPolicy::PerStream.is_continuous());
        assert_eq!(BatchPolicy::continuous(2).to_string(), "continuous(2)");
        assert_eq!(BatchPolicy::PerStream.to_string(), "per-stream");
    }

    #[test]
    fn serve_policy_tags_are_distinct_and_stable() {
        let tags: Vec<u64> = ServePolicy::all().iter().map(|p| p.tag()).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
        assert_eq!(ServePolicy::SloAware.to_string(), "slo-edf");
    }

    #[test]
    fn point_roundtrips_metrics() {
        let m = DseMetrics {
            latency_ms: 1.25,
            power_w: 30.0,
            epb_nj: 0.5,
            feasible: true,
        };
        let p = DsePoint::new(64, 4, 1.0, m);
        assert_eq!(p.metrics(), m);
        assert!(p.bit_eq(&DsePoint::new(64, 4, 1.0, m)));
        assert!(!p.bit_eq(&DsePoint::new(32, 4, 1.0, m)));
    }
}
