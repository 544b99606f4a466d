//! The five workloads and the closed-loop runner that measures them.
//!
//! Every workload is one client issuing one operation at a time on one compute thread
//! (`workers = 1`, `gemm_workers = 1`): on a 2-vCPU host the second engine worker's speedup
//! read anywhere from 1.4× to 2.1× on median run times of identical code, yet the quietest
//! runs with one and two workers were equally fast (`pool.speedup_2w` ≈ 1.0), so a
//! two-thread loop would measure how the host schedules the second core. Inputs derive from
//! `--seed` only: the dataset or request trace, the weight seed ([`mix_seed`]`(seed, 1)`) and
//! the trainer seed (`mix_seed(seed, 2)`).
//!
//! After a warm-up that also produces the workload's output digest, an untraced run repeats
//! one fixed set of short operations in rounds for `--seconds`, and at least [`MIN_ROUNDS`]
//! times: [`MIN_OPS`] steps of a fresh, identically seeded trainer; one engine run of each
//! short sub-trace and one replay of every request of the trace; one plan of each of the
//! cluster's traces. Each operation's time is its best over the rounds, because on a shared
//! host the dominant noise is other tenants' memory traffic, which only ever adds time and
//! comes in stretches of 0.1 s to 15 s, and the rounds spread every operation's repetitions
//! over the whole run. `throughput` is work over the summed best times; the latency
//! percentiles rank the operations' best times. Set-up time is the best round's median of
//! five batched measurements.
//!
//! A traced run (`--trace 1`) alternates untraced rounds with rounds that run the same
//! operations through the [`crate::timed`] adaptors with recording on; the per-layer metrics
//! come from the traced rounds and `bench.trace_overhead` compares the two.

use crate::metrics::Metric;
use crate::stats::{median, percentile};
use crate::timed::{timed_network, TimedEps, GENERATE, LAYER_SPANS, MOMENT, RETRIEVE, UPDATE};
use crate::trace::{self, NameTotals, Recording, OP};
use bnn_serve::{
    mix_seed, plan_batches, ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, ClusterPlan,
    DegradeLadder, EngineSpec, FaultEvent, FaultPlan, InferRequest, InferResponse, InferenceEngine,
    ModelSource, ModelSpec, RequestOutcome, RetryPolicy, RoutingPolicy, ServeMode, ServeReplica,
    ServeRunReport, ShardSwap, VersionSwap, WorkloadSpec,
};
use bnn_tensor::{Tensor, TensorError};
use bnn_train::data::SyntheticDataset;
use bnn_train::moment::MomentNetwork;
use bnn_train::{
    EpsilonSource, EpsilonStrategy, LfsrForward, Network, Predictive, Trainer, TrainerConfig,
};
use shift_bnn::sweep::json::{fnv1a_hex, Json};
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The B-LeNet proxy (3×12×12 inputs), S = 8, LFSR retrieval.
    TrainLenetLfsr,
    /// The B-MLP proxy (64-48-32-4), S = 4, store-and-replay.
    TrainMlpReplay,
    /// Monte-Carlo serving of the B-LeNet proxy at S = 16, fused.
    ServeMc16,
    /// The same trace answered by single-pass moment propagation.
    ServeMoment,
    /// Plan-only routing of 100 traces of 1000 requests through the chaos crash storm.
    ClusterStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::TrainLenetLfsr,
        Workload::TrainMlpReplay,
        Workload::ServeMc16,
        Workload::ServeMoment,
        Workload::ClusterStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainLenetLfsr => "train-lenet-lfsr",
            Workload::TrainMlpReplay => "train-mlp-replay",
            Workload::ServeMc16 => "serve-mc16",
            Workload::ServeMoment => "serve-moment",
            Workload::ClusterStorm => "cluster-storm",
        }
    }

    /// Why the benchmark runs this workload: which layers it stresses and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainLenetLfsr => {
                "Shift-BNN's own path: conv im2col GEMMs in all three directions and the reverse \
                 LFSR walk do most of the work"
            }
            Workload::TrainMlpReplay => {
                "the baseline's path: linear layers, sampling, KL and eps store/replay with no conv \
                 and no reverse walk, so conv or reverse-LFSR gains must not move it"
            }
            Workload::ServeMc16 => {
                "the Monte-Carlo serving hot path: forward eps generation, the fused S-sample GEMM \
                 and engine batching"
            }
            Workload::ServeMoment => {
                "the same layers used differently: three GEMMs per layer and no eps, so eps gains \
                 must not move it and engine overhead is at its largest share"
            }
            Workload::ClusterStorm => {
                "pure orchestration with no tensor work: the only workload where routing, faults \
                 and retries in serve::cluster dominate"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long and how a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The workload seed.
    pub seed: u64,
    /// Measured wall-clock time (input generation and warm-up come on top).
    pub seconds: f64,
    /// Whether to run the traced variant (per-layer metrics) instead of the end-to-end one.
    pub traced: bool,
    /// The `--smoke` size: inputs at 1/20, one training step per round, a one-step warm-up,
    /// no pinned digests.
    pub smoke: bool,
}

/// Rounds an untraced run measures at least, however long they take.
pub const MIN_ROUNDS: usize = 3;

/// Alternating rounds of each arm in a traced run.
pub const TRACED_ROUNDS: usize = 3;

/// Training steps per round, so that p90 has ten samples beyond it.
pub const MIN_OPS: usize = 100;

impl RunConfig {
    /// One traced round's time divided among `phases` phases.
    fn share(&self, phases: usize) -> Duration {
        Duration::from_secs_f64(self.seconds / (TRACED_ROUNDS * phases) as f64)
    }

    fn min_ops(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_OPS
        }
    }

    fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (training steps, answered requests, plan calls).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Run-level check failures (digest mismatches).
    pub errors: Vec<String>,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// The traced rounds' spans (empty for an untraced run).
    pub recording: Recording,
    /// The workload's output digest: warm-up loss bits, engine responses, or plan outcomes.
    pub digest: String,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The measured value of `name`, if any.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn record(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric { name: name.into(), value });
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn end_to_end(&mut self, throughput: f64, latencies: &[Duration], setup_s: f64) {
        let ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        self.record("throughput", throughput);
        self.record("latency_p50_ms", percentile(&ms, 0.50));
        self.record("latency_p90_ms", percentile(&ms, 0.90));
        self.record("setup_s", setup_s);
    }
}

/// Output digests of full-size runs with `--seed 1`; any other result is a failed check.
const SEED1_DIGESTS: [(Workload, &str); 5] = [
    (Workload::TrainLenetLfsr, "40b970b510a13731"),
    (Workload::TrainMlpReplay, "61fcebe4156ec8d7"),
    (Workload::ServeMc16, "8666870129c2a1ee"),
    (Workload::ServeMoment, "03dbd190ae4e3c21"),
    (Workload::ClusterStorm, "6a26c9a97966dc7c"),
];

/// Runs one workload.
pub fn run(workload: Workload, config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    match workload {
        Workload::TrainLenetLfsr => run_train(&LENET, config, &mut out),
        Workload::TrainMlpReplay => run_train(&MLP, config, &mut out),
        Workload::ServeMc16 => run_serve(&MC16, config, &mut out),
        Workload::ServeMoment => run_serve(&MOMENT_SERVE, config, &mut out),
        Workload::ClusterStorm => run_cluster(config, &mut out),
    }
    if !config.traced {
        match peak_rss_mib() {
            Some(mib) => out.record("peak_rss_mb", mib),
            None => out.errors.push("peak RSS is unreadable (/proc/self/status)".into()),
        }
    }
    if config.seed == 1 && !config.smoke {
        let expected = SEED1_DIGESTS.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d);
        let digest = out.digest.clone();
        out.require(expected == Some(digest.as_str()), || {
            format!("seed 1 digest {digest} differs from the pinned {}", expected.unwrap_or("-"))
        });
    }
    out
}

/// Repeats `op` until `budget` has passed, at least once.
fn repeat_for(budget: Duration, mut op: impl FnMut()) {
    let start = Instant::now();
    loop {
        op();
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// Runs `round()` at least [`MIN_ROUNDS`] times, and then again while another round as long
/// as the longest so far still ends within `seconds`.
fn rounds(seconds: f64, mut round: impl FnMut()) {
    let (start, budget) = (Instant::now(), Duration::from_secs_f64(seconds));
    let (mut ran, mut longest) = (0, Duration::ZERO);
    while ran < MIN_ROUNDS || start.elapsed() + longest <= budget {
        let began = Instant::now();
        round();
        longest = longest.max(began.elapsed());
        ran += 1;
    }
}

/// Each operation's best time over the rounds of an untraced run.
#[derive(Default)]
struct Best(Vec<Duration>);

impl Best {
    /// Keeps `took` if it is operation `j`'s best so far; operations are first seen in order.
    fn record(&mut self, j: usize, took: Duration) {
        match self.0.get_mut(j) {
            Some(best) => *best = (*best).min(took),
            None => self.0.push(took),
        }
    }

    /// The summed best times, in seconds.
    fn total(&self) -> f64 {
        self.0.iter().sum::<Duration>().as_secs_f64()
    }

    /// Closed-loop rate: `units` of work per operation over the summed best times.
    fn rate(&self, units: usize) -> f64 {
        (self.0.len() * units) as f64 / self.total()
    }
}

/// A set-up sample times a group of builds lasting at least this long, so that set-ups of a
/// fraction of a microsecond stay well above the clock's resolution.
const SETUP_SAMPLE: Duration = Duration::from_micros(50);

/// Set-up time of one round: the median of five samples, each the mean time of one `build`
/// over a group of builds. The group doubles from one build until it lasts [`SETUP_SAMPLE`];
/// the builds are kept until the group's clock stops and dropped untimed.
fn setup_seconds<T>(mut build: impl FnMut() -> T) -> f64 {
    let mut group = |size: usize| {
        let mut built = Vec::with_capacity(size);
        let start = Instant::now();
        for _ in 0..size {
            built.push(build());
        }
        let took = start.elapsed();
        drop(built);
        took
    };
    let mut size = 1;
    while size < 1 << 16 && group(size) < SETUP_SAMPLE {
        size *= 2;
    }
    let samples: Vec<f64> = (0..5).map(|_| group(size).as_secs_f64() / size as f64).collect();
    median(&samples)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn weight_seed(seed: u64) -> u64 {
    mix_seed(seed, 1)
}

/// This thread's GEMM calls and MACs summed over kernel tiers.
fn gemm_counts() -> (u64, u64) {
    let calls = bnn_tensor::profile::gemm_calls().iter().sum();
    let macs = bnn_tensor::profile::gemm_macs().iter().sum();
    (calls, macs)
}

/// Runs `op` as one traced operation, accumulating the tensor-layer counters it moved:
/// `(gemm calls, gemm MACs, scratch high-water f32 slots)`.
fn traced_op<T>(tensor: &mut (u64, u64, u64), op: impl FnOnce() -> T) -> T {
    let before = gemm_counts();
    bnn_tensor::profile::reset_scratch_high_water();
    let out = trace::op(op);
    let after = gemm_counts();
    tensor.0 += after.0 - before.0;
    tensor.1 += after.1 - before.1;
    tensor.2 = tensor.2.max(bnn_tensor::profile::scratch_high_water());
    out
}

/// Per-layer metrics read off the traced rounds' spans and counters.
fn layer_metrics(out: &mut Outcome, recording: &Recording, tensor: (u64, u64, u64)) {
    let (totals, ops) = trace::totals(&recording.spans);
    if ops == 0 {
        out.errors.push("the traced rounds recorded no operation".into());
        return;
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_op_ms = |ns: f64| ns / ops as f64 / 1e6;
    let per_unit = |ns: u64, units: u64| if units == 0 { 0.0 } else { ns as f64 / units as f64 };
    let (generate, retrieve, op) = (get(GENERATE), get(RETRIEVE), get(OP));
    let counts = recording.counts;
    out.record("lfsr.generate_ms", per_op_ms(generate.total_ns as f64));
    out.record("lfsr.generate_ns_per_eps", per_unit(generate.total_ns, counts.eps_generated));
    out.record("lfsr.retrieve_ms", per_op_ms(retrieve.total_ns as f64));
    out.record("lfsr.retrieve_ns_per_eps", per_unit(retrieve.total_ns, counts.eps_retrieved));
    out.record("lfsr.retrieve_share", per_unit(retrieve.total_ns, op.total_ns));
    out.record("lfsr.eps_generated", counts.eps_generated as f64 / ops as f64);
    out.record("lfsr.eps_retrieved", counts.eps_retrieved as f64 / ops as f64);
    out.record("tensor.gemm_calls", tensor.0 as f64 / ops as f64);
    out.record("tensor.gemm_macs", tensor.1 as f64 / ops as f64);
    out.record("tensor.scratch_high_water_kb", tensor.2 as f64 * 4.0 / 1024.0);
    let self_ms = |t: NameTotals| per_op_ms(t.self_ns as f64);
    let (mut forward, mut backward) = (0.0, 0.0);
    for (fw, bw) in LAYER_SPANS {
        forward += self_ms(get(fw));
        backward += self_ms(get(bw));
        out.record(format!("{fw}_self_ms"), self_ms(get(fw)));
        out.record(format!("{bw}_self_ms"), self_ms(get(bw)));
    }
    out.record("bnn.fw_self_ms", forward);
    out.record("bnn.bw_self_ms", backward);
    out.record("bnn.update_ms", per_op_ms(get(UPDATE).total_ns as f64));
    out.record("bnn.step_other_ms", self_ms(op));
    out.record("bnn.moment_ms", per_op_ms(get(MOMENT).total_ns as f64));
}

/// The 10th-percentile time of a set of operations, in seconds: how long they take when the
/// host leaves them alone, which is what the ratios between two alternating arms compare.
fn quiet(times: &[Duration]) -> f64 {
    percentile(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>(), 0.10)
}

// ---------------------------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------------------------

/// A training workload: a network family's proxy, its Monte-Carlo sample count and ε
/// strategy.
///
/// Both train the scaled-down proxies the Table 1 study trains and the serving workloads
/// serve ([`ModelSpec`]), not the paper-size networks. Every step then stays within a core's
/// L2 cache and takes milliseconds, so a round of [`MIN_OPS`] steps takes a second or less and a
/// run measures tens of rounds. At paper size (B-LeNet on 3×32×32 at S = 8, 54–78 ms a step;
/// the 784-400-400-400 B-MLP, 46–61 ms at S = 1) a run fits four rounds, other tenants'
/// memory traffic moved every step, and ten 20 s runs spread 14–26% on every time metric.
struct TrainSpec {
    model: fn(u64) -> ModelSpec,
    samples: usize,
    strategy: EpsilonStrategy,
    /// Steps before timing starts; their loss bits are the output digest.
    warmup: usize,
}

const LENET: TrainSpec = TrainSpec {
    model: ModelSpec::lenet,
    samples: 8,
    strategy: EpsilonStrategy::LfsrRetrieve,
    warmup: 8,
};

const MLP: TrainSpec = TrainSpec {
    model: ModelSpec::mlp,
    samples: 4,
    strategy: EpsilonStrategy::StoreReplay,
    warmup: 4,
};

/// Trains on the next example; returns the step's wall time. A failed step records a NaN
/// loss, which the finiteness check counts.
fn step(trainer: &mut Trainer, data: &SyntheticDataset, losses: &mut Vec<f32>) -> Duration {
    let (image, label) = data.example(losses.len() % data.len());
    let start = Instant::now();
    let metrics = trainer.train_example(image, label);
    let elapsed = start.elapsed();
    losses.push(metrics.map_or(f32::NAN, |m| m.total_loss));
    elapsed
}

fn loss_digest(losses: &[f32]) -> String {
    fnv1a_hex(losses.iter().flat_map(|l| l.to_bits().to_le_bytes()))
}

fn run_train(spec: &TrainSpec, config: &RunConfig, out: &mut Outcome) {
    let model = (spec.model)(weight_seed(config.seed));
    let (input, classes) = (model.input_shape(), model.proxy.classes);
    let data = SyntheticDataset::generate(input, classes, config.size(8), 0.5, config.seed);
    let trainer_config = TrainerConfig {
        samples: spec.samples,
        learning_rate: 0.01,
        strategy: spec.strategy,
        seed: mix_seed(config.seed, 2),
    };
    let build = || model.build();
    let trainer = |network, strategy| {
        Trainer::new(network, TrainerConfig { strategy, ..trainer_config })
            .expect("the Shift-BNN default GRNG accepts every seed")
    };
    let warmup = if config.smoke { 1 } else { spec.warmup };
    // A trainer advanced through the warm-up, with its loss trajectory so far.
    let warmed = |network, strategy| {
        let mut trainer = trainer(network, strategy);
        let mut losses = Vec::new();
        for _ in 0..warmup {
            step(&mut trainer, &data, &mut losses);
        }
        (trainer, losses)
    };
    // Every trainer of a run starts from the same seeds, so every loss trajectory must equal
    // the first one bit for bit, whatever its ε strategy or adaptors.
    let mut reference: Vec<f32> = Vec::new();
    let mut check_losses = |out: &mut Outcome, losses: &[f32]| {
        if reference.is_empty() {
            out.digest = loss_digest(&losses[..warmup]);
            reference = losses.to_vec();
        }
        for (i, loss) in losses.iter().enumerate() {
            let same = reference.get(i).is_none_or(|r| r.to_bits() == loss.to_bits());
            out.check(loss.is_finite() && same);
        }
    };

    if !config.traced {
        let mut steps = Best::default();
        let mut setup_s = f64::INFINITY;
        rounds(config.seconds, || {
            setup_s = setup_s.min(setup_seconds(|| trainer(build(), spec.strategy)));
            let (mut trainer, mut losses) = warmed(build(), spec.strategy);
            for j in 0..config.min_ops() {
                steps.record(j, step(&mut trainer, &data, &mut losses));
            }
            check_losses(out, &losses);
        });
        out.end_to_end(steps.rate(1), &steps.0, setup_s);
        return;
    }

    // Traced: the same trajectory plainly, through timed layers, and with the other ε
    // strategy, which must train bit-identically (the paper's no-accuracy-loss claim).
    let twin_strategy = match spec.strategy {
        EpsilonStrategy::LfsrRetrieve => EpsilonStrategy::StoreReplay,
        EpsilonStrategy::StoreReplay => EpsilonStrategy::LfsrRetrieve,
    };
    let (mut main, mut losses) = warmed(build(), spec.strategy);
    let (mut traced, mut traced_losses) = warmed(timed_network(&build(), true), spec.strategy);
    let (mut twin, mut twin_losses) = warmed(build(), twin_strategy);
    let stored_before = traced.stored_epsilons();
    let (mut plain, mut timed, mut other) = (Vec::new(), Vec::new(), Vec::new());
    let mut tensor = (0, 0, 0);
    for _ in 0..TRACED_ROUNDS {
        repeat_for(config.share(3), || plain.push(step(&mut main, &data, &mut losses)));
        trace::set_enabled(true);
        repeat_for(config.share(3), || {
            timed.push(traced_op(&mut tensor, || step(&mut traced, &data, &mut traced_losses)));
        });
        trace::set_enabled(false);
        repeat_for(config.share(3), || other.push(step(&mut twin, &data, &mut twin_losses)));
    }
    let recording = trace::take();
    for losses in [&losses, &traced_losses, &twin_losses] {
        check_losses(out, losses);
    }
    layer_metrics(out, &recording, tensor);
    out.recording = recording;
    let ops = timed.len() as f64;
    let stored = traced.stored_epsilons() - stored_before;
    out.record("lfsr.eps_stored_bytes", (stored * 4) as f64 / ops);
    let (lfsr, replay) = match spec.strategy {
        EpsilonStrategy::LfsrRetrieve => (&plain, &other),
        EpsilonStrategy::StoreReplay => (&other, &plain),
    };
    out.record("lfsr.retrieve_over_replay_step", quiet(lfsr) / quiet(replay));
    out.record("bench.trace_overhead", quiet(&timed) / quiet(&plain));
}

// ---------------------------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------------------------

/// A serving workload: backend, trace length and mean inter-arrival gap. Both serve the
/// B-LeNet proxy under the same seed, so their traces share inputs; the gaps put the
/// simulated device near ρ ≈ 0.87 (Monte-Carlo) and ρ ≈ 0.83 (moment). The traces are short,
/// 128 requests at ~3 ms each and 1024 at ~0.11 ms, so that a 25 s run replays every request
/// 20 or more times; p90 still has more than ten requests beyond it.
struct ServeSpec {
    mode: ServeMode,
    requests: usize,
    interarrival_ticks: u64,
    /// Requests per `InferenceEngine::run` in an untraced round. The engine serves the trace
    /// as consecutive sub-traces of this many requests, each run taking 8–25 ms, so that each
    /// run's best time over the rounds is, like a replayed request's, a quiet-host time. Whole
    /// 0.4 s runs of the 128-request trace averaged the host's slow stretches in: their best
    /// over 25 rounds spread 20% over ten runs.
    chunk: usize,
}

const MC16: ServeSpec =
    ServeSpec { mode: ServeMode::MonteCarlo, requests: 128, interarrival_ticks: 200, chunk: 8 };
const MOMENT_SERVE: ServeSpec =
    ServeSpec { mode: ServeMode::Moment, requests: 1024, interarrival_ticks: 36, chunk: 64 };

const SERVE_SAMPLES: usize = 16;
const SERVE_POLICY: BatchPolicy = BatchPolicy { max_batch: 8, max_wait_ticks: 64 };

fn empty_response() -> InferResponse {
    InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 }
}

/// Bitwise response equality (`==` on floats would accept `-0.0` for `0.0`).
fn same_bits(a: &InferResponse, b: &InferResponse) -> bool {
    let same =
        |x: &[f32], y: &[f32]| x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits()));
    a.id == b.id
        && a.samples == b.samples
        && a.entropy.to_bits() == b.entropy.to_bits()
        && same(&a.mean, &b.mean)
        && same(&a.variance, &b.variance)
}

/// The engine's response digest recomputed over replayed responses.
fn responses_digest(responses: &[InferResponse]) -> String {
    fnv1a_hex(Json::array_of(responses.iter()).to_compact().bytes())
}

/// The traced counterpart of a [`ServeReplica`]: the same frozen posterior rebuilt from timed
/// layers, answering with benchmark-owned timed ε sources reseeded exactly as
/// `ServeReplica::answer_into` reseeds its own, or with a moment network under a span.
enum TracedReplica {
    MonteCarlo { network: Network, sources: Vec<Box<dyn EpsilonSource>> },
    Moment { network: MomentNetwork },
}

impl TracedReplica {
    fn new(model: &ModelSpec, mode: ServeMode) -> TracedReplica {
        match mode {
            ServeMode::MonteCarlo => TracedReplica::MonteCarlo {
                network: timed_network(&model.build(), false),
                sources: (0..SERVE_SAMPLES)
                    .map(|_| {
                        let source = LfsrForward::new(0).expect("the default GRNG takes any seed");
                        Box::new(TimedEps(Box::new(source))) as Box<dyn EpsilonSource>
                    })
                    .collect(),
            },
            ServeMode::Moment => {
                TracedReplica::Moment { network: ModelSource::Spec(model.clone()).build_moment() }
            }
        }
    }

    fn answer(
        &mut self,
        request: &InferRequest,
        predictive: &mut Predictive,
        response: &mut InferResponse,
    ) -> Result<(), TensorError> {
        match self {
            TracedReplica::MonteCarlo { network, sources } => {
                let sources = &mut sources[..request.samples];
                for (s, source) in sources.iter_mut().enumerate() {
                    source.reseed(mix_seed(request.seed, s as u64));
                }
                network.predictive_fused_into(&request.input, sources, predictive)?;
            }
            TracedReplica::Moment { network } => {
                trace::span(MOMENT, || network.predictive_into(&request.input, predictive))?;
            }
        }
        response.id = request.id;
        response.samples = predictive.samples;
        response.mean.clear();
        response.mean.extend_from_slice(predictive.mean.data());
        response.variance.clear();
        response.variance.extend_from_slice(predictive.variance.data());
        response.entropy = predictive.entropy;
        Ok(())
    }
}

/// Tick-domain engine metrics of one report (identical on every run of one seed).
fn engine_metrics(out: &mut Outcome, trace: &[InferRequest], report: &ServeRunReport) {
    let plans = plan_batches(trace, SERVE_POLICY);
    let (mut batch_wait, mut queue_wait) = (Vec::new(), Vec::new());
    for (plan, batch) in plans.iter().zip(&report.batches) {
        for &i in &plan.requests {
            batch_wait.push(plan.close_tick - trace[i].arrival_tick);
            queue_wait.push(batch.start_tick - batch.close_tick);
        }
    }
    let compute: u64 = report.batches.iter().map(|b| b.end_tick - b.start_tick).sum();
    out.record("serve.engine.batches", report.batches.len() as f64);
    out.record("serve.engine.batch_fill", report.mean_batch_size() / SERVE_POLICY.max_batch as f64);
    out.record(
        "serve.engine.sim_batch_wait_p50_ticks",
        bnn_serve::latency_percentile(&batch_wait, 0.50) as f64,
    );
    out.record(
        "serve.engine.sim_queue_wait_p99_ticks",
        bnn_serve::latency_percentile(&queue_wait, 0.99) as f64,
    );
    out.record("serve.engine.sim_compute_ticks_mean", compute as f64 / report.batches.len() as f64);
    out.record("serve.sim_latency_p50_ticks", report.latency_percentile(0.50) as f64);
    out.record("serve.sim_latency_p99_ticks", report.latency_percentile(0.99) as f64);
}

fn run_serve(spec: &ServeSpec, config: &RunConfig, out: &mut Outcome) {
    let model = ModelSpec::lenet(weight_seed(config.seed));
    let trace = WorkloadSpec::uniform(
        config.size(spec.requests),
        spec.interarrival_ticks,
        SERVE_SAMPLES,
        config.seed,
    )
    .with_arrival(ArrivalProcess::Bursty { mean_burst: 8 })
    .generate(&model);
    let engine_spec = |workers| {
        EngineSpec::new(model.clone())
            .mode(spec.mode)
            .policy(SERVE_POLICY)
            .workers(workers)
            .gemm_workers(1)
    };
    let setup = || {
        setup_seconds(|| {
            let spec = engine_spec(1);
            (InferenceEngine::build(spec.clone()), ServeReplica::build(&spec))
        })
    };
    let engine = InferenceEngine::build(engine_spec(1));
    let mut replica = ServeReplica::build(&engine_spec(1));

    // Warm-up: one engine run (the reference answers) and one replay pass over the trace.
    let report = engine.run(&trace);
    out.digest = report.responses_digest();
    let mut response = empty_response();
    let replayed: Vec<InferResponse> = trace
        .iter()
        .map(|request| {
            replica.answer_into(request, &mut response);
            response.clone()
        })
        .collect();
    let (replay_digest, engine_digest) = (responses_digest(&replayed), out.digest.clone());
    out.require(replay_digest == engine_digest, || {
        format!("replay digest {replay_digest} differs from the engine's {engine_digest}")
    });
    engine_metrics(out, &trace, &report);

    let expected = &report.responses;
    let mut replay = |replica: &mut ServeReplica, out: &mut Outcome, j: usize| {
        let i = j % trace.len();
        let start = Instant::now();
        replica.answer_into(&trace[i], &mut response);
        let elapsed = start.elapsed();
        out.check(same_bits(&response, &expected[i]));
        elapsed
    };
    // Serves requests `first..first + len` of the trace as a trace of their own.
    let engine_run = |engine: &InferenceEngine, out: &mut Outcome, first: usize, len: usize| {
        let start = Instant::now();
        let run = engine.run(&trace[first..first + len]);
        let elapsed = start.elapsed();
        for (got, want) in run.responses.iter().zip(&expected[first..]) {
            out.check(same_bits(got, want));
        }
        elapsed
    };

    if !config.traced {
        let mut setup_s = f64::INFINITY;
        let (mut runs, mut replays) = (Best::default(), Best::default());
        rounds(config.seconds, || {
            setup_s = setup_s.min(setup());
            for (k, first) in (0..trace.len()).step_by(spec.chunk).enumerate() {
                let len = spec.chunk.min(trace.len() - first);
                runs.record(k, engine_run(&engine, out, first, len));
            }
            for i in 0..trace.len() {
                replays.record(i, replay(&mut replica, out, i));
            }
        });
        out.end_to_end(trace.len() as f64 / runs.total(), &replays.0, setup_s);
        return;
    }

    let two_workers = InferenceEngine::build(engine_spec(2));
    let mut traced = TracedReplica::new(&model, spec.mode);
    let mut predictive = Predictive {
        mean: Tensor::zeros(&[0]),
        variance: Tensor::zeros(&[0]),
        entropy: 0.0,
        samples: 0,
    };
    let mut traced_response = empty_response();
    let (mut one, mut two, mut plain, mut timed) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tensor = (0, 0, 0);
    for _ in 0..TRACED_ROUNDS {
        one.push(engine_run(&engine, out, 0, trace.len()));
        two.push(engine_run(&two_workers, out, 0, trace.len()));
        repeat_for(config.share(4), || plain.push(replay(&mut replica, out, plain.len())));
        trace::set_enabled(true);
        repeat_for(config.share(4), || {
            let i = timed.len() % trace.len();
            let start = Instant::now();
            let answered = traced_op(&mut tensor, || {
                traced.answer(&trace[i], &mut predictive, &mut traced_response)
            });
            timed.push(start.elapsed());
            out.check(answered.is_ok() && same_bits(&traced_response, &expected[i]));
        });
        trace::set_enabled(false);
    }
    let recording = trace::take();
    layer_metrics(out, &recording, tensor);
    out.recording = recording;
    let engine_per_request = quiet(&one) / trace.len() as f64;
    out.record("serve.engine.run_overhead_ratio", engine_per_request / quiet(&plain));
    out.record("pool.speedup_2w", quiet(&one) / quiet(&two));
    out.record("bench.trace_overhead", quiet(&timed) / quiet(&plain));
}

// ---------------------------------------------------------------------------------------------
// Cluster planning
// ---------------------------------------------------------------------------------------------

/// Distinct traces a cluster round plans, each from its own seed, so that p90 has ten plans
/// beyond it and no single trace's storm outcome sets the run's numbers.
const CLUSTER_TRACES: usize = 100;
/// Requests per trace, the chaos benchmark's grid size. A plan's trace and per-request state
/// then stay within a core's 2 MiB L2 cache. A 25k-request trace does not fit, and its
/// median plan time on one seed read 3.2 ms and 4.4 ms a minute apart, as other tenants'
/// memory traffic came and went.
const CLUSTER_REQUESTS: usize = 1000;
const CLUSTER_INTERARRIVAL_TICKS: u64 = 26;
const PLAN: &str = "serve.cluster.plan";

/// The chaos benchmark's crash storm over a trace spanning `span` ticks: staggered crashes on
/// shards 0 and 2, a 3× slow window on shard 1, a hot swap on shard 2 cancelled by checkpoint
/// corruption and a surviving swap on shard 3, under the degrade ladder and failover retries.
fn storm(span: u64, swap_seed: u64) -> (FaultPlan, Vec<ShardSwap>) {
    let faults = FaultPlan::new(vec![
        FaultEvent::ShardDown { tick: span / 8, shard: 0 },
        FaultEvent::SlowShard {
            shard: 1,
            from_tick: span / 4,
            until_tick: span * 3 / 4,
            multiplier: 3,
        },
        FaultEvent::ShardDown { tick: span * 3 / 8, shard: 2 },
        FaultEvent::CorruptCheckpoint { tick: span / 2, shard: 2 },
        FaultEvent::ShardUp { tick: span * 5 / 8, shard: 0 },
        FaultEvent::ShardUp { tick: span * 6 / 8, shard: 2 },
    ])
    .with_ladder(DegradeLadder {
        reduced_samples: 4,
        reduce_watermark: 2,
        moment_watermark: 7,
        shed_watermark: 10,
    })
    .with_retry(RetryPolicy {
        base_backoff_ticks: 64,
        max_backoff_ticks: 512,
        max_retries: 3,
    });
    let swaps = [2, 3]
        .into_iter()
        .map(|shard| ShardSwap {
            shard,
            swap: VersionSwap {
                at_tick: span / 2,
                source: ModelSource::Spec(ModelSpec::mlp(swap_seed)),
            },
        })
        .collect();
    (faults, swaps)
}

/// Digest of everything a plan decided: every outcome and every fault reaction.
fn plan_digest(plan: &ClusterPlan) -> String {
    let mut bytes = Vec::new();
    for outcome in &plan.outcomes {
        match *outcome {
            RequestOutcome::Shed { tick, shard, reason } => {
                bytes.push(0);
                bytes.extend(tick.to_le_bytes());
                bytes.extend((shard as u64).to_le_bytes());
                bytes.extend(reason.label().bytes());
            }
            RequestOutcome::Answered { shard, end_tick, escalated, upgraded } => {
                bytes.push(1);
                bytes.extend((shard as u64).to_le_bytes());
                bytes.extend(end_tick.to_le_bytes());
                bytes.extend([u8::from(escalated), u8::from(upgraded)]);
            }
        }
    }
    bytes.extend(plan.faults.to_json().to_compact().bytes());
    fnv1a_hex(bytes)
}

fn answered(plan: &ClusterPlan) -> usize {
    plan.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Answered { .. })).count()
}

fn run_cluster(config: &RunConfig, out: &mut Outcome) {
    let model = ModelSpec::mlp(weight_seed(config.seed));
    // Trace `k` has seed `mix_seed(seed, 4 + k)`; seeds 1 to 3 are the weights', the
    // trainer's and the swap's.
    let traces: Vec<Vec<InferRequest>> = (0..config.size(CLUSTER_TRACES) as u64)
        .map(|k| {
            WorkloadSpec::uniform(
                CLUSTER_REQUESTS,
                CLUSTER_INTERARRIVAL_TICKS,
                SERVE_SAMPLES,
                mix_seed(config.seed, 4 + k),
            )
            .with_arrival(ArrivalProcess::Bursty { mean_burst: 6 })
            .generate(&model)
        })
        .collect();
    let span = CLUSTER_REQUESTS as u64 * CLUSTER_INTERARRIVAL_TICKS;
    let build = || {
        let cluster = Cluster::new(ClusterConfig {
            source: ModelSource::Spec(model.clone()),
            mode: ServeMode::MonteCarlo,
            shards: 4,
            workers_per_shard: 1,
            batch: BatchPolicy { max_batch: 8, max_wait_ticks: 16 },
            queue_cap: 12,
            deadline_ticks: None,
            routing: RoutingPolicy::LeastLoaded,
            autoscale: None,
        });
        (cluster, storm(span, mix_seed(config.seed, 3)))
    };
    let (cluster, (faults, swaps)) = build();

    let references: Vec<ClusterPlan> =
        traces.iter().map(|trace| cluster.plan_with_faults(trace, &swaps, &faults)).collect();
    out.digest = fnv1a_hex(references.iter().map(plan_digest).collect::<String>().bytes());
    let conserved = references.iter().all(|p| answered(p) + p.sheds.len() == CLUSTER_REQUESTS);
    out.require(conserved, || "answered + shed != submitted".into());
    let plan = |out: &mut Outcome, k: usize| {
        let start = Instant::now();
        let plan = cluster.plan_with_faults(&traces[k], &swaps, &faults);
        let elapsed = start.elapsed();
        let reference = &references[k];
        out.check(plan.outcomes == reference.outcomes && plan.faults == reference.faults);
        elapsed
    };

    if !config.traced {
        let mut setup_s = f64::INFINITY;
        let mut plans = Best::default();
        rounds(config.seconds, || {
            setup_s = setup_s.min(setup_seconds(build));
            for k in 0..traces.len() {
                plans.record(k, plan(out, k));
            }
        });
        out.end_to_end(plans.rate(CLUSTER_REQUESTS), &plans.0, setup_s);
        return;
    }

    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_ROUNDS {
        repeat_for(config.share(2), || plain.push(plan(out, plain.len() % traces.len())));
        trace::set_enabled(true);
        repeat_for(config.share(2), || {
            let k = timed.len() % traces.len();
            timed.push(trace::op(|| trace::span(PLAN, || plan(out, k))));
        });
        trace::set_enabled(false);
    }
    out.recording = trace::take();
    let (totals, _) = trace::totals(&out.recording.spans);
    let planned = totals.get(PLAN).copied().unwrap_or_default();
    // Outcome counts are per plan, averaged over the traces; shares and latency percentiles
    // pool every trace's requests.
    let plans = references.len() as f64;
    let submitted = plans * CLUSTER_REQUESTS as f64;
    let total = |count: fn(&ClusterPlan) -> usize| references.iter().map(count).sum::<usize>();
    let retries = total(|p| p.faults.retries.len()) as f64;
    let sheds = total(|p| p.sheds.len()) as f64;
    let latencies: Vec<u64> = references.iter().flat_map(|p| p.latencies.iter().copied()).collect();
    let plan_ns = planned.total_ns as f64 / planned.spans as f64;
    for (name, value) in [
        ("serve.cluster.plan_ns_per_request", plan_ns / CLUSTER_REQUESTS as f64),
        ("serve.cluster.retries", retries / plans),
        ("serve.cluster.sheds", sheds / plans),
        ("serve.cluster.shed_share", sheds / submitted),
        ("serve.cluster.degrade_transitions", total(|p| p.faults.degrades.len()) as f64 / plans),
        ("serve.cluster.batches", total(|p| p.batches_per_shard.iter().sum()) as f64 / plans),
        ("serve.cluster.answered_per_attempt", total(answered) as f64 / (submitted + retries)),
        ("serve.sim_latency_p50_ticks", bnn_serve::latency_percentile(&latencies, 0.50) as f64),
        ("serve.sim_latency_p99_ticks", bnn_serve::latency_percentile(&latencies, 0.99) as f64),
        ("bench.trace_overhead", quiet(&timed) / quiet(&plain)),
    ] {
        out.record(name, value);
    }
}
