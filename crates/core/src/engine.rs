//! The unified engine/backend API: one entry point for eCNN and every
//! comparison flow, plus streaming multi-frame sessions.
//!
//! * [`Workload`] bundles what to run: a quantized model, an input block
//!   size and a [`RealTimeSpec`] target.
//! * [`Backend`] is the capability surface every inference flow implements
//!   (the eCNN simulator here, the frame-based / fused-layer / TPU / Diffy
//!   flows in `ecnn-baselines`): a [`FrameReport`] for any workload, and —
//!   for bit-exact backends — [`Backend::run_image`].
//! * [`EngineBuilder`] is the fluent front door to the eCNN simulator;
//!   [`Engine`] the built instance; [`Session`] a streaming handle that
//!   reuses its block/stitch buffers across frames.
//! * [`EngineError`] is the one structured error type for the whole
//!   surface, with [`std::error::Error::source`] chaining.

use crate::config::EngineConfig;
use crate::faults::FaultPlan;
use crate::report::SystemReport;
use crate::supervise::{DegradeRung, SupervisorCounters};
use crate::tune::{Fingerprint, TuningRecord};
use ecnn_dram::{DramConfig, DramPowerModel};
use ecnn_isa::compile::{compile, CompileError, CompiledProgram};
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::verify::memplan::{cost_model, CostReport};
use ecnn_isa::verify::{verify_compiled, VerifyMode, VerifyReport};
use ecnn_model::ernet::ErNetSpec;
use ecnn_model::{Model, ModelError, RealTimeSpec};
use ecnn_sim::cost::PowerModel;
use ecnn_sim::exec::{execute_with, BlockPlan, ExecError, ExecStats, Kernels, PlanePool};
use ecnn_sim::timing::simulate_frame;
use ecnn_sim::EcnnConfig;
use ecnn_tensor::Tensor;
use std::fmt;

/// What to run: a quantized model bound to a block size and a real-time
/// target. Backends interpret the same workload in their own flow.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The quantized model (carries the IR in `qm.model`).
    pub qm: QuantizedModel,
    /// Input block side for the block-based flow.
    pub block: usize,
    /// Output resolution and frame-rate target.
    pub spec: RealTimeSpec,
    /// Feature width in bits charged by frame-based baselines.
    pub feature_bits: u32,
}

impl Workload {
    /// A workload with the default 16-bit baseline feature width.
    pub fn new(qm: QuantizedModel, block: usize, spec: RealTimeSpec) -> Self {
        Self {
            qm,
            block,
            spec,
            feature_bits: 16,
        }
    }

    /// Builds an ERNet spec with uniform demo parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for invalid specs.
    pub fn ernet(spec: ErNetSpec, block: usize, rt: RealTimeSpec) -> Result<Self, EngineError> {
        let model = spec.build()?;
        Ok(Self::new(QuantizedModel::uniform(&model), block, rt))
    }

    /// The model IR.
    pub fn model(&self) -> &Model {
        &self.qm.model
    }

    /// Same workload with a different baseline feature width.
    pub fn with_feature_bits(mut self, bits: u32) -> Self {
        self.feature_bits = bits;
        self
    }
}

/// An image whose geometry does not match the deployed program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageMismatch {
    /// Offered image width in pixels.
    pub width: usize,
    /// Offered image height in pixels.
    pub height: usize,
    /// Offered image channels.
    pub channels: usize,
    /// Channels the deployed model consumes.
    pub expected_channels: usize,
    /// Input block side the program was compiled for.
    pub block: usize,
}

impl fmt::Display for ImageMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image {}x{} with {} channel(s): model wants {} channel(s) (input blocks {}x{})",
            self.width, self.height, self.channels, self.expected_channels, self.block, self.block
        )
    }
}

/// Errors across the engine/backend surface.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The builder was missing a required component.
    Missing(&'static str),
    /// A model spec failed to build.
    Model(ModelError),
    /// Compilation failed (infeasible geometry, unsupported op, …).
    Compile(CompileError),
    /// Block execution failed (simulator invariant violation).
    Exec(ExecError),
    /// Static verification rejected the program (see
    /// [`mod@ecnn_isa::verify`]); the report carries the ranked diagnostics.
    Verify(Box<VerifyReport>),
    /// The resolved [`EngineConfig`] is incoherent (zero workers, a
    /// coalesced layout with verification off, a tuning record whose
    /// fingerprint does not match the model/resolution, …): a structured
    /// build-time rejection instead of a silent fallback.
    Config {
        /// Which knob is at fault (`"workers"`, `"coalesce"`,
        /// `"tuning-record"`, …).
        param: &'static str,
        /// Human-readable description of the conflict.
        detail: String,
    },
    /// The image cannot be processed by this deployment.
    Image(ImageMismatch),
    /// The backend does not implement the requested capability.
    Unsupported {
        /// Backend name.
        backend: String,
        /// The capability that was requested (e.g. `"run_image"`).
        capability: &'static str,
    },
    /// A sharded worker failed; carries which shard and which block of the
    /// frame's grid, plus the underlying error.
    Shard {
        /// Worker index within the sharded backend.
        shard: usize,
        /// Row-major index of the failing block in the frame's block grid.
        block: usize,
        /// The error the worker hit.
        source: Box<EngineError>,
    },
    /// A sharded worker panicked (a bug, not an input error).
    Worker {
        /// Worker index within the sharded backend.
        shard: usize,
        /// The panic payload, when it was a `&str` / `String` message —
        /// so post-mortems name the actual panic.
        message: Option<String>,
    },
    /// A band's output failed an integrity check — the corruption-class
    /// failure the supervision layer's degradation ladder reacts to
    /// (today produced only by [`crate::faults`] injection; a real
    /// detector would raise the same variant). The band is never pasted,
    /// so a frame that eventually completes stays bit-identical.
    Corrupt {
        /// First block row of the band whose output was corrupt.
        band: usize,
        /// Kernel family that produced the corrupt output.
        kernels: &'static str,
    },
    /// A pipelined frame failed in flight; carries the frame's submission
    /// index, the worker (shard) that hit the failure and the failing
    /// block of the frame's grid, plus the underlying error.
    Frame {
        /// Submission index of the frame within its [`crate::pipe::AsyncSession`].
        frame: usize,
        /// Worker index within the session's pool.
        shard: usize,
        /// Row-major index of the failing block in the frame's block grid.
        block: usize,
        /// The error the worker hit.
        source: Box<EngineError>,
    },
    /// A frame ticket unknown to the session it was polled on: never
    /// issued there, or its result was already claimed.
    Ticket {
        /// Submission index the ticket names.
        frame: usize,
    },
    /// A band-execution request addressed block rows outside the frame's
    /// grid (or an empty range).
    Rows {
        /// First requested block row.
        start: usize,
        /// One past the last requested block row.
        end: usize,
        /// Block rows the frame's grid actually has.
        available: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Missing(what) => write!(f, "engine builder: missing {what}"),
            EngineError::Model(e) => write!(f, "model: {e}"),
            EngineError::Compile(e) => write!(f, "compile: {e}"),
            EngineError::Exec(e) => write!(f, "execute: {e}"),
            EngineError::Verify(report) => {
                let first = report
                    .errors()
                    .next()
                    .or_else(|| report.diagnostics.first());
                match first {
                    Some(d) => write!(
                        f,
                        "verify: {} finding(s), first: {d}",
                        report.diagnostics.len()
                    ),
                    None => write!(f, "verify: rejected"),
                }
            }
            EngineError::Config { param, detail } => {
                write!(f, "config: {param}: {detail}")
            }
            EngineError::Image(m) => write!(f, "image: {m}"),
            EngineError::Unsupported {
                backend,
                capability,
            } => {
                write!(f, "backend {backend} does not support {capability}")
            }
            EngineError::Shard {
                shard,
                block,
                source,
            } => {
                write!(f, "shard {shard} failed at block {block}: {source}")
            }
            EngineError::Worker { shard, message } => match message {
                Some(msg) => write!(f, "shard {shard} worker panicked: {msg}"),
                None => write!(f, "shard {shard} worker panicked"),
            },
            EngineError::Corrupt { band, kernels } => {
                write!(
                    f,
                    "corrupt band output detected at block row {band} ({kernels} kernels)"
                )
            }
            EngineError::Frame {
                frame,
                shard,
                block,
                source,
            } => {
                write!(
                    f,
                    "frame {frame} failed in flight (shard {shard}, block {block}): {source}"
                )
            }
            EngineError::Ticket { frame } => {
                write!(f, "frame ticket {frame}: unknown or already claimed")
            }
            EngineError::Rows {
                start,
                end,
                available,
            } => {
                write!(
                    f,
                    "block rows {start}..{end} outside the frame grid of {available} row(s)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Model(e) => Some(e),
            EngineError::Compile(e) => Some(e),
            EngineError::Exec(e) => Some(e),
            EngineError::Shard { source, .. } | EngineError::Frame { source, .. } => {
                Some(&**source)
            }
            _ => None,
        }
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// Per-image execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageRunStats {
    /// Blocks executed.
    pub blocks: usize,
    /// Aggregated executor counters.
    pub exec: ExecStats,
    /// Supervision counters for this frame (retries, respawns, deadline
    /// hits, degradations, per-band attempt histogram). All-zero on the
    /// unsupervised paths (serial session, sharded one-shot).
    pub supervisor: SupervisorCounters,
}

impl ImageRunStats {
    fn absorb(&mut self, s: ExecStats, blocks: usize) {
        self.blocks += blocks;
        self.exec.accumulate(&s);
    }

    /// Adds another run's counters into this one (sharded-band merging).
    pub fn merge(&mut self, other: &ImageRunStats) {
        self.absorb(other.exec, other.blocks);
        self.supervisor.absorb(&other.supervisor);
    }
}

/// Backend-agnostic frame-level result: what one inference flow delivers
/// on one workload. Every backend fills the common fields; flow-specific
/// quantities that have no equivalent elsewhere stay `None`.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Backend name.
    pub backend: String,
    /// Model name.
    pub workload: String,
    /// The real-time target evaluated against.
    pub spec: RealTimeSpec,
    /// Achievable frames per second.
    pub fps: f64,
    /// Whether `fps` meets the spec.
    pub meets_realtime: bool,
    /// DRAM traffic per output frame, bytes.
    pub dram_bytes_per_frame: f64,
    /// Sustained DRAM bandwidth at the spec-capped rate, bytes/s.
    pub dram_bps: f64,
    /// On-chip SRAM holding features (block buffers, line buffers or
    /// unified buffer), bytes.
    pub feature_sram_bytes: f64,
    /// Power estimate in watts, when the flow models power.
    pub power_w: Option<f64>,
    /// Effective compute throughput in TOPS, when modelled.
    pub tops: Option<f64>,
    /// Datapath utilization in `[0, 1]`, when modelled.
    pub utilization: Option<f64>,
    /// Flow-specific remark (provenance, caveats).
    pub note: String,
}

impl FrameReport {
    /// Header matching [`FrameReport`]'s `Display` row.
    pub fn table_header() -> String {
        format!(
            "{:<12} {:<22} {:>6} {:>8} {:>3} {:>10} {:>10} {:>8} {:>6}",
            "backend", "workload", "spec", "fps", "RT", "DRAM GB/s", "SRAM KB", "power W", "util%"
        )
    }

    /// Renders `reports` as one aligned comparison table.
    pub fn table(reports: &[FrameReport]) -> String {
        let mut s = Self::table_header();
        for r in reports {
            s.push('\n');
            s.push_str(&r.to_string());
        }
        s
    }
}

impl fmt::Display for FrameReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<f64>, mul: f64| match v {
            Some(x) => format!("{:.1}", x * mul),
            None => "-".into(),
        };
        write!(
            f,
            "{:<12} {:<22} {:>6} {:>8.1} {:>3} {:>10.2} {:>10.0} {:>8} {:>6}",
            self.backend,
            self.workload,
            self.spec.name,
            self.fps,
            if self.meets_realtime { "yes" } else { "NO" },
            self.dram_bps / 1e9,
            self.feature_sram_bytes / 1024.0,
            opt(self.power_w, 1.0),
            opt(self.utilization, 100.0),
        )
    }
}

/// One inference flow: the eCNN block-based simulator or any of the
/// comparison baselines. Minimal capability is an analytical
/// [`FrameReport`]; bit-exact flows additionally run real images.
pub trait Backend {
    /// Short stable identifier (`"ecnn"`, `"frame-based"`, `"ecnn[x2]"`,
    /// …).
    fn name(&self) -> &str;

    /// Frame-level throughput / traffic / power for `workload`.
    ///
    /// # Errors
    ///
    /// Backend-specific; the eCNN backend propagates compilation errors.
    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError>;

    /// Whether [`Backend::run_image`] is implemented.
    fn supports_run_image(&self) -> bool {
        false
    }

    /// Runs one image through the flow bit-exactly, if supported.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] unless the backend overrides this.
    fn run_image(
        &self,
        workload: &Workload,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        let _ = (workload, image);
        Err(EngineError::Unsupported {
            backend: self.name().to_string(),
            capability: "run_image",
        })
    }

    /// The flow's block-parallel execution capability, when it has one
    /// (`None` for purely analytical flows). [`crate::sharded::ShardedBackend`]
    /// uses this to partition `run_image`'s block grid across workers.
    fn block_parallel(&self) -> Option<&dyn crate::sharded::BlockParallel> {
        None
    }
}

/// Fluent constructor for [`Engine`]: model spec → quantization → block
/// size → real-time spec → machine/power/DRAM models, with paper defaults
/// for everything but the model and block size.
///
/// Every plan-time knob — block size, worker count, kernel family, plane
/// layout, verification mode — resolves into one canonical
/// [`EngineConfig`]; the per-knob setters below are thin sugar over it.
/// Resolution order, weakest first: defaults, a
/// [`TuningRecord`] from
/// [`EngineBuilder::tuned`], the explicit setters (or
/// [`EngineBuilder::engine_config`]), and the `ECNN_*` environment
/// overrides (see [`crate::config`]). [`Engine::config`] returns the
/// resolved value.
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    pub(crate) ernet: Option<ErNetSpec>,
    pub(crate) model: Option<Model>,
    pub(crate) qm: Option<QuantizedModel>,
    pub(crate) block: Option<usize>,
    pub(crate) spec: Option<RealTimeSpec>,
    feature_bits: Option<u32>,
    machine: Option<EcnnConfig>,
    power: Option<PowerModel>,
    dram_power: Option<DramPowerModel>,
    verify: Option<VerifyMode>,
    kernels: Option<Kernels>,
    coalesce: Option<bool>,
    workers: Option<usize>,
    faults: Option<FaultPlan>,
    record: Option<TuningRecord>,
    /// Candidate builds inside the autotuner must be exact: they bypass
    /// the `ECNN_*` environment overrides.
    pub(crate) skip_env: bool,
}

impl EngineBuilder {
    /// Use an ERNet family spec (built during [`EngineBuilder::build`]).
    pub fn ernet(mut self, spec: ErNetSpec) -> Self {
        self.ernet = Some(spec);
        self
    }

    /// Use an already-built model IR (quantized uniformly unless
    /// [`EngineBuilder::quantized`] provides parameters).
    pub fn model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Use trained quantized parameters (implies their model).
    pub fn quantized(mut self, qm: QuantizedModel) -> Self {
        self.qm = Some(qm);
        self
    }

    /// Input block side (`xi`).
    pub fn block(mut self, xi: usize) -> Self {
        self.block = Some(xi);
        self
    }

    /// Real-time target; defaults to [`RealTimeSpec::UHD30`].
    pub fn realtime(mut self, spec: RealTimeSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Feature bits charged by frame-based baselines on this workload.
    pub fn feature_bits(mut self, bits: u32) -> Self {
        self.feature_bits = Some(bits);
        self
    }

    /// Machine (hardware) configuration; defaults to
    /// [`EcnnConfig::paper`]. Distinct from the plan-time
    /// [`EngineConfig`]: this describes the modelled silicon, not the
    /// software execution strategy.
    pub fn machine(mut self, config: EcnnConfig) -> Self {
        self.machine = Some(config);
        self
    }

    /// On-chip power model; defaults to [`PowerModel::paper_40nm`].
    pub fn power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// DRAM power model; defaults to [`DramPowerModel::DDR4_3200`].
    pub fn dram_power(mut self, dram: DramPowerModel) -> Self {
        self.dram_power = Some(dram);
        self
    }

    /// Static-verification mode run at build time; defaults to
    /// [`VerifyMode::Lints`] (hard errors fatal, lints tolerated and
    /// recorded on [`Engine::verify_report`]). [`VerifyMode::Strict`]
    /// also fails the build on lints; [`VerifyMode::Off`] skips the
    /// verifier and the plan cross-check entirely.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = Some(mode);
        self
    }

    /// Accumulation kernels every execution path of this engine runs
    /// ([`Session`], [`crate::pipe::AsyncSession`] workers,
    /// [`crate::sharded::ShardedBackend`] shards). Defaults to
    /// [`Kernels::Simd`] — runtime-dispatched explicit SIMD with the
    /// verifier-licensed narrow path, bit-identical to the other
    /// variants. The `ECNN_KERNELS` environment variable
    /// (`packed|simd|reference`, case-insensitive) overrides whatever is
    /// set here, for ops debugging without a rebuild.
    pub fn kernels(mut self, kernels: Kernels) -> Self {
        self.kernels = Some(kernels);
        self
    }

    /// Whether sessions run the verifier-licensed coalesced plane layout
    /// (lifetime-disjoint planes sharing physical slots; see
    /// `BlockPlan::memory_plan`). Defaults to `true`; output is
    /// bit-identical either way, only the pool's peak resident bytes
    /// differ. `false` forces the keyed one-slot-per-plane layout — for
    /// A/B measurement and as an ops escape hatch. Programs without an
    /// error-free verification always run keyed, regardless of this
    /// knob.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.coalesce = Some(on);
        self
    }

    /// Worker parallelism the engine's auto paths run at:
    /// [`Engine::run_image_auto`] shards by it,
    /// [`Engine::async_session_auto`] sizes its pool with it, and the
    /// autotuner searches over it. Defaults to `1` (serial); zero is a
    /// structured [`EngineError::Config`] at build.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Deterministic fault-injection plan the supervision layer runs
    /// under (see [`crate::faults`]); default none. The `ECNN_FAULTS`
    /// environment variable overrides whatever is set here (and
    /// `ECNN_FAULTS=off` clears it), like the other `ECNN_*` knobs.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets every plan-time knob at once from a resolved
    /// [`EngineConfig`] — equivalent to calling [`EngineBuilder::block`],
    /// [`EngineBuilder::workers`], [`EngineBuilder::kernels`],
    /// [`EngineBuilder::coalesce`], [`EngineBuilder::verify`] and
    /// [`EngineBuilder::faults`] explicitly.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.block = Some(cfg.block);
        self.workers = Some(cfg.workers);
        self.kernels = Some(cfg.kernels);
        self.coalesce = Some(cfg.coalesce);
        self.verify = Some(cfg.verify);
        self.faults = cfg.faults;
        self
    }

    /// Replays a pinned autotuning result: the record's embedded
    /// [`EngineConfig`] becomes the baseline (explicit setters and
    /// `ECNN_*` overrides still win), and [`EngineBuilder::build`]
    /// rejects the build with [`EngineError::Config`] unless the
    /// record's fingerprint matches the resolved model, quantized
    /// parameters and real-time resolution — a record tuned for one
    /// deployment cannot silently misconfigure another.
    pub fn tuned(mut self, record: TuningRecord) -> Self {
        self.record = Some(record);
        self
    }

    /// Compiles the workload and returns a runnable [`Engine`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Missing`] without a model or block size;
    /// [`EngineError::Config`] for an incoherent resolved
    /// [`EngineConfig`] (zero block or workers, `coalesce(true)` with
    /// [`VerifyMode::Off`]) or a tuning-record fingerprint mismatch;
    /// [`EngineError::Model`] / [`EngineError::Compile`] for invalid specs
    /// or infeasible geometry; [`EngineError::Verify`] when the static
    /// verifier rejects the compiled program under the selected
    /// [`VerifyMode`].
    pub fn build(self) -> Result<Engine, EngineError> {
        let qm = match (self.qm, self.model, self.ernet) {
            (Some(qm), _, _) => qm,
            (None, Some(model), _) => QuantizedModel::uniform(&model),
            (None, None, Some(spec)) => QuantizedModel::uniform(&spec.build()?),
            (None, None, None) => return Err(EngineError::Missing("model")),
        };
        // Resolve the canonical plan-time config: defaults ← tuning
        // record ← explicit setters ← ECNN_* environment overrides (the
        // ops escape hatch, so a deployed binary can be steered onto a
        // known-good path without a rebuild).
        let base = self.record.as_ref().map(|r| &r.config);
        let block = self
            .block
            .or(base.map(|c| c.block))
            .ok_or(EngineError::Missing("block size"))?;
        let mut cfg = EngineConfig {
            block,
            workers: self.workers.or(base.map(|c| c.workers)).unwrap_or(1),
            kernels: self
                .kernels
                .or(base.map(|c| c.kernels))
                .unwrap_or(Kernels::Simd),
            coalesce: true, // resolved below, against the verify mode
            verify: self.verify.or(base.map(|c| c.verify)).unwrap_or_default(),
            faults: self
                .faults
                .clone()
                .or_else(|| base.and_then(|c| c.faults.clone())),
        };
        let mut coalesce = self.coalesce.or(base.map(|c| c.coalesce));
        let env = if self.skip_env {
            crate::config::EnvOverrides::default()
        } else {
            EngineConfig::from_env_overrides()
        };
        env.apply(&mut cfg);
        if let Some(c) = env.coalesce {
            coalesce = Some(c);
        }
        // Coherence checks: reject contradictions instead of silently
        // falling back.
        if cfg.block == 0 {
            return Err(EngineError::Config {
                param: "block",
                detail: "block size must be nonzero".into(),
            });
        }
        if cfg.workers == 0 {
            return Err(EngineError::Config {
                param: "workers",
                detail: "worker count must be nonzero (1 = serial)".into(),
            });
        }
        cfg.coalesce = match (coalesce, cfg.verify) {
            (Some(true), VerifyMode::Off) => {
                return Err(EngineError::Config {
                    param: "coalesce",
                    detail: "the coalesced plane layout requires a verification license; \
                             use verify(Lints|Strict) or coalesce(false)"
                        .into(),
                })
            }
            // Unset coalesce with the verifier off resolves to the keyed
            // layout: there is no license to coalesce under.
            (None, VerifyMode::Off) => false,
            (explicit, _) => explicit.unwrap_or(true),
        };
        let mut workload = Workload::new(qm, cfg.block, self.spec.unwrap_or(RealTimeSpec::UHD30));
        if let Some(bits) = self.feature_bits {
            workload = workload.with_feature_bits(bits);
        }
        if let Some(record) = &self.record {
            let fp = Fingerprint::of(&workload.qm, workload.spec);
            if fp != record.fingerprint {
                return Err(EngineError::Config {
                    param: "tuning-record",
                    detail: format!(
                        "fingerprint mismatch: record tuned for {}, building {}",
                        record.fingerprint, fp
                    ),
                });
            }
        }
        let compiled = compile(&workload.qm, workload.block)?;
        // Static verification before planning: a rejected program never
        // reaches the executor.
        let mut report = (cfg.verify != VerifyMode::Off).then(|| verify_compiled(&compiled));
        if let Some(rpt) = &report {
            if rpt.has_errors() {
                return Err(EngineError::Verify(Box::new(rpt.clone())));
            }
        }
        {
            // Plan once up front so structurally invalid programs surface
            // here as a structured error rather than on the first frame —
            // and cross-check the plan's plane table against the
            // verifier's independent derivation (differential oracle).
            let plan = BlockPlan::new(&compiled.program, &compiled.leafs)?;
            if let Some(rpt) = report.as_mut() {
                let divergences = ecnn_sim::exec::crosscheck_plan(&plan, rpt);
                rpt.diagnostics.extend(divergences);
                if !rpt.passes(cfg.verify) {
                    return Err(EngineError::Verify(Box::new(rpt.clone())));
                }
            }
        }
        Ok(Engine {
            machine: self.machine.unwrap_or_else(EcnnConfig::paper),
            power: self.power.unwrap_or_else(PowerModel::paper_40nm),
            dram_power: self.dram_power.unwrap_or(DramPowerModel::DDR4_3200),
            workload,
            compiled,
            verify_report: report,
            resolved: cfg,
            env_notes: env.notes,
        })
    }
}

/// A compiled eCNN workload bound to a machine configuration — the
/// unified entry point of the system API.
#[derive(Clone, Debug)]
pub struct Engine {
    machine: EcnnConfig,
    power: PowerModel,
    dram_power: DramPowerModel,
    workload: Workload,
    compiled: CompiledProgram,
    verify_report: Option<VerifyReport>,
    resolved: EngineConfig,
    env_notes: Vec<String>,
}

impl Engine {
    /// Starts a fluent build.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The resolved plan-time [`EngineConfig`] this engine runs under —
    /// every knob after defaults, tuning record, explicit setters and
    /// `ECNN_*` overrides were folded together. This is the value a
    /// [`TuningRecord`] embeds verbatim.
    pub fn config(&self) -> &EngineConfig {
        &self.resolved
    }

    /// Machine (hardware) configuration — the modelled silicon, distinct
    /// from the plan-time [`Engine::config`].
    pub fn machine(&self) -> &EcnnConfig {
        &self.machine
    }

    /// The `ECNN_*` environment overrides observed at build time (one
    /// note per variable seen, applied or ignored); empty when the
    /// environment set none. Also surfaced in the
    /// [`FrameReport`] note.
    pub fn env_overrides(&self) -> &[String] {
        &self.env_notes
    }

    /// The workload this engine was built for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The build-time static-verification report (plane table, proven
    /// value ranges, surviving lints). `None` when the engine was built
    /// with [`VerifyMode::Off`].
    pub fn verify_report(&self) -> Option<&VerifyReport> {
        self.verify_report.as_ref()
    }

    /// The kernel selection every session/worker/shard of this engine
    /// executes with (see [`EngineBuilder::kernels`]).
    pub fn kernels(&self) -> Kernels {
        self.resolved.kernels
    }

    /// Whether sessions of this engine run the coalesced plane layout
    /// (see [`EngineBuilder::coalesce`]). `true` only states intent — a
    /// program without an error-free verification still falls back to
    /// the keyed layout at plan time.
    pub fn coalesced(&self) -> bool {
        self.resolved.coalesce
    }

    /// The resolved worker parallelism ([`EngineBuilder::workers`]):
    /// what [`Engine::run_image_auto`] and
    /// [`Engine::async_session_auto`] run at.
    pub fn workers(&self) -> usize {
        self.resolved.workers
    }

    /// The active fault-injection plan, when one is configured and
    /// non-empty (see [`crate::faults`]). `None` — the production case —
    /// means supervised dispatch skips injection entirely.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.resolved.faults.as_ref().filter(|p| !p.is_empty())
    }

    /// The static cost model of the compiled program: exact per-block
    /// MAC / traffic / instruction counts (proven equal to one block
    /// execution's observed [`ExecStats`] work counters), the keyed peak
    /// plane bytes, and — when verification licensed one — the coalesced
    /// [`ecnn_isa::verify::memplan::MemoryPlan`]. Computed on demand from
    /// the build-time verification report (re-verifying only when the
    /// engine was built with [`VerifyMode::Off`]); this is the autotuner's
    /// static ranking signal — no frame needs to run.
    pub fn cost_report(&self) -> CostReport {
        let fresh;
        let report = match &self.verify_report {
            Some(r) => r,
            None => {
                fresh = verify_compiled(&self.compiled);
                &fresh
            }
        };
        cost_model(&self.compiled.program, report)
    }

    /// The source model.
    pub fn model(&self) -> &Model {
        &self.workload.qm.model
    }

    /// The quantized model this engine was built from.
    pub fn quantized_model(&self) -> &QuantizedModel {
        &self.workload.qm
    }

    /// Opens a streaming session that reuses block/stitch buffers across
    /// frames — the hot path for multi-frame traffic.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Opens a session executing on an explicit degradation rung —
    /// kernels and plane layout overridden per session, everything else
    /// (program, plan geometry, quantization) unchanged. This is how the
    /// supervisor's workers fall Simd → Packed → Reference and coalesced
    /// → keyed without rebuilding the engine; every rung is
    /// verifier-licensed and bit-identical.
    pub fn session_at(&self, rung: DegradeRung) -> Session<'_> {
        Session::new_with(self, rung.kernels, rung.coalesce)
    }

    /// Opens a pipelined session on `workers` long-lived worker threads:
    /// submitted frames are quantized, executed and stitched as
    /// overlapping band stages, and results come back through poll-based
    /// tickets. Output pixels are bit-identical to [`Session::run_frames`]
    /// at any worker count; see [`crate::pipe::AsyncSession`].
    pub fn async_session(&self, workers: usize) -> crate::pipe::AsyncSession {
        crate::pipe::AsyncSession::new(self, workers)
    }

    /// Opens a pipelined session sized by the engine's resolved worker
    /// count ([`EngineBuilder::workers`], a replayed tuning record, or
    /// `ECNN_WORKERS`) — [`Engine::async_session`] at
    /// [`Engine::workers`].
    pub fn async_session_auto(&self) -> crate::pipe::AsyncSession {
        self.async_session(self.resolved.workers)
    }

    /// Runs a single image through the block pipeline (partition →
    /// recompute → stitch) on the bit-exact simulator.
    ///
    /// One-shot convenience over [`Engine::session`]; streaming callers
    /// should hold a session to amortize buffer allocation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; propagates
    /// simulator errors.
    pub fn run_image(
        &self,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        let mut session = self.session();
        session.process(image)?;
        let stats = session.last_frame_stats();
        Ok((session.into_frame().expect("frame processed above"), stats))
    }

    /// Frame-level timing / traffic / power report at the workload's
    /// real-time spec.
    pub fn system_report(&self) -> SystemReport {
        self.system_report_at(self.workload.spec)
    }

    /// Frame-level timing / traffic / power report at an explicit spec.
    pub fn system_report_at(&self, spec: RealTimeSpec) -> SystemReport {
        let frame = simulate_frame(
            &self.compiled,
            &self.workload.qm.model,
            &self.machine,
            spec.width,
            spec.height,
        );
        let power = self.power.evaluate(&frame);
        // DRAM power at the *spec* rate (the processor idles once real-time
        // is met), split read/write by DI/DO shares.
        let target_fps = spec.fps.min(frame.fps);
        let rd = frame.di_bytes_per_frame as f64 * target_fps;
        let wr = frame.do_bytes_per_frame as f64 * target_fps;
        let dram_power = self.dram_power.power(rd, wr);
        let dram_config = DramConfig::minimal_for(rd + wr, 0.55);
        SystemReport {
            spec,
            frame,
            power,
            dram_power,
            dram_config,
            meets_realtime: false, // fixed below
        }
        .finalize()
    }

    /// Output frame dimensions `(out_h, out_w)` for `image`, derived
    /// integer-exactly from the model's rational output scale. This is
    /// the single source of truth every execution path (whole-frame,
    /// band, sharded, pipelined) stitches against: truncating the float
    /// product `dim * output_scale()` can land one pixel short of the
    /// block-grid geometry for non-power-of-two scale denominators.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; [`EngineError::Rows`]
    /// when the output would be empty (zero output rows or columns), so
    /// every downstream grid has at least one block row.
    pub fn out_dims(&self, image: &Tensor<f32>) -> Result<(usize, usize), EngineError> {
        let p = &self.compiled.program;
        if image.channels() != p.di_channels {
            return Err(EngineError::Image(ImageMismatch {
                width: image.width(),
                height: image.height(),
                channels: image.channels(),
                expected_channels: p.di_channels,
                block: p.di_side,
            }));
        }
        let (num, den) = self.workload.qm.model.output_scale_rational();
        let out_h = image.height() * num / den;
        let out_w = image.width() * num / den;
        if out_h == 0 || out_w == 0 {
            // A frame with no output blocks: structured error at entry
            // rather than a silent empty grid downstream.
            return Err(EngineError::Rows {
                start: 0,
                end: 0,
                available: 0,
            });
        }
        Ok((out_h, out_w))
    }

    /// Block-grid shape `(rows, cols)` of the output frame for `image` —
    /// the one derivation every partitioned path (sharded, pipelined)
    /// addresses blocks by, each at least 1 whenever [`Engine::out_dims`]
    /// accepts the image.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; [`EngineError::Rows`]
    /// for frames whose output grid would be empty.
    pub fn grid_dims(&self, image: &Tensor<f32>) -> Result<(usize, usize), EngineError> {
        let (out_h, out_w) = self.out_dims(image)?;
        let xo = self.compiled.program.do_side;
        Ok((out_h.div_ceil(xo), out_w.div_ceil(xo)))
    }

    /// Number of block rows in the frame grid for `image` — the unit the
    /// sharded backend partitions across workers (see
    /// [`Engine::grid_dims`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::grid_dims`].
    pub fn grid_rows(&self, image: &Tensor<f32>) -> Result<usize, EngineError> {
        Ok(self.grid_dims(image)?.0)
    }

    /// The unified cross-backend view of [`Engine::system_report`].
    pub fn frame_report(&self) -> FrameReport {
        self.frame_report_at(self.workload.spec)
    }

    /// [`Engine::frame_report`] evaluated at an explicit real-time spec
    /// (the sharded backend reports each worker's band this way without
    /// rebuilding the engine).
    pub fn frame_report_at(&self, spec: RealTimeSpec) -> FrameReport {
        let sr = self.system_report_at(spec);
        let cost = self.cost_report();
        let (mem_bytes, mem_mode) = match (&cost.memory, self.resolved.coalesce) {
            (Some(m), true) => (m.peak_bytes, "coalesced"),
            _ => (cost.keyed_peak_bytes, "keyed"),
        };
        let env_note = if self.env_notes.is_empty() {
            String::new()
        } else {
            format!(", env [{}]", self.env_notes.join(", "))
        };
        let fault_note = match self.fault_plan() {
            Some(plan) => format!(", faults [{plan}]"),
            None => String::new(),
        };
        FrameReport {
            backend: "ecnn".into(),
            workload: self.workload.qm.model.name().to_string(),
            spec: sr.spec,
            fps: sr.frame.fps,
            meets_realtime: sr.meets_realtime,
            dram_bytes_per_frame: (sr.frame.di_bytes_per_frame + sr.frame.do_bytes_per_frame)
                as f64,
            dram_bps: sr.dram_bandwidth_bps(),
            feature_sram_bytes: self.machine.total_bb_bytes() as f64,
            power_w: Some(sr.power.total_w() + sr.dram_power.total_mw() / 1e3),
            tops: Some(sr.frame.achieved_tops),
            utilization: Some(sr.frame.lconv3_busy),
            note: format!(
                "block {}x{}, NBR {:.2}, NCR {:.2}, DRAM {}, kernels {}, planes {}KB {}{}{}",
                self.workload.block,
                self.workload.block,
                sr.frame.nbr,
                sr.frame.ncr,
                sr.dram_config.map_or("(none fits)", |c| c.name),
                self.resolved
                    .kernels
                    .variant(ecnn_sim::kernels::simd::detect())
                    .name(),
                mem_bytes.div_ceil(1024),
                mem_mode,
                fault_note,
                env_note,
            ),
        }
    }
}

/// Streaming multi-frame inference over one [`Engine`].
///
/// The session is the per-worker execution context of the plan/execute
/// split: it holds the engine's [`BlockPlan`] plus one [`PlanePool`], and
/// all working buffers — the receptive-field crop, its quantized codes,
/// the dequantized output block, the stitched frame and the pooled planes
/// — are allocated once and reused across blocks *and* frames, so
/// steady-state streaming performs zero per-block allocations (observable
/// via [`ExecStats::planes_allocated`]).
pub struct Session<'e> {
    engine: &'e Engine,
    /// The engine program's execution plan (shape/lifetime of every plane).
    plan: BlockPlan<'e>,
    /// This worker's plane arena.
    pool: PlanePool,
    /// Receptive-field crop scratch, `di_channels × xi × xi`.
    block_f: Tensor<f32>,
    /// Quantized input codes scratch, same shape.
    codes: Tensor<i16>,
    /// Dequantized output block scratch, `do_channels × xo × xo`.
    block_out: Tensor<f32>,
    /// Stitched output frame (allocated on the first frame, resized only
    /// when the input geometry changes).
    frame: Option<Tensor<f32>>,
    frames: usize,
    frame_reallocs: usize,
    /// Row-major grid index of the most recently started block.
    last_block: Option<usize>,
    last_stats: ImageRunStats,
    totals: ImageRunStats,
    /// Kernel selection inherited from the engine at session open.
    kernels: Kernels,
}

impl<'e> Session<'e> {
    fn new(engine: &'e Engine) -> Self {
        Self::new_with(engine, engine.resolved.kernels, engine.resolved.coalesce)
    }

    fn new_with(engine: &'e Engine, kernels: Kernels, coalesce: bool) -> Self {
        let p = &engine.compiled.program;
        let mut plan = BlockPlan::new(&engine.compiled.program, &engine.compiled.leafs)
            .expect("engine build validated the plan");
        if !coalesce {
            plan.force_keyed();
        }
        Self {
            engine,
            plan,
            pool: PlanePool::new(),
            block_f: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            codes: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            block_out: Tensor::zeros(p.do_channels, p.do_side, p.do_side),
            frame: None,
            frames: 0,
            frame_reallocs: 0,
            last_block: None,
            last_stats: ImageRunStats::default(),
            totals: ImageRunStats::default(),
            kernels,
        }
    }

    /// The engine this session streams on.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The kernel selection this session executes with (inherited from
    /// [`Engine::kernels`] at open).
    pub fn kernels(&self) -> Kernels {
        self.kernels
    }

    /// Processes one frame; the returned reference points at the
    /// session-owned stitched frame, valid until the next call.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches; propagates
    /// simulator errors.
    pub fn process(&mut self, image: &Tensor<f32>) -> Result<&Tensor<f32>, EngineError> {
        let rows = self.grid_rows(image)?;
        self.process_rows(image, 0..rows)
    }

    /// Drains a queue of frames through the session, returning one
    /// stitched output per frame. The batched entry point for
    /// serving-style callers: every frame reuses the session's pooled
    /// buffers, only the returned copies allocate.
    ///
    /// # Errors
    ///
    /// Stops at the first failing frame (outputs of earlier frames are
    /// dropped); see [`Session::process`].
    pub fn run_frames<'a, I>(&mut self, frames: I) -> Result<Vec<Tensor<f32>>, EngineError>
    where
        I: IntoIterator<Item = &'a Tensor<f32>>,
    {
        frames
            .into_iter()
            .map(|f| self.process(f).cloned())
            .collect()
    }

    /// Number of block rows in the frame grid for `image` (see
    /// [`Engine::grid_rows`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches.
    pub fn grid_rows(&self, image: &Tensor<f32>) -> Result<usize, EngineError> {
        self.engine.grid_rows(image)
    }

    /// Processes only the block rows `rows` of `image`'s grid, stitching
    /// them into a band-sized frame — the building block the sharded
    /// backend hands to each worker. Blocks are addressed in the *global*
    /// grid, so a band's pixels are bit-identical to the same rows of a
    /// whole-frame [`Session::process`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] for geometry mismatches, [`EngineError::Rows`]
    /// for an empty or out-of-grid row range; propagates simulator errors
    /// ([`Session::last_block_started`] then names the failing block).
    pub fn process_rows(
        &mut self,
        image: &Tensor<f32>,
        rows: std::ops::Range<usize>,
    ) -> Result<&Tensor<f32>, EngineError> {
        // Cleared up front so a failure before the first block does not
        // leave a previous frame's index in `last_block_started`.
        self.last_block = None;
        let (out_h, out_w) = self.engine.out_dims(image)?;
        let (total_rows, cols) = self.engine.grid_dims(image)?;
        let p = &self.engine.compiled.program;
        let scale = self.engine.workload.qm.model.output_scale();
        let xo = p.do_side;
        let xi = p.di_side;
        if rows.is_empty() || rows.end > total_rows {
            return Err(EngineError::Rows {
                start: rows.start,
                end: rows.end,
                available: total_rows,
            });
        }
        let band_top = rows.start * xo;
        let band_h = (rows.end * xo).min(out_h) - band_top;
        match &self.frame {
            Some(f) if f.shape() == (p.do_channels, band_h, out_w) => {}
            Some(_) => {
                self.frame_reallocs += 1;
                self.frame = Some(Tensor::zeros(p.do_channels, band_h, out_w));
            }
            None => self.frame = Some(Tensor::zeros(p.do_channels, band_h, out_w)),
        }
        let frame = self.frame.as_mut().expect("frame allocated above");
        // Border of the receptive field, in input-image pixels.
        let border = (xi as f64 - xo as f64 / scale) / 2.0;
        // Snapshot the pool counters at frame start (not carried over from
        // the previous frame) so a frame aborted by an executor error
        // cannot leak its partial work into the next frame's delta.
        let mark = self.pool.stats();
        let mut blocks = 0usize;
        for row in rows {
            // rows.end <= ceil(out_h / xo), so by < out_h always holds.
            let by = row * xo;
            let mut bx = 0usize;
            while bx < out_w {
                self.last_block = Some(row * cols + bx / xo);
                // Input-block origin for this output block.
                let iy = (by as f64 / scale - border).round() as isize;
                let ix = (bx as f64 / scale - border).round() as isize;
                image.crop_padded_into(iy, ix, &mut self.block_f);
                self.block_f
                    .map_into(&mut self.codes, |v| p.di_q.quantize(v));
                let out_codes =
                    execute_with(&self.plan, &mut self.pool, &self.codes, self.kernels)?;
                blocks += 1;
                out_codes.map_into(&mut self.block_out, |c| {
                    p.do_q.dequantize(c).clamp(0.0, 1.0)
                });
                frame.paste(&self.block_out, by - band_top, bx);
                bx += xo;
            }
        }
        let delta = self.pool.stats().delta_since(&mark);
        self.last_stats = ImageRunStats::default();
        self.last_stats.absorb(delta, blocks);
        self.totals.absorb(delta, blocks);
        self.frames += 1;
        Ok(self.frame.as_ref().expect("frame allocated above"))
    }

    /// Frames processed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Row-major grid index of the most recently started block — names
    /// the failing block when [`Session::process_rows`] errors.
    pub fn last_block_started(&self) -> Option<usize> {
        self.last_block
    }

    /// Counters of this session's plane pool (cumulative over the whole
    /// session; per-frame deltas are in [`Session::last_frame_stats`]).
    pub fn pool_stats(&self) -> ExecStats {
        self.pool.stats()
    }

    /// Statistics of the most recent frame.
    pub fn last_frame_stats(&self) -> ImageRunStats {
        self.last_stats
    }

    /// Statistics accumulated over every frame of the session.
    pub fn total_stats(&self) -> ImageRunStats {
        self.totals
    }

    /// How often the stitched-frame buffer had to be reallocated after the
    /// first frame (i.e. geometry changes mid-stream). Zero for a steady
    /// stream.
    pub fn frame_reallocs(&self) -> usize {
        self.frame_reallocs
    }

    /// The stitched output of the most recent [`Session::process`] /
    /// [`Session::process_rows`] call (`None` before the first frame) —
    /// lets long-lived workers hand the band onward without cloning it
    /// or consuming the session.
    pub fn last_frame(&self) -> Option<&Tensor<f32>> {
        self.frame.as_ref()
    }

    /// Consumes the session, returning the stitched frame buffer
    /// (`None` before the first [`Session::process`]).
    pub fn into_frame(self) -> Option<Tensor<f32>> {
        self.frame
    }

    /// Raw base addresses of the reused scratch buffers (crop, codes,
    /// output block, frame) — lets tests assert that streaming does not
    /// reallocate between frames.
    #[doc(hidden)]
    pub fn scratch_ptrs(&self) -> (*const f32, *const i16, *const f32, *const f32) {
        (
            self.block_f.as_slice().as_ptr(),
            self.codes.as_slice().as_ptr(),
            self.block_out.as_slice().as_ptr(),
            self.frame
                .as_ref()
                .map_or(std::ptr::null(), |f| f.as_slice().as_ptr()),
        )
    }
}

/// The eCNN simulator as a [`Backend`].
#[derive(Clone, Debug)]
pub struct EcnnBackend {
    config: EcnnConfig,
    power: PowerModel,
    dram_power: DramPowerModel,
    kernels: Option<Kernels>,
    coalesce: Option<bool>,
}

impl EcnnBackend {
    /// The paper's configuration (Table 2 + Table 6 calibration).
    pub fn paper() -> Self {
        Self {
            config: EcnnConfig::paper(),
            power: PowerModel::paper_40nm(),
            dram_power: DramPowerModel::DDR4_3200,
            kernels: None,
            coalesce: None,
        }
    }

    /// Pins the kernel family for every engine this backend builds, so
    /// sharded and pipelined paths that construct sessions internally
    /// (e.g. [`ShardedBackend`](crate::sharded::ShardedBackend)) honor
    /// the choice. Unset, engines follow the usual resolution
    /// (`ECNN_KERNELS` env override, else SIMD dispatch).
    #[must_use]
    pub fn with_kernels(mut self, kernels: Kernels) -> Self {
        self.kernels = Some(kernels);
        self
    }

    /// Pins the plane-layout choice (see [`EngineBuilder::coalesce`]) for
    /// every engine this backend builds, so sharded and pipelined paths
    /// that construct sessions internally honor it. Unset, engines take
    /// the default: the verifier-licensed coalesced layout.
    #[must_use]
    pub fn with_coalesce(mut self, on: bool) -> Self {
        self.coalesce = Some(on);
        self
    }

    /// Builds the engine for `workload` on this machine.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn engine(&self, workload: &Workload) -> Result<Engine, EngineError> {
        let mut b = Engine::builder()
            .quantized(workload.qm.clone())
            .block(workload.block)
            .realtime(workload.spec)
            .feature_bits(workload.feature_bits)
            .machine(self.config)
            .power(self.power)
            .dram_power(self.dram_power);
        if let Some(k) = self.kernels {
            b = b.kernels(k);
        }
        if let Some(on) = self.coalesce {
            b = b.coalesce(on);
        }
        b.build()
    }
}

impl Default for EcnnBackend {
    fn default() -> Self {
        Self::paper()
    }
}

impl Backend for EcnnBackend {
    fn name(&self) -> &str {
        "ecnn"
    }

    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError> {
        Ok(self.engine(workload)?.frame_report())
    }

    fn supports_run_image(&self) -> bool {
        true
    }

    fn run_image(
        &self,
        workload: &Workload,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        self.engine(workload)?.run_image(image)
    }

    fn block_parallel(&self) -> Option<&dyn crate::sharded::BlockParallel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::ErNetTask;
    use ecnn_model::model::InferenceKind;
    use ecnn_nn::quant::fixed_forward;
    use ecnn_tensor::{ImageKind, SyntheticImage};

    fn engine(task: ErNetTask, b: usize, xi: usize) -> Engine {
        Engine::builder()
            .ernet(ErNetSpec::new(task, b, 1, 0))
            .block(xi)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_model_and_block() {
        assert_eq!(
            Engine::builder().block(64).build().unwrap_err(),
            EngineError::Missing("model")
        );
        assert_eq!(
            Engine::builder()
                .ernet(ErNetSpec::new(ErNetTask::Dn, 1, 1, 0))
                .build()
                .unwrap_err(),
            EngineError::Missing("block size")
        );
    }

    #[test]
    fn error_chain_has_sources() {
        // Pyramid collapse: block smaller than the receptive field.
        let err = Engine::builder()
            .ernet(ErNetSpec::new(ErNetTask::Dn, 20, 1, 0))
            .block(8)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Compile(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn session_streams_frames_without_reallocating() {
        let eng = engine(ErNetTask::Dn, 1, 40);
        let mut session = eng.session();
        let a = SyntheticImage::new(ImageKind::Mixed, 1).rgb(56, 56);
        let b = SyntheticImage::new(ImageKind::Edges, 2).rgb(56, 56);
        session.process(&a).unwrap();
        let ptrs = session.scratch_ptrs();
        for img in [&b, &a, &b] {
            session.process(img).unwrap();
            assert_eq!(session.scratch_ptrs(), ptrs, "buffers must be reused");
        }
        assert_eq!(session.frames(), 4);
        assert_eq!(session.frame_reallocs(), 0);
        assert!(session.total_stats().blocks > session.last_frame_stats().blocks);
    }

    #[test]
    fn session_matches_one_shot_run_image() {
        let eng = engine(ErNetTask::Dn, 2, 40);
        let img = SyntheticImage::new(ImageKind::Texture, 7).rgb(56, 56);
        let (one_shot, stats) = eng.run_image(&img).unwrap();
        let mut session = eng.session();
        // A different frame first, then the probe: reuse must not leak
        // state across frames.
        let other = SyntheticImage::new(ImageKind::Smooth, 3).rgb(56, 56);
        session.process(&other).unwrap();
        let streamed = session.process(&img).unwrap();
        assert_eq!(streamed, &one_shot);
        let last = session.last_frame_stats();
        assert_eq!(last.blocks, stats.blocks);
        // The work counters match; the pool counters differ by design: the
        // warm session recycles every plane where the one-shot path had to
        // populate a cold arena.
        assert_eq!(last.exec.work(), stats.exec.work());
        assert_eq!(
            last.exec.planes_allocated, 0,
            "warm frames allocate nothing"
        );
        assert!(last.exec.planes_reused > 0);
    }

    #[test]
    fn image_mismatch_is_structured() {
        let eng = engine(ErNetTask::Dn, 1, 32);
        let gray = Tensor::<f32>::zeros(1, 32, 32);
        match eng.run_image(&gray) {
            Err(EngineError::Image(m)) => {
                assert_eq!(m.channels, 1);
                assert_eq!(m.expected_channels, 3);
                assert_eq!(m.block, 32);
            }
            other => panic!("expected image mismatch, got {other:?}"),
        }
    }

    #[test]
    fn ecnn_backend_reports_and_runs() {
        let w = Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 3, 1, 0),
            128,
            RealTimeSpec::UHD30,
        )
        .unwrap();
        let be = EcnnBackend::paper();
        assert!(be.supports_run_image());
        let r = be.frame_report(&w).unwrap();
        assert_eq!(r.backend, "ecnn");
        assert!(r.meets_realtime, "fps {}", r.fps);
        assert!(r.power_w.unwrap() > 5.0);
    }

    #[test]
    fn stitched_image_matches_whole_frame_reference_bit_exactly() {
        // The block flow with recomputed overlaps must equal running the
        // fixed-point reference on the zero-extended whole frame (valid
        // convolutions) — the paper's equivalence claim for block-based
        // inference.
        let eng = engine(ErNetTask::Dn, 2, 40);
        let img = SyntheticImage::new(ImageKind::Mixed, 31).rgb(56, 56);
        let (out, stats) = eng.run_image(&img).unwrap();
        assert_eq!(out.shape(), (3, 56, 56));
        assert!(stats.blocks > 1, "must exercise stitching");

        // Reference: zero-extend by the receptive border (5 convs -> 5 px),
        // then valid fixed-point forward.
        let p = &eng.compiled().program;
        let border = (p.di_side - p.do_side) / 2;
        let qm = eng.quantized_model();
        let ext = img.crop_padded(
            -(border as isize),
            -(border as isize),
            56 + 2 * border,
            56 + 2 * border,
        );
        let codes = ext.map(|v| qm.input_q.quantize(v));
        let ref_out = fixed_forward(qm, &codes);
        assert_eq!(ref_out.shape(), (3, 56, 56));
        let out_q = qm.layers.iter().rev().flatten().next().unwrap().out_q;
        let ref_f = ref_out.map(|c| out_q.dequantize(c).clamp(0.0, 1.0));
        for c in 0..3 {
            for y in 0..56 {
                for x in 0..56 {
                    assert_eq!(
                        out.at(c, y, x),
                        ref_f.at(c, y, x),
                        "mismatch at ({c},{y},{x})"
                    );
                }
            }
        }
    }

    #[test]
    fn sr_image_is_upscaled() {
        let eng = engine(ErNetTask::Sr2, 2, 32);
        let img = SyntheticImage::new(ImageKind::Smooth, 5).rgb(48, 48);
        let (out, _) = eng.run_image(&img).unwrap();
        assert_eq!(out.shape(), (3, 96, 96));
    }

    #[test]
    fn channel_mismatch_is_reported() {
        let eng = engine(ErNetTask::Dn, 1, 32);
        let gray = Tensor::<f32>::zeros(1, 32, 32);
        match eng.run_image(&gray) {
            Err(EngineError::Image(m)) => {
                assert_eq!(m.channels, 1);
                assert_eq!(m.expected_channels, 3);
            }
            other => panic!("expected image mismatch, got {other:?}"),
        }
    }

    #[test]
    fn system_report_dnernet_uhd30() {
        let eng = engine(ErNetTask::Dn, 3, 128);
        let r = eng.system_report_at(RealTimeSpec::UHD30);
        assert!(r.meets_realtime, "fps {}", r.frame.fps);
        assert_eq!(r.dram_config.unwrap().name, "DDR-400");
        assert!(r.power.total_w() > 5.0 && r.power.total_w() < 8.5);
        assert!(r.dram_power.dynamic_mw() < 150.0);
    }

    #[test]
    fn zero_padded_models_deploy_at_frame_size() {
        let m = ecnn_model::zoo::recognition(10);
        let qm = QuantizedModel::uniform(&m);
        let eng = Engine::builder().quantized(qm).block(224).build().unwrap();
        assert_eq!(eng.compiled().program.inference, InferenceKind::ZeroPadded);
        assert_eq!(eng.compiled().program.do_side, 1);
        // Wide features exceed the strict 3x512KB buffers: recorded, not
        // fatal (DESIGN.md §4).
        assert!(eng.compiled().program.bb_overflow);
    }
}
