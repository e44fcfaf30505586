//! Functional (bit-exact) execution of FBISA programs on one image block,
//! split into a *plan* and an *execute* phase.
//!
//! [`BlockPlan`] walks a [`Program`] once up front: it validates leaf
//! bookkeeping and operand availability (write-before-read) and computes
//! every feature plane's shape and lifetime. [`execute`] then runs the
//! plan against a [`PlanePool`] — a reusable arena of planes keyed by
//! `(buffer, group)` plus the scratch accumulators — writing results in
//! place, so steady-state block execution allocates nothing. One pool
//! serves one worker: the streaming `Session` keeps one per stream and the
//! sharded backend one per worker thread.
//!
//! The executor mirrors the CIU datapath of Section 6.3 exactly:
//!
//! * features are 8-bit Q-format codes in block buffers;
//! * every convolution accumulates in full precision (`i64` here; the
//!   hardware's carry-save trees never round internally);
//! * `srcS` operands are aligned to the accumulator's fractional position
//!   and added before activation (the ADDE adder);
//! * ER leaf-modules requantize the expanded features to 8 bits between the
//!   LCONV3×3 and LCONV1×1 engines (the area-saving quantizer of
//!   Section 6.3.1);
//! * the single output rounding happens at the Q-format of the destination
//!   operand, then the Dst Reorder applies pixel-shuffle or pooling.
//!
//! The accumulation inner loops live in [`crate::kernels`]: the plan packs
//! every instruction's parameters once
//! ([`BlockPlan::packed`] — widened tap-major weights, pre-aligned biases,
//! zero-tap masks) and the one packed nest consumes that cache with an
//! interior/border row split, so steady-state frames do zero
//! kernel-parameter preparation. Each convolution resolves its lane once
//! (SIMD tier, and `i64` or the licensed `i32` accumulator) and makes one
//! call into that nest. [`execute_with`] can instead run the kept scalar
//! [`Kernels::Reference`] path, which is bit-identical and serves as the
//! measured baseline and parity oracle.

use crate::config::EcnnConfig;
use crate::kernels::{self, simd::SimdLevel, Lane};
use ecnn_isa::instr::{FeatLoc, Instruction, Opcode, LEAF_CH};
use ecnn_isa::params::{LeafParams, PackedKernelParams};
use ecnn_isa::program::Program;
use ecnn_isa::verify::memplan::MemoryPlan;
use ecnn_isa::verify::{DiagCode, Diagnostic, VerifyReport};
use ecnn_model::layer::PoolKind;
use ecnn_tensor::conv::align_code;
use ecnn_tensor::qformat::rescale_code;
use ecnn_tensor::{QFormat, Tensor};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Execution errors (all indicate compiler/simulator bugs, not user error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An operand referenced a plane that was never written.
    MissingPlane(FeatLoc),
    /// An instruction tried to read the DO stream.
    ReadFromDo,
    /// Spatial sizes disagreed with the instruction's attributes.
    Shape(String),
    /// Instruction/leaf bookkeeping mismatch.
    Leafs(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingPlane(l) => write!(f, "operand {l} was never written"),
            ExecError::ReadFromDo => write!(f, "cannot read from DO"),
            ExecError::Shape(m) => write!(f, "shape mismatch: {m}"),
            ExecError::Leafs(m) => write!(f, "leaf bookkeeping: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Which kernel implementation actually ran — the per-execution
/// attribution behind [`ExecStats::kernel_variant`], so a silently
/// misdetected SIMD fallback is visible in every stats report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelVariant {
    /// No execution recorded yet.
    #[default]
    None,
    /// The kept pre-packing scalar kernels ([`Kernels::Reference`]).
    Reference,
    /// [`Kernels::Packed`]: the packed nest at the portable scalar tier,
    /// wide lanes.
    Packed,
    /// [`Kernels::Simd`] resolved to the portable scalar fallback.
    SimdScalar,
    /// [`Kernels::Simd`] running the SSE2 kernels.
    SimdSse2,
    /// [`Kernels::Simd`] running the AVX2 kernels.
    SimdAvx2,
    /// [`Kernels::Simd`] running the NEON kernels.
    SimdNeon,
    /// Executions with different variants were merged into one counter
    /// stream.
    Mixed,
}

impl KernelVariant {
    /// Folds another execution's variant into this tag: `None` yields to
    /// anything, equal tags keep, differing tags degrade to [`Mixed`].
    ///
    /// [`Mixed`]: KernelVariant::Mixed
    #[must_use]
    pub fn merge(self, other: KernelVariant) -> KernelVariant {
        match (self, other) {
            (KernelVariant::None, x) | (x, KernelVariant::None) => x,
            (a, b) if a == b => a,
            _ => KernelVariant::Mixed,
        }
    }

    /// Stable lower-case name (e.g. `"packed"`, `"simd-avx2"`, `"mixed"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::None => "none",
            KernelVariant::Reference => "reference",
            KernelVariant::Packed => "packed",
            KernelVariant::SimdScalar => "simd-scalar",
            KernelVariant::SimdSse2 => "simd-sse2",
            KernelVariant::SimdAvx2 => "simd-avx2",
            KernelVariant::SimdNeon => "simd-neon",
            KernelVariant::Mixed => "mixed",
        }
    }
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Activity counters accumulated over block executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// LCONV3×3 multiply-accumulates actually performed.
    pub mac3: u64,
    /// LCONV1×1 multiply-accumulates actually performed.
    pub mac1: u64,
    /// Bytes read from block buffers.
    pub bb_read_bytes: u64,
    /// Bytes written to block buffers.
    pub bb_write_bytes: u64,
    /// Bytes consumed from the DI stream.
    pub di_bytes: u64,
    /// Bytes produced on the DO stream.
    pub do_bytes: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Pool buffers whose backing storage had to be (re)allocated.
    pub planes_allocated: u64,
    /// Pool buffers handed out with their storage recycled in place.
    pub planes_reused: u64,
    /// Instruction executions whose kernel parameters were served from the
    /// plan's packed cache (built once at plan time) — the observable that
    /// steady-state frames perform zero kernel-parameter preparation.
    pub params_reused: u64,
    /// Instruction executions that ran the verifier-licensed narrow
    /// (`i32`-lane) accumulation path. Zero unless [`Kernels::Simd`] ran
    /// *and* the plan carried `narrow_acc` range proofs.
    pub narrow_instrs: u64,
    /// Which kernel implementation produced these counters (merged across
    /// executions; [`KernelVariant::Mixed`] when they disagreed).
    pub kernel_variant: KernelVariant,
}

impl ExecStats {
    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.mac3 += other.mac3;
        self.mac1 += other.mac1;
        self.bb_read_bytes += other.bb_read_bytes;
        self.bb_write_bytes += other.bb_write_bytes;
        self.di_bytes += other.di_bytes;
        self.do_bytes += other.do_bytes;
        self.instructions += other.instructions;
        self.planes_allocated += other.planes_allocated;
        self.planes_reused += other.planes_reused;
        self.params_reused += other.params_reused;
        self.narrow_instrs += other.narrow_instrs;
        self.kernel_variant = self.kernel_variant.merge(other.kernel_variant);
    }

    /// The deterministic work counters alone: the pool-recycling and
    /// packed-cache counters (which depend on arena warm-up state and
    /// kernel path, not on the input) are zeroed. This is the subset that
    /// is comparable across differently-warmed workers — e.g. a cold
    /// one-shot run vs a streaming session, or differently sharded
    /// executions of the same frame.
    pub fn work(&self) -> ExecStats {
        ExecStats {
            planes_allocated: 0,
            planes_reused: 0,
            params_reused: 0,
            narrow_instrs: 0,
            kernel_variant: KernelVariant::None,
            ..*self
        }
    }

    /// Evenly attributes a multi-frame accumulation across `frames`
    /// frames (integer division: each counter's per-frame share, with
    /// sub-frame remainders dropped). Pipelined runs interleave bands of
    /// several frames on one pool, so throughput reporting divides the
    /// merged totals back down; `frames == 0` returns the counters
    /// unchanged.
    pub fn per_frame(&self, frames: u64) -> ExecStats {
        if frames == 0 {
            return *self;
        }
        ExecStats {
            mac3: self.mac3 / frames,
            mac1: self.mac1 / frames,
            bb_read_bytes: self.bb_read_bytes / frames,
            bb_write_bytes: self.bb_write_bytes / frames,
            di_bytes: self.di_bytes / frames,
            do_bytes: self.do_bytes / frames,
            instructions: self.instructions / frames,
            planes_allocated: self.planes_allocated / frames,
            planes_reused: self.planes_reused / frames,
            params_reused: self.params_reused / frames,
            narrow_instrs: self.narrow_instrs / frames,
            kernel_variant: self.kernel_variant,
        }
    }

    /// Counters accumulated since `mark`, an earlier snapshot of the same
    /// monotonically growing stream. The variant tag (not a counter) is
    /// carried over from `self`.
    pub fn delta_since(&self, mark: &ExecStats) -> ExecStats {
        ExecStats {
            mac3: self.mac3 - mark.mac3,
            mac1: self.mac1 - mark.mac1,
            bb_read_bytes: self.bb_read_bytes - mark.bb_read_bytes,
            bb_write_bytes: self.bb_write_bytes - mark.bb_write_bytes,
            di_bytes: self.di_bytes - mark.di_bytes,
            do_bytes: self.do_bytes - mark.do_bytes,
            instructions: self.instructions - mark.instructions,
            planes_allocated: self.planes_allocated - mark.planes_allocated,
            planes_reused: self.planes_reused - mark.planes_reused,
            params_reused: self.params_reused - mark.params_reused,
            narrow_instrs: self.narrow_instrs - mark.narrow_instrs,
            kernel_variant: self.kernel_variant,
        }
    }
}

/// Observed value extrema of one instruction from a range-instrumented
/// execution (see [`execute_traced`]). Each field mirrors one bound of
/// the verifier's `InstrRange` prediction; `None` when the instruction
/// produced no values at that stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrTrace {
    /// Final accumulator extrema: after srcS accumulation and ReLU,
    /// before requantization.
    pub acc: Option<(i64, i64)>,
    /// `ER` only: raw 3×3 expansion accumulator extrema across all
    /// leaves, before the internal ReLU/quantizer.
    pub er_acc3: Option<(i64, i64)>,
    /// Stored destination code extrema after requantization (for `DNX2`,
    /// scanned on the pre-pool grid, a superset of the pooled plane).
    pub dst: Option<(i64, i64)>,
}

/// Per-instruction observed extrema of one traced block execution.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// One record per instruction, in program order.
    pub instrs: Vec<InstrTrace>,
}

/// One observed-vs-predicted range violation found by
/// [`ExecTrace::check_against`]: `(instruction, stage, observed,
/// predicted)`.
pub type RangeViolation = (usize, &'static str, (i64, i64), (i64, i64));

impl ExecTrace {
    /// Checks every observed extremum against the verifier's predicted
    /// ranges, returning the first violation.
    pub fn check_against(&self, report: &VerifyReport) -> Option<RangeViolation> {
        for (i, t) in self.instrs.iter().enumerate() {
            let Some(Some(pred)) = report.ranges.get(i) else {
                continue;
            };
            let stages = [
                ("acc", t.acc, Some(pred.acc)),
                ("er_acc3", t.er_acc3, pred.er_acc3),
                ("dst", t.dst, Some(pred.dst)),
            ];
            for (name, observed, predicted) in stages {
                if let (Some(o), Some(p)) = (observed, predicted) {
                    if o.0 < p.0 || o.1 > p.1 {
                        return Some((i, name, o, p));
                    }
                }
            }
        }
        None
    }
}

fn scan<T: Copy + Into<i64>>(t: &Tensor<T>) -> Option<(i64, i64)> {
    let s = t.as_slice();
    let (first, rest) = s.split_first()?;
    let f = (*first).into();
    Some(
        rest.iter()
            .fold((f, f), |(lo, hi), &v| (lo.min(v.into()), hi.max(v.into()))),
    )
}

fn merge_extrema(slot: &mut Option<(i64, i64)>, obs: Option<(i64, i64)>) {
    if let Some((lo, hi)) = obs {
        *slot = Some(match *slot {
            Some((a, b)) => (a.min(lo), b.max(hi)),
            None => (lo, hi),
        });
    }
}

/// Identity of one pooled 32-channel plane: the logical buffer it lives in
/// plus its group offset — the `(buffer, group)` key the arena recycles
/// storage by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlaneKey {
    /// A block-buffer plane.
    Bb {
        /// Buffer index.
        id: u8,
        /// 32-channel group inside the buffer.
        group: u8,
    },
    /// A streamed-input plane (post-unshuffle).
    Di {
        /// 32-channel group within the streamed input.
        group: u8,
    },
    /// A streamed-output plane.
    Do {
        /// 32-channel group within the streamed output.
        group: u8,
    },
}

impl From<FeatLoc> for PlaneKey {
    fn from(loc: FeatLoc) -> Self {
        match loc {
            FeatLoc::Bb { id, group } => PlaneKey::Bb { id, group },
            FeatLoc::Di { group } => PlaneKey::Di { group },
            FeatLoc::Do { group } => PlaneKey::Do { group },
        }
    }
}

/// Planning-time record of one plane: where it lives, its shape, and its
/// lifetime in instruction indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaneInfo {
    /// The `(buffer, group)` the plane occupies.
    pub key: PlaneKey,
    /// Channel count: [`LEAF_CH`] for every plane except post-shuffle
    /// `UPX2` destinations, which carry `out_groups·LEAF_CH/4` channels.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
    /// Instruction index that writes the plane; `None` for DI planes,
    /// which are streamed in before execution starts.
    pub born: Option<usize>,
    /// Index of the last instruction that reads the plane;
    /// `program.instructions.len()` marks the output-assembly step (DO
    /// planes). `None` for a plane that is never read.
    pub last_use: Option<usize>,
}

/// Operand plane indices (into `BlockPlan::planes`) of one instruction —
/// or, after mapping through a licensed [`MemoryPlan`], the physical slot
/// of each operand. The executor routes every checkout/read through these
/// so coalesced execution needs no per-access table lookups.
#[derive(Clone, Debug)]
struct InstrSlots {
    /// One entry per gathered source group, in group order.
    src: Vec<usize>,
    /// The srcS operand, when present.
    src_s: Option<usize>,
    /// The destination plane.
    dst: usize,
}

/// Slot routing for one whole program under a licensed [`MemoryPlan`]:
/// where each DI plane streams in, where each instruction's operands
/// live, and where the output assembly reads the DO planes.
#[derive(Clone, Debug)]
struct SlotRoute {
    di: Vec<usize>,
    instr: Vec<InstrSlots>,
    out: Vec<usize>,
}

/// The up-front execution plan for one [`Program`]: a single walk over the
/// instruction stream that validates leaf bookkeeping and operand
/// availability (write-before-read) and computes every plane's shape and
/// lifetime, so that [`execute`] can run check- and allocation-free
/// against a [`PlanePool`].
#[derive(Clone, Debug)]
pub struct BlockPlan<'a> {
    program: &'a Program,
    leafs: &'a [Vec<LeafParams>],
    /// Post-unshuffle DI plane geometry.
    di_groups: usize,
    di_plane_side: usize,
    /// Every plane the program touches: DI planes first, then one entry
    /// per instruction write, in program order.
    planes: Vec<PlaneInfo>,
    /// DO groups assembled into the logical output block.
    out_groups: usize,
    /// Per-instruction packed kernel parameters: weights widened once to
    /// `i32` in tap-major order, biases pre-aligned to the accumulator's
    /// fractional position, zero taps/leaves masked. Built on the plan's
    /// single walk and reused by every frame, so steady-state execution
    /// performs zero kernel-parameter preparation. Each entry also carries
    /// its `narrow_acc` license, stamped from the verifier's interval
    /// analysis at plan time.
    packed: Vec<PackedKernelParams>,
    /// The SIMD tier [`Kernels::Simd`] dispatches to, resolved once at
    /// plan time by runtime feature detection.
    simd: SimdLevel,
    /// The verifier-licensed coalesced memory layout, stamped at plan
    /// time only when verification found no hard errors (mirroring the
    /// `narrow_acc` license). `None` falls back to the keyed
    /// one-slot-per-`(buffer, group)` layout.
    memplan: Option<MemoryPlan>,
    /// Operand→slot routing derived from `memplan`; present iff the plan
    /// is licensed, absent in the keyed fallback.
    route: Option<SlotRoute>,
}

impl<'a> BlockPlan<'a> {
    /// Plans `program` with the IDU-decoded `leafs` (one vector per
    /// instruction, as produced by the compiler or `PackedParams::unpack`).
    ///
    /// # Errors
    ///
    /// [`ExecError::Leafs`] for leaf-count mismatches,
    /// [`ExecError::MissingPlane`] / [`ExecError::ReadFromDo`] for operands
    /// that are read before any instruction writes them, and
    /// [`ExecError::Shape`] for statically inconsistent plane geometry.
    pub fn new(program: &'a Program, leafs: &'a [Vec<LeafParams>]) -> Result<Self, ExecError> {
        if leafs.len() != program.instructions.len() {
            return Err(ExecError::Leafs(format!(
                "{} leaf sets for {} instructions",
                leafs.len(),
                program.instructions.len()
            )));
        }
        let s = program.input_unshuffle.unwrap_or(1);
        if s == 0 || !program.di_side.is_multiple_of(s) {
            return Err(ExecError::Shape(format!(
                "DI side {} not divisible by unshuffle factor {s}",
                program.di_side
            )));
        }
        let di_plane_side = program.di_side / s;
        let di_groups = (program.di_channels * s * s).div_ceil(LEAF_CH);

        let mut planes: Vec<PlaneInfo> = Vec::new();
        // Latest write per key (index into `planes`).
        let mut live: HashMap<PlaneKey, usize> = HashMap::new();
        for g in 0..di_groups {
            let key = PlaneKey::Di { group: g as u8 };
            live.insert(key, planes.len());
            planes.push(PlaneInfo {
                key,
                channels: LEAF_CH,
                height: di_plane_side,
                width: di_plane_side,
                born: None,
                last_use: None,
            });
        }

        let mark_read = |planes: &mut Vec<PlaneInfo>,
                         live: &HashMap<PlaneKey, usize>,
                         loc: FeatLoc,
                         at: usize,
                         expect_side: Option<usize>|
         -> Result<usize, ExecError> {
            if matches!(loc, FeatLoc::Do { .. }) {
                return Err(ExecError::ReadFromDo);
            }
            let idx = *live
                .get(&PlaneKey::from(loc))
                .ok_or(ExecError::MissingPlane(loc))?;
            let info = &mut planes[idx];
            if let Some(side) = expect_side {
                if info.height != side || info.width != side {
                    return Err(ExecError::Shape(format!(
                        "plane {}x{} vs expected side {side}",
                        info.height, info.width
                    )));
                }
            }
            info.last_use = Some(at);
            Ok(idx)
        };

        // Plane-table indices of every instruction's operands, recorded on
        // the same walk so a licensed memory plan can be turned into
        // direct slot routing without a second resolution pass.
        let mut bindings: Vec<InstrSlots> = Vec::with_capacity(program.instructions.len());

        for (i, (ins, leafset)) in program.instructions.iter().zip(leafs).enumerate() {
            // Structural invariants first, so the executor's `expect`
            // sites on Q-format presence are genuinely unreachable.
            if let Err(e) = ins.check() {
                return Err(ExecError::Leafs(format!("instr {i}: {e}")));
            }
            if ins.src_s.is_some() && ins.q.src_s.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: srcS operand without a srcS format"
                )));
            }
            if ins.opcode == Opcode::Er && ins.q.mid.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: ER without a mid format"
                )));
            }
            if ins.opcode.has_conv1x1() && ins.q.b1.is_none() {
                return Err(ExecError::Leafs(format!(
                    "instr {i}: 1x1 opcode without a 1x1 bias format"
                )));
            }
            if leafset.len() != ins.leaf_modules() {
                return Err(ExecError::Leafs(format!(
                    "{} leafs but instruction declares {}",
                    leafset.len(),
                    ins.leaf_modules()
                )));
            }
            let mut src_idx = Vec::with_capacity(ins.in_groups);
            for g in 0..ins.in_groups {
                src_idx.push(mark_read(
                    &mut planes,
                    &live,
                    ins.src.offset(g),
                    i,
                    Some(ins.in_size.0),
                )?);
            }
            let srcs_idx = match ins.src_s {
                // Geometry is checked at accumulation time (the srcS crop
                // depends on the destination domain).
                Some(srcs) => Some(mark_read(&mut planes, &live, srcs, i, None)?),
                None => None,
            };
            if matches!(ins.dst, FeatLoc::Di { .. }) {
                return Err(ExecError::Shape("cannot write to DI".into()));
            }
            let key = PlaneKey::from(ins.dst);
            bindings.push(InstrSlots {
                src: src_idx,
                src_s: srcs_idx,
                dst: planes.len(),
            });
            live.insert(key, planes.len());
            planes.push(PlaneInfo {
                key,
                // Post-shuffle UPX2 planes pack out_groups·LEAF_CH pre-
                // shuffle channels into out_groups·LEAF_CH/4 at 2× side.
                channels: if ins.opcode == Opcode::Upx2 {
                    ins.out_groups * LEAF_CH / 4
                } else {
                    LEAF_CH
                },
                height: ins.out_size.1,
                width: ins.out_size.0,
                born: Some(i),
                last_use: None,
            });
        }

        let out_groups = program.do_channels.div_ceil(LEAF_CH);
        let end = program.instructions.len();
        let mut do_idx = Vec::with_capacity(out_groups);
        for g in 0..out_groups {
            let key = PlaneKey::Do { group: g as u8 };
            let idx = *live
                .get(&key)
                .ok_or(ExecError::MissingPlane(FeatLoc::Do { group: g as u8 }))?;
            if planes[idx].height != program.do_side {
                return Err(ExecError::Shape(format!(
                    "DO plane side {} vs {}",
                    planes[idx].height, program.do_side
                )));
            }
            planes[idx].last_use = Some(end);
            do_idx.push(idx);
        }

        let mut packed: Vec<PackedKernelParams> = program
            .instructions
            .iter()
            .zip(leafs)
            .map(|(ins, l)| PackedKernelParams::pack(ins, l))
            .collect();
        // Stamp each instruction's narrow-accumulation license from the
        // verifier's interval analysis: `narrow_acc` proves every
        // convolution-stage accumulator fits `i32`, which licenses the
        // SIMD kernels' 8-wide `i32` path. A report with errors (or an
        // unanalyzable instruction, `ranges[i] == None`) leaves the flag
        // false — no proof, no narrow path.
        let report = ecnn_isa::verify::verify(program, leafs);
        let mut memplan = None;
        if !report.has_errors() {
            for (p, r) in packed.iter_mut().zip(&report.ranges) {
                p.narrow_acc = r.as_ref().is_some_and(|r| r.narrow_acc);
            }
            // Coalesced plane layout, under the same license: only an
            // error-free verification proves no two simultaneously-live
            // planes share a slot. A divergent plane table (the verifier
            // derived a different plane count than this walk) also drops
            // the plan — no proof, no coalescing.
            memplan = MemoryPlan::build(&report).filter(|m| m.plane_slots.len() == planes.len());
        }
        let route = memplan.as_ref().map(|m| SlotRoute {
            di: m.plane_slots[..di_groups].to_vec(),
            instr: bindings
                .iter()
                .map(|b| InstrSlots {
                    src: b.src.iter().map(|&i| m.plane_slots[i]).collect(),
                    src_s: b.src_s.map(|i| m.plane_slots[i]),
                    dst: m.plane_slots[b.dst],
                })
                .collect(),
            out: do_idx.iter().map(|&i| m.plane_slots[i]).collect(),
        });
        Ok(Self {
            program,
            leafs,
            di_groups,
            di_plane_side,
            planes,
            out_groups,
            packed,
            simd: kernels::simd::detect(),
            memplan,
            route,
        })
    }

    /// The planned program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Every plane the program touches, with shapes and lifetimes: DI
    /// planes first (born `None`), then one entry per instruction write in
    /// program order.
    pub fn planes(&self) -> &[PlaneInfo] {
        &self.planes
    }

    /// Number of 32-channel DI planes streamed in per block.
    pub fn di_groups(&self) -> usize {
        self.di_groups
    }

    /// The per-instruction packed kernel-parameter cache the flat-slice
    /// micro-kernels consume (one entry per instruction, in program
    /// order).
    pub fn packed(&self) -> &[PackedKernelParams] {
        &self.packed
    }

    /// Heap bytes the packed kernel-parameter cache occupies.
    pub fn packed_bytes(&self) -> usize {
        self.packed.iter().map(PackedKernelParams::bytes).sum()
    }

    /// The SIMD tier [`Kernels::Simd`] executions of this plan dispatch
    /// to (resolved once at plan time by runtime feature detection).
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// How many instructions carry the verifier's narrow-accumulation
    /// (`i32`-safe) range proof.
    pub fn narrow_licensed(&self) -> usize {
        self.packed.iter().filter(|p| p.narrow_acc).count()
    }

    /// Revokes every narrow-accumulation license, forcing
    /// [`Kernels::Simd`] executions onto the wide (`i64`) SIMD path. For
    /// parity tests and benchmarks that isolate the lane-width effect.
    pub fn force_wide(&mut self) {
        for p in &mut self.packed {
            p.narrow_acc = false;
        }
    }

    /// The verifier-licensed coalesced memory layout, when one was proven
    /// at plan time (`None` means executions fall back to the keyed
    /// one-slot-per-`(buffer, group)` layout).
    pub fn memory_plan(&self) -> Option<&MemoryPlan> {
        self.memplan.as_ref()
    }

    /// Whether executions of this plan run coalesced (a licensed
    /// [`MemoryPlan`] routes every plane onto shared physical slots).
    pub fn coalesced(&self) -> bool {
        self.route.is_some()
    }

    /// Revokes the coalesced memory plan, forcing executions onto the
    /// keyed one-slot-per-plane layout. For parity tests, benchmarks
    /// isolating the coalescing effect, and `EngineBuilder::coalesce
    /// (false)`.
    pub fn force_keyed(&mut self) {
        self.memplan = None;
        self.route = None;
    }

    /// Peak plane bytes one block execution of *this* plan needs: the
    /// proven coalesced peak when a [`MemoryPlan`] is licensed, the keyed
    /// [`BlockPlan::peak_plane_bytes`] fallback otherwise. The pool's
    /// observed high-water mark ([`PlanePool::peak_resident_bytes`])
    /// never exceeds this.
    pub fn planned_peak_bytes(&self) -> usize {
        self.memplan
            .as_ref()
            .map_or_else(|| self.peak_plane_bytes(), |m| m.peak_bytes)
    }

    fn di_slot(&self, g: usize) -> Option<usize> {
        self.route.as_ref().map(|r| r.di[g])
    }

    fn src_slots(&self, idx: usize) -> Option<&[usize]> {
        self.route.as_ref().map(|r| r.instr[idx].src.as_slice())
    }

    fn srcs_slot(&self, idx: usize) -> Option<usize> {
        self.route.as_ref().and_then(|r| r.instr[idx].src_s)
    }

    fn dst_slot(&self, idx: usize) -> Option<usize> {
        self.route.as_ref().map(|r| r.instr[idx].dst)
    }

    fn do_slot(&self, g: usize) -> Option<usize> {
        self.route.as_ref().map(|r| r.out[g])
    }

    /// Peak bytes of *keyed* `(buffer, group)` plane storage one block
    /// execution needs. Scratch buffers (the gather input, the `i64`
    /// accumulators, the ER mid plane, the DNX2 pre-pool plane and the
    /// assembled output) are pool-resident too but not counted here — a
    /// warm pool's total footprint is larger, dominated by the 8-byte
    /// accumulator elements.
    pub fn peak_plane_bytes(&self) -> usize {
        // Keys are recycled in place, so the pool's footprint is the max
        // shape ever taken per key.
        let mut peak: HashMap<PlaneKey, usize> = HashMap::new();
        for p in &self.planes {
            let bytes = p.channels * p.height * p.width * std::mem::size_of::<i16>();
            let e = peak.entry(p.key).or_insert(0);
            *e = (*e).max(bytes);
        }
        peak.values().sum()
    }
}

/// The plane storage half of a [`PlanePool`], split out so the executor
/// can borrow it alongside the scratch accumulators. Keyed executions
/// store planes in the `(buffer, group)` map; coalesced executions (a
/// licensed [`MemoryPlan`]) store them in the slot vector instead. The
/// arena tracks a resident-bytes high-water mark across both, so the
/// observed peak can be audited against the planner's proven peak.
#[derive(Debug, Default)]
struct PlaneArena {
    planes: HashMap<PlaneKey, Tensor<i16>>,
    slots: Vec<Option<Tensor<i16>>>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
}

/// A reusable arena of feature planes (keyed by [`PlaneKey`] or, under a
/// licensed [`MemoryPlan`], routed onto shared physical slots) and
/// scratch accumulators. One pool serves one executor worker; after the
/// first block has warmed every buffer to its peak size, [`execute`]
/// performs zero allocations per block. The pool also owns the
/// [`ExecStats`] counters its executions accumulate.
#[derive(Debug, Default)]
pub struct PlanePool {
    arena: PlaneArena,
    /// Gathered (possibly multi-group) input scratch.
    wide: Option<Tensor<i16>>,
    /// Main full-precision accumulator.
    acc_a: Option<Tensor<i64>>,
    /// Secondary accumulator: UPX2 shuffle target / ER per-leaf 3×3 stage.
    acc_b: Option<Tensor<i64>>,
    /// Narrow (`i32`) twin of `acc_a`, used only by verifier-licensed
    /// [`Kernels::Simd`] executions; widened into `acc_a` before the
    /// shared epilogue.
    acc_a32: Option<Tensor<i32>>,
    /// Narrow twin of `acc_b` (ER per-leaf 3×3 stage).
    acc_b32: Option<Tensor<i32>>,
    /// ER requantized expansion plane.
    mid: Option<Tensor<i16>>,
    /// DNX2 pre-pool quantized plane.
    quant: Option<Tensor<i16>>,
    /// Assembled logical output block.
    out: Option<Tensor<i16>>,
    stats: ExecStats,
}

/// Ensures `slot` holds a tensor, recording whether recycling it for
/// `needed` elements keeps its storage (`planes_reused`) or must allocate
/// (`planes_allocated`).
fn ensure_slot<'s, T: Copy + Default>(
    slot: &'s mut Option<Tensor<T>>,
    stats: &mut ExecStats,
    needed: usize,
) -> &'s mut Tensor<T> {
    match slot {
        Some(t) => {
            if t.capacity() < needed {
                stats.planes_allocated += 1;
            } else {
                stats.planes_reused += 1;
            }
        }
        None => {
            stats.planes_allocated += 1;
            *slot = Some(Tensor::zeros(1, 1, 1));
        }
    }
    slot.as_mut().expect("slot filled above")
}

/// [`ensure_slot`] plus an in-place [`Tensor::reset_no_fill`] to `c×h×w`
/// — for scratch whose every element the caller is about to overwrite
/// (stale values may survive the reshape).
fn ensure_overwrite<'s, T: Copy + Default>(
    slot: &'s mut Option<Tensor<T>>,
    stats: &mut ExecStats,
    c: usize,
    h: usize,
    w: usize,
) -> &'s mut Tensor<T> {
    let t = ensure_slot(slot, stats, c * h * w);
    t.reset_no_fill(c, h, w);
    t
}

/// Where a plane lives in the arena: a routed physical slot (a licensed
/// coalesced layout) or its `(buffer, group)` key (the keyed fallback).
#[derive(Clone, Copy, Debug)]
enum Place {
    Slot(usize),
    Key(PlaneKey),
}

/// Checks out the pooled plane at `place` with shape `c×h×w`, recycling
/// its storage when capacity allows, and maintaining the arena's
/// resident-bytes high-water mark. `zero` selects whether recycled
/// contents are cleared; pass `false` only when every element will be
/// overwritten.
fn checkout<'m>(
    arena: &'m mut PlaneArena,
    stats: &mut ExecStats,
    place: Place,
    c: usize,
    h: usize,
    w: usize,
    zero: bool,
) -> &'m mut Tensor<i16> {
    let needed = c * h * w;
    let displaced = match place {
        Place::Slot(s) => arena
            .slots
            .get(s)
            .and_then(Option::as_ref)
            .map_or(0, Tensor::len),
        Place::Key(key) => arena.planes.get(&key).map_or(0, Tensor::len),
    };
    arena.resident_bytes = arena.resident_bytes - displaced * std::mem::size_of::<i16>()
        + needed * std::mem::size_of::<i16>();
    arena.peak_resident_bytes = arena.peak_resident_bytes.max(arena.resident_bytes);
    match place {
        Place::Slot(s) => {
            if arena.slots.len() <= s {
                arena.slots.resize_with(s + 1, || None);
            }
            let entry = &mut arena.slots[s];
            match entry {
                Some(t) => {
                    if t.capacity() < needed {
                        stats.planes_allocated += 1;
                    } else {
                        stats.planes_reused += 1;
                    }
                    if zero {
                        t.reset(c, h, w);
                    } else {
                        t.reset_no_fill(c, h, w);
                    }
                    t
                }
                None => {
                    stats.planes_allocated += 1;
                    entry.insert(Tensor::zeros(c, h, w))
                }
            }
        }
        Place::Key(key) => match arena.planes.entry(key) {
            Entry::Occupied(e) => {
                let t = e.into_mut();
                if t.capacity() < needed {
                    stats.planes_allocated += 1;
                } else {
                    stats.planes_reused += 1;
                }
                if zero {
                    t.reset(c, h, w);
                } else {
                    t.reset_no_fill(c, h, w);
                }
                t
            }
            Entry::Vacant(v) => {
                stats.planes_allocated += 1;
                v.insert(Tensor::zeros(c, h, w))
            }
        },
    }
}

/// Reads the pooled plane for `loc` — from `slot` when the plan routes it
/// (coalesced), from the key map otherwise — charging block-buffer read
/// traffic.
fn read_plane<'m>(
    arena: &'m PlaneArena,
    stats: &mut ExecStats,
    loc: FeatLoc,
    slot: Option<usize>,
) -> Result<&'m Tensor<i16>, ExecError> {
    if matches!(loc, FeatLoc::Do { .. }) {
        return Err(ExecError::ReadFromDo);
    }
    let plane = match slot {
        Some(s) => arena.slots.get(s).and_then(Option::as_ref),
        None => arena.planes.get(&PlaneKey::from(loc)),
    }
    .ok_or(ExecError::MissingPlane(loc))?;
    if matches!(loc, FeatLoc::Bb { .. }) {
        stats.bb_read_bytes += plane.len() as u64;
    }
    Ok(plane)
}

impl PlanePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out the plane for `key` with shape `channels×height×width`
    /// (zero-filled), recycling its storage when capacity allows. Every
    /// key owns disjoint storage: a checked-out plane never aliases
    /// another live plane.
    pub fn checkout(
        &mut self,
        key: PlaneKey,
        channels: usize,
        height: usize,
        width: usize,
    ) -> &mut Tensor<i16> {
        checkout(
            &mut self.arena,
            &mut self.stats,
            Place::Key(key),
            channels,
            height,
            width,
            true,
        )
    }

    /// The plane currently pooled for `key`, if any. Coalesced executions
    /// (a plan with a licensed [`MemoryPlan`]) store planes by slot, not
    /// by key, so this only reflects keyed checkouts.
    pub fn plane(&self, key: PlaneKey) -> Option<&Tensor<i16>> {
        self.arena.planes.get(&key)
    }

    /// Counters accumulated by executions (and checkouts) on this pool.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Number of pooled planes currently resident (keyed planes plus
    /// occupied coalesced slots).
    pub fn resident_planes(&self) -> usize {
        self.arena.planes.len() + self.arena.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Plane bytes currently resident (keyed planes plus occupied
    /// coalesced slots, at their current logical shapes; scratch
    /// accumulators are not counted).
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes
    }

    /// High-water mark of [`PlanePool::resident_bytes`] over every
    /// checkout this pool has served — the observed counterpart of
    /// `BlockPlan::planned_peak_bytes`, which it provably never exceeds.
    /// Survives [`PlanePool::clear`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.arena.peak_resident_bytes
    }

    /// Drops every pooled buffer (planes, scratch and the assembled
    /// output) while keeping the counters and the resident-bytes
    /// high-water mark.
    pub fn clear(&mut self) {
        self.arena.planes.clear();
        self.arena.slots.clear();
        self.arena.resident_bytes = 0;
        self.wide = None;
        self.acc_a = None;
        self.acc_b = None;
        self.acc_a32 = None;
        self.acc_b32 = None;
        self.mid = None;
        self.quant = None;
        self.out = None;
    }
}

/// Which accumulation kernels [`execute_with`] runs. All three produce
/// bit-identical output blocks on every input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernels {
    /// The packed nest (`kernels::conv3` and friends, fed by the
    /// plan's packed parameter cache) at the portable scalar tier
    /// ([`SimdLevel::Scalar`]), wide lanes — the default for raw
    /// [`execute`] callers.
    #[default]
    Packed,
    /// The kept pre-packing scalar kernels
    /// ([`crate::kernels::reference`]): bit-identical output, used as the
    /// measured perf baseline and the parity-test oracle.
    Reference,
    /// The same packed nest at the SIMD tier resolved at plan time by
    /// runtime feature detection ([`BlockPlan::simd_level`]);
    /// instructions whose plan entry carries the verifier's `narrow_acc`
    /// proof run on the wrapping `i32` lane (8-wide on AVX2).
    Simd,
}

impl Kernels {
    /// Every selectable kernel family, fastest first — the default
    /// search axis of the plan-time autotuner.
    pub const ALL: [Kernels; 3] = [Kernels::Simd, Kernels::Packed, Kernels::Reference];

    /// Stable lowercase name (`"simd"`, `"packed"`, `"reference"`), the
    /// inverse of [`Kernels::parse`] — the serialization token used by
    /// `EngineConfig` records and the `ECNN_KERNELS` override.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernels::Packed => "packed",
            Kernels::Reference => "reference",
            Kernels::Simd => "simd",
        }
    }

    /// Parses a `Kernels` from a case-insensitive name as used by the
    /// `ECNN_KERNELS` env override and `bench_kernels --variant`
    /// (`"packed"`, `"simd"`, `"reference"`).
    pub fn parse(name: &str) -> Option<Kernels> {
        match name.to_ascii_lowercase().as_str() {
            "packed" => Some(Kernels::Packed),
            "simd" => Some(Kernels::Simd),
            "reference" => Some(Kernels::Reference),
            _ => None,
        }
    }

    /// The [`KernelVariant`] tag an execution of this selection reports,
    /// given the plan's resolved SIMD tier.
    pub fn variant(self, level: SimdLevel) -> KernelVariant {
        match self {
            Kernels::Packed => KernelVariant::Packed,
            Kernels::Reference => KernelVariant::Reference,
            Kernels::Simd => match level {
                SimdLevel::Avx2 => KernelVariant::SimdAvx2,
                SimdLevel::Sse2 => KernelVariant::SimdSse2,
                SimdLevel::Neon => KernelVariant::SimdNeon,
                SimdLevel::Scalar => KernelVariant::SimdScalar,
            },
        }
    }
}

/// Executes one planned block on `pool`, returning the pool-owned logical
/// output block (side `program.do_side`), valid until the next execution.
///
/// `input` holds the *logical* input channels (e.g. 3 for RGB) as codes in
/// the program's `di_q` format, with side `program.di_side`.
///
/// # Errors
///
/// See [`ExecError`]. Operand availability and leaf bookkeeping were
/// already validated by [`BlockPlan::new`]; the remaining runtime errors
/// guard data-dependent geometry.
pub fn execute<'p>(
    plan: &BlockPlan<'_>,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
) -> Result<&'p Tensor<i16>, ExecError> {
    execute_with(plan, pool, input, Kernels::Packed)
}

/// [`execute`] with an explicit kernel selection. Both paths produce
/// bit-identical output blocks and identical [`ExecStats::work`]
/// counters; only speed (and the non-work cache counters) differ.
///
/// # Errors
///
/// See [`execute`].
pub fn execute_with<'p>(
    plan: &BlockPlan<'_>,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
    kernels: Kernels,
) -> Result<&'p Tensor<i16>, ExecError> {
    execute_inner(plan, pool, input, kernels, None)
}

/// [`execute`] on the reference kernels with per-instruction range
/// instrumentation: every accumulator is scanned for its extrema right
/// before requantization (and every `ER` expansion accumulator before its
/// internal ReLU), so the observed ranges can be checked against the
/// static verifier's predicted `InstrRange`s via
/// [`ExecTrace::check_against`].
///
/// # Errors
///
/// See [`execute`].
pub fn execute_traced(
    plan: &BlockPlan<'_>,
    pool: &mut PlanePool,
    input: &Tensor<i16>,
) -> Result<(Tensor<i16>, ExecTrace), ExecError> {
    let mut trace = ExecTrace {
        instrs: vec![InstrTrace::default(); plan.program.instructions.len()],
    };
    let out = execute_inner(
        plan,
        pool,
        input,
        Kernels::Reference,
        Some(&mut trace.instrs),
    )?
    .clone();
    Ok((out, trace))
}

fn execute_inner<'p>(
    plan: &BlockPlan<'_>,
    pool: &'p mut PlanePool,
    input: &Tensor<i16>,
    kernels: Kernels,
    mut traces: Option<&mut [InstrTrace]>,
) -> Result<&'p Tensor<i16>, ExecError> {
    let p = plan.program;
    if input.height() != p.di_side || input.width() != p.di_side {
        return Err(ExecError::Shape(format!(
            "input {}x{} vs DI side {}",
            input.height(),
            input.width(),
            p.di_side
        )));
    }
    if input.channels() != p.di_channels {
        return Err(ExecError::Shape(format!(
            "input channels {} vs {}",
            input.channels(),
            p.di_channels
        )));
    }
    stream_input(plan, pool, input);
    pool.stats.kernel_variant = pool.stats.kernel_variant.merge(kernels.variant(plan.simd));
    for (i, ins) in p.instructions.iter().enumerate() {
        let trace = traces.as_deref_mut().map(|t| &mut t[i]);
        match ins.opcode {
            Opcode::Conv | Opcode::Dnx2 | Opcode::Upx2 => {
                exec_conv3(plan, i, pool, kernels, trace)?
            }
            Opcode::Conv1 => exec_conv1(plan, i, pool, kernels, trace)?,
            Opcode::Er => exec_er(plan, i, pool, kernels, trace)?,
        }
        // Both fast paths consume the plan's packed parameter cache.
        if kernels != Kernels::Reference {
            pool.stats.params_reused += 1;
        }
        pool.stats.instructions += 1;
    }
    assemble_output(plan, pool)
}

/// Cross-checks the simulator's plan against the static verifier's
/// independently derived plane table — the two halves of the
/// differential oracle. Returns one `plan-divergence` diagnostic per
/// disagreement (shape, placement, or lifetime); an empty vector means
/// the two derivations agree exactly.
pub fn crosscheck_plan(plan: &BlockPlan<'_>, report: &VerifyReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut diverge = |instr: Option<usize>, detail: String| {
        out.push(Diagnostic {
            code: DiagCode::PlanDivergence,
            severity: DiagCode::PlanDivergence.severity(),
            instr,
            detail,
        });
    };
    let planned = plan.planes();
    if planned.len() != report.planes.len() {
        diverge(
            None,
            format!(
                "plan tracks {} planes, verifier derived {}",
                planned.len(),
                report.planes.len()
            ),
        );
        return out;
    }
    for (info, rec) in planned.iter().zip(&report.planes) {
        if info.key != PlaneKey::from(rec.loc) {
            diverge(
                rec.born,
                format!("plane key {:?} vs verifier {}", info.key, rec.loc),
            );
            continue;
        }
        if (info.channels, info.height, info.width) != (rec.channels, rec.height, rec.width) {
            diverge(
                rec.born,
                format!(
                    "{}: plan shape {}x{}x{} vs verifier {}x{}x{}",
                    rec.loc,
                    info.channels,
                    info.height,
                    info.width,
                    rec.channels,
                    rec.height,
                    rec.width
                ),
            );
        }
        if info.born != rec.born || info.last_use != rec.last_use {
            diverge(
                rec.born,
                format!(
                    "{}: plan lifetime {:?}..{:?} vs verifier {:?}..{:?}",
                    rec.loc, info.born, info.last_use, rec.born, rec.last_use
                ),
            );
        }
    }
    out
}

/// Unpacks the DI stream into pooled 32-channel planes, applying the
/// DI-side unshuffle (DnERNet-12ch) and zero-channel padding in place.
fn stream_input(plan: &BlockPlan<'_>, pool: &mut PlanePool, input: &Tensor<i16>) {
    pool.stats.di_bytes += input.len() as u64;
    let s = plan.program.input_unshuffle.unwrap_or(1);
    let side = plan.di_plane_side;
    let in_ch = input.channels();
    for g in 0..plan.di_groups {
        let plane = checkout(
            &mut pool.arena,
            &mut pool.stats,
            plan.di_slot(g)
                .map_or(Place::Key(PlaneKey::Di { group: g as u8 }), Place::Slot),
            LEAF_CH,
            side,
            side,
            false,
        );
        for c in 0..LEAF_CH {
            let oc = g * LEAF_CH + c;
            let ic = oc / (s * s);
            if ic >= in_ch {
                // Zero-channel padding (the plane is not pre-cleared).
                plane.channel_mut(c).fill(0);
                continue;
            }
            if s == 1 {
                plane.channel_mut(c).copy_from_slice(input.channel(ic));
                continue;
            }
            let rem = oc % (s * s);
            let (dy, dx) = (rem / s, rem % s);
            for y in 0..side {
                let src = input.row(ic, y * s + dy);
                for (d, &v) in plane
                    .row_mut(c, y)
                    .iter_mut()
                    .zip(src[dx..].iter().step_by(s))
                {
                    *d = v;
                }
            }
        }
    }
}

/// Gathers `groups` consecutive planes into the pool's wide scratch,
/// resolving each group through `route` when the plan is coalesced.
fn gather<'m>(
    arena: &PlaneArena,
    wide: &'m mut Option<Tensor<i16>>,
    stats: &mut ExecStats,
    base: FeatLoc,
    groups: usize,
    side: usize,
    route: Option<&[usize]>,
) -> Result<&'m Tensor<i16>, ExecError> {
    let wide = ensure_overwrite(wide, stats, groups * LEAF_CH, side, side);
    for g in 0..groups {
        let plane = read_plane(arena, stats, base.offset(g), route.map(|r| r[g]))?;
        if plane.height() != side || plane.width() != side {
            return Err(ExecError::Shape(format!(
                "plane {}x{} vs expected side {side}",
                plane.height(),
                plane.width()
            )));
        }
        // Groups are consecutive 32-channel slabs: one contiguous copy.
        let px = side * side;
        let base = g * LEAF_CH * px;
        wide.as_mut_slice()[base..base + LEAF_CH * px].copy_from_slice(plane.as_slice());
    }
    Ok(wide)
}

/// Charges write traffic for a plane of `len` elements landing on `key`.
fn count_write(stats: &mut ExecStats, program: &Program, key: PlaneKey, len: usize, px: usize) {
    match key {
        PlaneKey::Bb { .. } => stats.bb_write_bytes += len as u64,
        PlaneKey::Do { group } => {
            // Only logical channels leave the chip.
            stats.do_bytes += len
                .min(LEAF_CH.min(program.do_channels.saturating_sub(group as usize * LEAF_CH)) * px)
                as u64;
        }
        PlaneKey::Di { .. } => unreachable!("plan rejects DI writes"),
    }
}

fn exec_conv3(
    plan: &BlockPlan<'_>,
    idx: usize,
    pool: &mut PlanePool,
    kind: Kernels,
    mut trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let program = plan.program;
    let ins = &program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    let input = gather(
        &pool.arena,
        &mut pool.wide,
        &mut pool.stats,
        ins.src,
        ins.in_groups,
        ins.in_size.0,
        plan.src_slots(idx),
    )?;
    let prod_frac = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
    // Leaf ordering (see compiler): UPX2 has one leaf per pre-shuffle
    // output plane; CONV/DNX2 have one leaf per input group.
    let out_planes = if ins.opcode == Opcode::Upx2 {
        ins.out_groups
    } else {
        1
    };
    let (cw, chh) = ins.conv_out_size();
    let conv_acc = ensure_overwrite(
        &mut pool.acc_a,
        &mut pool.stats,
        out_planes * LEAF_CH,
        chh,
        cw,
    );
    let pk = &plan.packed[idx];
    match packed_lane(kind, plan, idx) {
        Some((level, false)) => kernels::conv3(ins, input, &pk.conv3[0], conv_acc, level),
        Some((level, true)) => {
            // Verifier-licensed narrow lane: the final per-element
            // conv-stage sum provably fits `i32`, so the wrapping `i32`
            // accumulation recovers it exactly and the widened copy feeds
            // the shared `i64` epilogue.
            let acc32 = ensure_overwrite(
                &mut pool.acc_a32,
                &mut pool.stats,
                out_planes * LEAF_CH,
                chh,
                cw,
            );
            kernels::conv3(ins, input, &pk.conv3[0], acc32, level);
            kernels::widen_acc(conv_acc, acc32);
            pool.stats.narrow_instrs += 1;
        }
        None => {
            let weights = |op_: usize, ig: usize| {
                let leaf = if ins.opcode == Opcode::Upx2 {
                    &leafs[op_]
                } else {
                    &leafs[ig]
                };
                leaf.w3.as_slice()
            };
            let b3_frac = ins.q.b3.frac() as i32;
            let biases = |op_: usize| -> Vec<i64> {
                let mut b = vec![0i64; LEAF_CH];
                if ins.opcode == Opcode::Upx2 {
                    for (oc, bv) in b.iter_mut().enumerate() {
                        *bv = align_code(leafs[op_].b3[oc] as i64, b3_frac, prod_frac);
                    }
                } else {
                    for leaf in leafs {
                        for (oc, bv) in b.iter_mut().enumerate() {
                            *bv += align_code(leaf.b3[oc] as i64, b3_frac, prod_frac);
                        }
                    }
                }
                b
            };
            kernels::reference::conv3_acc_into(ins, input, &weights, &biases, out_planes, conv_acc);
        }
    }
    pool.stats.mac3 += (out_planes * ins.in_groups * LEAF_CH * LEAF_CH * 9 * cw * chh) as u64;

    let acc: &mut Tensor<i64> = if ins.opcode == Opcode::Upx2 {
        let shuffled = ensure_slot(&mut pool.acc_b, &mut pool.stats, conv_acc.len());
        conv_acc.pixel_shuffle_into(2, shuffled);
        shuffled
    } else {
        conv_acc
    };
    // srcS accumulation (ADDE) in the destination domain.
    if let Some(srcs) = ins.src_s {
        // INVARIANT: format presence validated by `BlockPlan::new`.
        let sq = ins.q.src_s.expect("plan validated srcS format");
        let plane = read_plane(&pool.arena, &mut pool.stats, srcs, plan.srcs_slot(idx))?;
        check_srcs_domain(acc, plane)?;
        add_aligned(acc, plane, sq.frac() as i32, prod_frac);
    }
    if ins.relu {
        for v in acc.as_mut_slice() {
            if *v < 0 {
                *v = 0;
            }
        }
    }
    if let Some(t) = trace.as_deref_mut() {
        merge_extrema(&mut t.acc, scan(acc));
    }
    // Requantize to the destination format, then Dst Reorder (pooling).
    let dst_key = PlaneKey::from(ins.dst);
    if ins.opcode == Opcode::Dnx2 {
        let (qc, qh, qw) = acc.shape();
        let quantized = ensure_overwrite(&mut pool.quant, &mut pool.stats, qc, qh, qw);
        requantize_into(acc, prod_frac, ins.q.dst, quantized);
        if let Some(t) = trace.as_deref_mut() {
            merge_extrema(&mut t.dst, scan(quantized));
        }
        let factor = ins.pool_factor;
        if qh / factor != ins.out_size.1 || qw / factor != ins.out_size.0 {
            return Err(ExecError::Shape(format!(
                "produced {}x{} vs declared {:?}",
                qw / factor,
                qh / factor,
                ins.out_size
            )));
        }
        let dst = checkout(
            &mut pool.arena,
            &mut pool.stats,
            plan.dst_slot(idx).map_or(Place::Key(dst_key), Place::Slot),
            LEAF_CH,
            ins.out_size.1,
            ins.out_size.0,
            false,
        );
        pool_into(
            quantized,
            ins.pool.expect("DNX2 carries a pool"),
            factor,
            dst,
        );
        let (len, px) = (dst.len(), dst.height() * dst.width());
        count_write(&mut pool.stats, program, dst_key, len, px);
    } else {
        // Post-shuffle UPX2 planes carry out_groups·LEAF_CH/4 channels
        // (8 for a 32→3ch upsampling tail); everything else is LEAF_CH.
        let (ac, ah, aw) = acc.shape();
        if ah != ins.out_size.1 || aw != ins.out_size.0 {
            return Err(ExecError::Shape(format!(
                "produced {aw}x{ah} vs declared {:?}",
                ins.out_size
            )));
        }
        let dst = checkout(
            &mut pool.arena,
            &mut pool.stats,
            plan.dst_slot(idx).map_or(Place::Key(dst_key), Place::Slot),
            ac,
            ins.out_size.1,
            ins.out_size.0,
            false,
        );
        requantize_into(acc, prod_frac, ins.q.dst, dst);
        if let Some(t) = trace {
            merge_extrema(&mut t.dst, scan(dst));
        }
        let (len, px) = (dst.len(), dst.height() * dst.width());
        count_write(&mut pool.stats, program, dst_key, len, px);
    }
    Ok(())
}

fn exec_conv1(
    plan: &BlockPlan<'_>,
    idx: usize,
    pool: &mut PlanePool,
    kind: Kernels,
    mut trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let program = plan.program;
    let ins = &program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    let input = gather(
        &pool.arena,
        &mut pool.wide,
        &mut pool.stats,
        ins.src,
        ins.in_groups,
        ins.in_size.0,
        plan.src_slots(idx),
    )?;
    // INVARIANT: format presence validated by `Instruction::check` in
    // `BlockPlan::new` (CONV1 requires the 1x1 formats).
    let w1q = ins.q.w1.expect("plan validated the 1x1 weight format");
    let b1q = ins.q.b1.expect("plan validated the 1x1 bias format");
    let prod_frac = w1q.frac() as i32 + ins.q.src.frac() as i32;
    let side = input.height();
    let acc = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, side, side);
    let pk = &plan.packed[idx];
    match packed_lane(kind, plan, idx) {
        Some((level, false)) => conv1_packed(pk, input, acc, level),
        Some((level, true)) => {
            // Licensed narrow lane (see `exec_conv3`).
            let acc32 = ensure_overwrite(&mut pool.acc_a32, &mut pool.stats, LEAF_CH, side, side);
            conv1_packed(pk, input, acc32, level);
            kernels::widen_acc(acc, acc32);
            pool.stats.narrow_instrs += 1;
        }
        None => {
            for oc in 0..LEAF_CH {
                let mut b = 0i64;
                for leaf in leafs {
                    b += align_code(leaf.b1[oc] as i64, b1q.frac() as i32, prod_frac);
                }
                for y in 0..side {
                    for x in 0..side {
                        *acc.at_mut(oc, y, x) = b;
                    }
                }
            }
            for (ig, leaf) in leafs.iter().enumerate() {
                kernels::reference::conv1_leaf_acc(&leaf.w1, input, ig * LEAF_CH, acc);
            }
        }
    }
    pool.stats.mac1 += (leafs.len() * LEAF_CH * LEAF_CH * side * side) as u64;
    if let Some(srcs) = ins.src_s {
        // INVARIANT: format presence validated by `BlockPlan::new`.
        let sq = ins.q.src_s.expect("plan validated srcS format");
        let plane = read_plane(&pool.arena, &mut pool.stats, srcs, plan.srcs_slot(idx))?;
        check_srcs_domain(acc, plane)?;
        add_aligned(acc, plane, sq.frac() as i32, prod_frac);
    }
    if ins.relu {
        for v in acc.as_mut_slice() {
            if *v < 0 {
                *v = 0;
            }
        }
    }
    if let Some(t) = trace.as_deref_mut() {
        merge_extrema(&mut t.acc, scan(acc));
    }
    let dst_key = PlaneKey::from(ins.dst);
    let dst = checkout(
        &mut pool.arena,
        &mut pool.stats,
        plan.dst_slot(idx).map_or(Place::Key(dst_key), Place::Slot),
        LEAF_CH,
        side,
        side,
        false,
    );
    requantize_into(acc, prod_frac, ins.q.dst, dst);
    if let Some(t) = trace {
        merge_extrema(&mut t.dst, scan(dst));
    }
    let (len, px) = (dst.len(), dst.height() * dst.width());
    count_write(&mut pool.stats, program, dst_key, len, px);
    Ok(())
}

fn exec_er(
    plan: &BlockPlan<'_>,
    idx: usize,
    pool: &mut PlanePool,
    kind: Kernels,
    mut trace: Option<&mut InstrTrace>,
) -> Result<(), ExecError> {
    let program = plan.program;
    let ins = &program.instructions[idx];
    let leafs = plan.leafs[idx].as_slice();
    // INVARIANT: format presence validated by `BlockPlan::new`.
    let midq = ins.q.mid.expect("plan validated the mid format");
    let w1q = ins.q.w1.expect("plan validated the 1x1 weight format");
    let b1q = ins.q.b1.expect("plan validated the 1x1 bias format");
    let prod3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
    let prod1 = w1q.frac() as i32 + midq.frac() as i32;
    let (cw, chh) = ins.conv_out_size();
    let input = gather(
        &pool.arena,
        &mut pool.wide,
        &mut pool.stats,
        ins.src,
        ins.in_groups,
        ins.in_size.0,
        plan.src_slots(idx),
    )?;
    let pk = &plan.packed[idx];
    match packed_lane(kind, plan, idx) {
        Some((level, false)) => {
            let acc1 = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, chh, cw);
            let scratch = ErScratch {
                acc1,
                acc3: &mut pool.acc_b,
                mid: &mut pool.mid,
                stats: &mut pool.stats,
            };
            er_packed(scratch, ins, input, pk, level, trace.as_deref_mut());
        }
        Some((level, true)) => {
            // Licensed narrow lane. For ER the verifier's `narrow_acc`
            // proves *both* stages fit `i32`: the per-leaf 3×3 expansion
            // accumulators (which the mid requantizer consumes, so they
            // must be exact, not merely congruent) and the pre-srcS 1×1
            // reduction accumulator.
            let acc1 = ensure_overwrite(&mut pool.acc_a32, &mut pool.stats, LEAF_CH, chh, cw);
            let scratch = ErScratch {
                acc1,
                acc3: &mut pool.acc_b32,
                mid: &mut pool.mid,
                stats: &mut pool.stats,
            };
            er_packed(scratch, ins, input, pk, level, trace.as_deref_mut());
            let acc1 = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, chh, cw);
            kernels::widen_acc(acc1, pool.acc_a32.as_ref().expect("accumulated above"));
            pool.stats.narrow_instrs += 1;
        }
        None => {
            let acc1 = ensure_overwrite(&mut pool.acc_a, &mut pool.stats, LEAF_CH, chh, cw);
            // 1x1 biases (first leaf only carries nonzero values).
            for oc in 0..LEAF_CH {
                let b: i64 = leafs
                    .iter()
                    .map(|leaf| align_code(leaf.b1[oc] as i64, b1q.frac() as i32, prod1))
                    .sum();
                for y in 0..chh {
                    for x in 0..cw {
                        *acc1.at_mut(oc, y, x) = b;
                    }
                }
            }
            // Each expansion plane convolves the single 32ch input group.
            let mut single = Instruction::clone(ins);
            single.in_groups = 1;
            let b3_frac = ins.q.b3.frac() as i32;
            let scratch = ErScratch {
                acc1,
                acc3: &mut pool.acc_b,
                mid: &mut pool.mid,
                stats: &mut pool.stats,
            };
            er_leaves(
                scratch,
                ins,
                leafs.len(),
                trace.as_deref_mut(),
                |li, acc3| {
                    let leaf = &leafs[li];
                    let weights = |_: usize, _: usize| leaf.w3.as_slice();
                    let biases = |_: usize| -> Vec<i64> {
                        (0..LEAF_CH)
                            .map(|oc| align_code(leaf.b3[oc] as i64, b3_frac, prod3))
                            .collect()
                    };
                    kernels::reference::conv3_acc_into(&single, input, &weights, &biases, 1, acc3);
                },
                |li, mid, acc1| kernels::reference::conv1_leaf_acc(&leafs[li].w1, mid, 0, acc1),
            );
        }
    }
    pool.stats.mac1 += (leafs.len() * LEAF_CH * LEAF_CH * cw * chh) as u64;
    let acc1 = pool.acc_a.as_mut().expect("accumulated above");
    // Module residual via srcS.
    if let Some(srcs) = ins.src_s {
        // INVARIANT: format presence validated by `BlockPlan::new`.
        let sq = ins.q.src_s.expect("plan validated srcS format");
        let plane = read_plane(&pool.arena, &mut pool.stats, srcs, plan.srcs_slot(idx))?;
        check_srcs_domain(acc1, plane)?;
        add_aligned(acc1, plane, sq.frac() as i32, prod1);
    }
    if let Some(t) = trace.as_deref_mut() {
        merge_extrema(&mut t.acc, scan(acc1));
    }
    let dst_key = PlaneKey::from(ins.dst);
    let dst = checkout(
        &mut pool.arena,
        &mut pool.stats,
        plan.dst_slot(idx).map_or(Place::Key(dst_key), Place::Slot),
        LEAF_CH,
        chh,
        cw,
        false,
    );
    requantize_into(acc1, prod1, ins.q.dst, dst);
    if let Some(t) = trace {
        merge_extrema(&mut t.dst, scan(dst));
    }
    let (len, px) = (dst.len(), dst.height() * dst.width());
    count_write(&mut pool.stats, program, dst_key, len, px);
    Ok(())
}

/// Which packed lane one instruction runs on: `None` for the reference
/// kernels, else the [`SimdLevel`] of the row kernels and whether the
/// narrow `i32` lane is licensed. [`Kernels::Packed`] is the packed nest at
/// the portable scalar tier with wide lanes; [`Kernels::Simd`] runs at the
/// plan's tier, narrow where the instruction carries `narrow_acc`.
fn packed_lane(kind: Kernels, plan: &BlockPlan<'_>, idx: usize) -> Option<(SimdLevel, bool)> {
    match kind {
        Kernels::Reference => None,
        Kernels::Packed => Some((SimdLevel::Scalar, false)),
        Kernels::Simd => Some((plan.simd, plan.packed[idx].narrow_acc)),
    }
}

/// The packed `CONV1` on lane `L`: bias fill, then every leaf's 1×1 MAC
/// over its own 32-channel input group.
fn conv1_packed<L: Lane>(
    pk: &PackedKernelParams,
    input: &Tensor<i16>,
    acc: &mut Tensor<L>,
    level: SimdLevel,
) {
    let packed = pk.conv1.as_ref().expect("CONV1 packs a 1x1");
    kernels::fill_bias(acc, &packed.bias);
    for leaf in 0..packed.leaves {
        kernels::conv1(packed, leaf, input, leaf * LEAF_CH, acc, level);
    }
}

/// The accumulators one `ER` execution runs on, in lane `L`.
struct ErScratch<'p, L> {
    /// The 32-channel 1×1 reduction accumulator, already bias-filled.
    acc1: &'p mut Tensor<L>,
    /// The per-leaf 3×3 expansion accumulator.
    acc3: &'p mut Option<Tensor<L>>,
    /// The requantized expansion plane.
    mid: &'p mut Option<Tensor<i16>>,
    stats: &'p mut ExecStats,
}

/// The packed `ER` on lane `L`: 1×1 bias fill, then [`er_leaves`] over
/// the packed 3×3 nest and 1×1 leaf MAC at `level`.
fn er_packed<L: Lane>(
    s: ErScratch<'_, L>,
    ins: &Instruction,
    input: &Tensor<i16>,
    pk: &PackedKernelParams,
    level: SimdLevel,
    trace: Option<&mut InstrTrace>,
) {
    let p1 = pk.conv1.as_ref().expect("ER packs a 1x1");
    kernels::fill_bias(s.acc1, &p1.bias);
    er_leaves(
        s,
        ins,
        pk.conv3.len(),
        trace,
        |li, acc3| kernels::conv3(ins, input, &pk.conv3[li], acc3, level),
        |li, mid, acc1| kernels::conv1(p1, li, mid, 0, acc1, level),
    );
}

/// The `ER` per-leaf loop: each leaf's expansion plane is convolved
/// (`expand`), passed through ER's internal ReLU, requantized to the mid
/// format, and reduced into `s.acc1` by the leaf's 1×1 columns (`reduce`).
fn er_leaves<L: Lane>(
    s: ErScratch<'_, L>,
    ins: &Instruction,
    leaves: usize,
    mut trace: Option<&mut InstrTrace>,
    mut expand: impl FnMut(usize, &mut Tensor<L>),
    mut reduce: impl FnMut(usize, &Tensor<i16>, &mut Tensor<L>),
) {
    // INVARIANT: format presence validated by `BlockPlan::new`.
    let midq = ins.q.mid.expect("plan validated the mid format");
    let prod3 = ins.q.w3.frac() as i32 + ins.q.src.frac() as i32;
    let (cw, chh) = ins.conv_out_size();
    for li in 0..leaves {
        // Expansion plane: CONV3x3 -> ReLU -> quantize to mid format.
        let acc3 = ensure_overwrite(s.acc3, s.stats, LEAF_CH, chh, cw);
        expand(li, acc3);
        s.stats.mac3 += (LEAF_CH * LEAF_CH * 9 * cw * chh) as u64;
        if let Some(t) = trace.as_deref_mut() {
            merge_extrema(&mut t.er_acc3, scan(acc3));
        }
        let mid = ensure_overwrite(s.mid, s.stats, LEAF_CH, chh, cw);
        for (m, &a) in mid.as_mut_slice().iter_mut().zip(acc3.as_slice()) {
            let v: i64 = a.into();
            let v = v.max(0); // ER's internal ReLU
            *m = midq.clamp_code(rescale_code(v, prod3, midq.frac() as i32));
        }
        // LCONV1x1: plane's columns accumulate into the 32ch output.
        reduce(li, mid, s.acc1);
    }
}

/// Assembles the logical output block from the pooled DO planes.
fn assemble_output<'p>(
    plan: &BlockPlan<'_>,
    pool: &'p mut PlanePool,
) -> Result<&'p Tensor<i16>, ExecError> {
    let program = plan.program;
    // Every (channel, y, x) is written below — the DO groups tile the
    // logical channel range — so stale contents need no clearing.
    let out = ensure_overwrite(
        &mut pool.out,
        &mut pool.stats,
        program.do_channels,
        program.do_side,
        program.do_side,
    );
    for g in 0..plan.out_groups {
        let plane = match plan.do_slot(g) {
            Some(s) => pool.arena.slots.get(s).and_then(Option::as_ref),
            None => pool.arena.planes.get(&PlaneKey::Do { group: g as u8 }),
        }
        .ok_or(ExecError::MissingPlane(FeatLoc::Do { group: g as u8 }))?;
        if plane.height() != program.do_side || plane.width() != program.do_side {
            return Err(ExecError::Shape(format!(
                "DO plane {}x{} vs side {}",
                plane.height(),
                plane.width(),
                program.do_side
            )));
        }
        for c in 0..LEAF_CH {
            let oc = g * LEAF_CH + c;
            if oc >= program.do_channels {
                break;
            }
            out.channel_mut(oc).copy_from_slice(plane.channel(c));
        }
    }
    Ok(out)
}

/// Guards the srcS accumulation domain: the plane must cover the
/// accumulator spatially (it is center-cropped, never extended) and carry
/// at least the accumulated channel count. Checked before every
/// [`add_aligned`] call so the executor returns a structured error where
/// it used to assert; `ecnn_isa::verify` proves the same property
/// statically (`shape-mismatch`).
fn check_srcs_domain(acc: &Tensor<i64>, plane: &Tensor<i16>) -> Result<(), ExecError> {
    let (ac, ah, aw) = acc.shape();
    let (pc, ph, pw) = plane.shape();
    if ph < ah || pw < aw {
        return Err(ExecError::Shape(format!(
            "srcS plane {pw}x{ph} smaller than the {aw}x{ah} accumulator"
        )));
    }
    if pc < ac.min(LEAF_CH) {
        return Err(ExecError::Shape(format!(
            "srcS carries {pc} channel(s) for a {ac}-channel accumulator"
        )));
    }
    Ok(())
}

/// Adds a quantized plane into an accumulator tensor, center-cropping the
/// plane when it is larger than the accumulator (truncated-pyramid skips).
/// Row-sliced; the common upshift alignment is hoisted to one shift per
/// element with no per-element branch.
///
/// INVARIANT: callers run [`check_srcs_domain`] first, so the domain
/// asserts below are unreachable from public entry points.
fn add_aligned(acc: &mut Tensor<i64>, plane: &Tensor<i16>, plane_frac: i32, acc_frac: i32) {
    let (ac, ah, aw) = acc.shape();
    let (pc, ph, pw) = plane.shape();
    assert!(pc >= ac.min(LEAF_CH), "srcS channel mismatch");
    assert!(ph >= ah && pw >= aw, "srcS smaller than accumulator");
    let oy = (ph - ah) / 2;
    let ox = (pw - aw) / 2;
    let up = acc_frac >= plane_frac;
    let shift = (acc_frac - plane_frac).unsigned_abs();
    let mut add_rows = |dst: &mut [i64], src: &[i16]| {
        if up {
            for (a, &v) in dst.iter_mut().zip(src) {
                *a += (v as i64) << shift;
            }
        } else {
            for (a, &v) in dst.iter_mut().zip(src) {
                *a += align_code(v as i64, plane_frac, acc_frac);
            }
        }
    };
    if (ph, pw) == (ah, aw) {
        for c in 0..ac.min(pc) {
            acc.zip_rows(c, plane, c, &mut add_rows);
        }
    } else {
        for c in 0..ac.min(pc) {
            for y in 0..ah {
                add_rows(acc.row_mut(c, y), &plane.row(c, y + oy)[ox..ox + aw]);
            }
        }
    }
}

/// Requantizes full-precision accumulators at `acc_frac` into `dst`'s
/// codes at format `q` — the datapath's single output rounding. `dst` is
/// already shaped to match `acc`; every element is overwritten.
fn requantize_into(acc: &Tensor<i64>, acc_frac: i32, q: QFormat, dst: &mut Tensor<i16>) {
    debug_assert_eq!(acc.len(), dst.len());
    let dst_frac = q.frac() as i32;
    for (d, &a) in dst.as_mut_slice().iter_mut().zip(acc.as_slice()) {
        *d = q.clamp_code(rescale_code(a, acc_frac, dst_frac));
    }
}

/// Pooling on quantized codes (Dst Reorder) into a pre-shaped destination,
/// one output row at a time: stride pooling samples the source row with a
/// `step_by`, max pooling folds each source row's `factor`-wide windows
/// into the output row.
fn pool_into(t: &Tensor<i16>, kind: PoolKind, factor: usize, dst: &mut Tensor<i16>) {
    let (c, _, _) = t.shape();
    debug_assert_eq!(dst.channels(), c);
    let (dh, dw) = (dst.height(), dst.width());
    for ch in 0..c {
        for y in 0..dh {
            match kind {
                PoolKind::Stride => {
                    let src = t.row(ch, y * factor);
                    for (d, &v) in dst
                        .row_mut(ch, y)
                        .iter_mut()
                        .zip(src.iter().step_by(factor))
                    {
                        *d = v;
                    }
                }
                PoolKind::Max => {
                    let out = dst.row_mut(ch, y);
                    out.fill(i16::MIN);
                    for dy in 0..factor {
                        let src = &t.row(ch, y * factor + dy)[..dw * factor];
                        for (d, window) in out.iter_mut().zip(src.chunks_exact(factor)) {
                            for &v in window {
                                *d = (*d).max(v);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: quantize a float image block into input codes for
/// [`execute`].
pub fn quantize_input(block: &Tensor<f32>, program: &Program) -> Tensor<i16> {
    block.map(|v| program.di_q.quantize(v))
}

/// Convenience: dequantize an output block back to floats.
pub fn dequantize_output(block: &Tensor<i16>, program: &Program) -> Tensor<f32> {
    block.map(|c| program.do_q.dequantize(c))
}

/// Peak MACs available in `cycles` CIU cycles (for utilization reports).
pub fn peak_macs(config: &EcnnConfig, cycles: u64) -> u64 {
    cycles * config.total_multipliers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_isa::compile::compile;
    use ecnn_isa::params::QuantizedModel;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};
    use ecnn_model::layer::{Activation, Layer, Op};
    use ecnn_model::model::Model;
    use ecnn_tensor::conv::{conv3x3_fixed, FixedConvParams, Padding};
    use ecnn_tensor::SyntheticImage;

    /// Plans `leafs` against `program` and runs one block on a fresh pool,
    /// returning the output and the pool's counters.
    fn run_block(
        program: &Program,
        leafs: &[Vec<LeafParams>],
        input: &Tensor<i16>,
    ) -> Result<(Tensor<i16>, ExecStats), ExecError> {
        let plan = BlockPlan::new(program, leafs)?;
        let mut pool = PlanePool::new();
        let out = execute(&plan, &mut pool, input)?.clone();
        Ok((out, pool.stats()))
    }

    /// Single 3->32 conv: the simulator must agree with the golden fixed
    /// kernel exactly.
    #[test]
    fn single_conv_matches_golden_kernel() {
        let m = Model::new(
            "one-conv",
            3,
            32,
            vec![Layer::new(Op::Conv3x3 {
                in_c: 3,
                out_c: 32,
                act: Activation::None,
            })],
        )
        .unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 16).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 3).rgb(16, 16);
        let input = img.map(|v| qm.input_q.quantize(v));

        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (32, 14, 14));

        // Golden: hardware-padded 32ch input into conv3x3_fixed.
        let p = qm.layers[0].as_ref().unwrap();
        let padded = input.with_channels(32);
        let golden = conv3x3_fixed(
            &padded,
            qm.input_q.frac() as i32,
            &FixedConvParams {
                weights: &p.w3,
                w_format: p.w3_q,
                bias: &p.b3,
                b_format: p.b3_q,
                out_format: p.out_q,
            },
            32,
            Padding::Valid,
        );
        assert_eq!(out, golden);
    }

    #[test]
    fn er_module_residual_is_exact_identity_with_zero_weights() {
        // An ER module with all-zero weights must reduce to the residual:
        // output == center crop of input (requantized).
        let m = Model::new(
            "er-id",
            32,
            32,
            vec![Layer::new(Op::ErModule {
                channels: 32,
                expansion: 2,
            })],
        )
        .unwrap();
        let mut qm = QuantizedModel::uniform(&m);
        {
            let p = qm.layers[0].as_mut().unwrap();
            p.w3.iter_mut().for_each(|w| *w = 0);
            p.w1.iter_mut().for_each(|w| *w = 0);
            p.b3.iter_mut().for_each(|b| *b = 0);
            p.b1.iter_mut().for_each(|b| *b = 0);
            p.out_q = qm.input_q; // same format => exact pass-through
        }
        let c = compile(&qm, 12).unwrap();
        let input = Tensor::from_fn(32, 12, 12, |ch, y, x| ((ch + y * 3 + x) % 200) as i16);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (32, 10, 10));
        for ch in 0..32 {
            for y in 0..10 {
                for x in 0..10 {
                    assert_eq!(out.at(ch, y, x), input.at(ch, y + 1, x + 1));
                }
            }
        }
    }

    #[test]
    fn dnernet_runs_end_to_end() {
        let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 9).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let (out, stats) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (3, 52, 52));
        assert_eq!(stats.instructions, 6);
        assert!(stats.mac3 > 0 && stats.mac1 > 0);
        assert!(stats.di_bytes > 0 && stats.do_bytes > 0);
    }

    #[test]
    fn sr2_upsamples_block() {
        let m = ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        // 32 - 2*5 convs at LR = 22 -> x2 = 44 -> tail conv -> 42.
        assert_eq!(c.program.do_side, 42);
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Smooth, 4).rgb(32, 32);
        let input = quantize_input(&img, &c.program);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        assert_eq!(out.shape(), (3, 42, 42));
    }

    #[test]
    fn dn12_shuffle_path_round_trips_shape() {
        let m = ErNetSpec::new(ErNetTask::Dn12, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 64).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 5).rgb(64, 64);
        let input = quantize_input(&img, &c.program);
        let (out, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        // 64 -> unshuffle 32 -> 5 convs -> 22 -> shuffle -> 44.
        assert_eq!(out.shape(), (3, 44, 44));
    }

    #[test]
    fn unpacked_params_execute_identically() {
        // Executing with Huffman-decoded parameters must match the directly
        // compiled leafs bit-for-bit.
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 2, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 48).unwrap();
        let decoded: Vec<_> = (0..c.program.instructions.len())
            .map(|i| c.packed.unpack(i).unwrap())
            .collect();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 2).rgb(48, 48);
        let input = quantize_input(&img, &c.program);
        let (out_a, _) = run_block(&c.program, &c.leafs, &input).unwrap();
        let (out_b, _) = run_block(&c.program, &decoded, &input).unwrap();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn missing_plane_is_reported() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        // Plan with too few leaf sets: the bookkeeping check rejects it
        // before any block runs.
        assert!(matches!(
            BlockPlan::new(&c.program, &c.leafs[..2]),
            Err(ExecError::Leafs(_))
        ));
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let m = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Smooth, 1).rgb(16, 16);
        let input = quantize_input(&img, &c.program);
        assert!(matches!(
            run_block(&c.program, &c.leafs, &input),
            Err(ExecError::Shape(_))
        ));
    }

    #[test]
    fn plan_computes_shapes_and_lifetimes() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let planes = plan.planes();
        assert_eq!(
            planes.len(),
            plan.di_groups() + c.program.instructions.len()
        );
        // DI planes are streamed in, not written by instructions.
        assert!(planes[..plan.di_groups()].iter().all(|p| p.born.is_none()));
        // Every instruction write records its shape; a read never precedes
        // its write.
        for p in &planes[plan.di_groups()..] {
            let born = p.born.expect("instruction planes have a writer");
            assert_eq!(p.channels, LEAF_CH);
            if let Some(last) = p.last_use {
                assert!(last > born, "lifetime runs forward");
            }
        }
        // The DO plane survives until output assembly.
        let end = c.program.instructions.len();
        assert!(planes
            .iter()
            .any(|p| matches!(p.key, PlaneKey::Do { .. }) && p.last_use == Some(end)));
        assert!(plan.peak_plane_bytes() > 0);
    }

    #[test]
    fn pool_allocates_once_across_blocks() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let mut pool = PlanePool::new();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 8).rgb(40, 40);
        let input = quantize_input(&img, &c.program);
        execute(&plan, &mut pool, &input).unwrap();
        let warm = pool.stats();
        assert!(warm.planes_allocated > 0, "first block allocates the arena");
        for _ in 0..3 {
            execute(&plan, &mut pool, &input).unwrap();
        }
        let steady = pool.stats().delta_since(&warm);
        assert_eq!(steady.planes_allocated, 0, "warm blocks must not allocate");
        assert!(steady.planes_reused > 0);
        // Three identical warm blocks attribute back to exactly one
        // block's worth of deterministic work.
        let per_block = steady.per_frame(3);
        assert_eq!(per_block.work(), warm.work());
        assert_eq!(steady.per_frame(0), steady, "0 frames: unchanged");
    }

    #[test]
    fn plan_packs_kernel_params_once() {
        let m = ErNetSpec::new(ErNetTask::Dn, 2, 2, 1).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 40).unwrap();
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        assert_eq!(plan.packed().len(), c.program.instructions.len());
        assert!(plan.packed_bytes() > 0);
        for (ins, packed) in c.program.instructions.iter().zip(plan.packed()) {
            assert_eq!(!packed.conv3.is_empty(), ins.opcode.has_conv3x3());
            assert_eq!(packed.conv1.is_some(), ins.opcode.has_conv1x1());
        }
        // Every execution is served from the packed cache; the reference
        // path never touches it.
        let mut pool = PlanePool::new();
        let img = SyntheticImage::new(ecnn_tensor::ImageKind::Mixed, 4).rgb(40, 40);
        let input = quantize_input(&img, &c.program);
        execute(&plan, &mut pool, &input).unwrap();
        assert_eq!(
            pool.stats().params_reused,
            c.program.instructions.len() as u64
        );
        let mut ref_pool = PlanePool::new();
        execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
        assert_eq!(ref_pool.stats().params_reused, 0);
    }

    #[test]
    fn reference_kernels_match_packed_on_all_opcodes() {
        // Sr4 with unequal body/tail exercises CONV, ER, UPX2 and the
        // srcS/relu epilogues in one program; Dn12 adds DNX2 + unshuffle.
        for (spec, side) in [
            (ErNetSpec::new(ErNetTask::Sr4, 2, 2, 1), 32),
            (ErNetSpec::new(ErNetTask::Dn12, 2, 1, 0), 48),
        ] {
            let m = spec.build().unwrap();
            let qm = QuantizedModel::uniform(&m);
            let c = compile(&qm, side).unwrap();
            let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
            let img = SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 7).rgb(side, side);
            let input = quantize_input(&img, &c.program);
            let mut fast_pool = PlanePool::new();
            let fast = execute(&plan, &mut fast_pool, &input).unwrap().clone();
            let mut ref_pool = PlanePool::new();
            let reference = execute_with(&plan, &mut ref_pool, &input, Kernels::Reference).unwrap();
            assert_eq!(&fast, reference, "{spec}");
            assert_eq!(fast_pool.stats().work(), ref_pool.stats().work(), "{spec}");
        }
    }

    #[test]
    fn pool_reuse_does_not_leak_state_across_blocks() {
        // A warm pool must produce bit-identical output to a fresh one.
        let m = ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let c = compile(&qm, 32).unwrap();
        let a = quantize_input(
            &SyntheticImage::new(ecnn_tensor::ImageKind::Edges, 1).rgb(32, 32),
            &c.program,
        );
        let b = quantize_input(
            &SyntheticImage::new(ecnn_tensor::ImageKind::Texture, 2).rgb(32, 32),
            &c.program,
        );
        let plan = BlockPlan::new(&c.program, &c.leafs).unwrap();
        let mut warm = PlanePool::new();
        execute(&plan, &mut warm, &a).unwrap();
        let warm_out = execute(&plan, &mut warm, &b).unwrap().clone();
        let (fresh_out, _) = run_block(&c.program, &c.leafs, &b).unwrap();
        assert_eq!(warm_out, fresh_out);
    }

    #[test]
    fn checkout_recycles_storage_per_key() {
        let mut pool = PlanePool::new();
        let key = PlaneKey::Bb { id: 0, group: 0 };
        let ptr = pool.checkout(key, LEAF_CH, 10, 10).as_slice().as_ptr();
        // Shrinking reuses the same storage; a different key gets its own.
        let ptr2 = pool.checkout(key, LEAF_CH, 8, 8).as_slice().as_ptr();
        assert_eq!(ptr, ptr2);
        let other = pool
            .checkout(PlaneKey::Bb { id: 1, group: 0 }, LEAF_CH, 8, 8)
            .as_slice()
            .as_ptr();
        assert_ne!(ptr, other);
        let s = pool.stats();
        assert_eq!(s.planes_allocated, 2);
        assert_eq!(s.planes_reused, 1);
        assert_eq!(pool.resident_planes(), 2);
    }
}
