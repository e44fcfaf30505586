//! The three workloads, and the seeded inputs each one streams.
//!
//! Every input is generated here from the `--seed` argument; the engine
//! receives only the generated frames.

use ecnn_core::engine::{Engine, EngineBuilder};
use ecnn_core::FaultPlan;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};

/// Input size of the paper's eSR-4K flow: 960x540 in, 3840x2160 out.
const FRAME_H: usize = 540;
const FRAME_W: usize = 960;

/// How large a run is: the real workloads, or a seconds-long miniature of
/// each (same code paths, a small model and frame) for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    pub model: ErNetSpec,
    pub block: usize,
    /// Generated frame size `(height, width)`.
    pub frame: (usize, usize),
    /// The engine sees three fixed crops of the generated frame, each
    /// `tile_blocks x tile_blocks` output blocks, and the closed loop
    /// cycles through them.
    pub tile_blocks: usize,
    /// 1 runs a serial `Session`; more runs an `AsyncSession` with this
    /// many workers and its default in-flight window of `2 * workers`.
    pub workers: usize,
    /// Fault rules injected into band dispatches (seeded per run).
    pub faults: Option<&'static str>,
}

/// `dn_stream` is `dn_stream_faults` without its fault plan. BENCHMARK.json
/// leaves it out, so that two workloads get runs long enough to be steady
/// within the check's time limit; it runs on demand as the fault-free
/// baseline of the pipelined session.
pub const NAMES: [&str; 3] = ["esr4k_tile", "dn_stream", "dn_stream_faults"];

/// Panics at 5% of dispatches (each one kills a worker, which is respawned
/// with a cold `Session`) and 10% 20 ms stragglers. No `corrupt` rule: it
/// would walk the degradation ladder onto slower kernels and the run would
/// measure those. At 5%, a band exhausts the default four attempts with
/// probability 6e-6, so no frame fails.
const FAULT_RULES: &str = "panic@50;delay@100:ms=20";

impl Spec {
    pub fn get(name: &str, scale: Scale) -> Option<Spec> {
        let tiny = scale == Scale::Tiny;
        let (frame, block) = if tiny {
            ((72, 96), 40)
        } else {
            ((FRAME_H, FRAME_W), 128)
        };
        let spec = match name {
            // The UHD30 eSR-4K pick: 9.02 GMAC per block, a 16.4 MB plane
            // peak beyond L2. Kernel and memory-plan changes show here; it
            // bypasses the pipelined session. Each crop is a 2x2-block tile
            // (160x160 in, 640x640 out).
            "esr4k_tile" => Spec {
                name: "esr4k_tile",
                model: if tiny {
                    ErNetSpec::new(ErNetTask::Sr4, 1, 1, 0)
                } else {
                    ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1)
                },
                block,
                frame,
                tile_blocks: 2,
                workers: 1,
                faults: None,
            },
            // The UHD30 denoise pick: 0.86 GMAC per block, a plane peak that
            // fits L2 and 11x the blocks per output pixel of eSR-4K, so band
            // dispatch, stitching and the per-block stages weigh most here.
            // Each crop is a 4x4-block tile (16 blocks, two bands of two
            // block rows): a whole 960x540 frame is 45 blocks, and a run of
            // whole frames holds too few of them to give a steady median.
            "dn_stream" | "dn_stream_faults" => Spec {
                name: if name == "dn_stream" {
                    "dn_stream"
                } else {
                    "dn_stream_faults"
                },
                model: if tiny {
                    ErNetSpec::new(ErNetTask::Dn, 1, 1, 0)
                } else {
                    ErNetSpec::new(ErNetTask::Dn, 3, 1, 0)
                },
                block,
                frame,
                tile_blocks: if tiny { 2 } else { 4 },
                workers: 2,
                faults: (name == "dn_stream_faults").then_some(FAULT_RULES),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Engine builder for this workload; the fault plan's seed is derived
    /// from the run seed, so a seed replays the same faults.
    pub fn builder(&self, seed: u64) -> EngineBuilder {
        let b = Engine::builder()
            .ernet(self.model)
            .block(self.block)
            .realtime(RealTimeSpec::UHD30);
        match self.faults {
            Some(rules) => {
                let grammar = format!("seed={};{rules}", mix(seed, 0xFA17));
                b.faults(FaultPlan::parse(&grammar).expect("fault grammar is well-formed"))
            }
            None => b,
        }
    }

    /// The inputs of one run: the top-left, centre and bottom-right tiles
    /// of one seeded frame.
    pub fn inputs(&self, engine: &Engine, seed: u64) -> Vec<Tensor<f32>> {
        let (h, w) = self.frame;
        let side = tile_side(engine, self.tile_blocks);
        let full = frame(mix(seed, 0), h, w);
        let (dy, dx) = (h - side, w - side);
        [(0, 0), (dy / 2, dx / 2), (dy, dx)]
            .into_iter()
            .map(|(y, x)| full.crop_padded(y as isize, x as isize, side, side))
            .collect()
    }

    /// The smallest input that is exactly one output block: warms a
    /// session's plane pool without running a whole frame.
    pub fn one_block(&self, engine: &Engine, seed: u64) -> Tensor<f32> {
        let side = tile_side(engine, 1);
        frame(mix(seed, 0xB10C), side, side)
    }
}

/// Input side of an `n x n`-block tile: `n` output blocks, scaled back to
/// input pixels by the model's exact output scale.
fn tile_side(engine: &Engine, n: usize) -> usize {
    let (num, den) = engine.model().output_scale_rational();
    n * engine.compiled().program.do_side * den / num
}

fn frame(seed: u64, h: usize, w: usize) -> Tensor<f32> {
    SyntheticImage::new(ImageKind::Mixed, seed).rgb(h, w)
}

/// splitmix64 of `seed` salted with `salt`: independent streams from one
/// run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
