//! High-level eCNN system API: the block-based inference pipeline end to
//! end (paper Fig. 3 / Fig. 12), behind one backend-agnostic entry point.
//!
//! [`Engine::builder`] assembles a machine fluently — model spec →
//! quantization → block size → real-time spec → power/DRAM models — and
//! [`Engine`] can then:
//!
//! * stream real images through the bit-exact simulator with block
//!   partitioning, overlap recomputation and stitching, reusing buffers
//!   across frames ([`Engine::session`] / [`Session::process`]);
//! * produce frame-rate / bandwidth / power reports for any output
//!   resolution ([`Engine::system_report`]).
//!
//! The same workload runs on every comparison flow through the
//! [`Backend`] trait (`ecnn-baselines` implements it for the frame-based,
//! fused-layer, TPU and Diffy flows), so eCNN and the paper's baselines
//! share a single reporting surface. [`ShardedBackend`] wraps any backend
//! and partitions a frame's block grid across worker threads — see
//! [`sharded`] — and [`AsyncSession`] pipelines whole frame queues over a
//! persistent worker pool with poll-based tickets — see [`pipe`].
//!
//! # Example
//!
//! ```
//! use ecnn_core::engine::Engine;
//! use ecnn_model::ernet::{ErNetSpec, ErNetTask};
//! use ecnn_model::RealTimeSpec;
//! use ecnn_tensor::{ImageKind, SyntheticImage};
//!
//! let engine = Engine::builder()
//!     .ernet(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0))
//!     .block(128)
//!     .realtime(RealTimeSpec::UHD30)
//!     .build()
//!     .unwrap();
//!
//! // Analytical frame report at the real-time target.
//! let report = engine.system_report();
//! assert!(report.frame.fps >= 30.0);
//!
//! // Streaming inference: buffers are allocated once per session.
//! let mut session = engine.session();
//! for seed in 0..2 {
//!     let frame = SyntheticImage::new(ImageKind::Mixed, seed).rgb(128, 128);
//!     let out = session.process(&frame).unwrap();
//!     assert_eq!(out.shape(), (3, 128, 128));
//! }
//! assert_eq!(session.frames(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod config;
pub mod engine;
pub mod faults;
mod json;
pub mod pipe;
pub mod report;
pub mod sharded;
pub mod supervise;
pub mod tune;

pub use config::{EngineConfig, EnvOverrides};
pub use ecnn_isa::verify::{VerifyMode, VerifyReport};
pub use ecnn_sim::{KernelVariant, Kernels, SimdLevel};
pub use engine::{
    Backend, EcnnBackend, Engine, EngineBuilder, EngineError, FrameReport, ImageMismatch,
    ImageRunStats, Session, Workload,
};
pub use faults::{Fault, FaultKind, FaultPlan, FaultRule};
pub use pipe::{AsyncSession, FramePoll, FrameTicket};
pub use report::{SupervisionReport, SystemReport};
pub use sharded::{partition_rows, BlockParallel, ShardedBackend};
pub use supervise::{
    ladder, DegradeEvent, DegradeRung, FailureClass, SupervisorCounters, SupervisorPolicy,
    SupervisorStats,
};
pub use tune::{TuneOptions, TuneReport, TuneSpace, TuningRecord};
