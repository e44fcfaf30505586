//! Integration tests for the plan/execute split and the sharded backend:
//! parity of the sharded paths against the plain engine, fault-plan
//! recovery of the one-frame sharded run, and the plane pool's
//! zero-allocation steady state.

use ecnn_baselines::registry;
use ecnn_core::engine::{Backend, EcnnBackend, Engine, Workload};
use ecnn_core::sharded::ShardedBackend;
use ecnn_core::FaultPlan;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_model::RealTimeSpec;
use ecnn_tensor::{ImageKind, SyntheticImage};

fn workload() -> Workload {
    Workload::ernet(
        ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
        40,
        RealTimeSpec::HD30,
    )
    .unwrap()
}

fn engine() -> Engine {
    EcnnBackend::paper().engine(&workload()).unwrap()
}

/// The headline parity claim: at N = 1, 2, 4 the sharded backend produces
/// bit-identical output pixels and identical merged report totals vs the
/// plain single-engine path.
#[test]
fn sharded_backend_parity_at_1_2_4() {
    let w = workload();
    let img = SyntheticImage::new(ImageKind::Texture, 23).rgb(72, 96);
    let plain = EcnnBackend::paper();
    let (ref_out, ref_stats) = plain.run_image(&w, &img).unwrap();
    let ref_report = plain.frame_report(&w).unwrap();
    for n in [1usize, 2, 4] {
        let sharded = ShardedBackend::new(EcnnBackend::paper(), n);

        // Pixels: bit-identical (the block grid is partitioned, never
        // recomputed differently).
        let (out, stats) = sharded.run_image(&w, &img).unwrap();
        assert_eq!(out, ref_out, "x{n}: pixels must be bit-identical");
        assert_eq!(stats.blocks, ref_stats.blocks, "x{n}: block totals");
        assert_eq!(
            stats.exec.work(),
            ref_stats.exec.work(),
            "x{n}: per-frame work totals (MACs, bytes, instructions)"
        );

        // Reports: summed totals equal the unsharded report (up to the
        // sub-byte truncation each shard's analytic count applies).
        let merged = sharded.frame_report(&w).unwrap();
        let drift = (merged.dram_bytes_per_frame - ref_report.dram_bytes_per_frame).abs();
        assert!(drift <= 2.0 * n as f64, "x{n}: DRAM bytes drift {drift}");
        assert!(
            merged.fps >= ref_report.fps,
            "x{n}: sharding cannot slow down"
        );
        if n == 1 {
            assert_eq!(merged.fps, ref_report.fps);
            assert_eq!(merged.power_w, ref_report.power_w);
            assert_eq!(merged.feature_sram_bytes, ref_report.feature_sram_bytes);
        }
    }
}

/// Sharding must also hold on upscaling workloads (output grid ≠ input
/// grid) and on frame sizes that do not divide evenly into block rows.
#[test]
fn sharded_parity_on_sr_with_ragged_grid() {
    let w = Workload::ernet(
        ErNetSpec::new(ErNetTask::Sr2, 2, 1, 0),
        32,
        RealTimeSpec::HD30,
    )
    .unwrap();
    // 50x38: neither dimension is a multiple of the 42px output block.
    let img = SyntheticImage::new(ImageKind::Edges, 5).rgb(50, 38);
    let (ref_out, _) = EcnnBackend::paper().run_image(&w, &img).unwrap();
    assert_eq!(ref_out.shape(), (3, 100, 76));
    for n in [2usize, 3, 4] {
        let (out, _) = ShardedBackend::new(EcnnBackend::paper(), n)
            .run_image(&w, &img)
            .unwrap();
        assert_eq!(out, ref_out, "x{n}");
    }
}

/// The one-shot sharded run is a one-frame supervised session: it honors
/// the engine's fault plan, recovers from the injected panics and delays,
/// and still returns the serial pixels.
#[test]
fn sharded_run_honors_fault_plan() {
    let eng = Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 2, 1, 0))
        .block(40)
        .faults(FaultPlan::parse("seed=7;panic@500;delay@1000:ms=1").unwrap())
        .build()
        .unwrap();
    let img = SyntheticImage::new(ImageKind::Texture, 23).rgb(72, 96);
    let (reference, _) = eng.run_image(&img).unwrap();
    let (out, stats) = eng.run_image_sharded(&img, 2).unwrap();
    assert_eq!(out, reference, "pixels must survive the injected faults");
    assert!(
        stats.supervisor.faults_injected > 0,
        "the plan must reach the sharded workers: {:?}",
        stats.supervisor
    );
}

/// After the first frame has warmed the plane pool, a multi-frame session
/// performs zero per-block plane allocations — the acceptance criterion
/// for the arena.
#[test]
fn session_pool_allocates_nothing_after_warmup() {
    let eng = engine();
    let mut session = eng.session();
    let frames: Vec<_> = (0..4)
        .map(|seed| SyntheticImage::new(ImageKind::Mixed, seed).rgb(56, 56))
        .collect();
    for (i, frame) in frames.iter().enumerate() {
        session.process(frame).unwrap();
        let exec = session.last_frame_stats().exec;
        if i == 0 {
            assert!(exec.planes_allocated > 0, "first frame populates the arena");
        } else {
            assert_eq!(
                exec.planes_allocated, 0,
                "frame {i}: warm frames must not allocate planes"
            );
            assert!(exec.planes_reused > 0);
        }
    }
    assert_eq!(session.frames(), 4);
}

/// The batched entry point drains a frame queue through one pool and
/// matches per-frame processing bit-exactly.
#[test]
fn run_frames_matches_sequential_processing() {
    let eng = engine();
    let frames: Vec<_> = (0..3)
        .map(|seed| SyntheticImage::new(ImageKind::Smooth, 40 + seed).rgb(56, 56))
        .collect();
    let batched = eng.session().run_frames(frames.iter()).unwrap();
    assert_eq!(batched.len(), 3);
    let mut session = eng.session();
    for (i, frame) in frames.iter().enumerate() {
        let out = session.process(frame).unwrap();
        assert_eq!(&batched[i], out, "frame {i}");
    }
    // The whole batch ran on one warm pool: only the first frame allocated.
    let mut probe = eng.session();
    probe.run_frames(frames.iter()).unwrap();
    assert_eq!(probe.last_frame_stats().exec.planes_allocated, 0);
}

/// The registry's sharded variants run real images through the same
/// unified API as every other backend.
#[test]
fn registry_sharded_variants_run_images() {
    let w = workload();
    let img = SyntheticImage::new(ImageKind::Smooth, 3).rgb(56, 56);
    let (ref_out, _) = EcnnBackend::paper().run_image(&w, &img).unwrap();
    let mut seen = 0;
    for backend in registry() {
        if !backend.name().contains("[x") {
            continue;
        }
        seen += 1;
        assert!(backend.supports_run_image(), "{}", backend.name());
        let (out, _) = backend.run_image(&w, &img).unwrap();
        assert_eq!(out, ref_out, "{}", backend.name());
    }
    assert_eq!(seen, 2, "registry carries the x2 and x4 variants");
}
