//! Criterion benchmark for the sharded execute path: one frame through
//! the block grid at 1, 2 and 4 worker shards, plus the warm-session
//! single-worker baseline (the plan/execute split's zero-allocation
//! steady state). The x2/x4 rows time `run_image_sharded`, i.e. a
//! one-frame `AsyncSession` — pool start-up and shutdown included.
//!
//! The shard sweep only shows a wall-clock win on multi-core hosts; on a
//! single hardware thread the x2/x4 rows measure the (small) sharding
//! overhead instead.

use criterion::{criterion_group, criterion_main, Criterion};
use ecnn_core::engine::Engine;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::hint::black_box;

fn engine() -> Engine {
    Engine::builder()
        .ernet(ErNetSpec::new(ErNetTask::Dn, 3, 1, 0))
        .block(64)
        .build()
        .unwrap()
}

fn frame() -> Tensor<f32> {
    SyntheticImage::new(ImageKind::Mixed, 17).rgb(208, 208)
}

fn bench_sharded_frame(c: &mut Criterion) {
    let eng = engine();
    let img = frame();
    for shards in [1usize, 2, 4] {
        c.bench_function(&format!("sharding/frame_208px_x{shards}"), |b| {
            b.iter(|| black_box(eng.run_image_sharded(black_box(&img), shards).unwrap()))
        });
    }
}

fn bench_warm_session(c: &mut Criterion) {
    let eng = engine();
    let img = frame();
    let mut session = eng.session();
    session.process(&img).unwrap(); // warm the plane pool
    c.bench_function("sharding/frame_208px_warm_session", |b| {
        b.iter(|| {
            session.process(black_box(&img)).unwrap();
            black_box(session.last_frame_stats())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sharded_frame, bench_warm_session
}
criterion_main!(benches);
