//! Criterion micro-benchmarks for the hot kernels: the block executor
//! (one-shot, warm packed, and warm reference paths), the interior/border
//! row micro-kernels, the Huffman parameter codec, the compiler, and the
//! float trainer's conv.

use criterion::{criterion_group, criterion_main, Criterion};
use ecnn_isa::coding::{decode_segment, encode_segment};
use ecnn_isa::compile::compile;
use ecnn_isa::params::QuantizedModel;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_nn::float_model::conv3_same;
use ecnn_sim::exec::{execute, execute_with, BlockPlan, Kernels, PlanePool};
use ecnn_sim::kernels::{accum_row_interior, row_padded};
use ecnn_sim::SimdLevel;
use ecnn_tensor::{ImageKind, SyntheticImage, Tensor};
use std::hint::black_box;

fn bench_executor(c: &mut Criterion) {
    let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
    let qm = QuantizedModel::uniform(&m);
    let compiled = compile(&qm, 64).unwrap();
    let img = SyntheticImage::new(ImageKind::Mixed, 1).rgb(64, 64);
    let codes = img.map(|v| qm.input_q.quantize(v));
    c.bench_function("executor/dnernet_b3_block64", |b| {
        b.iter(|| {
            let plan = BlockPlan::new(&compiled.program, &compiled.leafs).unwrap();
            let mut pool = PlanePool::new();
            black_box(
                execute(&plan, &mut pool, black_box(&codes))
                    .unwrap()
                    .clone(),
            )
        })
    });
}

/// Packed flat-slice kernels vs the kept scalar reference, both on a warm
/// pool (steady-state frames, no plan or arena cost in the loop).
fn bench_kernel_paths(c: &mut Criterion) {
    let m = ErNetSpec::new(ErNetTask::Dn, 3, 1, 0).build().unwrap();
    let qm = QuantizedModel::uniform(&m);
    let compiled = compile(&qm, 64).unwrap();
    let plan = BlockPlan::new(&compiled.program, &compiled.leafs).unwrap();
    let img = SyntheticImage::new(ImageKind::Mixed, 1).rgb(64, 64);
    let codes = img.map(|v| qm.input_q.quantize(v));
    for (name, kind) in [
        ("executor/packed_warm_block64", Kernels::Packed),
        ("executor/reference_warm_block64", Kernels::Reference),
    ] {
        let mut pool = PlanePool::new();
        execute_with(&plan, &mut pool, &codes, kind).unwrap();
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(execute_with(&plan, &mut pool, black_box(&codes), kind).unwrap());
            })
        });
    }
}

/// The row micro-kernel itself: the branch-free interior span vs the
/// zero-padded border-splitting variant, on a 4K-wide row (both on the
/// scalar-tier `i64` lane).
fn bench_row_kernels(c: &mut Criterion) {
    const W: usize = 3840;
    let row: Vec<i16> = (0..W + 2).map(|i| ((i * 37) % 251) as i16 - 125).collect();
    let taps = [3i32, -7, 5];
    let mut acc = vec![0i64; W];
    c.bench_function("kernels/row_interior_4k", |b| {
        b.iter(|| accum_row_interior(black_box(&mut acc), black_box(&row), black_box(taps)))
    });
    let mut acc = vec![0i64; W];
    c.bench_function("kernels/row_border_4k", |b| {
        b.iter(|| {
            row_padded(
                SimdLevel::Scalar,
                black_box(&mut acc),
                black_box(&row[..W]),
                black_box(taps),
            )
        })
    });
}

fn bench_huffman(c: &mut Criterion) {
    let values: Vec<i16> = (0..9216).map(|i| ((i * 31) % 23) as i16 - 11).collect();
    c.bench_function("huffman/encode_9216", |b| {
        b.iter(|| black_box(encode_segment(black_box(&values))))
    });
    let encoded = encode_segment(&values);
    c.bench_function("huffman/decode_9216", |b| {
        b.iter(|| black_box(decode_segment(black_box(&encoded), values.len()).unwrap()))
    });
}

fn bench_compiler(c: &mut Criterion) {
    let m = ErNetSpec::new(ErNetTask::Sr4, 17, 3, 1).build().unwrap();
    let qm = QuantizedModel::uniform(&m);
    c.bench_function("compiler/sr4_b17", |b| {
        b.iter(|| black_box(compile(black_box(&qm), 128).unwrap()))
    });
}

fn bench_train_conv(c: &mut Criterion) {
    let x = Tensor::from_fn(32, 32, 32, |ch, y, xx| ((ch + y + xx) as f32 * 0.01).sin());
    let w: Vec<f32> = (0..32 * 32 * 9)
        .map(|i| (i as f32 * 0.001).sin() * 0.1)
        .collect();
    let bias = vec![0.0f32; 32];
    c.bench_function("train/conv3_same_32ch_32px", |b| {
        b.iter(|| black_box(conv3_same(black_box(&x), &w, &bias, 32)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_executor, bench_kernel_paths, bench_row_kernels, bench_huffman,
        bench_compiler, bench_train_conv
}
criterion_main!(benches);
