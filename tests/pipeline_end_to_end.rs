//! Cross-crate integration: train → quantize → compile → Huffman-encode →
//! simulate → stitch, with bit-exactness and quality checks.

use ecnn_core::Engine;
use ecnn_isa::compile::compile;
use ecnn_isa::params::LeafParams;
use ecnn_isa::params::QuantizedModel;
use ecnn_isa::program::Program;
use ecnn_model::ernet::{ErNetSpec, ErNetTask};
use ecnn_nn::data::{make_dataset, TaskKind};
use ecnn_nn::float_model::FloatModel;
use ecnn_nn::quant::{quantize, QuantConfig};
use ecnn_nn::train::{train, TrainConfig};
use ecnn_sim::exec::{execute, BlockPlan, PlanePool};
use ecnn_tensor::{psnr, ImageKind, SyntheticImage, Tensor};

/// Plans and executes one block on a fresh pool.
fn run_block(program: &Program, leafs: &[Vec<LeafParams>], codes: &Tensor<i16>) -> Tensor<i16> {
    let plan = BlockPlan::new(program, leafs).unwrap();
    let mut pool = PlanePool::new();
    execute(&plan, &mut pool, codes).unwrap().clone()
}

fn trained_denoiser() -> (ecnn_model::Model, QuantizedModel) {
    let spec = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0);
    let ir = spec.build().unwrap();
    let mut fm = FloatModel::from_model(&ir, 99);
    let data = make_dataset(TaskKind::denoise25(), 12, 24, 50);
    train(
        &mut fm,
        &data,
        TrainConfig {
            steps: 500,
            batch: 4,
            lr: 3e-3,
            seed: 5,
            threads: 2,
        },
    );
    let calib: Vec<Tensor<f32>> = data.iter().take(4).map(|s| s.input.clone()).collect();
    let qm = quantize(&fm, &ir, &calib, QuantConfig::default());
    (ir, qm)
}

#[test]
fn trained_model_denoises_on_simulated_hardware() {
    let (_, qm) = trained_denoiser();
    let dep = Engine::builder().quantized(qm).block(48).build().unwrap();
    let clean = SyntheticImage::new(ImageKind::Texture, 1234).rgb(96, 96);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let noisy = ecnn_tensor::image::add_gaussian_noise(&clean, 25.0 / 255.0, &mut rng);
    let (out, stats) = dep.run_image(&noisy).unwrap();
    assert!(stats.blocks >= 4);
    let noisy_psnr = psnr(&noisy, &clean, 1.0);
    let out_psnr = psnr(&out, &clean, 1.0);
    // The tiny CPU-budget model gains ~1-2 dB; 8-bit deployment without
    // fine-tuning keeps most of it (Table 5's pre-fine-tune drops).
    assert!(
        out_psnr > noisy_psnr + 0.7,
        "hardware denoiser {out_psnr:.2} dB vs noisy {noisy_psnr:.2} dB"
    );
}

#[test]
fn huffman_decoded_parameters_are_bit_exact_through_the_executor() {
    // The full parameter path: float -> quantize -> pack into the 21
    // streams -> IDU decode -> execute. Must equal executing the compiler's
    // raw leaf parameters exactly.
    let (_, qm) = trained_denoiser();
    let c = compile(&qm, 40).unwrap();
    let decoded: Vec<_> = (0..c.program.instructions.len())
        .map(|i| c.packed.unpack(i).unwrap())
        .collect();
    assert_eq!(decoded, c.leafs, "Huffman round trip must be lossless");

    let img = SyntheticImage::new(ImageKind::Mixed, 77).rgb(40, 40);
    let codes = img.map(|v| qm.input_q.quantize(v));
    let a = run_block(&c.program, &c.leafs, &codes);
    let b = run_block(&c.program, &decoded, &codes);
    assert_eq!(a, b);
}

#[test]
fn executor_matches_fixed_reference_on_trained_ernet() {
    // Independent implementations must agree bit-for-bit: the instruction-
    // level simulator (ecnn-sim) vs the layer-level fixed-point reference
    // (ecnn-nn), on a *trained* model with non-trivial Q-formats.
    let (_, qm) = trained_denoiser();
    let c = compile(&qm, 36).unwrap();
    let img = SyntheticImage::new(ImageKind::Edges, 31).rgb(36, 36);
    let codes = img.map(|v| qm.input_q.quantize(v));
    let sim_out = run_block(&c.program, &c.leafs, &codes);
    let ref_out = ecnn_nn::quant::fixed_forward(&qm, &codes);
    assert_eq!(sim_out, ref_out);
}

#[test]
fn parameter_memory_fits_all_polished_paper_models() {
    // Every model family/spec pair the paper deploys must fit the 1288 KB
    // parameter memory after entropy coding (uniform demo weights are a
    // worst-ish case: less compressible than trained ones).
    for (task, b, r, n) in [
        (ErNetTask::Dn, 3, 1, 0),
        (ErNetTask::Sr2, 8, 2, 0),
        (ErNetTask::Sr4, 17, 3, 1),
        (ErNetTask::Dn12, 8, 2, 5),
    ] {
        let m = ErNetSpec::new(task, b, r, n).build().unwrap();
        let qm = QuantizedModel::uniform(&m);
        let xi = if task == ErNetTask::Dn12 { 256 } else { 128 };
        let c = compile(&qm, xi).unwrap();
        assert!(
            c.packed.total_bytes() <= 1288 * 1024,
            "{}: {} bytes",
            m.name(),
            c.packed.total_bytes()
        );
    }
}
