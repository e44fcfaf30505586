//! Correctness checks, run outside every timed window. Any mismatch fails
//! the run.

use crate::replica::Replica;
use crate::workload::mix;
use ecnn_core::engine::Engine;
use ecnn_isa::verify::memplan::CostReport;
use ecnn_sim::exec::{ExecStats, Kernels};
use ecnn_tensor::Tensor;

/// Bit-for-bit equality of two frames (`f32` compared by bits, so a NaN or
/// a signed zero cannot hide a difference).
pub fn same_bits(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The executor's deterministic work counters for `blocks` blocks equal
/// the static cost model's per-block prediction, exactly.
pub fn counters_match(stats: &ExecStats, blocks: u64, cost: &CostReport) -> Result<(), String> {
    let w = stats.work();
    let pairs = [
        ("mac3", w.mac3, cost.mac3),
        ("mac1", w.mac1, cost.mac1),
        ("bb_read_bytes", w.bb_read_bytes, cost.bb_read_bytes),
        ("bb_write_bytes", w.bb_write_bytes, cost.bb_write_bytes),
        ("di_bytes", w.di_bytes, cost.di_bytes),
        ("do_bytes", w.do_bytes, cost.do_bytes),
        ("instructions", w.instructions, cost.instructions),
    ];
    for (name, seen, per_block) in pairs {
        if seen != per_block * blocks {
            return Err(format!(
                "{name}: executor counted {seen} over {blocks} blocks, cost model predicts {} per block",
                per_block
            ));
        }
    }
    Ok(())
}

/// Re-runs one seeded block of `input` on the reference kernels and
/// compares it bit for bit with the same block of `output`, the frame the
/// engine produced for `input`.
pub fn sample_block(
    engine: &Engine,
    input: &Tensor<f32>,
    output: &Tensor<f32>,
    seed: u64,
) -> Result<(), String> {
    let (rows, cols) = engine.grid_dims(input).map_err(|e| e.to_string())?;
    let pick = mix(seed, 0x5A3F) as usize;
    let (row, col) = (pick % rows, (pick / rows) % cols);
    let mut reference = Replica::new(engine, Kernels::Reference)?;
    reference.block(input, row, col)?;
    let block = reference.block_out();
    let (by, bx) = reference.out_origin(row, col);
    let (c, h, w) = output.shape();
    for ch in 0..c {
        for y in by..(by + block.height()).min(h) {
            for x in bx..(bx + block.width()).min(w) {
                if block.at(ch, y - by, x - bx).to_bits() != output.at(ch, y, x).to_bits() {
                    return Err(format!(
                        "block ({row}, {col}): reference kernels differ from the engine output \
                         at channel {ch}, pixel ({y}, {x})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs `input` through a fresh serial `Session` and compares the result
/// bit for bit with `output` (a pipelined session's frame).
pub fn serial_matches(
    engine: &Engine,
    input: &Tensor<f32>,
    output: &Tensor<f32>,
) -> Result<(), String> {
    let mut session = engine.session();
    let serial = session
        .process(input)
        .map_err(|e| format!("serial session: {e}"))?;
    if same_bits(serial, output) {
        Ok(())
    } else {
        Err("pipelined frame differs from the serial Session's".into())
    }
}
