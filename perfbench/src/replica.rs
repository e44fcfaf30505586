//! A bench-side replica of `Session::process_rows`'s block loop, rebuilt
//! from public functions — `Tensor::crop_padded_into`, `map_into` with
//! `di_q.quantize`, `execute_with`, dequantize and `paste` — with a span
//! around each call. Nothing inside the program is instrumented: the spans
//! time the benchmark's own calls into each layer.

use ecnn_core::engine::Engine;
use ecnn_sim::exec::{execute_with, BlockPlan, ExecStats, Kernels, PlanePool};
use ecnn_tensor::Tensor;
use std::time::Instant;

/// Seconds spent in each stage of one block.
#[derive(Clone, Copy, Default)]
pub struct BlockSpans {
    pub crop: f64,
    pub quantize: f64,
    pub execute: f64,
    pub dequantize: f64,
    pub paste: f64,
}

impl BlockSpans {
    pub fn total(&self) -> f64 {
        self.crop + self.quantize + self.execute + self.dequantize + self.paste
    }
}

/// One traced block: its spans and the executor counters it added.
pub struct TracedBlock {
    pub spans: BlockSpans,
    pub stats: ExecStats,
}

pub struct Replica<'e> {
    engine: &'e Engine,
    plan: BlockPlan<'e>,
    pool: PlanePool,
    kernels: Kernels,
    block_f: Tensor<f32>,
    codes: Tensor<i16>,
    block_out: Tensor<f32>,
}

impl<'e> Replica<'e> {
    /// A replica planned like the engine's sessions (same program, same
    /// plane layout), executing with `kernels`.
    pub fn new(engine: &'e Engine, kernels: Kernels) -> Result<Self, String> {
        let compiled = engine.compiled();
        let p = &compiled.program;
        let mut plan = BlockPlan::new(p, &compiled.leafs).map_err(|e| format!("plan: {e}"))?;
        if !engine.coalesced() {
            plan.force_keyed();
        }
        Ok(Self {
            engine,
            plan,
            pool: PlanePool::new(),
            kernels,
            block_f: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            codes: Tensor::zeros(p.di_channels, p.di_side, p.di_side),
            block_out: Tensor::zeros(p.do_channels, p.do_side, p.do_side),
        })
    }

    pub fn plan(&self) -> &BlockPlan<'e> {
        &self.plan
    }

    pub fn pool(&self) -> &PlanePool {
        &self.pool
    }

    /// The dequantized output of the last [`Replica::block`].
    pub fn block_out(&self) -> &Tensor<f32> {
        &self.block_out
    }

    /// Output-pixel origin `(y, x)` of grid block `(row, col)`.
    pub fn out_origin(&self, row: usize, col: usize) -> (usize, usize) {
        let xo = self.engine.compiled().program.do_side;
        (row * xo, col * xo)
    }

    /// Crops, quantizes, executes and dequantizes grid block `(row, col)`
    /// of `image` into [`Replica::block_out`]; the paste span is left 0.
    pub fn block(
        &mut self,
        image: &Tensor<f32>,
        row: usize,
        col: usize,
    ) -> Result<TracedBlock, String> {
        let p = &self.engine.compiled().program;
        let scale = self.engine.model().output_scale();
        let (xi, xo) = (p.di_side, p.do_side);
        // The receptive-field origin, with `Session::process_rows`'s exact
        // arithmetic.
        let border = (xi as f64 - xo as f64 / scale) / 2.0;
        let (by, bx) = self.out_origin(row, col);
        let iy = (by as f64 / scale - border).round() as isize;
        let ix = (bx as f64 / scale - border).round() as isize;

        let mark = self.pool.stats();
        let t0 = Instant::now();
        image.crop_padded_into(iy, ix, &mut self.block_f);
        let t1 = Instant::now();
        self.block_f
            .map_into(&mut self.codes, |v| p.di_q.quantize(v));
        let t2 = Instant::now();
        let out = execute_with(&self.plan, &mut self.pool, &self.codes, self.kernels)
            .map_err(|e| format!("block ({row}, {col}): {e}"))?;
        let t3 = Instant::now();
        out.map_into(&mut self.block_out, |c| {
            p.do_q.dequantize(c).clamp(0.0, 1.0)
        });
        let t4 = Instant::now();
        Ok(TracedBlock {
            spans: BlockSpans {
                crop: (t1 - t0).as_secs_f64(),
                quantize: (t2 - t1).as_secs_f64(),
                execute: (t3 - t2).as_secs_f64(),
                dequantize: (t4 - t3).as_secs_f64(),
                paste: 0.0,
            },
            stats: self.pool.stats().delta_since(&mark),
        })
    }

    /// The whole frame, block by block in `Session::process`'s order,
    /// stitched into a new output tensor.
    pub fn frame(
        &mut self,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, Vec<TracedBlock>), String> {
        let (out_h, out_w) = self.engine.out_dims(image).map_err(|e| e.to_string())?;
        let (rows, cols) = self.engine.grid_dims(image).map_err(|e| e.to_string())?;
        let mut frame = Tensor::zeros(self.engine.compiled().program.do_channels, out_h, out_w);
        let mut blocks = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for col in 0..cols {
                let mut b = self.block(image, row, col)?;
                let (by, bx) = self.out_origin(row, col);
                let t = Instant::now();
                frame.paste(&self.block_out, by, bx);
                b.spans.paste = t.elapsed().as_secs_f64();
                blocks.push(b);
            }
        }
        Ok((frame, blocks))
    }
}
