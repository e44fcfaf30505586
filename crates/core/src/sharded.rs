//! Multi-accelerator sharding of the eCNN flow.
//!
//! No block reads another block's output, so a frame's block grid splits
//! into independent block-row bands. [`Engine::run_image_sharded`] runs
//! one frame as a one-frame [`AsyncSession`](crate::pipe::AsyncSession)
//! over those bands — pixels bit-identical to the single-engine path at
//! any shard count, since every worker executes exactly the blocks (and
//! receptive-field crops) the whole-frame flow would. [`ShardedBackend`]
//! puts that behind the [`Backend`] trait and merges per-shard
//! analytical reports, sharded at block-row granularity so summed totals
//! match the unsharded report up to each shard's sub-byte truncation.

use crate::engine::{
    Backend, EcnnBackend, Engine, EngineError, FrameReport, ImageRunStats, Workload,
};
use crate::pipe::partition_rows;
use ecnn_model::RealTimeSpec;
use ecnn_tensor::Tensor;

impl Engine {
    /// Runs one image at the engine's resolved worker count
    /// ([`EngineBuilder::workers`](crate::engine::EngineBuilder::workers),
    /// a replayed tuning record, or `ECNN_WORKERS`): serial
    /// [`Engine::run_image`] at `workers == 1`, otherwise
    /// [`Engine::run_image_sharded`] at that count. Bit-identical pixels
    /// either way.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_image_sharded`].
    pub fn run_image_auto(
        &self,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        self.run_image_sharded(image, self.config().workers)
    }

    /// Runs one image with the frame's block grid partitioned row-wise
    /// across `shards` workers (clamped to the grid's block rows): a
    /// one-frame [`AsyncSession`](crate::pipe::AsyncSession) under the
    /// default [`SupervisorPolicy`](crate::supervise::SupervisorPolicy),
    /// honoring the engine's fault plan. One shard runs
    /// [`Engine::run_image`]. Bit-identical pixels and identical summed
    /// work counters vs [`Engine::run_image`] at any shard count.
    ///
    /// # Errors
    ///
    /// [`EngineError::Image`] / [`EngineError::Rows`] for geometry
    /// mismatches, before any worker starts; [`EngineError::Frame`] (frame
    /// 0, with the failing shard and block) when a band exhausts its
    /// retries.
    pub fn run_image_sharded(
        &self,
        image: &Tensor<f32>,
        shards: usize,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        // `grid_dims` checks `out_dims` first, so a zero-block frame is a
        // structured `Rows` error here and `rows >= 1` below.
        let (rows, _) = self.grid_dims(image)?;
        let n = shards.clamp(1, rows);
        if n == 1 {
            return self.run_image(image);
        }
        let mut session = self.async_session(n);
        let ticket = session.submit(image.clone())?;
        session.wait(ticket)
    }
}

/// The eCNN flow partitioned across `N` accelerators:
/// [`Backend::run_image`] is [`Engine::run_image_sharded`], and
/// [`Backend::frame_report`] merges per-shard reports with cycles = max,
/// traffic/energy/SRAM = sum.
pub struct ShardedBackend {
    inner: EcnnBackend,
    shards: usize,
    name: String,
}

impl ShardedBackend {
    /// Wraps `inner`, partitioning work across `shards` workers. The
    /// backend is named `"{inner}[x{shards}]"`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(inner: EcnnBackend, shards: usize) -> Self {
        assert!(shards > 0, "a sharded backend needs at least one worker");
        let name = format!("{}[x{shards}]", inner.name());
        Self {
            inner,
            shards,
            name,
        }
    }

    /// The wrapped flow.
    pub fn inner(&self) -> &EcnnBackend {
        &self.inner
    }

    /// Number of workers the grid is partitioned across.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Merges per-shard reports: fps = min (cycles = max), DRAM traffic /
/// power / TOPS / SRAM = sum, utilization = max (the binding shard).
fn merge_reports(name: &str, spec: RealTimeSpec, reports: &[FrameReport]) -> FrameReport {
    let first = &reports[0];
    let fps = reports.iter().map(|r| r.fps).fold(f64::INFINITY, f64::min);
    let dram_bytes_per_frame: f64 = reports.iter().map(|r| r.dram_bytes_per_frame).sum();
    let sum_opt = |f: fn(&FrameReport) -> Option<f64>| -> Option<f64> {
        reports.iter().map(f).sum::<Option<f64>>()
    };
    FrameReport {
        backend: name.to_string(),
        workload: first.workload.clone(),
        spec,
        fps,
        meets_realtime: fps >= spec.fps,
        dram_bytes_per_frame,
        dram_bps: dram_bytes_per_frame * spec.fps.min(fps),
        feature_sram_bytes: reports.iter().map(|r| r.feature_sram_bytes).sum(),
        power_w: sum_opt(|r| r.power_w),
        tops: sum_opt(|r| r.tops),
        utilization: reports
            .iter()
            .filter_map(|r| r.utilization)
            .fold(None, |m, u| Some(m.map_or(u, |v: f64| v.max(u)))),
        note: format!(
            "{} shard(s): cycles=max, traffic/energy=sum; per-shard: {}",
            reports.len(),
            first.note
        ),
    }
}

impl Backend for ShardedBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn frame_report(&self, workload: &Workload) -> Result<FrameReport, EngineError> {
        // One engine reports every band; bands align to block rows, so
        // per-shard block counts sum exactly to the unsharded count.
        let engine = self.inner.engine(workload)?;
        let g = engine.compiled().program.do_side;
        let spec = workload.spec;
        let reports: Vec<_> = partition_rows(spec.height.div_ceil(g).max(1), self.shards)
            .into_iter()
            .map(|r| {
                let height = (r.end * g).min(spec.height) - r.start * g;
                engine.frame_report_at(RealTimeSpec { height, ..spec })
            })
            .collect();
        Ok(merge_reports(&self.name, spec, &reports))
    }

    fn supports_run_image(&self) -> bool {
        true
    }

    fn run_image(
        &self,
        workload: &Workload,
        image: &Tensor<f32>,
    ) -> Result<(Tensor<f32>, ImageRunStats), EngineError> {
        self.inner
            .engine(workload)?
            .run_image_sharded(image, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    fn workload() -> Workload {
        Workload::ernet(
            ErNetSpec::new(ErNetTask::Dn, 2, 1, 0),
            40,
            RealTimeSpec::HD30,
        )
        .unwrap()
    }

    #[test]
    fn sharded_names_and_delegation() {
        let b = ShardedBackend::new(EcnnBackend::paper(), 2);
        assert_eq!(b.name(), "ecnn[x2]");
        assert_eq!(b.shards(), 2);
        assert!(b.supports_run_image());
    }

    #[test]
    fn single_shard_report_matches_inner() {
        let w = workload();
        let inner = EcnnBackend::paper().frame_report(&w).unwrap();
        let merged = ShardedBackend::new(EcnnBackend::paper(), 1)
            .frame_report(&w)
            .unwrap();
        assert_eq!(merged.backend, "ecnn[x1]");
        assert_eq!(merged.fps, inner.fps);
        assert_eq!(merged.dram_bytes_per_frame, inner.dram_bytes_per_frame);
        assert_eq!(merged.dram_bps, inner.dram_bps);
        assert_eq!(merged.feature_sram_bytes, inner.feature_sram_bytes);
        assert_eq!(merged.power_w, inner.power_w);
        assert_eq!(merged.utilization, inner.utilization);
        assert_eq!(merged.meets_realtime, inner.meets_realtime);
    }

    #[test]
    fn merged_traffic_totals_are_shard_invariant() {
        let w = workload();
        let inner = EcnnBackend::paper().frame_report(&w).unwrap();
        for n in [2, 4] {
            let merged = ShardedBackend::new(EcnnBackend::paper(), n)
                .frame_report(&w)
                .unwrap();
            // Block-granular shards preserve the traffic total up to the
            // independent sub-byte truncation of each shard's analytic
            // byte count.
            let diff = (merged.dram_bytes_per_frame - inner.dram_bytes_per_frame).abs();
            assert!(
                diff <= 2.0 * n as f64,
                "x{n}: traffic drift {diff} B on {} B",
                inner.dram_bytes_per_frame
            );
            assert!(merged.fps >= inner.fps, "x{n}: sharding cannot slow down");
            assert_eq!(
                merged.feature_sram_bytes,
                inner.feature_sram_bytes * n as f64
            );
        }
    }
}
