//! The traced run: per-layer metrics, each named by its module.
//!
//! * `isa` — `compile` and `verify` (move `setup_s`);
//! * `exec` — `BlockPlan::new` and `execute_with`: block time, GMAC/s, the
//!   exact per-block work counters, plane allocations and peak (move
//!   `frame_s_p50`, `out_mpix_per_s`, `peak_rss_mb`);
//! * `engine` — the `Session` block loop, through the stage replica (moves
//!   `frame_s_p50` where blocks are light);
//! * `pipe` — `AsyncSession` back-pressure, speed-up and bands (moves
//!   `frame_s_p50` and `out_mpix_per_s` on the streams);
//! * `supervise` — `AsyncSession::supervisor_stats` (moves `frame_s_p50`
//!   and `ok_ratio` under faults; 0, or 1.0 for the ratio, elsewhere).

use crate::check;
use crate::measure::{self, Until};
use crate::replica::{Replica, TracedBlock};
use crate::stats::{median, percentile, Metrics};
use crate::workload::{mix, Spec};
use crate::{phase, print_header, Args, Outcome};
use ecnn_isa::compile::compile;
use ecnn_isa::verify::verify_compiled;
use ecnn_sim::exec::{BlockPlan, ExecStats, Kernels};
use std::time::{Duration, Instant};

/// Repetitions of each set-up layer call; the metric is their median.
const LAYER_REPS: usize = 5;

fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

pub fn per_layer(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut clock = Instant::now();
    let engine = spec
        .builder(args.seed)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let inputs = spec.inputs(&engine, args.seed);
    print_header(spec, args, &engine, inputs.len());
    let cost = engine.cost_report();
    let compiled = engine.compiled();
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let reps = format!("per_run, median of {LAYER_REPS}");

    // isa + plan: the set-up layers.
    let qm = engine.quantized_model();
    m.put(
        "isa.compile_ms",
        time_ms(LAYER_REPS, || compile(qm, spec.block)),
        "ms",
        reps.clone(),
    );
    m.put(
        "isa.verify_ms",
        time_ms(LAYER_REPS, || verify_compiled(compiled)),
        "ms",
        reps.clone(),
    );
    m.put(
        "exec.plan_ms",
        time_ms(LAYER_REPS, || {
            BlockPlan::new(&compiled.program, &compiled.leafs)
        }),
        "ms",
        reps,
    );
    phase("set-up layers", &mut clock);

    // engine + exec: each frame through `Session::process` (untraced) and
    // through the stage replica (traced), alternating which goes first.
    let mut session = engine.session();
    let mut replica = Replica::new(&engine, engine.kernels())?;
    let warm = spec.one_block(&engine, args.seed);
    session
        .process(&warm)
        .map_err(|e| format!("warm-up: {e}"))?;
    replica.frame(&warm)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut unaccounted = Vec::new();
    let mut blocks: Vec<TracedBlock> = Vec::new();
    let mut serial_out = vec![None; inputs.len()];
    // Half the run for the replica, half for the pipelined frames.
    let budget = Duration::from_secs(args.seconds) / 2;
    let start = Instant::now();
    let mut frames = 0usize;
    while frames == 0 || start.elapsed() < budget {
        let i = frames % inputs.len();
        let replica_first = frames % 2 == 1;
        let mut run_replica = |blocks: &mut Vec<TracedBlock>| -> Result<_, String> {
            let t = Instant::now();
            let (out, traced_blocks) = replica.frame(&inputs[i])?;
            let wall = t.elapsed().as_secs_f64();
            let spans: f64 = traced_blocks.iter().map(|b| b.spans.total()).sum();
            blocks.extend(traced_blocks);
            Ok((out, wall, spans))
        };
        let early = if replica_first {
            Some(run_replica(&mut blocks)?)
        } else {
            None
        };
        let t = Instant::now();
        let out = session
            .process(&inputs[i])
            .map_err(|e| format!("session: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        let out = out.clone();
        let (rep_out, rep_wall, spans) = match early {
            Some(r) => r,
            None => run_replica(&mut blocks)?,
        };
        if !check::same_bits(&out, &rep_out) {
            errors.push(format!(
                "stage replica differs from Session::process on input {i}"
            ));
        }
        let stats = session.last_frame_stats();
        errors.extend(check::counters_match(&stats.exec, stats.blocks as u64, &cost).err());
        untraced.push(wall);
        traced.push(rep_wall);
        unaccounted.push((wall - spans) / wall);
        serial_out[i].get_or_insert(out);
        frames += 1;
    }

    phase("replica and Session frames", &mut clock);

    // Every traced block did exactly the cost model's work, so the counts
    // below are exact and equal across blocks, seeds and runs.
    for b in &blocks {
        if let Err(e) = check::counters_match(&b.stats, 1, &cost) {
            errors.push(e);
            break;
        }
    }
    let narrow = replica.plan().narrow_licensed() as u64;
    let expected_narrow = if engine.kernels() == Kernels::Simd {
        narrow
    } else {
        0
    };
    if let Some(b) = blocks
        .iter()
        .find(|b| b.stats.narrow_instrs != expected_narrow)
    {
        errors.push(format!(
            "a block ran {} narrow instructions, the plan licenses {expected_narrow}",
            b.stats.narrow_instrs
        ));
    }
    // The kernels are data-independent: a block of another seed's input
    // does the same work.
    let other = spec.inputs(&engine, mix(args.seed, 0x0DD));
    match replica.block(&other[0], 0, 0) {
        Ok(b) => errors.extend(
            check::counters_match(&b.stats, 1, &cost)
                .err()
                .map(|e| format!("other seed: {e}")),
        ),
        Err(e) => errors.push(e),
    }
    let out0 = serial_out[0].as_ref().expect("the first frame ran");
    errors.extend(check::sample_block(&engine, &inputs[0], out0, args.seed).err());

    phase("checks", &mut clock);

    let n = blocks.len() as f64;
    let sum = |f: fn(&TracedBlock) -> f64| blocks.iter().map(f).sum::<f64>();
    let exec_ms: Vec<f64> = blocks.iter().map(|b| b.spans.execute * 1e3).collect();
    let mut work = ExecStats::default();
    for b in &blocks {
        work.accumulate(&b.stats);
    }
    let per_block = format!("per_block, n={}", blocks.len());
    let per_frame = format!("per_frame, median of n={frames}");
    m.put(
        "exec.block_ms_p50",
        median(&exec_ms),
        "ms",
        per_block.clone(),
    );
    m.put(
        "exec.block_ms_p90",
        percentile(&exec_ms, 0.9),
        "ms",
        per_block.clone(),
    );
    m.put(
        "exec.gmac_per_s",
        (work.mac3 + work.mac1) as f64 / sum(|b| b.spans.execute) / 1e9,
        "GMAC/s",
        format!(
            "(mac3+mac1) / time in execute_with, {} blocks",
            blocks.len()
        ),
    );
    m.put(
        "exec.mac3_per_block",
        cost.mac3 as f64,
        "MAC",
        "per_block, exact",
    );
    m.put(
        "exec.mac1_per_block",
        cost.mac1 as f64,
        "MAC",
        "per_block, exact",
    );
    m.put(
        "exec.bb_bytes_per_block",
        (cost.bb_read_bytes + cost.bb_write_bytes) as f64,
        "B",
        "per_block, exact, read + write",
    );
    m.put(
        "exec.narrow_instrs_per_block",
        expected_narrow as f64,
        "count",
        "per_block, exact",
    );
    m.put(
        "exec.planes_allocated_per_block",
        work.planes_allocated as f64 / n,
        "count",
        format!("{per_block}, after a warm-up block"),
    );
    m.put(
        "exec.peak_plane_mb",
        replica.pool().peak_resident_bytes() as f64 / 1e6,
        "MB",
        format!(
            "per_run, planned {:.3} MB",
            replica.plan().planned_peak_bytes() as f64 / 1e6
        ),
    );
    m.put(
        "engine.crop_us_per_block",
        sum(|b| b.spans.crop) / n * 1e6,
        "us",
        per_block.clone(),
    );
    m.put(
        "engine.quantize_us_per_block",
        sum(|b| b.spans.quantize) / n * 1e6,
        "us",
        per_block.clone(),
    );
    m.put(
        "engine.dequantize_us_per_block",
        sum(|b| b.spans.dequantize) / n * 1e6,
        "us",
        per_block.clone(),
    );
    m.put(
        "engine.paste_us_per_block",
        sum(|b| b.spans.paste) / n * 1e6,
        "us",
        per_block.clone(),
    );
    let all = sum(|b| b.spans.total());
    m.put(
        "engine.stage_share",
        (all - sum(|b| b.spans.execute)) / all,
        "ratio",
        "non-execute share of the replica's block loop",
    );
    m.put(
        "engine.unaccounted_share",
        median(&unaccounted),
        "ratio",
        format!("Session::process wall not covered by replica spans, {per_frame}"),
    );
    m.put(
        "engine.trace_overhead_ms",
        (median(&traced) - median(&untraced)) * 1e3,
        "ms",
        format!("traced replica minus untraced Session::process, {per_frame}"),
    );
    let mut attempted = frames * 2;
    let mut failed = 0;

    // pipe + supervise: a fixed number of frames through a fresh
    // AsyncSession, so the supervision counts repeat exactly for a seed.
    if spec.workers > 1 {
        let mut session = engine.async_session(spec.workers);
        // Two frames past the in-flight window: two samples of back-pressure.
        let count = session.capacity() + 2;
        let run = measure::pipelined(&mut session, &inputs, Until::Frames(count));
        attempted += run.attempted;
        failed = run.failed;
        for s in &run.stats {
            if let Err(e) = check::counters_match(&s.exec, s.blocks as u64, &cost) {
                errors.push(e);
                break;
            }
        }
        // Every pipelined frame whose input also ran serially above.
        for (out, serial) in run.outputs.iter().zip(&serial_out) {
            if let (Some(out), Some(serial)) = (out, serial) {
                if !check::same_bits(serial, out) {
                    errors.push("pipelined frame differs from the serial Session's".into());
                }
            }
        }
        phase("pipelined frames and checks", &mut clock);
        let sup = session.supervisor_stats();
        let c = sup.counters;
        let settled: u32 = c.attempts.iter().sum();
        let dispatches: u32 = c.attempts.iter().zip(1u32..).map(|(n, k)| n * k).sum();
        let pipe_scope = format!(
            "per_run, {} frames, {} workers",
            run.completed, spec.workers
        );
        m.put(
            "pipe.submit_wait_ms_p50",
            median(&run.submit_wait) * 1e3,
            "ms",
            format!(
                "per_frame, blocked by back-pressure, n={}",
                run.submit_wait.len()
            ),
        );
        m.put(
            "pipe.speedup_vs_serial",
            median(&untraced) * run.completed as f64 / run.window,
            "x",
            format!("serial Session wall / AsyncSession wall, {pipe_scope}"),
        );
        m.put(
            "pipe.bands_per_frame",
            settled as f64 / run.completed.max(1) as f64,
            "count",
            "per_frame",
        );
        m.put(
            "supervise.faults_injected",
            c.faults_injected as f64,
            "count",
            pipe_scope.clone(),
        );
        m.put(
            "supervise.retries",
            c.retries as f64,
            "count",
            pipe_scope.clone(),
        );
        m.put(
            "supervise.respawns",
            c.respawns as f64,
            "count",
            pipe_scope.clone(),
        );
        m.put(
            "supervise.deadline_hits",
            c.deadline_hits as f64,
            "count",
            pipe_scope.clone(),
        );
        m.put(
            "supervise.degrade_steps",
            c.degradations as f64,
            "count",
            pipe_scope.clone(),
        );
        m.put(
            "supervise.useful_dispatch_ratio",
            settled as f64 / dispatches.max(1) as f64,
            "ratio",
            format!("bands completed / dispatches, {pipe_scope}"),
        );
    } else {
        // The serial tile bypasses the pipelined session: nothing is
        // dispatched, nothing is wasted.
        let none = "per_run, not exercised (serial Session)";
        for (name, unit) in [
            ("pipe.submit_wait_ms_p50", "ms"),
            ("pipe.speedup_vs_serial", "x"),
            ("pipe.bands_per_frame", "count"),
            ("supervise.faults_injected", "count"),
            ("supervise.retries", "count"),
            ("supervise.respawns", "count"),
            ("supervise.deadline_hits", "count"),
            ("supervise.degrade_steps", "count"),
        ] {
            m.put(name, 0.0, unit, none);
        }
        m.put("supervise.useful_dispatch_ratio", 1.0, "ratio", none);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        errors,
    })
}
