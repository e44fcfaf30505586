//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics of the eCNN block-flow simulator on three closed-loop
//! workloads.
//!
//! ```text
//! perfbench --workload esr4k_tile|dn_stream|dn_stream_faults \
//!           --seed N --seconds S --trace 0|1 [--scale tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no spans;
//! `--trace 1` prints the per-layer metrics, from spans the benchmark
//! records around its own calls into each layer. Every run checks the
//! engine's outputs outside the timed window. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--scale tiny` runs a seconds-long miniature of each workload (small
//! model and frame, same code paths) for the smoke test.

mod check;
mod layers;
mod measure;
mod replica;
mod stats;
mod workload;

use ecnn_core::engine::Engine;
use measure::Until;
use stats::{median, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Scale, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run prints on its last line.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Every correctness failure seen; empty means correct.
    pub errors: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--scale tiny]",
        workload::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad value for --scale: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive whole number")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    // The engine builder honours `ECNN_*` overrides; the benchmark measures
    // the configuration it names, whatever the caller's environment holds.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ECNN_") {
            std::env::remove_var(&key);
        }
    }
    // Injected worker panics are the fault workload's inputs, not errors:
    // keep them (and their backtrace capture) off stderr.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::get(&args.workload, args.scale) else {
        eprintln!("perfbench: unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let result = if args.trace {
        layers::per_layer(&spec, &args)
    } else {
        end_to_end(&spec, &args)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.metrics.lines());
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let metrics = match outcome.metrics.json() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prints the run's header and host fingerprint (numbers from different
/// hosts are never compared).
pub fn print_header(spec: &Spec, args: &Args, engine: &Engine, inputs: usize) {
    let plan = ecnn_sim::exec::BlockPlan::new(&engine.compiled().program, &engine.compiled().leafs)
        .expect("engine build validated the plan");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    println!(
        "perfbench {} | {} block {} | {} input(s) | {} worker(s) | seed {} | {} s | trace {}",
        spec.name,
        engine.model().name(),
        spec.block,
        inputs,
        spec.workers,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"simd_level\": \"{}\", \"cpu_features\": [{}], \
         \"narrow_licensed_instrs\": {}, \"instrs\": {}, \"kernels\": \"{}\"}}}}",
        plan.simd_level().name(),
        features.join(", "),
        plan.narrow_licensed(),
        engine.compiled().program.instructions.len(),
        engine.kernels().as_str()
    );
}

/// CPU features the kernel dispatch ladder looks at, detected at run time.
fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                f.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        f.push("neon");
    }
    f
}

/// Reports on stderr how long the phase ending now took, and starts the
/// next one.
pub fn phase(name: &str, since: &mut Instant) {
    eprintln!("perfbench: {name}: {:.2} s", since.elapsed().as_secs_f64());
    *since = Instant::now();
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One set-up: from `EngineBuilder::build` until the session (with its
/// workers spawned) can take its first frame. Returns its seconds and the
/// engine.
fn set_up(spec: &Spec, args: &Args) -> Result<(f64, Engine), String> {
    let t0 = Instant::now();
    let engine = spec
        .builder(args.seed)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let secs = if spec.workers == 1 {
        let session = std::hint::black_box(engine.session());
        let secs = t0.elapsed().as_secs_f64();
        drop(session);
        secs
    } else {
        let session = std::hint::black_box(engine.async_session(spec.workers));
        let secs = t0.elapsed().as_secs_f64();
        drop(session);
        secs
    };
    Ok((secs, engine))
}

/// The untraced run: set-up time, then a closed loop for `--seconds`.
fn end_to_end(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut clock = Instant::now();
    // Half the set-ups run before the timed window and half after the
    // checks, so their median spans the whole run's host conditions.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS / 2 {
        let (secs, e) = set_up(spec, args)?;
        setup.push(secs);
        engine = Some(e);
    }
    let engine = engine.expect("SETUP_REPS >= 2");
    let inputs = spec.inputs(&engine, args.seed);
    print_header(spec, args, &engine, inputs.len());
    phase("set-up and inputs", &mut clock);
    let window = Until::Elapsed(Duration::from_secs(args.seconds));

    let run = if spec.workers == 1 {
        let mut session = engine.session();
        session
            .process(&spec.one_block(&engine, args.seed))
            .map_err(|e| format!("warm-up: {e}"))?;
        phase("warm-up", &mut clock);
        measure::serial(&mut session, &inputs, window)
    } else {
        // The in-flight window is filled before timing starts; those frames
        // are the warm-up.
        let mut session = engine.async_session(spec.workers);
        measure::pipelined(&mut session, &inputs, window)
    };
    phase("timed window", &mut clock);

    // Checks, outside the timed window.
    let mut errors = Vec::new();
    let cost = engine.cost_report();
    for s in &run.stats {
        if let Err(e) = check::counters_match(&s.exec, s.blocks as u64, &cost) {
            errors.push(e);
            break;
        }
    }
    let kept: Vec<usize> = (0..inputs.len())
        .filter(|&i| run.outputs[i].is_some())
        .collect();
    if kept.is_empty() {
        errors.push("no frame completed".into());
    } else {
        let j = kept[workload::mix(args.seed, 7) as usize % kept.len()];
        let out = run.outputs[j].as_ref().expect("kept outputs are Some");
        errors.extend(check::sample_block(&engine, &inputs[j], out, args.seed).err());
        if spec.workers > 1 {
            errors.extend(check::serial_matches(&engine, &inputs[j], out).err());
        }
    }

    for _ in SETUP_REPS / 2..SETUP_REPS {
        setup.push(set_up(spec, args)?.0);
    }
    phase("checks and set-ups", &mut clock);

    let sys = engine.system_report();
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(&setup),
        "s",
        format!("per_run, median of {SETUP_REPS}, samples {setup:.4?}"),
    );
    m.put(
        "frame_s_p50",
        median(&run.latency),
        "s",
        format!(
            "per_frame, median of n={}, samples {:.3?}",
            run.latency.len(),
            run.latency
        ),
    );
    m.put(
        "out_mpix_per_s",
        run.out_pixels as f64 / run.window / 1e6,
        "Mpix/s",
        format!("per_run, {} frames in {:.3} s", run.completed, run.window),
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MB", "per_run, VmHWM");
    m.put(
        "ok_ratio",
        run.completed as f64 / run.attempted.max(1) as f64,
        "ratio",
        format!("per_run, fail_ratio {}/{}", run.failed, run.attempted),
    );
    m.put(
        "sim_fps",
        sys.frame.fps,
        "fps",
        format!("simulated, {}", sys.spec.name),
    );
    m.put(
        "sim_dram_gbps",
        sys.dram_bandwidth_bps() / 1e9,
        "GB/s",
        format!("simulated, {}", sys.spec.name),
    );
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: m,
        errors,
    })
}
