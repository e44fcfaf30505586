//! Closed loops: one client that sends its next frame only when the
//! engine can take it, timing every frame from the moment the engine takes
//! it (the `process` call, or the return of a `submit` that back-pressure
//! may have blocked) until its output is returned.

use ecnn_core::engine::{ImageRunStats, Session};
use ecnn_core::pipe::{AsyncSession, FramePoll, FrameTicket};
use ecnn_tensor::Tensor;
use std::time::{Duration, Instant};

/// When a closed loop stops sending frames.
#[derive(Clone, Copy)]
pub enum Until {
    /// Keep sending while one more frame is expected to complete within
    /// this time, at the mean completion interval so far (at least one
    /// frame is sent). A run then ends near its window instead of
    /// overshooting it by a whole frame.
    Elapsed(Duration),
    /// Send exactly this many frames.
    Frames(usize),
}

impl Until {
    fn more(self, run: &Run, start: Instant) -> bool {
        match self {
            Until::Frames(n) => run.attempted < n,
            Until::Elapsed(d) => {
                let elapsed = start.elapsed().as_secs_f64();
                let pace = if run.completed > 0 {
                    elapsed / run.completed as f64
                } else {
                    0.0
                };
                run.attempted == 0 || elapsed + pace < d.as_secs_f64()
            }
        }
    }
}

/// What one closed loop observed.
#[derive(Default)]
pub struct Run {
    /// Frames sent.
    pub attempted: usize,
    /// Frames that returned an error.
    pub failed: usize,
    /// Per-frame latency in seconds, of the completed frames sent in the
    /// steady state (for a pipelined run: once the in-flight window was
    /// full).
    pub latency: Vec<f64>,
    /// Wall time of the timed window: from the first timed call to the last
    /// returned output.
    pub window: f64,
    /// Output pixels (height x width) of the completed frames.
    pub out_pixels: u64,
    /// Executor counters of every completed frame.
    pub stats: Vec<ImageRunStats>,
    /// The first output of each distinct input, kept for the checks.
    pub outputs: Vec<Option<Tensor<f32>>>,
    /// Seconds each `submit` blocked, once the in-flight window was full.
    pub submit_wait: Vec<f64>,
    /// Frames that completed.
    pub completed: usize,
}

impl Run {
    fn new(distinct: usize) -> Self {
        Run {
            outputs: vec![None; distinct],
            ..Run::default()
        }
    }

    /// Books one completed frame, with its latency when it is a sample.
    /// `out` is kept when it is the first output of its input.
    fn record(
        &mut self,
        input: usize,
        latency: Option<f64>,
        pixels: usize,
        stats: ImageRunStats,
        out: Option<Tensor<f32>>,
    ) {
        self.latency.extend(latency);
        self.out_pixels += pixels as u64;
        self.stats.push(stats);
        self.completed += 1;
        if self.outputs[input].is_none() {
            self.outputs[input] = out;
        }
    }
}

/// Serial `Session::process`, one frame outstanding.
pub fn serial(session: &mut Session<'_>, inputs: &[Tensor<f32>], until: Until) -> Run {
    let mut run = Run::new(inputs.len());
    let start = Instant::now();
    while until.more(&run, start) {
        let input = run.attempted % inputs.len();
        run.attempted += 1;
        let sent = Instant::now();
        let done = session.process(&inputs[input]).map(|out| {
            let latency = sent.elapsed().as_secs_f64();
            let keep = run.outputs[input].is_none().then(|| out.clone());
            (latency, out.height() * out.width(), keep)
        });
        match done {
            Ok((latency, pixels, keep)) => {
                run.record(
                    input,
                    Some(latency),
                    pixels,
                    session.last_frame_stats(),
                    keep,
                );
            }
            Err(e) => {
                eprintln!("frame {}: {e}", run.attempted - 1);
                run.failed += 1;
            }
        }
    }
    run.window = start.elapsed().as_secs_f64();
    run
}

/// One frame handed to the engine.
#[derive(Clone, Copy)]
struct Sent {
    /// When `submit` returned. The time blocked before that is the
    /// submit wait, booked on its own: counting it in the latency too
    /// would make the latency depend on how completions bunch, which
    /// shifts with worker phase and faults while the throughput holds.
    accepted: Instant,
    input: usize,
    /// Sent in the steady state; its latency is a sample.
    steady: bool,
}

impl Sent {
    /// Seconds since the frame was accepted, when its latency is a sample.
    fn latency(&self) -> Option<f64> {
        self.steady.then(|| self.accepted.elapsed().as_secs_f64())
    }
}

/// `AsyncSession` with its in-flight window kept full. The window is
/// filled first (those submits return at once, and their frames warm the
/// workers); timing starts once it is full. From then on every `submit`
/// blocks until a frame completes, and finished frames are claimed right
/// after each submit.
pub fn pipelined(session: &mut AsyncSession, inputs: &[Tensor<f32>], until: Until) -> Run {
    let mut run = Run::new(inputs.len());
    let mut outstanding: Vec<(FrameTicket, Sent)> = Vec::new();
    let fill = match until {
        Until::Frames(n) => n.min(session.capacity()),
        Until::Elapsed(_) => session.capacity(),
    };
    while run.attempted < fill {
        send(session, inputs, &mut run, &mut outstanding, false);
    }
    let start = Instant::now();
    while until.more(&run, start) {
        send(session, inputs, &mut run, &mut outstanding, true);
        let mut i = 0;
        while i < outstanding.len() {
            let (ticket, sent) = outstanding[i];
            match session.poll(ticket) {
                Ok(FramePoll::Pending) => i += 1,
                Ok(FramePoll::Ready(out, stats)) => {
                    let pixels = out.height() * out.width();
                    run.record(sent.input, sent.latency(), pixels, stats, Some(out));
                    outstanding.remove(i);
                }
                Err(e) => {
                    eprintln!("frame {}: {e}", ticket.frame());
                    run.failed += 1;
                    outstanding.remove(i);
                }
            }
        }
    }
    for (ticket, sent) in outstanding {
        match session.wait(ticket) {
            Ok((out, stats)) => {
                let pixels = out.height() * out.width();
                run.record(sent.input, sent.latency(), pixels, stats, Some(out));
            }
            Err(e) => {
                eprintln!("frame {}: {e}", ticket.frame());
                run.failed += 1;
            }
        }
    }
    run.window = start.elapsed().as_secs_f64();
    run
}

fn send(
    session: &mut AsyncSession,
    inputs: &[Tensor<f32>],
    run: &mut Run,
    outstanding: &mut Vec<(FrameTicket, Sent)>,
    steady: bool,
) {
    let input = run.attempted % inputs.len();
    let frame = inputs[input].clone();
    run.attempted += 1;
    let at = Instant::now();
    match session.submit(frame) {
        Ok(ticket) => {
            let accepted = Instant::now();
            if steady {
                run.submit_wait.push((accepted - at).as_secs_f64());
            }
            outstanding.push((
                ticket,
                Sent {
                    accepted,
                    input,
                    steady,
                },
            ));
        }
        Err(e) => {
            eprintln!("submit {}: {e}", run.attempted - 1);
            run.failed += 1;
        }
    }
}
