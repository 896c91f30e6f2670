//! The measured-window protocol shared by every workload.
//!
//! Load threads live for the whole run: they warm up, park while the main
//! thread quiesces background work and reads the counters, run the window,
//! and park again. Warming up on the threads that then measure matters
//! because the NVM model's CPU-cache filter is thread-local.
//!
//! The window is cut into equal slices (about one second each). Timings
//! are computed per slice and reported as the median over slices, so a
//! burst of outside load during one slice does not move the result. In a
//! traced run the slices alternate untraced and traced, so the tracing
//! overhead is measured on the same tree, data and threads.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Load threads run the phase's operations while it is current.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Warmup = 0,
    Parked = 1,
    Window = 2,
    /// Extra arm after the window (the service's in-process transport).
    Extra = 3,
}

pub struct Control {
    phase: AtomicU8,
    slice: AtomicUsize,
    trace: bool,
    barrier: Barrier,
}

/// Slices of a window of `seconds`: about one per second, at least two.
pub fn slice_count(seconds: f64) -> usize {
    (seconds.round() as usize).max(2)
}

impl Control {
    pub fn new(load_threads: usize, trace: bool) -> Control {
        Control {
            phase: AtomicU8::new(Phase::Warmup as u8),
            slice: AtomicUsize::new(0),
            trace,
            barrier: Barrier::new(load_threads + 1),
        }
    }

    /// Whether slice `slice` of the window is traced.
    pub fn traced(&self, slice: usize) -> bool {
        self.trace && slice % 2 == 1
    }

    /// Load-thread side: run `op(phase, slice)` for every phase the main
    /// thread opens, parking in between.
    pub fn run_load(&self, mut op: impl FnMut(Phase, usize), extra: bool) {
        let mut phases = vec![Phase::Warmup, Phase::Window];
        if extra {
            phases.push(Phase::Extra);
        }
        for (i, phase) in phases.into_iter().enumerate() {
            if i > 0 {
                // Released once the main thread has opened `phase`.
                self.barrier.wait();
            }
            while self.phase.load(Ordering::Acquire) == phase as u8 {
                op(phase, self.slice.load(Ordering::Relaxed));
            }
            self.barrier.wait();
        }
    }

    fn close(&self) {
        self.phase.store(Phase::Parked as u8, Ordering::Release);
        self.barrier.wait();
    }

    fn open(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Release);
        self.barrier.wait();
    }

    /// Main-thread side: warm up for `warmup`, run `between` with every
    /// load thread parked, then measure for `seconds`. Returns the length
    /// of each slice in seconds.
    pub fn run_window(&self, warmup: Duration, seconds: f64, between: impl FnOnce()) -> Vec<f64> {
        std::thread::sleep(warmup);
        self.close();
        between();
        let n = slice_count(seconds);
        let len = Duration::from_secs_f64(seconds / n as f64);
        let mut slices = Vec::with_capacity(n);
        let start = Instant::now();
        let mut slice_start = start;
        self.open(Phase::Window);
        for i in 0..n {
            let end = start + len * (i as u32 + 1);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            slices.push((now - slice_start).as_secs_f64());
            slice_start = now;
            if i + 1 < n {
                self.slice.store(i + 1, Ordering::Relaxed);
            }
        }
        self.close();
        slices
    }

    /// Main-thread side: run the extra arm for `seconds`.
    pub fn run_extra(&self, seconds: f64) -> f64 {
        let start = Instant::now();
        self.open(Phase::Extra);
        std::thread::sleep(Duration::from_secs_f64(seconds));
        self.close();
        start.elapsed().as_secs_f64()
    }
}
