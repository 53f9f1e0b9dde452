//! A fixed host calibration kernel.
//!
//! Its time is a diagnostic only — recorded next to the workload
//! figures so a reader can tell a slow host phase from a regression. It
//! never normalises a metric: measured on this kind of host, the
//! engine's time and the kernel's time do not move together.
//!
//! The kernel runs in a child process ([`child_ms`]), so its 4 MiB
//! ring never counts towards the benchmark process's peak RSS, and
//! allocating and freeing it cannot change how the workload's own
//! allocations are served.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The hidden command-line flag that makes the benchmark binary run the
/// kernel once and print its time in milliseconds (see `main.rs`).
pub const CALIB_CHILD_FLAG: &str = "--calib-child";

/// Runs the kernel once in a child process of `exe` (the benchmark
/// binary) and returns its time in milliseconds.
///
/// # Errors
///
/// A child that cannot start, fails, or prints no time.
pub fn child_ms(exe: &Path) -> Result<f64, String> {
    let out = Command::new(exe)
        .arg(CALIB_CHILD_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("calibration child: {e}"))?;
    if !out.status.success() {
        return Err(format!("calibration child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "calibration child printed no time".to_string())
}

/// Words in the pointer-chase ring: 4 MiB of `u64`.
const RING_WORDS: usize = 1 << 19;
/// Steps of the chase and of the ALU table walk per call.
const STEPS: usize = 1 << 20;

/// A reusable kernel instance (the ring is built once).
#[derive(Debug)]
pub struct Calib {
    ring: Vec<u64>,
    table: [u64; 256],
}

impl Default for Calib {
    fn default() -> Self {
        Self::new()
    }
}

impl Calib {
    /// Builds the ring (a single cycle with a large odd stride) and the
    /// ALU table.
    pub fn new() -> Self {
        let stride = 40_503usize;
        let ring = (0..RING_WORDS)
            .map(|i| ((i + stride) % RING_WORDS) as u64)
            .collect();
        let mut table = [0u64; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        }
        Self { ring, table }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut p = 0usize;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            p = self.ring[p] as usize;
            acc = acc.rotate_left(5) ^ self.table[(acc as usize ^ p) & 255];
        }
        black_box((p, acc));
        t0.elapsed().as_secs_f64() * 1e3
    }
}
