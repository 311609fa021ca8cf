//! A host-speed probe: a fixed unit of CPU work owned by the benchmark.
//!
//! The machines this benchmark runs on are shared virtual machines
//! whose speed drifts by tens of percent over tens of seconds as
//! neighbours load the physical cores and caches. The probe runs
//! between passes of the timed loop, so it samples the same host
//! conditions as the requests; the end-to-end timings are reported
//! scaled to the probe's nominal time ([`NOMINAL_S`]). The probe calls
//! no program code, so a change to the program cannot move it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;
use crate::report::median;

/// The probe's time on the reference host (a quiet 2-vCPU Xeon VM), s.
pub const NOMINAL_S: f64 = 3.0e-3;

/// The probe's working state, built once.
pub struct HostProbe {
    /// A single-cycle permutation of 64 Ki slots (256 KiB).
    next: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

impl HostProbe {
    /// Builds the permutation.
    pub fn new() -> HostProbe {
        let n = 1 << 16;
        let mut order: Vec<u32> = (0..n as u32).collect();
        Rng::new(42).shuffle(&mut order);
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        HostProbe { next }
    }

    /// Runs the unit once and returns its wall time, s. The unit mixes
    /// the kinds of work the service does: a dependent walk through
    /// memory, float arithmetic, and formatting, parsing and indexing
    /// short strings with small allocations.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut i = 0u32;
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        let mut x = 1.0f64;
        for _ in 0..40_000 {
            i = self.next[i as usize];
            h = (h ^ u64::from(i)).wrapping_mul(0x0100_0000_01B3);
            x = (x + (h >> 40) as f64 * 1e-7).sqrt() + (x * 0.5).ln_1p();
        }
        let mut map = BTreeMap::new();
        let mut text = String::new();
        for k in 0..3000u64 {
            h = (h ^ k).wrapping_mul(0x0100_0000_01B3);
            let v = (h >> 11) as f64 / (1u64 << 53) as f64 * 1e3;
            text.clear();
            let _ = write!(text, "{{\"v\":{v},\"k\":\"n{}\"}}", h % 977);
            let parsed: f64 = text[5..text.find(',').unwrap_or(5)].parse().unwrap_or(0.0);
            map.insert(text.clone(), parsed);
        }
        black_box((i, x, map.values().sum::<f64>()));
        t0.elapsed().as_secs_f64()
    }
}

/// How much slower than the reference host this run's host was: the
/// median probe time over [`NOMINAL_S`] (1 when there are no samples).
pub fn slowdown(probe_s: &[f64]) -> f64 {
    if probe_s.is_empty() {
        1.0
    } else {
        median(probe_s) / NOMINAL_S
    }
}
