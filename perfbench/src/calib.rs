//! The host's speed, probed right before and right after every timed
//! operation, and the operation's time at a reference speed.
//!
//! The benchmark shares its host with other tenants, and the host's
//! speed drifts: for seconds to minutes at a time every wall-clock time,
//! user and system alike, reads 10–100% higher. A run cannot outlast
//! that, so a median over a run moves with it. A probe times a fixed
//! kernel of this file — no code of the repository — three times and
//! keeps the median, so one preempted kernel does not count. Its time
//! follows the host's speed at that moment, and an operation between two
//! probes ran at about their mean speed. Dividing the
//! operation's time by that mean and multiplying by
//! [`REFERENCE_PROBE_MS`] gives what it would have taken on a steady
//! host; a change that speeds the operation up moves it as much as it
//! moves the wall-clock time.
//!
//! Over 25 consecutive 15 s windows of `fit-mine` fits, the windows'
//! median fit time spread 10% (first to third quartile over median);
//! the median of the normalized fit times spread 1.2%.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A kernel run's time, ms, on a 2-vCPU Xeon at 2.0 GHz while the host was
/// quiet. Normalized values are in milliseconds at that speed.
pub const REFERENCE_PROBE_MS: f64 = 13.0;

/// Elements the probe kernel works on: 2 MiB of `u64` and 1 MiB of
/// indices, beyond the core's private caches.
const PROBE_N: usize = 1 << 18;

/// One probe: integer mixing, a random permutation and a walk along it,
/// a sort, a hash map and number formatting — the kinds of work the
/// decoder, miner and model builder do. Returns a checksum so the work
/// cannot be elided.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u64> = (0..PROBE_N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut perm: Vec<u32> = (0..PROBE_N as u32).collect();
    for i in (1..PROBE_N).rev() {
        perm.swap(i, (v[i] % (i as u64 + 1)) as usize);
    }
    let mut walk = 0u64;
    let mut k = 0usize;
    for _ in 0..PROBE_N {
        k = perm[k] as usize;
        walk = walk.wrapping_add(v[k]);
    }
    v.sort_unstable();
    let mut buckets: HashMap<u64, u32> = HashMap::new();
    for &e in v.iter().step_by(8) {
        *buckets.entry(e % 100_003).or_insert(0) += 1;
    }
    let digits: usize = v
        .iter()
        .take(PROBE_N / 20)
        .map(|e| e.to_string().len())
        .sum();
    walk ^ buckets.len() as u64 ^ digits as u64
}

/// Kernel runs per probe.
const PROBE_REPS: usize = 3;

/// Time one probe: the median kernel run, ms.
pub fn probe_ms() -> f64 {
    let runs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(7)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&runs)
}

/// Values timed between probes: each is recorded as measured and at
/// the reference speed.
pub struct Calibrated {
    last_probe_ms: f64,
    probes_ms: Vec<f64>,
    raw: Vec<f64>,
    normalized: Vec<f64>,
}

impl Calibrated {
    /// Probe once: the first operation starts right after.
    pub fn new() -> Calibrated {
        let first = probe_ms();
        Calibrated {
            last_probe_ms: first,
            probes_ms: vec![first],
            raw: Vec::new(),
            normalized: Vec::new(),
        }
    }

    /// Record `value`, timed since the last probe, probe again, and
    /// return `value` at the reference speed. Nothing of the operation
    /// may still run when this is called.
    pub fn record(&mut self, value: f64) -> f64 {
        let next = probe_ms();
        let speed = REFERENCE_PROBE_MS / ((self.last_probe_ms + next) / 2.0);
        self.last_probe_ms = next;
        self.probes_ms.push(next);
        self.raw.push(value);
        self.normalized.push(value * speed);
        value * speed
    }

    /// The values as measured, in the order recorded.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The values at the reference speed, in the order recorded.
    pub fn normalized(&self) -> &[f64] {
        &self.normalized
    }

    /// Every probe's time, ms.
    pub fn probes_ms(&self) -> &[f64] {
        &self.probes_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(9));
    }

    #[test]
    fn values_scale_by_the_mean_of_the_probes_around_them() {
        let mut c = Calibrated {
            last_probe_ms: 2.0 * REFERENCE_PROBE_MS,
            probes_ms: vec![2.0 * REFERENCE_PROBE_MS],
            raw: Vec::new(),
            normalized: Vec::new(),
        };
        let n = c.record(100.0);
        let next = c.probes_ms()[1];
        let want = 100.0 * REFERENCE_PROBE_MS / ((2.0 * REFERENCE_PROBE_MS + next) / 2.0);
        assert!((n - want).abs() < 1e-9);
        assert_eq!(c.raw(), &[100.0]);
        assert_eq!(c.normalized(), &[n]);
    }
}
