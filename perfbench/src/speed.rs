//! The host's speed, measured by a fixed reference computation, and the
//! factor that scales the benchmark's times to one nominal speed.
//!
//! On the 2-vCPU VM this benchmark was built on, the host's speed moved
//! by up to 1.8x within ten minutes, and for minutes at a time: whole runs
//! were 30-45% slower even at their fastest moment, reads and writes alike.
//! No estimator inside a run removes that, and it put the quartile spread
//! of ten runs over the 0.25 bound. So each run times a reference
//! computation next to its workload (after every cycle or block) and
//! reports every time scaled by [`NOMINAL_NS`] / the reference's time then:
//! a time in µs "at the nominal speed". A run whose reference took
//! [`NOMINAL_NS`] reports the times it measured.
//!
//! The reference touches no engine code and allocates nothing: it hashes
//! and sorts 2 048 words (16 KiB, inside L1 and L2). A change to the engine
//! therefore moves the scaled times as much as the measured ones. What the
//! scaling would hide is a change that slows the reference itself, such as
//! engine threads that stay busy between requests; `peak_rss_mb` and the
//! per-layer counters are not scaled.

use std::hint::black_box;
use std::time::Instant;

/// Reference time, in ns, at which times are reported as measured: about
/// the reference's fastest run on the 2-vCPU VM.
pub const NOMINAL_NS: f64 = 20_000.0;
/// Reference runs per sample; a sample is the fastest of them.
const RUNS: usize = 16;
/// Words the reference sorts.
const WORDS: usize = 2_048;

/// Times the reference computation.
pub struct Reference {
    buf: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buf: vec![0; WORDS],
        }
    }
}

impl Reference {
    /// The fastest of [`RUNS`] runs of the reference, in ns.
    pub fn sample(&mut self) -> u64 {
        (0..RUNS).map(|_| self.once()).min().unwrap_or(u64::MAX)
    }

    fn once(&mut self) -> u64 {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in &mut self.buf {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *w = z ^ (z >> 31);
        }
        black_box(&mut self.buf).sort_unstable();
        black_box(self.buf[WORDS / 2]);
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The factor that scales a time measured while the reference took
/// `reference_ns` to the nominal speed.
pub fn scale(reference_ns: u64) -> f64 {
    NOMINAL_NS / reference_ns.max(1) as f64 // cast-ok: ns ratio
}
