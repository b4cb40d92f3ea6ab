//! Drift-calibrated timing.
//!
//! Wall-clock medians of one binary drift by 14–35 % between
//! back-to-back runs on the sandbox (README, "Calibration"), far more
//! than any bound this benchmark gates on. So every timed operation is
//! followed at once by a fixed kernel of the kinds of work the verifier
//! does — small allocations, hash-map inserts, B-tree walks, string
//! formatting, cache-missing reads, bulk copies, branchy arithmetic —
//! and the sample is reported in units of that kernel:
//! `op_ms / cal_ms × CAL_REF_MS`. Whatever slows the host
//! (steal time, frequency, a noisy neighbour) slows both and cancels.
//!
//! **The kernel is frozen.** Changing it, or `CAL_REF_MS`, changes the
//! unit of every calibrated metric and invalidates all earlier results.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel took on the machine the benchmark was sized on. A
/// calibrated millisecond is a raw millisecond on that machine.
pub const CAL_REF_MS: f64 = 16.0;

const ROUNDS: u64 = 3;
const KEYS: u64 = 6_000;
const WORDS: usize = 1 << 17;
const PASSES: usize = 3;
const COPIES: usize = 3;
const STEPS: u32 = 1_200_000;

/// The calibration kernel. Deterministic; returns a checksum so the
/// optimiser cannot delete it. Four parts, because no single kind of
/// work tracked all four workloads when the host slowed, and which kind
/// did best changed from one hour to the next (README, "Calibration"):
/// small allocations with hash-map inserts, B-tree walks and string
/// formatting; dependent random accesses over a fresh 1 MB buffer; bulk
/// copies of it; branchy arithmetic over a table that fits in L1.
pub fn kernel() -> u64 {
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ round;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut map: HashMap<u64, Box<[u64; 3]>> = HashMap::new();
        let mut tree: BTreeMap<u64, String> = BTreeMap::new();
        let mut text = String::new();
        for i in 0..KEYS {
            let k = next();
            map.insert(k % (KEYS * 2), Box::new([k, i, round]));
            text.clear();
            let _ = write!(text, "req{}:h{:x}/op{}", i, k & 0xffff, k % 97);
            tree.insert(k % (KEYS * 4), text.clone());
        }
        for (k, v) in tree.range(KEYS..KEYS * 3) {
            acc = acc.wrapping_add(*k).wrapping_add(v.len() as u64);
            if let Some(b) = map.get(&(k % (KEYS * 2))) {
                acc = acc.wrapping_add(b[0] ^ b[1]);
            }
        }
        acc = acc.wrapping_add(black_box(&map).len() as u64);
    }

    let mut buf = vec![0u64; WORDS];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..PASSES {
        for j in 0..WORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x as usize ^ acc as usize) & (WORDS - 1);
            buf[k] = buf[k].wrapping_add(x ^ j as u64);
            acc = acc.wrapping_add(buf[k.wrapping_mul(31) & (WORDS - 1)]);
        }
    }
    for _ in 0..COPIES {
        let copy = black_box(buf.clone());
        acc = acc.wrapping_add(copy[(acc as usize) & (WORDS - 1)]);
    }

    let mut table = [0u32; 1024];
    let mut y = 0x1234_5678_9abc_def1u64 ^ acc;
    for step in 0..STEPS {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        let slot = (y as usize) & (table.len() - 1);
        if y & 0x30 == 0 {
            table[slot] = table[slot].wrapping_mul(31).wrapping_add(step);
        } else if y & 0x40 == 0 {
            table[slot] ^= (y >> 20) as u32;
        } else {
            acc = acc.wrapping_add(u64::from(table[slot])).rotate_left(5);
        }
    }
    acc.wrapping_add(u64::from(black_box(table)[0]))
}

/// One timed operation and the kernel run that followed it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub raw_ms: f64,
    pub cal_ms: f64,
}

impl Sample {
    /// The operation's time in calibrated milliseconds.
    pub fn calibrated_ms(&self) -> f64 {
        calibrate(self.raw_ms, self.cal_ms)
    }
}

pub fn calibrate(raw_ms: f64, cal_ms: f64) -> f64 {
    raw_ms / cal_ms * CAL_REF_MS
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times the kernel alone.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    ms_since(t)
}

/// Times `op`, then the kernel.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, Sample) {
    let t = Instant::now();
    let out = op();
    let raw_ms = ms_since(t);
    let cal_ms = kernel_ms();
    (out, Sample { raw_ms, cal_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let fast = calibrate(100.0, CAL_REF_MS);
        let slow = calibrate(130.0, CAL_REF_MS * 1.3);
        assert!((fast - slow).abs() < 1e-9);
        assert!((fast - 100.0).abs() < 1e-9, "reference machine reads raw");
    }
}
