//! The host-speed yardstick: a fixed kernel, timed between the
//! benchmark's operations, that turns each end-to-end timing into the
//! figure it would have on a host running at reference speed.
//!
//! The benchmark's host is shared, and its speed drifts by up to 2× over
//! seconds to minutes while the simulator's own work stays the same (see
//! STEADINESS.md). The yardstick is code of the simulator's kind — a
//! set-associative cache model with LRU ages and a table of two-bit
//! branch predictors, 2.5 MiB in all — so the host's slow stretches slow
//! it much as they slow the simulator.
//! It is the benchmark's own code, fixed for good: a change to the
//! simulator never changes the yardstick, so it never hides a gain.
//!
//! A yardstick *slot* is timed before the first timed operation, between
//! operations and after the last. An operation's *slowness* is the mean
//! time of the two slots around it over [`REFERENCE_SLOT_S`]; its time is
//! divided by it, which scales every rate and time built from it.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's slot time on a host at reference speed: about its
/// typical slot time on the 2-vCPU Xeon VM where the benchmark was
/// built. Only the metrics' scale depends on it.
pub const REFERENCE_SLOT_S: f64 = 0.018;

/// Cache-model sets (4 ways each) and predictor-table entries.
const SETS: usize = 1 << 16;
const PREDICTORS: usize = 1 << 18;
/// Accesses in one slot.
const STEPS: u64 = 500_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One thread's kernel state; it stays warm from slot to slot.
struct Kernel {
    tags: Vec<u64>,
    ages: Vec<u8>,
    predictors: Vec<u8>,
    rng: u64,
    base: u64,
}

impl Kernel {
    fn new(seed: u64) -> Self {
        Kernel {
            tags: vec![u64::MAX; SETS * 4],
            ages: vec![0; SETS * 4],
            predictors: vec![1; PREDICTORS],
            rng: seed | 1,
            base: 0,
        }
    }

    /// A fixed number of cache-model accesses and predictor updates.
    fn slot(&mut self) -> u64 {
        let mut hits = 0u64;
        for step in 0..STEPS {
            let r = xorshift(&mut self.rng);
            // A quarter of accesses jump; the rest stay near the last jump.
            let addr = if r & 3 == 0 {
                self.base = r >> 20;
                self.base
            } else {
                self.base.wrapping_add((r >> 8) & 0x3f)
            };
            let set = (addr as usize % SETS) * 4;
            let (tags, ages) = (&mut self.tags[set..set + 4], &mut self.ages[set..set + 4]);
            let mut hit = false;
            for way in 0..4 {
                if tags[way] == addr {
                    hit = true;
                    ages[way] = 0;
                } else if ages[way] < 3 {
                    ages[way] += 1;
                }
            }
            if hit {
                hits += 1;
            } else {
                let victim = (0..4).max_by_key(|&w| ages[w]).unwrap_or(0);
                tags[victim] = addr;
                ages[victim] = 0;
            }
            let p = (addr ^ step).wrapping_mul(0x9E37_79B9) as usize % PREDICTORS;
            let taken = r & 0x100 != 0 || hit;
            let counter = &mut self.predictors[p];
            hits += u64::from((*counter >= 2) == taken);
            if taken {
                *counter = (*counter + 1).min(3);
            } else {
                *counter = counter.saturating_sub(1);
            }
        }
        hits
    }
}

/// The yardstick of one run: slot times, and how slow the host was
/// around each timed operation.
pub struct Yardstick {
    kernel: Option<Kernel>,
    /// Every slot time so far, in seconds.
    slots: Vec<f64>,
}

impl Yardstick {
    /// A yardstick with its tables warmed by one untimed slot.
    pub fn new() -> Self {
        let mut kernel = Kernel::new(0x5EED);
        black_box(kernel.slot());
        Yardstick {
            kernel: Some(kernel),
            slots: Vec::new(),
        }
    }

    /// A yardstick that times nothing: every slowness is 1, so figures
    /// stay raw host time.
    pub fn off() -> Self {
        Yardstick {
            kernel: None,
            slots: Vec::new(),
        }
    }

    /// Times one slot. Call it before and after each timed operation.
    pub fn slot(&mut self) {
        if let Some(kernel) = &mut self.kernel {
            let t = Instant::now();
            black_box(kernel.slot());
            self.slots.push(t.elapsed().as_secs_f64());
        }
    }

    /// The host's slowness around the operation between the last two
    /// slots: their mean time over [`REFERENCE_SLOT_S`].
    pub fn slowness(&self) -> f64 {
        match self.slots.as_slice() {
            [.., before, after] => (before + after) / 2.0 / REFERENCE_SLOT_S,
            _ => 1.0,
        }
    }

    /// The median slowness over every slot, for the run's diagnostics.
    pub fn median_slowness(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        crate::measure::median(&self.slots) / REFERENCE_SLOT_S
    }
}
