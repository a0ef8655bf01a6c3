//! Work-stealing job distribution for sweep-scale campaigns.
//!
//! The original runner handed every worker the same `Mutex<VecDeque>`; at
//! a handful of runs the contention is irrelevant, but a full-matrix sweep
//! (thousands of short runs) turns the single lock into a serialization
//! point. Here each worker owns a local deque seeded with a contiguous
//! shard of the job list (the campaign runner groups that list by mix, see
//! `runner::dispatch_order`); it pops from the front of its own deque and, when
//! empty, steals the *back half* of the fullest victim's deque (steal-half
//! amortizes the lock traffic: a worker that steals N/2 jobs next contends
//! after N/2 pops, not after one).
//!
//! Determinism note: job *results* are order-independent (each run is
//! keyed and journaled individually), so stealing only perturbs scheduling,
//! never outcomes.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Per-worker job deques with steal-half rebalancing. Jobs are indices
/// into the campaign's run list.
pub struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Distributes `jobs` across `workers` local deques in contiguous
    /// shards (worker 0 gets the first ⌈n/w⌉ jobs, and so on) — the plan
    /// [`shard_plan`] describes.
    pub fn new(jobs: Vec<usize>, workers: usize) -> Self {
        StealQueues {
            queues: shard_plan(jobs.len(), workers)
                .into_iter()
                .map(|(start, len)| Mutex::new(jobs[start..start + len].iter().copied().collect()))
                .collect(),
        }
    }

    /// Snapshot of every worker's deque, front first (racy while workers
    /// run; exact before they start).
    pub fn deques(&self) -> Vec<Vec<usize>> {
        self.queues
            .iter()
            .map(|q| q.lock().expect("deque").iter().copied().collect())
            .collect()
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Next job for `worker`: the front of its own deque, else the back
    /// half of the fullest other deque (stolen into its own), else `None`
    /// (every deque empty — in-flight runs on other workers don't re-queue,
    /// so termination is clean).
    pub fn next(&self, worker: usize) -> Option<usize> {
        if let Some(job) = self.queues[worker].lock().expect("own deque").pop_front() {
            return Some(job);
        }
        self.steal_into(worker)
    }

    /// Steals the back half of the fullest victim deque into `worker`'s
    /// deque and returns the first stolen job. Victims are scanned from
    /// `worker + 1` round-robin so concurrent thieves spread out.
    fn steal_into(&self, worker: usize) -> Option<usize> {
        let n = self.queues.len();
        let mut best: Option<(usize, usize)> = None; // (victim, len)
        for off in 1..n {
            let v = (worker + off) % n;
            let len = self.queues[v].lock().expect("victim deque").len();
            if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
                best = Some((v, len));
            }
        }
        let (victim, _) = best?;
        let mut stolen = {
            let mut vq = self.queues[victim].lock().expect("victim deque");
            // Re-check under the lock: the victim may have drained since
            // the scan. Take the back ⌈half⌉ (so a single-job victim is
            // emptied, not skipped), keeping the front — the oldest jobs,
            // the victim's cache-warm region — with the owner.
            let keep = vq.len() / 2;
            vq.split_off(keep)
        };
        let first = stolen.pop_front();
        if !stolen.is_empty() {
            let mut own = self.queues[worker].lock().expect("own deque");
            debug_assert!(own.is_empty(), "thief only steals when empty");
            *own = stolen;
        }
        first
    }

    /// Jobs remaining across all deques (racy snapshot; for progress
    /// reporting only).
    pub fn remaining(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.lock().expect("deque").len())
            .sum()
    }
}

/// The initial contiguous shard plan [`StealQueues::new`] uses, as
/// `(start, len)` per worker over its job list — printed by
/// `shelfsim sweep --dry-run`.
pub fn shard_plan(jobs: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1);
    let chunk = jobs.div_ceil(workers).max(1);
    (0..workers)
        .map(|w| {
            let start = (w * chunk).min(jobs);
            let end = ((w + 1) * chunk).min(jobs);
            (start, end - start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_job_is_dispensed_exactly_once() {
        let q = StealQueues::new((0..103).collect(), 4);
        let mut seen = BTreeSet::new();
        // Drain through a single worker: it must steal everything.
        while let Some(j) = q.next(2) {
            assert!(seen.insert(j), "job {j} dispensed twice");
        }
        assert_eq!(seen.len(), 103);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn concurrent_workers_partition_the_jobs() {
        let q = StealQueues::new((0..500).collect(), 4);
        let taken: Vec<Mutex<Vec<usize>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for w in 0..4 {
                let q = &q;
                let taken = &taken;
                s.spawn(move || {
                    while let Some(j) = q.next(w) {
                        taken[w].lock().unwrap().push(j);
                    }
                });
            }
        });
        let mut all: Vec<usize> = taken
            .iter()
            .flat_map(|t| t.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn shard_plan_covers_the_matrix_contiguously() {
        let plan = shard_plan(10, 4);
        assert_eq!(plan, vec![(0, 3), (3, 3), (6, 3), (9, 1)]);
        assert_eq!(shard_plan(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        let total: usize = shard_plan(1000, 7).iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn steal_takes_the_back_half() {
        let q = StealQueues::new((0..8).collect(), 2);
        // Worker 0 owns 0..4, worker 1 owns 4..8. Drain worker 1, then let
        // it steal: it must take the back half of worker 0's deque (2, 3)
        // and leave the front (0, 1) with the owner.
        for expect in 4..8 {
            assert_eq!(q.next(1), Some(expect));
        }
        assert_eq!(q.next(1), Some(2), "first stolen job");
        assert_eq!(q.next(0), Some(0), "owner keeps its front");
        assert_eq!(q.next(1), Some(3), "rest of the stolen half");
    }
}
