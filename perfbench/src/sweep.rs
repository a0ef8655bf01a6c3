//! The paper-sweep workload: the 220-run campaign matrix (4 designs ×
//! 2- and 4-thread mixes plus the single-thread references, 3000
//! measured cycles each), run cold through the campaign pool.

use crate::campaign::{check_report, cold_run, frontier, CampaignSample, Committed};
use crate::golden;
use crate::layers::{traced_run, Layers};
use crate::measure::{median, ms_since, Gate, Metrics, ScratchDir};
use crate::yardstick::Yardstick;
use shelfsim::campaign::WorkerScratch;
use shelfsim::{ResultCache, RunSpec, ShardedJournal, SweepSpec};
use shelfsim_bench::campaign::{campaign_matrix, DEFAULT_MEASURE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Pool workers for the timed cold runs.
const WORKERS: usize = 2;
/// Set-ups timed per repetition (each is about a millisecond).
const SETUPS_PER_REP: usize = 20;
/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Sampling points of the sweep runs fall in `[0, SAMPLING_SPAN)` cycles,
/// added to each run's warm-up.
const SAMPLING_SPAN: u64 = 500;

/// The canonical 220-run matrix.
fn matrix() -> SweepSpec {
    campaign_matrix(DEFAULT_MEASURE, golden::PROGRAM_SEED)
}

/// The matrix's runs for workload seed `seed`: expanded, then each run's
/// warm-up lengthened by its sampling point.
fn expand(sweep: &SweepSpec, seed: u64) -> Vec<RunSpec> {
    let mut runs = sweep.expand();
    for (i, spec) in runs.iter_mut().enumerate() {
        spec.warmup += golden::sampling_point(seed, i, SAMPLING_SPAN);
    }
    runs
}

/// Checks a repetition's whole-matrix fingerprint — total committed
/// instructions and the Pareto frontier — against the golden one and
/// against the first repetition's.
struct SweepChecker {
    golden: Option<(u64, &'static str)>,
    first: Option<(u64, String)>,
    /// Per-run committed counts of the first repetition.
    committed: Committed,
}

impl SweepChecker {
    fn new(seed: u64) -> Self {
        SweepChecker {
            golden: golden::sweep(seed),
            first: None,
            committed: Committed::new(),
        }
    }

    fn check(&mut self, total: u64, front: String) -> Option<String> {
        if let Some((g_total, g_front)) = self.golden {
            if (g_total, g_front) != (total, front.as_str()) {
                return Some(format!(
                    "matrix fingerprint {total} [{front}] != golden {g_total} [{g_front}]"
                ));
            }
        }
        match &self.first {
            Some(first) if *first != (total, front.clone()) => Some(format!(
                "matrix fingerprint {total} [{front}] != first repetition {} [{}]",
                first.0, first.1
            )),
            Some(_) => None,
            None => {
                self.first = Some((total, front));
                None
            }
        }
    }
}

/// The untraced run: end-to-end metrics, each the median over
/// repetitions of the figure scaled to reference host speed.
pub fn run(seed: u64, seconds: u64, gate: &mut Gate) -> Metrics {
    let mut dirs = ScratchDir::create().expect("create the benchmark scratch directory");
    let sweep = matrix();
    let mut check = SweepChecker::new(seed);
    let mut yard = Yardstick::new();
    let (mut setup_s, mut runs_per_s, mut kips) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_dir = None;
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < Duration::from_secs(seconds) {
        reps += 1;
        let mut runs = Vec::new();
        let mut setup = Vec::with_capacity(SETUPS_PER_REP);
        yard.slot();
        for _ in 0..SETUPS_PER_REP {
            let dir = dirs.fresh("setup");
            let t = Instant::now();
            runs = expand(&sweep, seed);
            let cache = ResultCache::load(Some(&ShardedJournal::new(&dir)), None);
            let misses = cache.map(|c| c.admit(&runs).misses.len());
            setup.push(t.elapsed().as_secs_f64());
            if misses.as_ref().ok() != Some(&runs.len()) {
                gate.fail(format!(
                    "fresh journal admitted {misses:?} of {}",
                    runs.len()
                ));
            }
        }

        yard.slot();
        let slowness = yard.slowness();
        setup_s.extend(setup.iter().map(|s| s / slowness));

        let dir = dirs.fresh("cold");
        let cold = cold_run(&runs, WORKERS, &dir);
        yard.slot();
        let slowness = yard.slowness();
        let (report, wall_ms) = match cold {
            Ok(r) => r,
            Err(e) => {
                gate.op(Some(format!("campaign journal I/O: {e}")));
                continue;
            }
        };
        let expect = check.committed.clone();
        let got = check_report(&report, &expect, gate);
        let total: u64 = got.values().sum();
        runs_per_s.push(runs.len() as f64 * 1e3 / wall_ms * slowness);
        kips.push(total as f64 / wall_ms * slowness);
        if check.committed.is_empty() {
            check.committed = got;
        }
        let front = ShardedJournal::new(&dir)
            .load_merged()
            .map(|merged| frontier(&merged))
            .unwrap_or_default();
        if let Some(e) = check.check(total, front) {
            gate.fail(e);
        }
        if let Some(old) = last_dir.replace(dir) {
            dirs.discard(&old);
        }
    }

    // The journal read path: re-running the last matrix must be served
    // wholly from its journal.
    if let Some(dir) = last_dir {
        let runs = expand(&sweep, seed);
        let resumed = cold_run(&runs, WORKERS, &dir).map(|(r, _)| r.resumed);
        gate.op((resumed.as_ref().ok() != Some(&runs.len()))
            .then(|| format!("cached replay resumed {resumed:?} of {} runs", runs.len())));
    }
    eprintln!(
        "paper-sweep: {reps} repetitions, median slowness {:.3}; fingerprint {:?}",
        yard.median_slowness(),
        check.first
    );
    if runs_per_s.is_empty() {
        (kips, runs_per_s) = (vec![f64::NAN], vec![f64::NAN]);
    }
    let mut m = Metrics::default();
    m.put("kips", median(&kips), "kIPS");
    m.put("runs_per_s", median(&runs_per_s), "1/s");
    m.put("setup_s", median(&setup_s), "s");
    m
}

/// Replays `runs` serially on the traced path, the way a one-worker
/// campaign runs them. Returns the spans and each run's committed count;
/// a count that differs from `reference` (when it knows the run) fails.
fn serial_replay(runs: &[RunSpec], reference: &Committed, gate: &mut Gate) -> (Layers, Committed) {
    let mut acc = Layers::default();
    let mut scratch = WorkerScratch::new();
    let mut committed = Committed::new();
    for spec in runs {
        let traced = catch_unwind(AssertUnwindSafe(|| {
            traced_run(spec, &mut scratch, &mut acc)
        }));
        // Each run is simulated twice on the traced path (skip on and off).
        gate.op(None);
        gate.op(match traced {
            Ok(Ok(print)) => {
                let total: u64 = print
                    .split('/')
                    .nth(1)
                    .and_then(|c| c.parse().ok())
                    .unwrap_or(0);
                committed.insert(spec.key(), total);
                match reference.get(&spec.key()) {
                    Some(&want) if want != total => Some(format!(
                        "{}: committed {total} != first repetition {want}",
                        spec.label()
                    )),
                    _ => None,
                }
            }
            Ok(Err(e)) => Some(e),
            Err(_) => Some(format!("{}: panic on the traced path", spec.label())),
        });
    }
    (acc, committed)
}

/// The traced run: per-layer metrics. Each repetition runs the campaign
/// layer (cold at one and two workers, merge, Pareto, cached replay) and
/// replays the matrix serially on the traced path, alternating which
/// goes first so drift hits both alike. Every per-run committed count
/// and the matrix fingerprint must agree.
pub fn run_traced(seed: u64, seconds: u64, gate: &mut Gate) -> Metrics {
    let mut dirs = ScratchDir::create().expect("create the benchmark scratch directory");
    let sweep = matrix();
    let mut check = SweepChecker::new(seed);
    let (mut layers, mut campaigns, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    // Per-run committed counts of the first serial replay, which always
    // runs before any campaign.
    let mut reference = Committed::new();
    let start = Instant::now();
    while layers.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let t = Instant::now();
        let runs = expand(&sweep, seed);
        let expand_ms = ms_since(t);

        let replay_first = layers.len() % 2 == 0;
        let mut acc = Layers::default();
        if replay_first {
            let (spans, committed) = serial_replay(&runs, &reference, gate);
            acc = spans;
            if reference.is_empty() {
                reference = committed;
            }
        }
        match CampaignSample::measure(&runs, expand_ms, &reference, &mut dirs, gate) {
            Ok((sample, merged)) => {
                let total = reference.values().sum();
                if let Some(e) = check.check(total, frontier(&merged)) {
                    gate.fail(e);
                }
                campaigns.push(sample);
            }
            Err(e) => gate.op(Some(format!("campaign journal I/O: {e}"))),
        }
        if !replay_first {
            acc = serial_replay(&runs, &reference, gate).0;
        }
        if let Some(sample) = campaigns.last_mut() {
            sample.serial_span_ms = acc.serial_span_ms();
            overhead.push(100.0 * (sample.serial_span_ms - sample.wall_1w_ms) / sample.wall_1w_ms);
        }
        layers.push(acc);
    }
    eprintln!(
        "paper-sweep traced: {} repetitions; fingerprint {:?}",
        layers.len(),
        check.first
    );
    let mut m = Metrics::default();
    Layers::put_medians(&layers, &mut m);
    if campaigns.is_empty() {
        campaigns.push(CampaignSample::default());
        overhead.push(f64::NAN);
    }
    CampaignSample::put_medians(&campaigns, &mut m);
    m.put("trace.overhead_pct", median(&overhead), "%");
    m
}
