//! The engine workloads: a few long runs, each closed loop. Every
//! repetition builds all of the workload's runs (set-up), then simulates
//! them one after another, so host drift hits every run equally.

use crate::campaign::{CampaignSample, Committed};
use crate::golden;
use crate::layers::{self, fingerprint, Layers};
use crate::measure::{median, ms_since, Gate, Metrics, ScratchDir};
use crate::yardstick::Yardstick;
use shelfsim::campaign::WorkerScratch;
use shelfsim::{CampaignSpec, Completion, RunResult, RunSpec, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// An engine workload: each design runs each mix for a fixed window.
pub struct EngineWorkload {
    pub name: &'static str,
    pub mixes: &'static [&'static [&'static str]],
    /// Timed warm-up cycles before the measured window.
    pub warmup: u64,
    pub measure: u64,
}

/// Sampling points of the engine runs fall in `[0, SAMPLING_SPAN)`
/// cycles; they run untimed, before the timed `Simulation::run`.
const SAMPLING_SPAN: u64 = 20_000;

/// The designs every engine workload runs: the baseline, the shelf
/// design, and the big-window comparison.
const DESIGNS: [&str; 3] = ["base64", "shelf-opt", "base128"];

/// Four threads that keep the pipeline busy: few cycles can be skipped.
pub const BUSY: EngineWorkload = EngineWorkload {
    name: "engine-busy",
    mixes: &[&["gcc", "mcf", "hmmer", "lbm"]],
    warmup: 2_000,
    measure: 100_000,
};

/// Two memory-bound threads: most cycles wait on misses and are skipped.
pub const MEMBOUND: EngineWorkload = EngineWorkload {
    name: "engine-membound",
    mixes: &[&["gcc", "mcf"], &["mcf", "lbm"]],
    warmup: 2_000,
    measure: 240_000,
};

/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

impl EngineWorkload {
    /// The workload's runs for `seed`, designs outer and mixes inner.
    /// A run's `warmup` is its sampling point plus the timed warm-up.
    pub fn runs(&self, seed: u64) -> Vec<RunSpec> {
        let designs: Vec<String> = DESIGNS.map(str::to_owned).to_vec();
        let mixes: Vec<Vec<String>> = self
            .mixes
            .iter()
            .map(|m| m.iter().map(|b| (*b).to_owned()).collect())
            .collect();
        let mut runs = CampaignSpec::matrix(
            &designs,
            &mixes,
            golden::PROGRAM_SEED,
            self.warmup,
            self.measure,
        );
        for (i, spec) in runs.iter_mut().enumerate() {
            spec.warmup += golden::sampling_point(seed, i, SAMPLING_SPAN);
        }
        runs
    }
}

/// Builds every run's simulation, memoizing program builds across runs
/// the way a campaign worker does.
fn set_up(runs: &[RunSpec]) -> Result<Vec<Simulation>, String> {
    let mut scratch = WorkerScratch::new();
    runs.iter()
        .map(|spec| {
            let cfg = spec.resolved_config()?;
            let programs = scratch.programs_for(spec)?;
            Ok(Simulation::from_programs(cfg, programs, spec.seed))
        })
        .collect()
}

/// Checks one result: the fixed window ran to completion, the shelf
/// safety self-check is clean, and the fingerprint equals the reference
/// (the first repetition's, and the golden one when the seed has one).
struct Checker {
    label: Vec<String>,
    golden: Option<&'static [&'static str]>,
    reference: Vec<Option<String>>,
}

impl Checker {
    fn new(runs: &[RunSpec], seed: u64, workload: &str) -> Self {
        Checker {
            label: runs.iter().map(RunSpec::label).collect(),
            golden: golden::engine(workload, seed),
            reference: vec![None; runs.len()],
        }
    }

    fn check(&mut self, i: usize, print: &str) -> Option<String> {
        if let Some(golden) = self.golden {
            if golden[i] != print {
                return Some(format!(
                    "{}: fingerprint {print} != golden {}",
                    self.label[i], golden[i]
                ));
            }
        }
        match &self.reference[i] {
            Some(first) if first != print => Some(format!(
                "{}: fingerprint {print} != first repetition {first}",
                self.label[i]
            )),
            Some(_) => None,
            None => {
                self.reference[i] = Some(print.to_owned());
                None
            }
        }
    }

    fn check_result(&mut self, i: usize, r: &RunResult) -> Option<String> {
        if r.completion != Completion::FixedWindow || r.late_shelf_commits != 0 {
            return Some(format!(
                "{}: completion {}, late shelf commits {}",
                self.label[i], r.completion, r.late_shelf_commits
            ));
        }
        let per_thread: Vec<u64> = r.threads.iter().map(|t| t.committed).collect();
        if r.counters.committed != per_thread.iter().sum::<u64>() {
            return Some(format!("{}: counter/thread commit mismatch", self.label[i]));
        }
        self.check(i, &fingerprint(r.cycles, &per_thread))
    }

    /// `key → committed` of the reference fingerprints, for checking the
    /// same runs through the campaign layer.
    fn committed(&self, runs: &[RunSpec]) -> Committed {
        runs.iter()
            .zip(&self.reference)
            .filter_map(|(spec, print)| {
                let total = print.as_ref()?.split('/').nth(1)?.parse().ok()?;
                Some((spec.key(), total))
            })
            .collect()
    }

    fn prints(&self) -> Vec<String> {
        self.reference
            .iter()
            .map(|p| p.clone().unwrap_or_default())
            .collect()
    }
}

/// One untraced repetition: set-up, then every run, each advanced
/// untimed to its sampling point and then timed through its warm-up and
/// measured window. A yardstick slot runs before the set-up and after it
/// and each run, and each time is divided by its slowness. Returns
/// `(setup ms, Σ run ms, committed)`.
fn untraced_rep(
    w: &EngineWorkload,
    runs: &[RunSpec],
    check: &mut Checker,
    gate: &mut Gate,
    yard: &mut Yardstick,
) -> (f64, f64, u64) {
    yard.slot();
    let t = Instant::now();
    let sims = catch_unwind(|| set_up(runs));
    let mut setup_ms = ms_since(t);
    yard.slot();
    setup_ms /= yard.slowness();
    let mut sims = match sims {
        Ok(Ok(sims)) => sims,
        Ok(Err(e)) => {
            runs.iter().for_each(|_| gate.op(Some(e.clone())));
            return (setup_ms, 0.0, 0);
        }
        Err(_) => {
            runs.iter()
                .for_each(|_| gate.op(Some("panic during set-up".to_owned())));
            return (setup_ms, 0.0, 0);
        }
    };
    let (mut run_ms, mut committed) = (0.0, 0);
    for (i, (spec, sim)) in runs.iter().zip(&mut sims).enumerate() {
        let mut ms = 0.0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            sim.run(spec.warmup - w.warmup, 0);
            let t = Instant::now();
            let r = sim.run(w.warmup, spec.measure);
            ms = ms_since(t);
            r
        }));
        yard.slot();
        run_ms += ms / yard.slowness();
        gate.op(match result {
            Ok(r) => {
                committed += r.counters.committed;
                check.check_result(i, &r)
            }
            Err(_) => Some(format!("{}: panic during run", spec.label())),
        });
    }
    (setup_ms, run_ms, committed)
}

/// One traced repetition in the untraced path's order: build every run's
/// programs, construct every core, then simulate each; then the same
/// with cycle skipping off. Returns each run's `(skip-on, skip-off)`
/// fingerprints.
fn traced_rep(
    w: &EngineWorkload,
    runs: &[RunSpec],
    acc: &mut Layers,
) -> Result<Vec<(String, String)>, String> {
    let mut scratch = WorkerScratch::new();
    let built = runs
        .iter()
        .map(|spec| layers::build(spec, &mut scratch, acc))
        .collect::<Result<Vec<_>, _>>()?;
    let cores: Vec<_> = built
        .iter()
        .map(|(cfg, programs)| layers::construct(cfg, programs, Some(acc)))
        .collect();
    let on: Vec<String> = runs
        .iter()
        .zip(cores)
        .map(|(spec, core)| layers::simulate(spec, spec.warmup - w.warmup, core, true, acc))
        .collect();
    let cores: Vec<_> = built
        .iter()
        .map(|(cfg, programs)| layers::construct(cfg, programs, None))
        .collect();
    let off = runs
        .iter()
        .zip(cores)
        .map(|(spec, core)| layers::simulate(spec, spec.warmup - w.warmup, core, false, acc));
    Ok(on.into_iter().zip(off).collect())
}

/// The untraced run: end-to-end metrics, each the median over
/// repetitions of the figure scaled to reference host speed.
pub fn run(w: &EngineWorkload, seed: u64, seconds: u64, gate: &mut Gate) -> Metrics {
    let runs = w.runs(seed);
    let mut check = Checker::new(&runs, seed, w.name);
    let mut yard = Yardstick::new();
    let (mut kips, mut setup_s, mut runs_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < Duration::from_secs(seconds) {
        reps += 1;
        let (setup_ms, run_ms, committed) = untraced_rep(w, &runs, &mut check, gate, &mut yard);
        if committed == 0 {
            continue;
        }
        kips.push(committed as f64 / run_ms);
        setup_s.push(setup_ms / 1e3);
        runs_per_s.push(runs.len() as f64 * 1e3 / (setup_ms + run_ms));
    }
    eprintln!(
        "{}: {reps} repetitions, median slowness {:.3}; fingerprints {:?}",
        w.name,
        yard.median_slowness(),
        check.prints()
    );
    if kips.is_empty() {
        (kips, runs_per_s, setup_s) = (vec![f64::NAN], vec![f64::NAN], vec![f64::NAN]);
    }
    let mut m = Metrics::default();
    m.put("kips", median(&kips), "kIPS");
    m.put("runs_per_s", median(&runs_per_s), "1/s");
    m.put("setup_s", median(&setup_s), "s");
    m
}

/// The traced run: per-layer metrics. Each repetition runs the untraced
/// path, the traced path (skip on and off) and the campaign layer over
/// the same runs, and every fingerprint must agree.
pub fn run_traced(w: &EngineWorkload, seed: u64, seconds: u64, gate: &mut Gate) -> Metrics {
    let runs = w.runs(seed);
    let mut check = Checker::new(&runs, seed, w.name);
    let mut dirs = ScratchDir::create().expect("create the benchmark scratch directory");
    let (mut layers, mut campaigns, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while layers.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        // Alternate which path goes first, so drift hits both alike.
        let untraced_first = layers.len() % 2 == 0;
        let mut untraced = (0.0, 0.0, 0);
        if untraced_first {
            untraced = untraced_rep(w, &runs, &mut check, gate, &mut Yardstick::off());
        }
        let mut acc = Layers::default();
        let traced = catch_unwind(AssertUnwindSafe(|| traced_rep(w, &runs, &mut acc)));
        // Each run is simulated twice on the traced path (skip on and off).
        match traced {
            Ok(Ok(prints)) => {
                for (i, (on, off)) in prints.iter().enumerate() {
                    gate.op(check.check(i, on));
                    gate.op((on != off).then(|| {
                        format!(
                            "{}: skip-off fingerprint {off} != skip-on {on}",
                            runs[i].label()
                        )
                    }));
                }
            }
            Ok(Err(e)) => runs.iter().for_each(|_| gate.op(Some(e.clone()))),
            Err(_) => runs
                .iter()
                .for_each(|_| gate.op(Some("panic on the traced path".to_owned()))),
        }
        if !untraced_first {
            untraced = untraced_rep(w, &runs, &mut check, gate, &mut Yardstick::off());
        }
        let (setup_ms, run_ms, _) = untraced;
        let untraced_ms = setup_ms + run_ms;
        let traced_ms = acc.build_ms + acc.construct_ms() + acc.simulate_ms;
        overhead.push(100.0 * (traced_ms - untraced_ms) / untraced_ms);

        let t = Instant::now();
        let specs = w.runs(seed);
        let expand_ms = ms_since(t);
        match CampaignSample::measure(&specs, expand_ms, &check.committed(&runs), &mut dirs, gate) {
            Ok((mut sample, _)) => {
                sample.serial_span_ms = acc.serial_span_ms();
                campaigns.push(sample);
            }
            Err(e) => gate.op(Some(format!("campaign journal I/O: {e}"))),
        }
        layers.push(acc);
    }
    let mut m = Metrics::default();
    Layers::put_medians(&layers, &mut m);
    if campaigns.is_empty() {
        campaigns.push(CampaignSample::default());
    }
    CampaignSample::put_medians(&campaigns, &mut m);
    m.put("trace.overhead_pct", median(&overhead), "%");
    m
}
