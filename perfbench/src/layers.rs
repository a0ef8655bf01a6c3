//! The traced path: one run rebuilt from the public API of each crate so
//! every layer gets its own span. `Simulation::from_programs` is replayed
//! as `Core::new` + `Core::warm_caches` + `Core::warm_functional`, and
//! `Simulation::run` as two `Core::tick_bounded` windows with the same
//! counter reset at the warm-up boundary. The fingerprint must equal the
//! untraced run's.

use crate::measure::{median, ms_since};
use shelfsim::campaign::{RunSpec, WorkerScratch};
use shelfsim::core::sim::DEFAULT_FUNCTIONAL_WARMUP;
use shelfsim::core::Counters;
use shelfsim::mem::CacheStats;
use shelfsim::workload::{Program, TraceSource};
use shelfsim::{Core, CoreConfig};
use std::time::Instant;

use crate::measure::Metrics;

/// A run's correctness fingerprint: measured cycles, committed
/// instructions, and per-thread committed instructions.
pub fn fingerprint(cycles: u64, per_thread: &[u64]) -> String {
    let total: u64 = per_thread.iter().sum();
    let threads: Vec<String> = per_thread.iter().map(u64::to_string).collect();
    format!("{cycles}/{total}/{}", threads.join(","))
}

/// Span totals and layer counts accumulated over one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub build_ms: f64,
    pub preflight_ms: f64,
    pub new_ms: f64,
    pub warm_caches_ms: f64,
    pub warm_functional_ms: f64,
    pub simulate_ms: f64,
    /// Simulate time of the same runs with cycle skipping off.
    pub simulate_off_ms: f64,
    /// Program requests served by a build and by the memo.
    pub builds: usize,
    pub hits: usize,
    /// Cycles ticked inside the simulate span (timed warm-up plus
    /// measured) and measured.
    pub ticked_cycles: u64,
    pub measured_cycles: u64,
    /// Instructions committed in the measured windows.
    pub committed: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    /// Thread-cycles ticked: Σ threads × ticked cycles.
    pub thread_cycles: u64,
    pub skipped_cycles: u64,
    pub parked_thread_cycles: u64,
    pub spans: u64,
    pub park_jumps: u64,
    pub probe_mismatches: u64,
    pub park_aborts: u64,
}

impl Layers {
    pub fn construct_ms(&self) -> f64 {
        self.new_ms + self.warm_caches_ms + self.warm_functional_ms
    }

    /// Serial layer spans of the skip-on path: what a one-worker campaign
    /// spends outside its own pool, isolation and journal code.
    pub fn serial_span_ms(&self) -> f64 {
        self.build_ms + self.preflight_ms + self.construct_ms() + self.simulate_ms
    }

    /// Records the medians over repetitions of every workload, core,
    /// memory, skip and analyze metric.
    pub fn put_medians(reps: &[Layers], m: &mut Metrics) {
        let med = |f: &dyn Fn(&Layers) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        m.put("workload.build_ms", med(&|l| l.build_ms), "ms");
        m.put(
            "workload.memo_hit_ratio",
            med(&|l| ratio(l.hits as f64, (l.hits + l.builds) as f64)),
            "ratio",
        );
        m.put("core.construct_ms", med(&|l| l.construct_ms()), "ms");
        m.put("core.new_ms", med(&|l| l.new_ms), "ms");
        m.put("core.warm_caches_ms", med(&|l| l.warm_caches_ms), "ms");
        m.put(
            "core.warm_functional_ms",
            med(&|l| l.warm_functional_ms),
            "ms",
        );
        m.put("core.simulate_ms", med(&|l| l.simulate_ms), "ms");
        m.put(
            "core.ns_per_cycle",
            med(&|l| ratio(l.simulate_ms * 1e6, l.ticked_cycles as f64)),
            "ns",
        );
        m.put(
            "core.ns_per_inst",
            med(&|l| ratio(l.simulate_ms * 1e6, l.committed as f64)),
            "ns",
        );
        m.put(
            "core.ipc",
            med(&|l| ratio(l.committed as f64, l.measured_cycles as f64)),
            "ratio",
        );
        m.put(
            "mem.l1d_mpki",
            med(&|l| ratio(l.l1d_misses as f64 * 1e3, l.committed as f64)),
            "count",
        );
        m.put(
            "mem.l2_mpki",
            med(&|l| ratio(l.l2_misses as f64 * 1e3, l.committed as f64)),
            "count",
        );
        m.put(
            "skip.skipped_cycle_frac",
            med(&|l| ratio(l.skipped_cycles as f64, l.ticked_cycles as f64)),
            "ratio",
        );
        m.put(
            "skip.parked_thread_cycle_frac",
            med(&|l| ratio(l.parked_thread_cycles as f64, l.thread_cycles as f64)),
            "ratio",
        );
        m.put("skip.spans", med(&|l| l.spans as f64), "count");
        m.put("skip.park_jumps", med(&|l| l.park_jumps as f64), "count");
        m.put(
            "skip.probe_success_ratio",
            med(&|l| ratio(l.spans as f64, (l.spans + l.probe_mismatches) as f64)),
            "ratio",
        );
        m.put("skip.park_aborts", med(&|l| l.park_aborts as f64), "count");
        m.put(
            "skip.saving",
            med(&|l| ratio(l.simulate_off_ms, l.simulate_ms)),
            "ratio",
        );
        m.put("analyze.preflight_ms", med(&|l| l.preflight_ms), "ms");
    }
}

/// The program-build and pre-flight spans of one run: the exact
/// programs `spec` simulates, memoized in `scratch`. A rejecting
/// pre-flight or an unresolvable spec is an error.
pub fn build(
    spec: &RunSpec,
    scratch: &mut WorkerScratch,
    acc: &mut Layers,
) -> Result<(CoreConfig, Vec<Program>), String> {
    let cfg = spec.resolved_config()?;
    let (builds0, hits0) = (scratch.builds, scratch.hits);
    let t = Instant::now();
    let programs = scratch.programs_for(spec)?;
    acc.build_ms += ms_since(t);
    acc.builds += scratch.builds - builds0;
    acc.hits += scratch.hits - hits0;

    let programs: Vec<Program> = programs.into_iter().map(|(_, p)| p).collect();
    let t = Instant::now();
    let report = shelfsim::preflight(&cfg, &programs);
    acc.preflight_ms += ms_since(t);
    if report.has_errors() {
        return Err(format!("{}: pre-flight rejected the run", spec.label()));
    }
    Ok((cfg, programs))
}

/// `Simulation::from_programs` rebuilt span by span. Spans go into `acc`
/// when given (the skip-on pass).
pub fn construct(cfg: &CoreConfig, programs: &[Program], acc: Option<&mut Layers>) -> Core {
    let t = Instant::now();
    let traces: Vec<TraceSource> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| TraceSource::new(p.clone(), i))
        .collect();
    let mut core = Core::new(cfg.clone(), traces);
    let new_ms = ms_since(t);
    let t = Instant::now();
    core.warm_caches();
    let warm_caches_ms = ms_since(t);
    let t = Instant::now();
    core.warm_functional(DEFAULT_FUNCTIONAL_WARMUP);
    let warm_functional_ms = ms_since(t);
    if let Some(acc) = acc {
        acc.new_ms += new_ms;
        acc.warm_caches_ms += warm_caches_ms;
        acc.warm_functional_ms += warm_functional_ms;
    }
    core
}

/// `Simulation::run` rebuilt: the warm-up window, the counter reset, and
/// the measured window. The first `position` cycles of the warm-up run
/// untimed (the engine workloads' sampling point). The skip-on pass
/// records its simulate span and every layer count of the timed cycles
/// into `acc`; the skip-off pass only its simulate time. Returns the
/// run's fingerprint.
pub fn simulate(
    spec: &RunSpec,
    position: u64,
    mut core: Core,
    skipping: bool,
    acc: &mut Layers,
) -> String {
    let threads = core.config().threads;
    core.set_cycle_skipping(skipping);
    core.tick_bounded(position);
    let skip0 = core.skip_stats().clone();
    let t = Instant::now();
    core.tick_bounded(spec.warmup - position);
    let committed0: Vec<u64> = (0..threads).map(|i| core.committed(i)).collect();
    let l1d0 = *core.hierarchy().l1d_stats();
    let l20 = *core.hierarchy().l2_stats();
    core.counters = Counters::new();
    core.tick_bounded(spec.measure);
    let simulate_ms = ms_since(t);

    let per_thread: Vec<u64> = (0..threads)
        .map(|i| core.committed(i) - committed0[i])
        .collect();
    if !skipping {
        acc.simulate_off_ms += simulate_ms;
        return fingerprint(spec.measure, &per_thread);
    }
    let misses = |now: &CacheStats, then: &CacheStats| {
        (now.accesses - now.hits) - (then.accesses - then.hits)
    };
    let ticked = spec.warmup - position + spec.measure;
    let skip = core.skip_stats();
    acc.simulate_ms += simulate_ms;
    acc.ticked_cycles += ticked;
    acc.measured_cycles += spec.measure;
    acc.committed += per_thread.iter().sum::<u64>();
    acc.l1d_misses += misses(core.hierarchy().l1d_stats(), &l1d0);
    acc.l2_misses += misses(core.hierarchy().l2_stats(), &l20);
    acc.thread_cycles += threads as u64 * ticked;
    acc.skipped_cycles += skip.skipped_cycles - skip0.skipped_cycles;
    acc.parked_thread_cycles += skip.parked_thread_cycles - skip0.parked_thread_cycles;
    acc.spans += skip.spans - skip0.spans;
    acc.park_jumps += skip.park_jumps - skip0.park_jumps;
    acc.probe_mismatches += skip.probe_mismatches - skip0.probe_mismatches;
    acc.park_aborts += skip.park_aborts - skip0.park_aborts;
    fingerprint(spec.measure, &per_thread)
}

/// One run through every span, then again with cycle skipping off: the
/// serial replay of a campaign worker. Returns the skip-on fingerprint;
/// a skip-off fingerprint that differs is an error.
pub fn traced_run(
    spec: &RunSpec,
    scratch: &mut WorkerScratch,
    acc: &mut Layers,
) -> Result<String, String> {
    let (cfg, programs) = build(spec, scratch, acc)?;
    let on = simulate(spec, 0, construct(&cfg, &programs, Some(acc)), true, acc);
    let off = simulate(spec, 0, construct(&cfg, &programs, None), false, acc);
    if on != off {
        return Err(format!(
            "{}: skip-off fingerprint {off} differs from skip-on {on}",
            spec.label()
        ));
    }
    Ok(on)
}
