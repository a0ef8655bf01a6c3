//! Warm-state reuse is an execution strategy, not a model change. A
//! simulation started from a warmed state built once, on another design
//! point, must be bit-identical to one warmed from scratch by
//! `Simulation::from_programs`; and a sweep whose workers reuse warmed
//! state across a mix's design points must give every run the results of a
//! fresh single run, also when a group-mate panics.

use shelfsim::analyze::{design_by_name, DESIGN_NAMES};
use shelfsim::campaign::{dispatch_order, warm_groups, RunStatus, StealQueues, WorkerScratch};
use shelfsim::core::sim::DEFAULT_FUNCTIONAL_WARMUP;
use shelfsim::core::{thread_program_seed, CommitEvent, Core, Counters, WarmState};
use shelfsim::mem::CacheStats;
use shelfsim::workload::{suite, Program, TraceSource};
use shelfsim::{run_campaign, CampaignSpec, FaultKind, FaultPlan, RunSpec, Simulation};

const MIX: [&str; 4] = ["gcc", "mcf", "hmmer", "lbm"];
const SEED: u64 = 7;
const WARMUP: u64 = 500;
const MEASURE: u64 = 3_000;

fn programs(threads: usize) -> Vec<(String, Program)> {
    MIX[..threads]
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let profile = suite::by_name(name).expect("suite benchmark");
            let program = profile.build_program(thread_program_seed(SEED, t));
            ((*name).to_owned(), program)
        })
        .collect()
}

/// Everything a run reports that the warm-up could perturb.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    counters: Counters,
    committed: Vec<u64>,
    /// FNV-1a over the whole commit stream (warm-up and measured window).
    fingerprint: u64,
    caches: [CacheStats; 3],
    /// Per-thread `(lookups, mispredicts)` over the whole run.
    bpred: Vec<(u64, u64)>,
}

fn fingerprint(events: &[CommitEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in events {
        for word in [ev.thread as u64, ev.seq, ev.inst.pc, ev.cycle] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn observe(mut sim: Simulation, skipping: bool) -> Observed {
    sim.set_cycle_skipping(skipping);
    sim.enable_commit_observer();
    let r = sim.run(WARMUP, MEASURE);
    let mut events: Vec<CommitEvent> = Vec::new();
    sim.drain_commit_events(&mut events);
    Observed {
        cycles: r.cycles,
        counters: r.counters.clone(),
        committed: r.threads.iter().map(|t| t.committed).collect(),
        fingerprint: fingerprint(&events),
        caches: [r.l1i, r.l1d, r.l2],
        bpred: (0..r.threads.len())
            .map(|t| sim.core().bpred_counts(t))
            .collect(),
    }
}

/// The same observation straight from a core, over its whole run.
fn observe_core(mut core: Core, skipping: bool) -> Observed {
    core.set_cycle_skipping(skipping);
    core.enable_commit_observer();
    core.tick_bounded(WARMUP + MEASURE);
    let mut events: Vec<CommitEvent> = Vec::new();
    core.drain_commit_events(&mut events);
    let threads = core.config().threads;
    let h = core.hierarchy();
    Observed {
        cycles: WARMUP + MEASURE,
        counters: core.counters.clone(),
        committed: (0..threads).map(|t| core.committed(t)).collect(),
        fingerprint: fingerprint(&events),
        caches: [*h.l1i_stats(), *h.l1d_stats(), *h.l2_stats()],
        bpred: (0..threads).map(|t| core.bpred_counts(t)).collect(),
    }
}

/// Installing a warm state built on another design gives the core that
/// warming a new one in place (`Core::new`, `warm_caches`,
/// `warm_functional`) gives — the path `Simulation::from_programs` took
/// before warm states existed.
#[test]
fn installed_warm_state_equals_warming_a_new_core() {
    for design in DESIGN_NAMES {
        for threads in [1, 2, 4] {
            let bare: Vec<Program> = programs(threads).into_iter().map(|(_, p)| p).collect();
            let cfg = design_by_name(design, threads).expect("design");
            let donor = design_by_name("base64", threads).expect("design");
            let warm = WarmState::build(&donor, bare.clone(), DEFAULT_FUNCTIONAL_WARMUP);
            for skipping in [true, false] {
                let traces = bare
                    .iter()
                    .enumerate()
                    .map(|(t, p)| TraceSource::new(p.clone(), t))
                    .collect();
                let mut manual = Core::new(cfg.clone(), traces);
                manual.warm_caches();
                manual.warm_functional(DEFAULT_FUNCTIONAL_WARMUP);
                let installed = Core::from_warm(cfg.clone(), warm.clone());
                assert_eq!(
                    observe_core(installed, skipping),
                    observe_core(manual, skipping),
                    "{design}/{threads}t skipping={skipping}"
                );
            }
        }
    }
}

/// One design at 1, 2 and 4 threads, skipping on and off: the state is
/// warmed once on `base64` and cloned into the design under test.
fn reused_state_matches_from_programs(design: &str) {
    for threads in [1, 2, 4] {
        let progs = programs(threads);
        let bare: Vec<Program> = progs.iter().map(|(_, p)| p.clone()).collect();
        let names: Vec<String> = progs.iter().map(|(n, _)| n.clone()).collect();
        let donor = design_by_name("base64", threads).expect("design");
        let warm = WarmState::build(&donor, bare.clone(), DEFAULT_FUNCTIONAL_WARMUP);
        let cfg = design_by_name(design, threads).expect("design");
        assert!(
            warm.matches(&cfg, &bare, DEFAULT_FUNCTIONAL_WARMUP),
            "{design}/{threads}t must share base64's hierarchy and predictor"
        );
        for skipping in [true, false] {
            let fresh = Simulation::from_programs(cfg.clone(), progs.clone(), SEED);
            let reused = Simulation::from_warm(cfg.clone(), names.clone(), warm.clone(), SEED);
            assert_eq!(
                observe(reused, skipping),
                observe(fresh, skipping),
                "{design}/{threads}t skipping={skipping}: reused warm state diverged"
            );
        }
    }
}

#[test]
fn reused_warm_state_is_bit_identical_on_every_design() {
    for design in DESIGN_NAMES {
        reused_state_matches_from_programs(design);
    }
}

#[test]
fn warm_state_keys_on_programs_hierarchy_predictor_and_length() {
    let progs: Vec<Program> = programs(2).into_iter().map(|(_, p)| p).collect();
    let cfg = design_by_name("shelf-opt", 2).expect("design");
    let warm = WarmState::build(&cfg, progs.clone(), 1_000);
    assert!(warm.matches(&cfg, &progs, 1_000));
    assert!(!warm.matches(&cfg, &progs, 2_000), "warm-up length");
    let swapped = [progs[1].clone(), progs[0].clone()];
    assert!(!warm.matches(&cfg, &swapped, 1_000), "thread order");
    assert!(!warm.matches(&cfg, &progs[..1], 1_000), "thread count");
    let mut other = cfg.clone();
    other.hierarchy.memory_latency += 1;
    assert!(!warm.matches(&other, &progs, 1_000), "hierarchy");
    let mut other = cfg.clone();
    other.predictor = match cfg.predictor {
        shelfsim::uarch::PredictorKind::Gshare => shelfsim::uarch::PredictorKind::Bimodal,
        _ => shelfsim::uarch::PredictorKind::Gshare,
    };
    assert!(!warm.matches(&other, &progs, 1_000), "predictor");
}

#[test]
#[should_panic(expected = "warm state built for a different hierarchy")]
fn installing_a_mismatched_warm_state_panics() {
    let progs = programs(2);
    let bare: Vec<Program> = progs.iter().map(|(_, p)| p.clone()).collect();
    let cfg = design_by_name("base64", 2).expect("design");
    let warm = WarmState::build(&cfg, bare, 100);
    let mut other = cfg;
    other.hierarchy.memory_latency += 1;
    let names = progs.into_iter().map(|(n, _)| n).collect();
    let _ = Simulation::from_warm(other, names, warm, SEED);
}

fn matrix() -> Vec<RunSpec> {
    let mixes: Vec<Vec<String>> = [["gcc", "mcf"], ["hmmer", "lbm"]]
        .iter()
        .map(|m| m.iter().map(|b| (*b).to_owned()).collect())
        .collect();
    let designs: Vec<String> = ["base64", "shelf-opt", "base128"]
        .iter()
        .map(|d| (*d).to_owned())
        .collect();
    CampaignSpec::matrix(&designs, &mixes, SEED, 300, 2_000)
}

/// The outcome of `spec` run alone on a fresh worker.
fn fresh_outcome(spec: &RunSpec) -> shelfsim::campaign::RunOutcome {
    let report =
        run_campaign(&CampaignSpec::new(vec![spec.clone()]).with_workers(1)).expect("single run");
    report.records[0]
        .outcome
        .clone()
        .expect("fresh run completes")
}

#[test]
fn panicking_group_mate_leaves_the_others_identical_to_fresh_runs() {
    let runs = matrix();
    // Within each mix group, runs go in index order: put a persistent
    // panic on the middle run of one group and a transient panic on the
    // first run of the other.
    let spec = CampaignSpec::new(runs.clone());
    let order = dispatch_order(&spec, (0..runs.len()).collect());
    let groups = warm_groups(&runs, &order);
    assert_eq!(groups.len(), 2, "one warm group per mix");
    let (persistent, transient) = (groups[0][1], groups[1][0]);
    let faults = FaultPlan::new()
        .inject(persistent, FaultKind::Panic, u32::MAX)
        .inject(transient, FaultKind::Panic, 1);
    for workers in [1, 2] {
        let report = run_campaign(
            &CampaignSpec::new(runs.clone())
                .with_workers(workers)
                .with_faults(faults.clone()),
        )
        .expect("campaign");
        for record in &report.records {
            let i = record.spec.index;
            if i == persistent {
                assert_eq!(record.status, RunStatus::Quarantined);
                continue;
            }
            assert_eq!(record.status, RunStatus::Ok, "run #{i}");
            assert_eq!(
                record.outcome.as_ref(),
                Some(&fresh_outcome(&record.spec)),
                "run #{i} ({workers} workers) differs from a fresh single run"
            );
        }
    }
}

#[test]
fn worker_scratch_warms_each_mix_once_in_dispatch_order() {
    let runs = matrix();
    let spec = CampaignSpec::new(runs.clone());
    let mut scratch = WorkerScratch::new();
    for i in dispatch_order(&spec, (0..runs.len()).collect()) {
        let r = &runs[i];
        let cfg = r.resolved_config().expect("design");
        scratch.simulation(r, cfg).expect("suite mix");
    }
    assert_eq!(scratch.warm_builds, 2, "one warm-up per mix");
    assert_eq!(scratch.warm_hits, runs.len() - 2);

    // Index order alternates mixes (designs outer), so a one-entry memo
    // never hits: grouping is what makes reuse possible.
    let mut scratch = WorkerScratch::new();
    for r in &runs {
        let cfg = r.resolved_config().expect("design");
        scratch.simulation(r, cfg).expect("suite mix");
    }
    assert_eq!(scratch.warm_builds, runs.len());
}

#[test]
fn single_file_journal_keeps_index_order() {
    let runs = matrix();
    let all: Vec<usize> = (0..runs.len()).collect();
    let path = std::env::temp_dir().join("shelfsim_warm_reuse_order.jsonl");
    let journaled = CampaignSpec::new(runs.clone()).with_journal(&path);
    assert_eq!(dispatch_order(&journaled, all.clone()), all);

    let grouped = dispatch_order(&CampaignSpec::new(runs.clone()), all);
    let mut keys: Vec<(Vec<String>, u64, usize)> = grouped
        .iter()
        .map(|&i| (runs[i].mix.clone(), runs[i].seed, i))
        .collect();
    let sorted = {
        let mut k = keys.clone();
        k.sort();
        k
    };
    assert_eq!(keys, sorted, "grouped by (mix, seed), ties by index");
    keys.dedup_by(|a, b| (&a.0, a.1) == (&b.0, b.1));
    assert_eq!(keys.len(), 2);

    // The pool starts from contiguous shards of exactly this order.
    let deques = StealQueues::new(grouped.clone(), 2).deques();
    assert_eq!(deques.concat(), grouped);
}
