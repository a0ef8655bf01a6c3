//! Post-warm-up state: what [`Core::warm_caches`] followed by
//! [`Core::warm_functional`] leaves behind — the cache hierarchy, each
//! thread's branch predictor, and each thread's trace position.
//!
//! Warming depends only on the hierarchy and predictor configuration, the
//! per-thread programs, and the warm-up length. The paper's design points
//! share one hierarchy and one predictor (Table I), so every design run on
//! a mix starts from the same warmed structures: a [`WarmState`] is built
//! once and cloned into each [`Core`] via [`Core::from_warm`].
//!
//! [`Core`]: crate::Core
//! [`Core::warm_caches`]: crate::Core::warm_caches
//! [`Core::warm_functional`]: crate::Core::warm_functional
//! [`Core::from_warm`]: crate::Core::from_warm

use crate::config::CoreConfig;
use shelfsim_mem::{Hierarchy, HierarchyConfig};
use shelfsim_uarch::{BranchPredictor, BranchPredictorConfig, PredictorKind};
use shelfsim_workload::{Program, TraceSource};

/// The warmed structures of one mix on one hierarchy and predictor.
///
/// Built by [`WarmState::build`] (as [`crate::Simulation::from_programs`]
/// does for every simulation) and installed by cloning; cloning is exact,
/// so a core built from a clone behaves bit-identically to one warmed from
/// scratch.
#[derive(Clone, Debug)]
pub struct WarmState {
    hierarchy_cfg: HierarchyConfig,
    predictor: PredictorKind,
    warmup: u64,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) bpreds: Vec<BranchPredictor>,
    pub(crate) traces: Vec<TraceSource>,
}

impl WarmState {
    /// Warms `programs` (one per hardware thread, in thread order) on
    /// `cfg`'s hierarchy and predictor: [`Core::warm_caches`], then
    /// `warmup` instructions per thread of [`Core::warm_functional`].
    ///
    /// [`Core::warm_caches`]: crate::Core::warm_caches
    /// [`Core::warm_functional`]: crate::Core::warm_functional
    ///
    /// # Panics
    ///
    /// Panics if a program fails [`Program::validate`].
    pub fn build(cfg: &CoreConfig, programs: Vec<Program>, warmup: u64) -> Self {
        let traces: Vec<TraceSource> = programs
            .into_iter()
            .enumerate()
            .map(|(t, p)| TraceSource::new(p, t))
            .collect();
        let mut state = WarmState {
            hierarchy_cfg: cfg.hierarchy,
            predictor: cfg.predictor,
            warmup,
            hierarchy: Hierarchy::new(cfg.hierarchy),
            bpreds: traces.iter().map(|_| cold_predictor(cfg)).collect(),
            traces,
        };
        let block = cfg.hierarchy.l1d.block_bytes as u64;
        for trace in &state.traces {
            warm_caches(&mut state.hierarchy, block, trace);
        }
        for (trace, bpred) in state.traces.iter_mut().zip(&mut state.bpreds) {
            warm_functional(&mut state.hierarchy, trace, bpred, warmup);
        }
        state
    }

    /// Whether this state is exactly what [`WarmState::build`] would
    /// produce for `cfg`, `programs` (in thread order) and `warmup`.
    pub fn matches<'a>(
        &self,
        cfg: &CoreConfig,
        programs: impl IntoIterator<Item = &'a Program>,
        warmup: u64,
    ) -> bool {
        let mut n = 0;
        for p in programs {
            if self.traces.get(n).is_none_or(|t| t.program() != p) {
                return false;
            }
            n += 1;
        }
        n == self.traces.len() && self.fits(cfg) && self.warmup == warmup
    }

    /// Whether a core configured by `cfg` can run on this state: same
    /// hierarchy, same predictor, same thread count.
    pub(crate) fn fits(&self, cfg: &CoreConfig) -> bool {
        self.hierarchy_cfg == cfg.hierarchy
            && self.predictor == cfg.predictor
            && self.traces.len() == cfg.threads
    }
}

/// A cold branch predictor of `cfg`'s organization.
pub(crate) fn cold_predictor(cfg: &CoreConfig) -> BranchPredictor {
    BranchPredictor::new(BranchPredictorConfig {
        kind: cfg.predictor,
        ..BranchPredictorConfig::default()
    })
}

/// Warms `hierarchy` with one thread's code and data footprint: the
/// L2-resident data region, then code, then the L1-resident data region,
/// leaving a realistic steady-state residency.
pub(crate) fn warm_caches(hierarchy: &mut Hierarchy, block: u64, trace: &TraceSource) {
    let (code_start, code_end) = trace.code_range();
    let [(l1s, l1e), (l2s, l2e), _] = trace.data_region_ranges();
    let mut a = l2s;
    while a < l2e {
        hierarchy.warm_data(a);
        a += block;
    }
    let mut a = code_start;
    while a < code_end {
        hierarchy.warm_inst(a);
        a += block;
    }
    // L1-resident region last so it stays L1-resident.
    let mut a = l1s;
    while a < l1e {
        hierarchy.warm_data(a);
        a += block;
    }
}

/// Functionally fast-forwards one thread by `insts` instructions, training
/// its branch predictor and warming the caches without timing. The
/// instructions are not kept for replay: the timed run can never rewind
/// into the warm-up.
pub(crate) fn warm_functional(
    hierarchy: &mut Hierarchy,
    trace: &mut TraceSource,
    bpred: &mut BranchPredictor,
    insts: u64,
) {
    for _ in 0..insts {
        let (_, inst) = trace.fetch_unbuffered();
        hierarchy.warm_inst(inst.pc);
        if let Some(mem) = inst.mem {
            hierarchy.warm_data(mem.addr);
        }
        if let Some(br) = inst.branch {
            let pred = bpred.predict(inst.pc, br.is_return);
            bpred.update(
                inst.pc,
                pred,
                br.taken,
                br.next_pc,
                br.is_call,
                br.is_return,
                inst.pc + 4,
            );
        }
    }
}
