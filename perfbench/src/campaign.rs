//! The campaign layer over a workload's runs: cold `run_campaign` at one
//! and two workers on fresh journals, shard merge, Pareto scoring, and a
//! cached replay that must be served wholly from the journal.

use crate::measure::{median, ms_since, Gate, Metrics, ScratchDir};
use shelfsim::campaign::{JournalEntry, RunStatus};
use shelfsim::{
    pareto_report, run_campaign, CampaignReport, CampaignSpec, ResultCache, RunSpec, ShardedJournal,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Committed instructions per run key: the per-run fingerprint a
/// campaign is checked against.
pub type Committed = BTreeMap<String, u64>;

/// Counts every record of `report` as one operation. A run fails unless
/// it completed `ok` with the committed count `expect` holds for its key
/// (when `expect` knows the key). Returns the committed count per key.
pub fn check_report(report: &CampaignReport, expect: &Committed, gate: &mut Gate) -> Committed {
    let mut got = Committed::new();
    for rec in &report.records {
        let key = rec.spec.key();
        let failure = match (&rec.status, &rec.outcome) {
            (RunStatus::Ok, Some(out)) => {
                got.insert(key.clone(), out.committed);
                match expect.get(&key) {
                    Some(&want) if want != out.committed => Some(format!(
                        "{}: committed {} != expected {want}",
                        rec.spec.label(),
                        out.committed
                    )),
                    _ => None,
                }
            }
            (status, _) => Some(format!(
                "{}: run ended {}",
                rec.spec.label(),
                status.as_str()
            )),
        };
        gate.op(failure);
    }
    got
}

/// Runs `runs` cold with `workers` pool workers into the fresh journal
/// directory `dir`; returns the report and its wall time in ms.
pub fn cold_run(
    runs: &[RunSpec],
    workers: usize,
    dir: &Path,
) -> std::io::Result<(CampaignReport, f64)> {
    let spec = CampaignSpec::new(runs.to_vec())
        .with_workers(workers)
        .with_journal_dir(dir);
    let t = Instant::now();
    let report = run_campaign(&spec)?;
    Ok((report, ms_since(t)))
}

/// The Pareto frontier of a merged journal as a sorted
/// `design/threads` list.
pub fn frontier(merged: &BTreeMap<String, JournalEntry>) -> String {
    let report = pareto_report(merged, 2);
    let mut points: Vec<String> = report
        .frontier()
        .iter()
        .map(|p| format!("{}/{}", p.design, p.threads))
        .collect();
    points.sort();
    points.join(",")
}

/// One traced repetition of the campaign layer.
#[derive(Clone, Debug, Default)]
pub struct CampaignSample {
    pub expand_ms: f64,
    pub wall_1w_ms: f64,
    pub wall_2w_ms: f64,
    pub merge_ms: f64,
    pub pareto_ms: f64,
    pub cache_load_ms: f64,
    pub admit_ms: f64,
    pub replay_ms: f64,
    pub replay_hit_rate: f64,
    /// Serial layer spans of the same runs (from the traced replay).
    pub serial_span_ms: f64,
}

impl CampaignSample {
    /// Runs the campaign layer over `runs`, checking every run against
    /// `expect`. Returns the sample and the 2-worker merged journal.
    pub fn measure(
        runs: &[RunSpec],
        expand_ms: f64,
        expect: &Committed,
        dirs: &mut ScratchDir,
        gate: &mut Gate,
    ) -> std::io::Result<(Self, BTreeMap<String, JournalEntry>)> {
        let mut s = CampaignSample {
            expand_ms,
            ..Self::default()
        };
        let dir1 = dirs.fresh("campaign-1w");
        let (report, wall) = cold_run(runs, 1, &dir1)?;
        s.wall_1w_ms = wall;
        check_report(&report, expect, gate);
        dirs.discard(&dir1);

        let dir2 = dirs.fresh("campaign-2w");
        let (report, wall) = cold_run(runs, 2, &dir2)?;
        s.wall_2w_ms = wall;
        check_report(&report, expect, gate);

        let journal = ShardedJournal::new(&dir2);
        let t = Instant::now();
        let merged = journal.load_merged()?;
        s.merge_ms = ms_since(t);
        let t = Instant::now();
        let _ = pareto_report(&merged, 2);
        s.pareto_ms = ms_since(t);

        let t = Instant::now();
        let cache = ResultCache::load(Some(&journal), None)?;
        s.cache_load_ms = ms_since(t);
        let t = Instant::now();
        let admission = cache.admit(runs);
        s.admit_ms = ms_since(t);
        let (replay, wall) = cold_run(runs, 2, &dir2)?;
        s.replay_ms = wall;
        s.replay_hit_rate = admission
            .hit_rate()
            .min(replay.resumed as f64 / runs.len() as f64);
        gate.op((s.replay_hit_rate < 1.0).then(|| {
            format!(
                "cached replay hit rate {} below 1 ({} of {} resumed)",
                s.replay_hit_rate,
                replay.resumed,
                runs.len()
            )
        }));
        dirs.discard(&dir2);
        Ok((s, merged))
    }

    /// Records the medians over repetitions of every campaign metric.
    pub fn put_medians(reps: &[CampaignSample], m: &mut Metrics) {
        let med =
            |f: &dyn Fn(&CampaignSample) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        m.put("campaign.expand_ms", med(&|s| s.expand_ms), "ms");
        m.put(
            "campaign.pool_speedup",
            med(&|s| s.wall_1w_ms / s.wall_2w_ms),
            "ratio",
        );
        m.put(
            "campaign.unaccounted_ms",
            med(&|s| s.wall_1w_ms - s.serial_span_ms),
            "ms",
        );
        m.put("campaign.cache_load_ms", med(&|s| s.cache_load_ms), "ms");
        m.put("campaign.admit_ms", med(&|s| s.admit_ms), "ms");
        m.put("campaign.merge_ms", med(&|s| s.merge_ms), "ms");
        m.put("campaign.pareto_ms", med(&|s| s.pareto_ms), "ms");
        m.put("campaign.replay_ms", med(&|s| s.replay_ms), "ms");
        m.put(
            "campaign.replay_hit_rate",
            med(&|s| s.replay_hit_rate),
            "ratio",
        );
    }
}
