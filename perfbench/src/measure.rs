//! Measurement plumbing shared by every workload: order statistics over
//! repetition samples, the correctness gate, the metric sink, peak RSS,
//! and the benchmark's private scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`.
///
/// # Panics
///
/// Panics on an empty sample: every metric has at least one repetition.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Gate {
    /// Counts one operation; a `Some` reason marks it failed.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.fail(reason);
        }
    }

    /// Marks one already-counted operation failed.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }

    /// Failure reasons recorded so far (at most 20).
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Ordered `(name, value, unit)` metrics for the result line.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as one JSON object; non-finite values become `null`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_owned()
                };
                format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak resident set of this process in MB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A scratch directory under the working directory, removed on drop.
pub struct ScratchDir {
    root: PathBuf,
    next: usize,
}

impl ScratchDir {
    /// Creates `.bench_scratch-<pid>` in the working directory.
    pub fn create() -> std::io::Result<Self> {
        let root = PathBuf::from(format!(".bench_scratch-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(ScratchDir { root, next: 0 })
    }

    /// A fresh, not-yet-existing path for one journal directory.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }

    /// Removes a journal directory once its repetition is checked.
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("kips", 812.5, "kIPS");
        m.put("bad", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            r#"{"kips": {"value": 812.5, "unit": "kIPS"}, "bad": {"value": null, "unit": "s"}}"#
        );
    }
}
