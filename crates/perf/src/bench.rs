//! One bench-result schema for every `sia bench` family, plus the
//! noise-aware baseline checker behind `--check-baseline`.
//!
//! Methodology (shared by gemm/conv/eval): discard `warmup` iterations,
//! report the **min** of the measured iterations (the least-noise point
//! estimate on a time-shared host), and carry median + MAD so the checker
//! can widen its threshold on noisy cases instead of using one global
//! fudge factor. A case regresses when
//! `current_min > baseline_min × (1 + rel_slack + mad_k × MAD/median)`.

use sia_telemetry::json::{parse, write_escaped, write_f64, Json};
use std::fmt::Write as _;

/// The machine a bench ran on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical CPUs (hardware threads) visible to the process.
    pub logical_cpus: usize,
    /// Physical cores (unique `(physical id, core id)` pairs from
    /// `/proc/cpuinfo`; falls back to the logical count elsewhere).
    pub physical_cpus: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl HostInfo {
    /// Detects the current host. Never fails: unknown values degrade to
    /// `1` / the logical count.
    #[must_use]
    pub fn detect() -> Self {
        let logical = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let physical = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| physical_cores_from_cpuinfo(&text))
            .unwrap_or(logical);
        HostInfo {
            logical_cpus: logical,
            physical_cpus: physical,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// Counts physical cores in `/proc/cpuinfo` text: unique
/// `(physical id, core id)` pairs, or the `processor` count when the
/// topology fields are absent (common in VMs). `None` on empty input.
#[must_use]
pub fn physical_cores_from_cpuinfo(text: &str) -> Option<usize> {
    let mut pairs = std::collections::BTreeSet::new();
    let mut processors = 0usize;
    let (mut phys, mut core) = (None::<u64>, None::<u64>);
    let mut flush = |phys: &mut Option<u64>, core: &mut Option<u64>| {
        if let (Some(p), Some(c)) = (*phys, *core) {
            pairs.insert((p, c));
        }
        *phys = None;
        *core = None;
    };
    for line in text.lines() {
        let mut split = line.splitn(2, ':');
        let key = split.next().unwrap_or("").trim();
        let value = split.next().unwrap_or("").trim();
        match key {
            "processor" => {
                flush(&mut phys, &mut core);
                processors += 1;
            }
            "physical id" => phys = value.parse().ok(),
            "core id" => core = value.parse().ok(),
            _ => {}
        }
    }
    flush(&mut phys, &mut core);
    if !pairs.is_empty() {
        Some(pairs.len())
    } else if processors > 0 {
        Some(processors)
    } else {
        None
    }
}

/// Where a bench result came from. The baseline checker ignores it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Commit of the source checkout, `-dirty` when it carried
    /// uncommitted changes ([`git_commit`]).
    pub git_commit: String,
    /// The command that ran the bench, program name first.
    pub command_line: Vec<String>,
}

impl Provenance {
    /// This process's provenance.
    #[must_use]
    pub fn detect() -> Self {
        Provenance {
            git_commit: git_commit(),
            command_line: std::env::args().collect(),
        }
    }
}

/// The HEAD commit of the checkout this crate was built from when it is a
/// git work tree, else `unknown`. As `git describe --dirty` does, it gets a
/// `-dirty` suffix when `git status` reports uncommitted changes to tracked
/// files, so a result recorded before its change is committed does not
/// name the parent's code as its own. HEAD is read from `.git` directly;
/// without a `git` program the suffix cannot be detected and is left off.
#[must_use]
pub fn git_commit() -> String {
    let head = git_head();
    let dirty = head != "unknown"
        && std::process::Command::new("git")
            .args(["-C", concat!(env!("CARGO_MANIFEST_DIR"), "/../..")])
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output()
            .is_ok_and(|o| o.status.success() && !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

fn git_head() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Noise statistics of one bench case.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Case label, unique within the bench (`"256x256x256"`, `"d10"`, …).
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: u64,
    /// Discarded warmup iterations.
    pub warmup: u64,
    /// Fastest timed iteration, in ns — the comparison point.
    pub min_ns: u64,
    /// Median iteration, in ns.
    pub median_ns: u64,
    /// Median absolute deviation, in ns — the noise scale.
    pub mad_ns: u64,
    /// Free-form derived metrics (`gflops`, `images_per_s`, …).
    pub metrics: Vec<(String, f64)>,
}

/// A complete bench run: what `sia bench` writes and baselines store.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Bench family (`"gemm"`, `"conv"`, `"eval"`).
    pub bench: String,
    /// Host the run executed on.
    pub host: HostInfo,
    /// Commit and command line of the run.
    pub provenance: Provenance,
    /// Worker threads the bench used.
    pub threads: usize,
    /// Per-case statistics.
    pub cases: Vec<BenchCase>,
}

/// Min/median/MAD of post-warmup samples. Empty input yields zeros.
#[must_use]
pub fn summarize_ns(samples: &[u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mut dev: Vec<u64> = sorted.iter().map(|&s| s.abs_diff(median)).collect();
    dev.sort_unstable();
    (min, median, dev[dev.len() / 2])
}

impl BenchReport {
    /// Serialises to the bench JSON schema (pretty, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": ");
        write_escaped(&mut out, &self.bench);
        let _ = write!(
            out,
            ",\n  \"schema\": 1,\n  \"host\": {{\"logical_cpus\": {}, \"physical_cpus\": {}, \
             \"os\": ",
            self.host.logical_cpus, self.host.physical_cpus
        );
        write_escaped(&mut out, &self.host.os);
        out.push_str(", \"arch\": ");
        write_escaped(&mut out, &self.host.arch);
        out.push_str("},\n  \"git_commit\": ");
        write_escaped(&mut out, &self.provenance.git_commit);
        out.push_str(",\n  \"command_line\": [");
        for (i, arg) in self.provenance.command_line.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_escaped(&mut out, arg);
        }
        let _ = write!(out, "],\n  \"threads\": {},\n  \"cases\": [", self.threads);
        for (i, case) in self.cases.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            write_escaped(&mut out, &case.name);
            let _ = write!(
                out,
                ", \"iters\": {}, \"warmup\": {}, \"min_ns\": {}, \"median_ns\": {}, \
                 \"mad_ns\": {}",
                case.iters, case.warmup, case.min_ns, case.median_ns, case.mad_ns
            );
            for (key, value) in &case.metrics {
                out.push_str(", ");
                write_escaped(&mut out, key);
                out.push_str(": ");
                write_f64(&mut out, *value);
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a report from bench JSON.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming what is malformed or missing.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = parse(text.trim()).map_err(|e| format!("bad bench JSON: {e}"))?;
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("bench JSON missing `bench` name")?
            .to_string();
        let host = doc.get("host").map_or_else(
            || HostInfo {
                logical_cpus: 1,
                physical_cpus: 1,
                os: String::new(),
                arch: String::new(),
            },
            |h| HostInfo {
                logical_cpus: h.get("logical_cpus").and_then(Json::as_u64).unwrap_or(1) as usize,
                physical_cpus: h.get("physical_cpus").and_then(Json::as_u64).unwrap_or(1) as usize,
                os: h.get("os").and_then(Json::as_str).unwrap_or("").to_string(),
                arch: h
                    .get("arch")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            },
        );
        let provenance = Provenance {
            git_commit: doc
                .get("git_commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            command_line: match doc.get("command_line") {
                Some(Json::Arr(args)) => args
                    .iter()
                    .filter_map(|a| a.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            },
        };
        let threads = doc.get("threads").and_then(Json::as_u64).unwrap_or(1) as usize;
        let Some(Json::Arr(raw_cases)) = doc.get("cases") else {
            return Err("bench JSON missing `cases` array".to_string());
        };
        let mut cases = Vec::with_capacity(raw_cases.len());
        for (i, c) in raw_cases.iter().enumerate() {
            let name = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("case {i} missing `name`"))?
                .to_string();
            let u = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
            let mut metrics = Vec::new();
            if let Json::Obj(map) = c {
                for (k, v) in map {
                    let known = matches!(
                        k.as_str(),
                        "name" | "iters" | "warmup" | "min_ns" | "median_ns" | "mad_ns"
                    );
                    if !known {
                        if let Some(f) = v.as_f64() {
                            metrics.push((k.clone(), f));
                        }
                    }
                }
            }
            cases.push(BenchCase {
                name,
                iters: u("iters"),
                warmup: u("warmup"),
                min_ns: u("min_ns"),
                median_ns: u("median_ns"),
                mad_ns: u("mad_ns"),
                metrics,
            });
        }
        Ok(BenchReport {
            bench,
            host,
            provenance,
            threads,
            cases,
        })
    }
}

/// Regression threshold parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Threshold {
    /// Flat relative slack every case gets (0.25 = 25 %).
    pub rel_slack: f64,
    /// MAD multiplier: noisy cases (large MAD/median in the *baseline*)
    /// get proportionally more headroom.
    pub mad_k: f64,
}

impl Default for Threshold {
    fn default() -> Self {
        Threshold {
            rel_slack: 0.25,
            mad_k: 4.0,
        }
    }
}

impl Threshold {
    /// Slowest acceptable `min_ns` for a case with this baseline.
    #[must_use]
    pub fn allowed_ns(&self, baseline: &BenchCase) -> u64 {
        let noise = if baseline.median_ns == 0 {
            0.0
        } else {
            baseline.mad_ns as f64 / baseline.median_ns as f64
        };
        let factor = 1.0 + self.rel_slack + self.mad_k * noise;
        (baseline.min_ns as f64 * factor).ceil() as u64
    }
}

/// One case's comparison against its baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseDiff {
    /// Case name.
    pub name: String,
    /// Baseline `min_ns`.
    pub baseline_ns: u64,
    /// Current `min_ns`.
    pub current_ns: u64,
    /// Threshold the current value was held to.
    pub allowed_ns: u64,
    /// Whether this case regressed.
    pub regressed: bool,
}

impl CaseDiff {
    /// Current over baseline (1.0 = unchanged; >1 = slower).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns == 0 {
            return 1.0;
        }
        self.current_ns as f64 / self.baseline_ns as f64
    }
}

/// Result of one `--check-baseline` comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckOutcome {
    /// Per-case diffs, baseline order.
    pub diffs: Vec<CaseDiff>,
    /// Baseline cases absent from the current run (a failure: coverage
    /// silently shrank).
    pub missing: Vec<String>,
    /// Current cases absent from the baseline (informational).
    pub new_cases: Vec<String>,
}

impl CheckOutcome {
    /// Whether the run is acceptable: nothing regressed, nothing missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.diffs.iter().all(|d| !d.regressed)
    }

    /// Human-readable comparison table, one line per case.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>12} {:>7}  verdict",
            "case", "baseline(ns)", "current(ns)", "allowed(ns)", "ratio"
        );
        for d in &self.diffs {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>12} {:>12} {:>6.2}x  {}",
                d.name,
                d.baseline_ns,
                d.current_ns,
                d.allowed_ns,
                d.ratio(),
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "{name:<18} MISSING from current run");
        }
        for name in &self.new_cases {
            let _ = writeln!(out, "{name:<18} new case (no baseline)");
        }
        out
    }
}

/// Compares a current run against its baseline.
#[must_use]
pub fn check_against_baseline(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold: Threshold,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for base in &baseline.cases {
        match current.cases.iter().find(|c| c.name == base.name) {
            Some(cur) => {
                let allowed = threshold.allowed_ns(base);
                outcome.diffs.push(CaseDiff {
                    name: base.name.clone(),
                    baseline_ns: base.min_ns,
                    current_ns: cur.min_ns,
                    allowed_ns: allowed,
                    regressed: cur.min_ns > allowed,
                });
            }
            None => outcome.missing.push(base.name.clone()),
        }
    }
    for cur in &current.cases {
        if !baseline.cases.iter().any(|b| b.name == cur.name) {
            outcome.new_cases.push(cur.name.clone());
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, min: u64, median: u64, mad: u64) -> BenchCase {
        BenchCase {
            name: name.into(),
            iters: 10,
            warmup: 3,
            min_ns: min,
            median_ns: median,
            mad_ns: mad,
            metrics: vec![("gflops".into(), 1.5)],
        }
    }

    fn report(cases: Vec<BenchCase>) -> BenchReport {
        BenchReport {
            bench: "gemm".into(),
            host: HostInfo {
                logical_cpus: 4,
                physical_cpus: 2,
                os: "linux".into(),
                arch: "x86_64".into(),
            },
            provenance: Provenance {
                git_commit: "0123abc".into(),
                command_line: vec![
                    "sia".into(),
                    "bench".into(),
                    "--out".into(),
                    "a \"b\"".into(),
                ],
            },
            threads: 4,
            cases,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report(vec![case("a", 100, 120, 5), case("b\"x", 9, 9, 0)]);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.host.logical_cpus, 4);
        assert_eq!(back.host.physical_cpus, 2);
        assert_eq!(back.cases[0].metrics, vec![("gflops".to_string(), 1.5)]);
    }

    #[test]
    fn provenance_is_optional_and_never_gated() {
        // A report without provenance (an older baseline) parses with an
        // unknown commit, and the checker compares cases only.
        let r = report(vec![case("a", 100, 120, 5)]);
        let mut doc = r.to_json();
        for field in ["git_commit", "command_line"] {
            let start = doc.find(&format!("\"{field}\"")).unwrap();
            let end = start + doc[start..].find(",\n").unwrap() + 2;
            doc.replace_range(start..end, "");
        }
        let old = BenchReport::from_json(&doc).unwrap();
        assert_eq!(old.provenance.git_commit, "unknown");
        assert!(old.provenance.command_line.is_empty());
        let outcome = check_against_baseline(&r, &old, Threshold::default());
        assert!(outcome.passed() && outcome.missing.is_empty() && outcome.new_cases.is_empty());
    }

    #[test]
    fn git_commit_is_a_sha_maybe_dirty_or_unknown() {
        let commit = git_commit();
        let sha = commit.strip_suffix("-dirty").unwrap_or(&commit);
        assert!(
            commit == "unknown" || (sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit())),
            "{commit}"
        );
    }

    #[test]
    fn malformed_json_is_a_diagnostic() {
        assert!(BenchReport::from_json("{")
            .unwrap_err()
            .contains("bad bench JSON"));
        assert!(BenchReport::from_json("{\"bench\":\"g\"}")
            .unwrap_err()
            .contains("cases"));
        assert!(BenchReport::from_json("{\"cases\":[]}")
            .unwrap_err()
            .contains("bench"));
    }

    #[test]
    fn summarize_computes_min_median_mad() {
        let (min, median, mad) = summarize_ns(&[130, 100, 110, 200, 120]);
        assert_eq!(min, 100);
        assert_eq!(median, 120);
        // deviations from 120: 20, 10, 0, 10, 80 → sorted 0,10,10,20,80
        assert_eq!(mad, 10);
        assert_eq!(summarize_ns(&[]), (0, 0, 0));
        assert_eq!(summarize_ns(&[7]), (7, 7, 0));
    }

    #[test]
    fn unchanged_rerun_passes() {
        let base = report(vec![case("a", 1000, 1100, 30), case("b", 500, 520, 10)]);
        let outcome = check_against_baseline(&base.clone(), &base, Threshold::default());
        assert!(outcome.passed(), "{}", outcome.render());
        assert!(outcome
            .diffs
            .iter()
            .all(|d| (d.ratio() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn two_x_slowdown_is_flagged() {
        let base = report(vec![case("a", 1000, 1100, 30), case("b", 500, 520, 10)]);
        let mut slow = base.clone();
        slow.cases[0].min_ns *= 2; // injected 2× regression on one case
        slow.cases[0].median_ns *= 2;
        let outcome = check_against_baseline(&slow, &base, Threshold::default());
        assert!(!outcome.passed());
        let bad: Vec<&CaseDiff> = outcome.diffs.iter().filter(|d| d.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "a");
        assert!((bad[0].ratio() - 2.0).abs() < 1e-12);
        assert!(outcome.render().contains("REGRESSED"));
    }

    #[test]
    fn noisy_baselines_get_wider_thresholds() {
        let quiet = case("q", 1000, 1000, 0);
        let noisy = case("n", 1000, 1000, 250);
        let thr = Threshold::default();
        // quiet: 1000 × 1.25; noisy: 1000 × (1.25 + 4 × 0.25) = 2250
        assert_eq!(thr.allowed_ns(&quiet), 1250);
        assert_eq!(thr.allowed_ns(&noisy), 2250);
        // a 1.5× excursion fails the quiet case but passes the noisy one
        let base = report(vec![quiet, noisy]);
        let mut cur = base.clone();
        for c in &mut cur.cases {
            c.min_ns = 1500;
        }
        let outcome = check_against_baseline(&cur, &base, thr);
        assert!(outcome.diffs[0].regressed);
        assert!(!outcome.diffs[1].regressed);
    }

    #[test]
    fn missing_case_fails_new_case_informs() {
        let base = report(vec![case("a", 100, 100, 0), case("gone", 100, 100, 0)]);
        let cur = report(vec![case("a", 100, 100, 0), case("fresh", 100, 100, 0)]);
        let outcome = check_against_baseline(&cur, &base, Threshold::default());
        assert!(!outcome.passed());
        assert_eq!(outcome.missing, vec!["gone".to_string()]);
        assert_eq!(outcome.new_cases, vec!["fresh".to_string()]);
        assert!(outcome.render().contains("MISSING"));
    }

    #[test]
    fn cpuinfo_topology_counts_unique_cores() {
        // 1 socket, 2 cores, 2 threads each = 4 logical processors
        let text = "processor\t: 0\nphysical id\t: 0\ncore id\t: 0\n\n\
                    processor\t: 1\nphysical id\t: 0\ncore id\t: 1\n\n\
                    processor\t: 2\nphysical id\t: 0\ncore id\t: 0\n\n\
                    processor\t: 3\nphysical id\t: 0\ncore id\t: 1\n";
        assert_eq!(physical_cores_from_cpuinfo(text), Some(2));
        // VM without topology fields: fall back to processor count
        let vm = "processor\t: 0\nmodel name\t: x\n\nprocessor\t: 1\n";
        assert_eq!(physical_cores_from_cpuinfo(vm), Some(2));
        assert_eq!(physical_cores_from_cpuinfo(""), None);
    }

    #[test]
    fn detect_reports_sane_host() {
        let host = HostInfo::detect();
        assert!(host.logical_cpus >= 1);
        assert!(host.physical_cpus >= 1);
        assert!(host.physical_cpus <= host.logical_cpus * 2);
        assert!(!host.os.is_empty());
    }
}
