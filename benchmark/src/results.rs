//! What a workload's passes produce, the result file that keeps it, the
//! file's own schema check, and the bound comparator.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bookleaf::serve::protocol::json_escape;
use bookleaf_bench::schema::Json;

use crate::runwl::Options;
use crate::spec::{self, Better, EndToEnd, Estimate};
use crate::stats::{num, Summary};

pub const SCHEMA: &str = "bookleaf-benchmark-v1";

/// One output check. A gating check may never go from pass to fail;
/// a non-gating one records a known defect so its fix is measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub gating: bool,
    pub detail: String,
}

/// Samples per metric name, in recording order.
pub type Samples = BTreeMap<String, Vec<f64>>;

#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Operations attempted (CLI invocations; HTTP requests) and the
    /// ones that failed or failed a per-operation check.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Counts that are not metrics but must repeat exactly (`steps`).
    pub counts: Samples,
    pub end_to_end: Samples,
    pub per_layer: Samples,
}

impl WorkloadResult {
    pub fn new(name: &str) -> Self {
        WorkloadResult {
            name: name.to_string(),
            ..WorkloadResult::default()
        }
    }

    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            gating: true,
            detail: detail.into(),
        });
    }

    pub fn known_failing(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            gating: false,
            detail: detail.into(),
        });
    }

    /// Every gating check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass || !c.gating)
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        debug_assert!(spec::end_to_end(name).is_some(), "{name}");
        self.end_to_end
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(spec::PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.per_layer
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn layer_samples(&mut self, name: &str, values: &[f64]) {
        for &v in values {
            self.layer(name, v);
        }
    }

    /// Fold another pass over the same workload into this one.
    pub fn absorb(&mut self, other: WorkloadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        for (into, from) in [
            (&mut self.counts, other.counts),
            (&mut self.end_to_end, other.end_to_end),
            (&mut self.per_layer, other.per_layer),
        ] {
            for (k, v) in from {
                into.entry(k).or_default().extend(v);
            }
        }
    }

    /// Give every per-layer metric the workload did not exercise its
    /// exact zero, and derive `failed_frac`.
    pub fn finish(&mut self) {
        for m in &spec::PER_LAYER {
            self.per_layer
                .entry(m.name.to_string())
                .or_insert_with(|| vec![0.0]);
        }
        let failed_checks = self.checks.iter().filter(|c| c.gating && !c.pass).count() as u64;
        let frac = (self.failed + failed_checks) as f64 / self.attempted.max(1) as f64;
        self.end_to_end.insert("failed_frac".into(), vec![frac]);
    }
}

/// Does `workload` report the end-to-end metric `metric`?
pub fn applies(metric: &EndToEnd, workload: &str) -> bool {
    match metric.name {
        "resume_s" => workload == spec::SEDOV_ALE_CKPT,
        "l1_rho_err" => workload.starts_with("noh_"),
        "serve_rps" | "serve_p50_ms" | "serve_p99_ms" => workload == spec::SERVE_MIX,
        _ => true,
    }
}

fn unit_of(section: &str, name: &str) -> &'static str {
    match section {
        "end_to_end" => spec::end_to_end(name).map_or("1", |m| m.unit),
        "per_layer" => spec::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("1", |m| m.unit),
        _ => "count",
    }
}

/// Render a full set of results and check the text against the schema
/// before anyone gets to see it.
pub fn render(info: Options, workloads: &[WorkloadResult]) -> Result<String, String> {
    let mut out = String::new();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"host_cores\": {cores},\n  \"workloads\": [",
        info.seed,
        num(info.seconds),
        info.smoke
    );
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\n      \"name\": \"{}\",\n      \"attempted\": {},\n      \"failed\": {},\n      \"correct\": {},\n      \"checks\": [",
            if i == 0 { "" } else { "," },
            w.name,
            w.attempted,
            w.failed,
            w.correct()
        );
        for (j, c) in w.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        {{\"name\": \"{}\", \"pass\": {}, \"gating\": {}, \"detail\": \"{}\"}}",
                if j == 0 { "" } else { "," },
                json_escape(&c.name),
                c.pass,
                c.gating,
                json_escape(&c.detail)
            );
        }
        let _ = write!(out, "\n      ]");
        for (section, samples) in [
            ("counts", &w.counts),
            ("end_to_end", &w.end_to_end),
            ("per_layer", &w.per_layer),
        ] {
            let _ = write!(out, ",\n      \"{section}\": {{");
            for (j, (name, values)) in samples.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n        \"{name}\": ",
                    if j == 0 { "" } else { "," }
                );
                Summary::of(values).write_json(&mut out, unit_of(section, name));
            }
            let _ = write!(out, "\n      }}");
        }
        let _ = write!(out, "\n    }}");
    }
    let _ = writeln!(out, "\n  ]\n}}");
    validate(&out)?;
    Ok(out)
}

fn summary_of(at: &str, value: &Json) -> Result<Summary, String> {
    let field = |key: &str| match value.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        other => Err(format!(
            "{at}: key {key:?} must be a number, found {other:?}"
        )),
    };
    match value.get("unit") {
        Some(Json::Str(u)) if !u.is_empty() => {}
        other => {
            return Err(format!(
                "{at}: key \"unit\" must be a non-empty string, found {other:?}"
            ))
        }
    }
    let s = Summary {
        n: field("n")? as usize,
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        p10: field("p10")?,
        p90: field("p90")?,
        min: field("min")?,
        max: field("max")?,
    };
    if s.n == 0 {
        return Err(format!("{at}: no samples"));
    }
    if !(s.min <= s.median && s.median <= s.max) {
        return Err(format!(
            "{at}: median {} outside [{}, {}]",
            s.median, s.min, s.max
        ));
    }
    Ok(s)
}

fn section<'a>(at: &str, workload: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    match workload.get(key) {
        Some(Json::Obj(members)) => Ok(members),
        other => Err(format!(
            "{at}: key {key:?} must be an object, found {other:?}"
        )),
    }
}

/// A parsed result file: per workload, the summaries `compare` needs.
#[derive(Debug, Clone, Default)]
pub struct Loaded {
    pub workloads: BTreeMap<String, BTreeMap<String, Summary>>,
}

/// Check a result document: schema tag, every workload, every named
/// metric with unit/n/median/quartiles/deciles, exact counts exactly
/// repeated.
pub fn validate(text: &str) -> Result<Loaded, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema") != Some(&Json::Str(SCHEMA.into())) {
        return Err(format!("key \"schema\" must be {SCHEMA:?}"));
    }
    for key in ["seed", "seconds", "host_cores"] {
        if !matches!(doc.get(key), Some(Json::Num(_))) {
            return Err(format!("key {key:?} must be a number"));
        }
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err("key \"workloads\" must be an array".into());
    };
    let mut loaded = Loaded::default();
    for w in workloads {
        let Some(Json::Str(name)) = w.get("name") else {
            return Err("a workload has no name".into());
        };
        if spec::workload(name).is_none() {
            return Err(format!("unknown workload {name:?}"));
        }
        for key in ["attempted", "failed"] {
            if !matches!(w.get(key), Some(Json::Num(_))) {
                return Err(format!("{name}: key {key:?} must be a number"));
            }
        }
        if !matches!(w.get("checks"), Some(Json::Arr(_))) {
            return Err(format!("{name}: key \"checks\" must be an array"));
        }
        let mut e2e = BTreeMap::new();
        for (metric, value) in section(name, w, "end_to_end")? {
            e2e.insert(
                metric.clone(),
                summary_of(&format!("{name}.{metric}"), value)?,
            );
        }
        for m in spec::END_TO_END.iter().filter(|m| applies(m, name)) {
            if !e2e.contains_key(m.name) {
                return Err(format!("{name}: end-to-end metric {:?} is missing", m.name));
            }
        }
        let layers = section(name, w, "per_layer")?;
        for m in &spec::PER_LAYER {
            if !layers.iter().any(|(k, _)| k == m.name) {
                return Err(format!("{name}: per-layer metric {:?} is missing", m.name));
            }
        }
        let counts = section(name, w, "counts")?;
        for (metric, value) in layers.iter().chain(counts) {
            let s = summary_of(&format!("{name}.{metric}"), value)?;
            if spec::EXACT_COUNTS.contains(&metric.as_str()) && s.min != s.max {
                return Err(format!(
                    "{name}: count {metric:?} must repeat exactly, saw {} to {}",
                    s.min, s.max
                ));
            }
        }
        if loaded.workloads.insert(name.clone(), e2e).is_some() {
            return Err(format!("workload {name:?} appears twice"));
        }
    }
    for w in &spec::WORKLOADS {
        if !loaded.workloads.contains_key(w.name) {
            return Err(format!("workload {:?} is missing", w.name));
        }
    }
    Ok(loaded)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The spread of either side is wider than the bound: the data
    /// cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The metric's value: the order statistic of its samples that
/// `metric.estimate` names.
pub fn estimate(metric: &EndToEnd, samples: &Summary) -> f64 {
    match (metric.estimate, metric.better) {
        (Estimate::Median, _) => samples.median,
        (Estimate::BestDecile, Better::Lower) => samples.p10,
        (Estimate::BestDecile, Better::Higher) => samples.p90,
    }
}

/// How loosely the samples pin the value down, as a share of it: the
/// inter-quartile distance for a median; for a decile, its distance to
/// the quartile behind it — wide when fewer than a quarter of the
/// repeats ran undisturbed, and the decile may not have either.
pub fn spread(metric: &EndToEnd, samples: &Summary) -> f64 {
    let value = estimate(metric, samples);
    let width = match (metric.estimate, metric.better) {
        (Estimate::Median, _) => samples.q3 - samples.q1,
        (Estimate::BestDecile, Better::Lower) => samples.q1 - samples.p10,
        (Estimate::BestDecile, Better::Higher) => samples.p90 - samples.q3,
    };
    if value == 0.0 {
        0.0
    } else {
        width / value.abs()
    }
}

/// By how much `after` is worse than `before`, as a share of `before`
/// (negative = better). Absolute when the baseline is 0.
pub fn worsening(metric: &EndToEnd, before: &Summary, after: &Summary) -> f64 {
    let (before, after) = (estimate(metric, before), estimate(metric, after));
    let delta = match metric.better {
        Better::Lower => after - before,
        Better::Higher => before - after,
    };
    if before == 0.0 {
        delta
    } else {
        delta / before.abs()
    }
}

pub fn verdict(metric: &EndToEnd, before: &Summary, after: &Summary) -> Verdict {
    if spread(metric, before).max(spread(metric, after)) > metric.bound && metric.bound > 0.0 {
        Verdict::Unresolved
    } else if worsening(metric, before, after) > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// One `compare` row per end-to-end metric x workload.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub before: Summary,
    pub after: Summary,
    pub verdict: Verdict,
}

pub fn compare(before: &Loaded, after: &Loaded) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        for metric in spec::END_TO_END.iter().filter(|m| applies(m, w.name)) {
            let get = |side: &Loaded, which: &str| {
                side.workloads
                    .get(w.name)
                    .and_then(|m| m.get(metric.name))
                    .copied()
                    .ok_or_else(|| format!("{which}: {}.{} is missing", w.name, metric.name))
            };
            let (b, a) = (get(before, "baseline")?, get(after, "candidate")?);
            rows.push(Row {
                workload: w.name.to_string(),
                metric,
                before: b,
                after: a,
                verdict: verdict(metric, &b, &a),
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<15} {:<13} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<13} {:>13.6} {:>13.6} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric.name,
            estimate(r.metric, &r.before),
            estimate(r.metric, &r.after),
            100.0 * worsening(r.metric, &r.before, &r.after),
            100.0 * spread(r.metric, &r.before).max(spread(r.metric, &r.after)),
            100.0 * r.metric.bound,
            r.verdict.as_str()
        );
    }
}

/// Every metric of one workload by name, with its unit.
pub fn format_workload(w: &WorkloadResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}: attempted {}, failed {}, correct {}",
        w.name,
        w.attempted,
        w.failed,
        w.correct()
    );
    for c in &w.checks {
        let state = match (c.pass, c.gating) {
            (true, _) => "pass",
            (false, true) => "FAIL",
            (false, false) => "fail (known, not gating)",
        };
        let _ = writeln!(out, "   check {:<28} {state}  {}", c.name, c.detail);
    }
    for (label, section, samples) in [
        ("count", "counts", &w.counts),
        ("e2e", "end_to_end", &w.end_to_end),
        ("layer", "per_layer", &w.per_layer),
    ] {
        for (name, values) in samples {
            let s = Summary::of(values);
            // An end-to-end metric leads with its value, the rest with
            // their median.
            let value = match spec::end_to_end(name) {
                Some(metric) if section == "end_to_end" => estimate(metric, &s),
                _ => s.median,
            };
            let _ = writeln!(
                out,
                "   {label:<5} {name:<36} {value:>14.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} p10 {:.6} p90 {:.6} min {:.6} max {:.6} n {}",
                unit_of(section, name),
                s.median,
                s.q1,
                s.q3,
                s.p10,
                s.p90,
                s.min,
                s.max,
                s.n
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(median: f64, half_iqr: f64) -> Summary {
        Summary {
            n: 9,
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            p10: median - 1.5 * half_iqr,
            p90: median + 1.5 * half_iqr,
            min: median - 2.0 * half_iqr,
            max: median + 2.0 * half_iqr,
        }
    }

    /// A median metric with a 10 % bound, whatever the catalogue's are
    /// today.
    fn ten_percent(better: Better) -> EndToEnd {
        EndToEnd {
            bound: 0.10,
            better,
            estimate: Estimate::Median,
            ..*spec::end_to_end("wall_s").unwrap()
        }
    }

    #[test]
    fn a_time_s_value_is_its_fast_decile_and_a_rate_s_its_high_one() {
        let decile = |better| EndToEnd {
            estimate: Estimate::BestDecile,
            ..ten_percent(better)
        };
        // Half of the repeats disturbed by a neighbour: the median has
        // moved past a 10 % bound, the undisturbed decile has not.
        let quiet = Summary::of(&[1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.01]);
        let noisy = Summary::of(&[1.0, 1.4, 1.02, 1.4, 1.01, 1.5, 1.0, 1.4, 1.02, 1.3]);
        let wall = &decile(Better::Lower);
        assert_eq!(estimate(wall, &noisy), noisy.p10);
        assert!(worsening(wall, &quiet, &noisy).abs() < 0.01);
        assert!(worsening(&ten_percent(Better::Lower), &quiet, &noisy) > 0.10);
        assert_eq!(verdict(wall, &quiet, &noisy), Verdict::Ok);
        // Four repeats in five disturbed: the decile cannot be trusted.
        let swamped = Summary::of(&[1.0, 1.01, 1.4, 1.5, 1.4, 1.3, 1.5, 1.6, 1.4, 1.5]);
        assert!(spread(wall, &swamped) > 0.10);
        assert_eq!(verdict(wall, &quiet, &swamped), Verdict::Unresolved);

        let rps = &decile(Better::Higher);
        let rates = Summary::of(&[900.0, 1000.0, 700.0, 990.0, 650.0, 1000.0]);
        assert_eq!(estimate(rps, &rates), rates.p90);
        assert!((spread(rps, &rates) - (rates.p90 - rates.q3) / rates.p90).abs() < 1e-15);
    }

    #[test]
    fn comparator_applies_the_bound_in_the_metric_s_direction() {
        let wall = &ten_percent(Better::Lower);
        assert_eq!(
            verdict(wall, &flat(1.0, 0.01), &flat(1.09, 0.01)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(wall, &flat(1.0, 0.01), &flat(1.11, 0.01)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(wall, &flat(1.0, 0.01), &flat(0.5, 0.01)),
            Verdict::Ok
        );
        let rps = &ten_percent(Better::Higher);
        assert_eq!(
            verdict(rps, &flat(1000.0, 5.0), &flat(880.0, 5.0)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(rps, &flat(1000.0, 5.0), &flat(1500.0, 5.0)),
            Verdict::Ok
        );
        assert!((worsening(rps, &flat(1000.0, 5.0), &flat(880.0, 5.0)) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let wall = &ten_percent(Better::Lower);
        // IQR 0.12 of a median of 1.0 > 10 %: whatever the medians say.
        assert_eq!(
            verdict(wall, &flat(1.0, 0.06), &flat(1.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, &flat(1.0, 0.01), &flat(1.3, 0.09)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn failed_frac_has_an_absolute_zero_bound() {
        let failed = spec::end_to_end("failed_frac").unwrap();
        let zero = Summary::of(&[0.0]);
        assert_eq!(verdict(failed, &zero, &zero), Verdict::Ok);
        assert_eq!(
            verdict(failed, &zero, &Summary::of(&[0.001])),
            Verdict::Regression
        );
        assert_eq!(verdict(failed, &Summary::of(&[0.01]), &zero), Verdict::Ok);
    }

    fn full_set() -> Vec<WorkloadResult> {
        spec::WORKLOADS
            .iter()
            .map(|w| {
                let mut r = WorkloadResult::new(w.name);
                r.attempted = 10;
                r.counts.insert("steps".into(), vec![50.0, 50.0]);
                for m in spec::END_TO_END.iter().filter(|m| applies(m, w.name)) {
                    r.e2e(m.name, 1.0);
                    r.e2e(m.name, 1.002);
                }
                r.check("exit_status", true, "all zero");
                r.known_failing("resume_bitwise", false, "crc \"a\" vs b");
                r.finish();
                r
            })
            .collect()
    }

    const INFO: Options = Options {
        seed: 1,
        seconds: 12.0,
        smoke: true,
    };

    #[test]
    fn writer_output_validates_and_loads_back() {
        let set = full_set();
        let text = render(INFO, &set).expect("self-validates");
        let loaded = validate(&text).unwrap();
        assert_eq!(loaded.workloads.len(), 5);
        let wall = loaded.workloads["noh_serial"]["wall_s"];
        assert_eq!((wall.n, wall.median), (2, 1.001));
        assert!(loaded.workloads["noh_serial"].contains_key("l1_rho_err"));
        assert!(!loaded.workloads["serve_mix"].contains_key("resume_s"));
        assert_eq!(loaded.workloads["serve_mix"]["failed_frac"].median, 0.0);
        let rows = compare(&loaded, &loaded).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // 4 universal + failed_frac everywhere, l1 on three, resume on one, three serve metrics.
        assert_eq!(rows.len(), 5 * 5 + 3 + 1 + 3);
    }

    #[test]
    fn schema_check_rejects_what_it_should() {
        let mut set = full_set();
        set[1].counts.insert("steps".into(), vec![50.0, 49.0]);
        assert!(render(INFO, &set).unwrap_err().contains("repeat exactly"));

        let mut set = full_set();
        set[0].end_to_end.remove("wall_s");
        assert!(render(INFO, &set).unwrap_err().contains("wall_s"));

        let mut set = full_set();
        set[2].per_layer.remove("hydro.getq.ns_per_el");
        assert!(render(INFO, &set)
            .unwrap_err()
            .contains("hydro.getq.ns_per_el"));

        let mut set = full_set();
        set.pop();
        assert!(render(INFO, &set).unwrap_err().contains("serve_mix"));

        let good = render(INFO, &full_set()).unwrap();
        assert!(validate(&good.replace(SCHEMA, "other")).is_err());
        assert!(validate(&good.replacen("\"unit\":\"s\"", "\"unit\":\"\"", 1)).is_err());
        assert!(validate("{").is_err());
    }

    #[test]
    fn a_failed_gating_check_makes_the_workload_incorrect() {
        let mut r = WorkloadResult::new("noh_serial");
        r.attempted = 4;
        r.known_failing("resume_bitwise", false, "known");
        assert!(r.correct());
        r.check("energy_drift", false, "1e-3");
        assert!(!r.correct());
        r.finish();
        assert_eq!(r.end_to_end["failed_frac"], [0.25]);
    }
}
