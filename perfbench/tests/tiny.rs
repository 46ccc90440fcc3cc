//! Seconds-long runs of every workload (`--tiny`): every metric is
//! printed with its unit, absent ones carry a reason, the tiny runs match
//! their pins, and a wrong pinned fingerprint fails the run and all of
//! its operations.

use std::process::{Command, Output};

const WORKLOADS: &[&str] = &["geo100k", "churn-load", "fig8-grid", "daemon-open"];

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "8",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .args(extra)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark starts")
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| {
            let field = |k: &str| {
                let i = l.find(&format!("\"{k}\": \""))? + k.len() + 5;
                Some(l[i..i + l[i..].find('"')?].to_owned())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn lines(out: &Output) -> (String, String) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        v.len() >= 2,
        "expected a report and a result line, got {stdout:?}"
    );
    (v[v.len() - 2].to_owned(), v[v.len() - 1].to_owned())
}

fn int_field(json: &str, key: &str) -> u64 {
    let i = json.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    json[i..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn every_metric_is_printed_with_its_unit_or_a_reason() {
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let (report, result) = lines(&out);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {result}"
            );
            assert_eq!(int_field(&result, "failed"), 0, "{w}: {report}");
            assert!(
                report.contains("\"pinned_fingerprint\": {\"ok\": true, \"detail\": \"pinned "),
                "{w}: {report}"
            );
            for (name, unit) in declared(section) {
                let want = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&want)
                    .unwrap_or_else(|| panic!("{w}: {name} not printed"));
                let rest = &result[at + want.len()..];
                let value: f64 = rest[..rest.find(',').unwrap()].parse().unwrap();
                assert!(
                    rest[..rest.find('}').unwrap()].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} has the wrong unit"
                );
                if value == 0.0 && !unit.contains("count") && unit != "ratio" {
                    // A zero time or size must say why the workload lacks it.
                    let absent = &report[report.find("\"absent\": {").expect("absent map")..];
                    assert!(
                        absent.contains(&format!("\"{name}\": \"")),
                        "{w}: {name} is 0 with no reason"
                    );
                }
            }
            if trace == "1" {
                let cov = &result[result.find("\"trace.coverage\": {\"value\": ").unwrap() + 29..];
                let cov: f64 = cov[..cov.find(',').unwrap()].parse().unwrap();
                assert!(cov > 0.5 && cov <= 1.0 + 1e-9, "{w}: coverage {cov}");
            }
        }
    }
}

#[test]
fn a_wrong_pinned_fingerprint_fails_the_run() {
    for w in ["fig8-grid", "churn-load"] {
        let out = run(w, "0", &["--expect-fingerprint", "0000000000000000"]);
        assert_eq!(out.status.code(), Some(1), "{w} must exit 1");
        let (report, result) = lines(&out);
        assert!(result.starts_with("{\"correct\": false"), "{w}: {result}");
        let attempted = int_field(&result, "attempted");
        assert!(attempted > 0);
        assert_eq!(
            int_field(&result, "failed"),
            attempted,
            "{w}: every operation counts as failed"
        );
        assert!(
            report.contains("\"pinned_fingerprint\": {\"ok\": false"),
            "{w}: {report}"
        );
    }
}
