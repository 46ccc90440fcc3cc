//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <geo100k|churn-load|fig8-grid|daemon-open> \
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] \
//!           [--expect-fingerprint <digest>]
//! perfbench serve --index <i> --seed <n> --ports <p0,p1,...>
//! ```
//!
//! A run sets the workload up several times, measures it for `--seconds`
//! seconds, checks its outputs against the program's own experiment code
//! and the pinned model-time fingerprint, and prints one JSON line. Untraced runs
//! (`--trace 0`) print the end-to-end metrics; traced runs (`--trace 1`)
//! record a span around every benchmark call into a layer and print the
//! per-layer metrics. The line before it is a report with provenance,
//! raw values, the checks and the reason for every metric a workload
//! does not produce. `serve` runs one daemon for `daemon-open`.

mod churn;
mod daemon;
mod geo;
mod grid;
mod out;
mod trace;

use out::{Kind, Metrics, Obj};
use spidernet_util::error::Error;
use std::time::Instant;

/// Workloads and why each was chosen (the same sentences as
/// `BENCHMARK.json`, which lists every one but those of `UNLISTED`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "geo100k",
        "BCP on 10^5 geometric peers with ~1,000 replicas per function: pool building and the DHT directory clone dominate compose",
    ),
    (
        "churn-load",
        "open-loop Poisson arrivals with establish, teardown and crashes: writes invalidate the compose cache and path trees between reads",
    ),
    (
        "fig8-grid",
        "the paper's Fig. 8 grid people rerun: the exact optimal baseline and the pair-delay cache dominate",
    ),
    (
        "daemon-open",
        "8 loopback daemons under an open-loop compose ladder: the only workload that runs wire, evnet and PeerNode",
    ),
];

/// Workloads that run but are left out of `BENCHMARK.json`. geo100k's
/// 700 MB world is memory-bound, and on a shared 2-vCPU VM its composes/s
/// moved with the neighbours' memory traffic: IQR/median 0.27–0.45 over
/// ten runs, against the 0.25 bound. Its compose median also sits between
/// two latency modes, so it jumped between about 720 and 1,450 µs
/// (spread 0.47–0.91).
pub const UNLISTED: &[&str] = &["geo100k"];

/// Every workload's world is built from this seed (the repository's
/// default, as in its figures); `--seed` drives the request and arrival
/// streams, so runs at different seeds measure one system under
/// different traffic.
pub const WORLD_SEED: u64 = 8;

/// Layers only some workloads reach, and why the others lack them.
const ONLY_IN: &[(&str, &str)] = &[
    ("baselines.", "only fig8-grid calls the baselines"),
    (
        "recovery.",
        "only churn-load establishes, tears down and recovers sessions",
    ),
    ("runtime.", "only daemon-open runs the daemons"),
    ("wire.", "only daemon-open runs the daemons"),
    ("evnet.", "only daemon-open runs the daemons"),
    (
        "loadgen.",
        "only daemon-open has an open-loop generator in wall time",
    ),
];

/// Command-line arguments of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub expect: Option<String>,
}

/// One correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Check { name, ok, detail }
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub checks: Vec<Check>,
    /// Model-time fingerprint text; its digest is what is pinned.
    pub fingerprint: String,
    pub m: Metrics,
    pub info: Obj,
    pub timed_wall_s: f64,
    pub tracer: Option<trace::Tracer>,
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// True if a compose error is a model outcome (the composition was
/// refused), false if the operation failed.
pub fn classify(e: &Error) -> bool {
    matches!(
        e,
        Error::NoQualifiedComposition | Error::AdmissionRejected { .. } | Error::Network(_)
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--tiny] \
         [--expect-fingerprint DIGEST]\n       perfbench serve --index I --seed N --ports P0,P1,...",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 8,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expect: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--tiny" => a.tiny = true,
            "--expect-fingerprint" => a.expect = Some(value()),
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == a.workload) || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage()
    }
    a
}

/// The pinned fingerprint digest of a run, if any. `pins.txt` lines:
/// `<workload> <full|tiny> <seed> <seconds|*> <digest>`; `*` matches any
/// run length (only `daemon-open`'s session count depends on it).
fn pinned(a: &Args) -> Option<String> {
    let scale = if a.tiny { "tiny" } else { "full" };
    include_str!("../pins.txt").lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 5
            && f[0] == a.workload
            && f[1] == scale
            && f[2] == a.seed.to_string()
            && (f[3] == "*" || f[3].parse::<f64>() == Ok(a.seconds)))
        .then(|| f[4].to_owned())
    })
}

/// The default and holdout seeds named in `pins.txt`.
fn seeds() -> (u64, u64) {
    let mut s = (0, 0);
    for l in include_str!("../pins.txt").lines() {
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            ["seed", "default", n] => s.0 = n.parse().expect("pins.txt: numeric default seed"),
            ["seed", "holdout", n] => s.1 = n.parse().expect("pins.txt: numeric holdout seed"),
            _ => {}
        }
    }
    s
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the program's sources (the crates and this
/// benchmark), so results from checkouts without git still name the code.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut text = String::new();
    for f in files {
        text.push_str(&f.strip_prefix(&root).unwrap_or(&f).to_string_lossy());
        text.push_str(&std::fs::read_to_string(&f).unwrap_or_default());
    }
    out::digest(&text)
}

fn provenance(a: &Args) -> String {
    let (default_seed, holdout_seed) = seeds();
    let mut p = Obj::new();
    p.int(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    )
    .str("commit", &command_line("git", &["rev-parse", "HEAD"]))
    .str("source_digest", &source_digest())
    .str("rustc", &command_line("rustc", &["--version"]))
    .str(
        "cargo_features",
        "spidernet crates with default features (trace on); release profile",
    )
    .int("seed", a.seed)
    .int("default_seed", default_seed)
    .int("holdout_seed", holdout_seed)
    .num("seconds", a.seconds)
    .bool("traced", a.trace)
    .bool("tiny", a.tiny)
    .str(
        "why",
        WORKLOADS
            .iter()
            .find(|w| w.0 == a.workload)
            .map_or("", |w| w.1),
    );
    p.finish()
}

/// Seconds one span record costs, measured on this host.
fn span_cost_s() -> f64 {
    const N: u32 = 20_000;
    let time = |on: bool| {
        let mut tr = trace::Tracer::new(on);
        let t = Instant::now();
        for i in 0..N {
            let sp = tr.begin("x", "bench", u64::from(i));
            std::hint::black_box(tr.end(sp));
        }
        t.elapsed().as_secs_f64()
    };
    ((time(true) - time(false)) / f64::from(N)).max(0.0)
}

/// Layer self times, coverage and the overhead estimate of a traced run;
/// returns the spans summarised by layer and name, and the number of
/// requests or sessions they belong to, for the report.
fn trace_metrics(m: &mut Metrics, tr: &trace::Tracer, wall: f64) -> String {
    let by_layer = trace::layer_self_secs(tr.spans());
    let mut covered = 0.0;
    for &layer in out::LAYERS {
        let name: &'static str = out::METRICS
            .iter()
            .find(|x| x.0 == format!("layer.{layer}.self_s"))
            .expect("a metric per layer")
            .0;
        match by_layer.get(layer) {
            Some(&s) => {
                m.set(name, s);
                if layer != "bench" {
                    covered += s;
                }
            }
            None => m.absent(name, "the timed loop makes no call into this layer"),
        }
    }
    m.set("trace.timed_wall_s", wall);
    m.ratio("trace.coverage", covered, wall);
    m.set("trace.spans", tr.spans().len() as f64);
    m.ratio(
        "trace.overhead_est",
        span_cost_s() * tr.spans().len() as f64,
        wall,
    );
    let mut spans = Obj::new();
    for ((layer, name), (count, secs)) in trace::by_name(tr.spans()) {
        let mut o = Obj::new();
        o.int("count", count).num("self_s", secs);
        spans.raw(&format!("{layer}/{name}"), &o.finish());
    }
    let requests: std::collections::BTreeSet<u64> = tr.spans().iter().map(|s| s.req).collect();
    spans.int("distinct_request_ids", requests.len() as u64);
    spans.finish()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        daemon::serve(&argv[1..]);
        return;
    }
    let a = parse(&argv);
    let mut r = match a.workload.as_str() {
        "geo100k" => geo::run(&a),
        "churn-load" => churn::run(&a),
        "fig8-grid" => grid::run(&a),
        _ => daemon::run(&a),
    };
    r.m.set(
        "peak_rss_mb",
        r.m.get("peak_rss_mb")
            .or_else(|| out::peak_rss_mb("self"))
            .unwrap_or(0.0),
    );

    // The pinned fingerprint gate.
    let digest = out::digest(&r.fingerprint);
    let pin = a.expect.clone().or_else(|| pinned(&a));
    let pin_ok = pin.as_ref().is_none_or(|p| *p == digest);
    r.checks.push(Check::new(
        "pinned_fingerprint",
        pin_ok,
        match &pin {
            Some(p) => format!("pinned {p}, got {digest}"),
            None => format!("no pin for seed {}; got {digest}", a.seed),
        },
    ));
    let correct = r.checks.iter().all(|c| c.ok);
    let attempted = r.attempted.max(1);
    let failed = if correct {
        r.failed.min(attempted)
    } else {
        attempted
    };
    r.m.set("error_rate", failed as f64 / attempted as f64);

    for (prefix, why) in ONLY_IN {
        let names: Vec<&'static str> = out::METRICS
            .iter()
            .map(|x| x.0)
            .filter(|n| n.starts_with(prefix))
            .collect();
        r.m.absent_all(&names, why);
    }
    let mut spans = None;
    if a.trace {
        let tr = r.tracer.take().expect("workloads hand back their tracer");
        spans = Some(trace_metrics(&mut r.m, &tr, r.timed_wall_s));
    } else {
        r.m.absent_all(
            &out::METRICS
                .iter()
                .filter(|x| x.0.starts_with("trace"))
                .map(|x| x.0)
                .collect::<Vec<_>>(),
            "untraced run",
        );
    }
    let kind = if a.trace { Kind::Layer } else { Kind::EndToEnd };
    let missing = r.m.unaccounted(kind);
    assert!(
        missing.is_empty(),
        "metrics with neither a value nor a reason: {missing:?}"
    );

    let mut checks = Obj::new();
    for c in &r.checks {
        let mut o = Obj::new();
        o.bool("ok", c.ok).str("detail", &c.detail);
        checks.raw(c.name, &o.finish());
    }
    let mut report = Obj::new();
    report
        .str("workload", &a.workload)
        .raw("provenance", &provenance(&a))
        .str("fingerprint", &r.fingerprint)
        .str("fingerprint_digest", &digest)
        .raw("checks", &checks.finish())
        .raw("raw", &r.info.finish())
        .raw("absent", &r.m.absent_json())
        .raw(
            "errors",
            &format!(
                "[{}]",
                r.errors
                    .iter()
                    .take(20)
                    .map(|e| out::quote(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    match &spans {
        Some(spans) => report.raw("spans", spans),
        None => report.raw("per_layer", &r.m.to_json(Kind::Layer)),
    };
    println!("{}", report.finish());
    for &(name, unit, k) in out::METRICS {
        if k == kind {
            eprintln!(
                "{name:>34} = {:<14} {unit}",
                out::num(r.m.get(name).unwrap_or(0.0))
            );
        }
    }
    for c in r.checks.iter().filter(|c| !c.ok) {
        eprintln!("check {} FAILED: {}", c.name, c.detail);
    }

    let mut last = Obj::new();
    last.bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &r.m.to_json(kind));
    println!("{}", last.finish());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "<value>"` string pair in a JSON text, in order.
    fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &json[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let rest = &json[start..];
        &rest[..rest.find(']').expect("section closes")]
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let sec = section(json, key);
            let names = string_fields(sec, "name");
            let units = string_fields(sec, "unit");
            let ours: Vec<(&str, &str)> = out::METRICS
                .iter()
                .filter(|m| m.2 == kind)
                .map(|m| (m.0, m.1))
                .collect();
            let theirs: Vec<(&str, &str)> = names.into_iter().zip(units).collect();
            assert_eq!(ours, theirs, "{key} differs from the metric table");
        }
        let sec = section(json, "workloads");
        let names = string_fields(sec, "name");
        let whys = string_fields(sec, "why");
        let ours: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .filter(|w| !UNLISTED.contains(&w.0))
            .copied()
            .collect();
        assert_eq!(ours, names.into_iter().zip(whys).collect::<Vec<_>>());
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200);
        }
    }

    #[test]
    fn pins_name_a_default_and_a_holdout_seed() {
        let (d, h) = seeds();
        assert_ne!(d, h);
        let seconds = {
            let json = include_str!("../../BENCHMARK.json");
            let i = json.find("\"run_seconds\": ").expect("run_seconds") + 15;
            json[i..].split(',').next().unwrap().trim().parse().unwrap()
        };
        for (w, _) in WORKLOADS {
            for (seed, tiny, seconds) in [(d, false, seconds), (h, false, seconds), (d, true, 1.0)]
            {
                let a = Args {
                    workload: w.to_string(),
                    seed,
                    seconds,
                    trace: false,
                    tiny,
                    expect: None,
                };
                assert!(
                    pinned(&a).is_some(),
                    "{w} has no pin at seed {seed} (tiny: {tiny})"
                );
            }
        }
    }
}
