//! Metric names, units and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which output a metric belongs to: untraced runs print the end-to-end
/// set, traced runs the per-layer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// Every metric, with its unit. `BENCHMARK.json` lists the same names
/// and units (a unit test holds the two together).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("composes_per_s", "1/s", Kind::EndToEnd),
    ("compose_p50_us", "us", Kind::EndToEnd),
    ("compose_p99_us", "us", Kind::EndToEnd),
    ("peak_rss_mb", "MB", Kind::EndToEnd),
    ("session_setup_p50_ms", "ms", Kind::EndToEnd),
    ("session_setup_p99_ms", "ms", Kind::EndToEnd),
    ("max_rate_per_s", "1/s", Kind::EndToEnd),
    // Whole run.
    ("error_rate", "ratio", Kind::Layer),
    // core.bcp
    ("bcp.compose_us.p50", "us", Kind::Layer),
    ("bcp.compose_us.p99", "us", Kind::Layer),
    ("bcp.compose_samples", "count", Kind::Layer),
    ("bcp.busy_s", "s", Kind::Layer),
    ("bcp.calls", "count", Kind::Layer),
    ("bcp.probes", "count", Kind::Layer),
    ("bcp.probes_per_compose", "count", Kind::Layer),
    ("bcp.complete_ratio", "ratio", Kind::Layer),
    ("bcp.candidates_per_compose", "count", Kind::Layer),
    ("bcp.shed_per_compose", "count", Kind::Layer),
    ("bcp.cache_hit_ratio", "ratio", Kind::Layer),
    ("bcp.cache_lookups", "count", Kind::Layer),
    ("bcp.cache_invalidations", "count", Kind::Layer),
    // dht
    ("dht.lookups_per_compose", "count", Kind::Layer),
    ("dht.messages_per_compose", "count", Kind::Layer),
    ("setup.build_s", "s", Kind::Layer),
    ("setup.populate_s", "s", Kind::Layer),
    // topology (core::paths)
    ("paths.session_demands_us.p50", "us", Kind::Layer),
    ("paths.session_demands_us.p99", "us", Kind::Layer),
    ("paths.busy_s", "s", Kind::Layer),
    ("paths.pair_hit_ratio", "ratio", Kind::Layer),
    ("paths.pair_lookups", "count", Kind::Layer),
    ("paths.pair_evictions", "count", Kind::Layer),
    ("paths.pair_bypasses", "count", Kind::Layer),
    // core.state
    ("state.commit_us.p50", "us", Kind::Layer),
    ("state.commit_us.p99", "us", Kind::Layer),
    ("state.commits", "count", Kind::Layer),
    ("state.commit_rejects", "count", Kind::Layer),
    ("state.release_busy_s", "s", Kind::Layer),
    ("state.advance_busy_s", "s", Kind::Layer),
    // core.recovery
    ("recovery.establish_us.p50", "us", Kind::Layer),
    ("recovery.establish_us.p99", "us", Kind::Layer),
    ("recovery.teardown_us.p50", "us", Kind::Layer),
    ("recovery.fail_peer_ms.p50", "ms", Kind::Layer),
    ("recovery.fail_peer_ms.max", "ms", Kind::Layer),
    ("recovery.fail_peers", "count", Kind::Layer),
    ("recovery.reactive_ms.p50", "ms", Kind::Layer),
    ("recovery.switches", "count", Kind::Layer),
    ("recovery.reactive", "count", Kind::Layer),
    ("recovery.abandoned", "count", Kind::Layer),
    // core.baselines
    ("baselines.optimal_us.p50", "us", Kind::Layer),
    ("baselines.optimal_us.p99", "us", Kind::Layer),
    ("baselines.optimal_busy_s", "s", Kind::Layer),
    ("baselines.prune_ratio", "ratio", Kind::Layer),
    ("baselines.combos_considered", "count", Kind::Layer),
    ("baselines.random_us.p50", "us", Kind::Layer),
    ("baselines.static_us.p50", "us", Kind::Layer),
    // sim
    ("event_core.busy_s", "s", Kind::Layer),
    ("event_core.events", "count", Kind::Layer),
    // core.loadgen/workload (the benchmark's own request generation)
    ("workload.gen_busy_s", "s", Kind::Layer),
    // runtime
    ("runtime.setup_overhead_ms.p50", "ms", Kind::Layer),
    ("runtime.setup_overhead_ms.p99", "ms", Kind::Layer),
    ("runtime.cpu_s", "s", Kind::Layer),
    ("runtime.cpu_ms_per_session", "ms", Kind::Layer),
    ("runtime.bootstrap_s", "s", Kind::Layer),
    // wire / evnet
    ("wire.frames_tx_per_session", "count", Kind::Layer),
    ("wire.bytes_tx_per_session", "B", Kind::Layer),
    ("wire.decode_errors", "count", Kind::Layer),
    ("evnet.msgs_dropped", "count", Kind::Layer),
    ("evnet.conns_opened", "count", Kind::Layer),
    ("evnet.conn_retries", "count", Kind::Layer),
    // Generator (daemon-open)
    ("loadgen.lag_ms.p99", "ms", Kind::Layer),
    ("loadgen.backlog", "count", Kind::Layer),
    // Trace: self time per layer, coverage and overhead.
    ("layer.topology.self_s", "s", Kind::Layer),
    ("layer.dht.self_s", "s", Kind::Layer),
    ("layer.sim.self_s", "s", Kind::Layer),
    ("layer.core.bcp.self_s", "s", Kind::Layer),
    ("layer.core.state.self_s", "s", Kind::Layer),
    ("layer.core.recovery.self_s", "s", Kind::Layer),
    ("layer.core.baselines.self_s", "s", Kind::Layer),
    ("layer.workload.self_s", "s", Kind::Layer),
    ("layer.runtime.self_s", "s", Kind::Layer),
    ("layer.wire.self_s", "s", Kind::Layer),
    ("layer.bench.self_s", "s", Kind::Layer),
    ("trace.timed_wall_s", "s", Kind::Layer),
    ("trace.coverage", "ratio", Kind::Layer),
    ("trace.spans", "count", Kind::Layer),
    ("trace.overhead_est", "ratio", Kind::Layer),
    ("traced.composes_per_s", "1/s", Kind::Layer),
    ("traced.session_setup_p50_ms", "ms", Kind::Layer),
];

/// The layers spans are attributed to, as named in the metric table
/// (`layer.<name>.self_s`). `bench` is the benchmark's own glue.
pub const LAYERS: &[&str] = &[
    "topology",
    "dht",
    "sim",
    "core.bcp",
    "core.state",
    "core.recovery",
    "core.baselines",
    "workload",
    "runtime",
    "wire",
    "bench",
];

pub fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// Measured values, and for each metric a workload does not produce,
/// the reason it is absent (it is then printed as 0).
#[derive(Default)]
pub struct Metrics {
    vals: BTreeMap<&'static str, f64>,
    absent: BTreeMap<&'static str, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        unit_of(name);
        if v.is_finite() {
            self.vals.insert(name, v);
            self.absent.remove(name);
        } else {
            self.absent.insert(name, format!("not finite ({v})"));
        }
    }

    /// Sets `name` to `num / den`, or records why it is absent.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if den > 0.0 {
            self.set(name, num / den);
        } else {
            self.absent(name, "its base is 0 in this workload");
        }
    }

    /// Records why `name` has no value, unless it has one or already
    /// has a reason.
    pub fn absent(&mut self, name: &'static str, why: &str) {
        unit_of(name);
        if !self.vals.contains_key(name) {
            self.absent.entry(name).or_insert_with(|| why.to_owned());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.vals.get(name).copied()
    }

    /// Marks every metric of `names` that has no value as absent.
    pub fn absent_all(&mut self, names: &[&'static str], why: &str) {
        for &n in names {
            self.absent(n, why);
        }
    }

    /// Metrics of `kind` that have neither a value nor a reason.
    pub fn unaccounted(&self, kind: Kind) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| {
                m.2 == kind && !self.vals.contains_key(m.0) && !self.absent.contains_key(m.0)
            })
            .map(|m| m.0)
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric of `kind`.
    pub fn to_json(&self, kind: Kind) -> String {
        let mut o = Obj::new();
        for &(name, unit, k) in METRICS {
            if k == kind {
                let mut m = Obj::new();
                m.num("value", self.get(name).unwrap_or(0.0))
                    .str("unit", unit);
                o.raw(name, &m.finish());
            }
        }
        o.finish()
    }

    pub fn absent_json(&self) -> String {
        let mut o = Obj::new();
        for (k, v) in &self.absent {
            o.str(k, v);
        }
        o.finish()
    }
}

/// A JSON object written in insertion order.
pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        self.0.push_str(&quote(k));
        self.0.push_str(": ");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.0.push_str(&num(v));
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(&quote(v));
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    /// Inserts an already-encoded JSON value.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|&v| num(v)).collect();
        self.raw(k, &format!("[{}]", items.join(", ")))
    }

    pub fn finish(&self) -> String {
        format!("{}}}", self.0)
    }
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `None`
/// when there are none.
pub fn pct(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    pct(samples, 50.0)
}

/// Sets `name` to the `p`-th percentile of `samples`, or records why it
/// is absent.
pub fn set_pct(m: &mut Metrics, name: &'static str, samples: &[f64], p: f64, why: &str) {
    match pct(samples, p) {
        Some(v) => m.set(name, v),
        None => m.absent(name, why),
    }
}

/// Per-sample minimum over repeats of identical work (one slice per
/// repeat, the samples of each in the same order); `None` if the repeats
/// took different numbers of samples. Neighbours on a shared host only
/// ever slow work down, and on a shared 2-vCPU VM they did so in bursts
/// from milliseconds to seconds long. The fastest of repeats run seconds
/// apart is the code's own time, while a call that is slow in every
/// repeat stays slow.
pub fn fastest(reps: &[&[f64]]) -> Option<Vec<f64>> {
    let (first, rest) = reps.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| rest.iter().fold(first[i], |m, r| m.min(r[i])))
            .collect(),
    )
}

/// Sets the closed-loop end-to-end metrics of a timed loop that made
/// `calls` compose calls of any kind and served the requests `req` (ms
/// each) in `busy_s` seconds; `bcp` holds its BCP compose latencies
/// (µs). Rates are per second of `busy_s`, and the percentiles are over
/// all samples.
pub fn set_loop_metrics(
    m: &mut Metrics,
    calls: usize,
    busy_s: f64,
    bcp: &[f64],
    req: &[f64],
    traced: bool,
) {
    let why = "no request was served";
    m.ratio("composes_per_s", calls as f64, busy_s);
    m.ratio("max_rate_per_s", req.len() as f64, busy_s);
    set_pct(m, "compose_p50_us", bcp, 50.0, why);
    set_pct(m, "compose_p99_us", bcp, 99.0, why);
    set_pct(m, "session_setup_p50_ms", req, 50.0, why);
    set_pct(m, "session_setup_p99_ms", req, 99.0, why);
    if traced {
        m.ratio("traced.composes_per_s", calls as f64, busy_s);
        set_pct(m, "traced.session_setup_p50_ms", req, 50.0, why);
    }
}

/// Peak resident memory of a process (`VmHWM`), MB; `pid` may be `self`.
pub fn peak_rss_mb(pid: impl std::fmt::Display) -> Option<f64> {
    spidernet_util::bench::peak_rss_bytes_for(pid).map(|b| b as f64 / 1e6)
}

/// FNV-1a over a string: a short digest of a fingerprint text.
pub fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&xs, 50.0), Some(50.0));
        assert_eq!(pct(&xs, 99.0), Some(99.0));
        assert_eq!(pct(&xs, 100.0), Some(100.0));
        assert_eq!(pct(&[3.0], 99.0), Some(3.0));
        assert_eq!(pct(&[], 50.0), None);
    }

    #[test]
    fn repeats_merge_to_their_fastest() {
        assert_eq!(
            fastest(&[&[3.0, 1.0, 5.0], &[2.0, 4.0, 6.0]]),
            Some(vec![2.0, 1.0, 5.0])
        );
        assert_eq!(fastest(&[&[1.0], &[1.0, 2.0]]), None);
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn json_is_well_formed_and_keeps_digits() {
        let mut o = Obj::new();
        o.num("a", 1.2034567891)
            .int("b", 3)
            .str("c", "x\"y")
            .bool("d", true)
            .nums("e", &[1.5, 2.0]);
        assert_eq!(
            o.finish(),
            r#"{"a": 1.2034567891, "b": 3, "c": "x\"y", "d": true, "e": [1.5, 2]}"#
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, _) in METRICS {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for layer in LAYERS {
            let name = format!("layer.{layer}.self_s");
            assert!(seen.contains(name.as_str()), "no metric for layer {layer}");
        }
    }
}
