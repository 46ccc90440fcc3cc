//! `geo100k`: a closed loop of one caller running BCP compose plus
//! commit on the 10^5-peer geometric overlay, with `run_scale`'s
//! configuration and request stream.

use crate::out::{set_loop_metrics, set_pct, Metrics};
use crate::trace::Tracer;
use crate::{classify, Args, Check, RunOut, WORLD_SEED};
use spidernet_core::bcp::{BcpConfig, LookupMode, QuotaPolicy};
use spidernet_core::experiments::fig8::{run_scale, ScaleConfig};
use spidernet_core::paths::PathTable;
use spidernet_core::recovery::session_demands;
use spidernet_core::system::{SpiderNet, SpiderNetConfig};
use spidernet_core::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet_sim::metrics::counter;
use spidernet_topology::overlay::GeoConfig;
use spidernet_util::rng::rng_for;
use std::fmt::Write as _;
use std::time::Instant;

/// Requests a run of `--seconds S` drives, per second of S: the run's work
/// is fixed, whatever the speed of the code, so every run at one seed
/// loads the overlay with the same commits. One caller managed 450–1,100
/// composes/s on a shared 2-vCPU x86-64 VM.
const REQUESTS_PER_S: f64 = 600.0;

fn scale_config(args: &Args) -> ScaleConfig {
    if args.tiny {
        ScaleConfig {
            peers: 2_000,
            functions: 24,
            seed: WORLD_SEED,
            requests: 100,
            ..ScaleConfig::default()
        }
    } else {
        ScaleConfig {
            seed: WORLD_SEED,
            ..ScaleConfig::default()
        }
    }
}

/// `run_scale`'s world build, split into its two timed halves.
fn build(sc: &ScaleConfig, tr: &mut Tracer) -> (SpiderNet, f64, f64) {
    let sp = tr.begin("setup.build", "dht", 0);
    let mut net = SpiderNet::build(
        &SpiderNetConfig::builder()
            .peers(sc.peers)
            .seed(sc.seed)
            .geo(GeoConfig::default())
            .build_threads(sc.build_threads)
            .build(),
    );
    let build_s = tr.end(sp);
    let sp = tr.begin("setup.populate", "dht", 0);
    net.populate(&PopulationConfig {
        functions: sc.functions,
        ..PopulationConfig::default()
    });
    (net, build_s, tr.end(sp))
}

/// What a stretch of the closed loop measured.
#[derive(Default)]
struct Acc {
    compose_us: Vec<f64>,
    demands_us: Vec<f64>,
    commit_us: Vec<f64>,
    request_ms: Vec<f64>,
    gen_s: f64,
    successes: u64,
    rejects: u64,
    probes: u64,
    complete: u64,
    candidates: u64,
    shed: u64,
    lookups: u64,
    dht_msgs: u64,
    failed: u64,
    errors: Vec<String>,
    /// Selected graphs and evaluations of the first `fingerprinted`
    /// requests, bit for bit.
    graphs: String,
    /// Successes and the world's probe counter after those requests.
    at_prefix: (u64, u64),
}

/// Runs run_scale's request loop (compose, session demands, commit) on
/// `net` with requests from `seed`, until `more(requests so far)` is false.
fn drive(
    net: &mut SpiderNet,
    sc: &ScaleConfig,
    seed: u64,
    tr: &mut Tracer,
    mut more: impl FnMut(u64) -> bool,
) -> Acc {
    let req_cfg = RequestConfig {
        functions: (2, 4),
        ..RequestConfig::default()
    };
    let bcp = BcpConfig::builder()
        .budget(sc.budget.max(1))
        .quota(QuotaPolicy::Uniform(sc.quota.max(1)))
        .merge_cap(256)
        .lookup(LookupMode::Prefetch)
        .build();
    let mut rng = rng_for(seed, "fig8-scale-requests");
    let mut paths = PathTable::new();
    let mut a = Acc::default();
    let mut n = 0u64;
    while more(n) {
        n += 1;
        let root = tr.begin("request", "bench", n);
        let sp = tr.begin("random_request", "workload", n);
        let req = random_request(net.overlay(), net.registry(), &req_cfg, &mut rng);
        a.gen_s += tr.end(sp);

        let sp = tr.begin("compose", "core.bcp", n);
        let res = net.compose(&req, &bcp);
        a.compose_us.push(tr.end(sp) * 1e6);
        match res {
            Ok(o) => {
                let s = &o.stats;
                a.probes += s.probes_sent;
                a.complete += s.complete_probes;
                a.candidates += s.candidates_examined;
                a.shed += s.shed_candidates;
                a.lookups += s.dht_lookups;
                a.dht_msgs += s.dht_messages;
                let sp = tr.begin("session_demands", "topology", n);
                let (peers, links) =
                    session_demands(&o.best, &req, net.registry(), net.overlay(), &mut paths);
                a.demands_us.push(tr.end(sp) * 1e6);
                let sp = tr.begin("commit", "core.state", n);
                let committed = net.state_mut().commit(&peers, &links).is_ok();
                a.commit_us.push(tr.end(sp) * 1e6);
                if committed {
                    a.successes += 1;
                } else {
                    a.rejects += 1;
                }
                if n <= sc.requests {
                    let _ = write!(a.graphs, "{}:{}:{:?}", n, committed, o.best.assignment);
                    for v in o.eval.qos.values() {
                        let _ = write!(a.graphs, ":{:016x}", v.to_bits());
                    }
                    let _ = write!(
                        a.graphs,
                        ":{:016x}:{:016x}:{};",
                        o.eval.cost.to_bits(),
                        o.eval.failure_prob.to_bits(),
                        o.eval.fits_resources
                    );
                }
            }
            Err(e) => {
                if !classify(&e) {
                    a.failed += 1;
                    a.errors.push(format!("request {n}: {e}"));
                }
                if n <= sc.requests {
                    let _ = write!(a.graphs, "{n}:err;");
                }
            }
        }
        a.request_ms.push(tr.end(root) * 1e3);
        if n == sc.requests {
            a.at_prefix = (a.successes, net.metrics().value(counter::PROBES));
        }
    }
    a
}

pub fn run(args: &Args) -> RunOut {
    let sc = scale_config(args);
    let mut out = RunOut::default();
    let mut setup_tr = Tracer::new(false);

    // Set-up, three times: run_scale's own build (it reports its build
    // plus populate time) and two more of ours. The first of ours replays
    // run_scale's requests, which must give its probes and successes; the
    // second is measured.
    let reference = run_scale(&sc);
    let mut setups = vec![reference.build_secs];
    let (mut builds, mut populates) = (Vec::new(), Vec::new());
    let (mut net, b, p) = build(&sc, &mut setup_tr);
    setups.push(b + p);
    builds.push(b);
    populates.push(p);
    let replay = drive(&mut net, &sc, sc.seed, &mut setup_tr, |n| n < sc.requests);
    drop(net);
    out.checks.push(Check::new(
        "run_scale_cross_check",
        replay.at_prefix == (reference.successes, reference.probes),
        format!(
            "after {} requests at seed {}: (successes, probes) {:?} vs run_scale ({}, {})",
            sc.requests, sc.seed, replay.at_prefix, reference.successes, reference.probes
        ),
    ));
    let (mut net, b, p) = build(&sc, &mut setup_tr);
    setups.push(b + p);
    builds.push(b);
    populates.push(p);

    let mut tr = Tracer::new(args.trace);
    let requests = ((args.seconds * REQUESTS_PER_S).round() as u64).max(sc.requests);
    let started = Instant::now();
    let a = drive(&mut net, &sc, args.seed, &mut tr, |n| n < requests);
    let wall = started.elapsed().as_secs_f64();
    let n = a.request_ms.len() as u64;
    out.attempted = n;
    out.failed = a.failed;
    out.errors = a.errors;
    out.fingerprint = format!(
        "geo100k peers={} requests={} successes={} probes={} graphs={}",
        sc.peers,
        sc.requests,
        a.at_prefix.0,
        a.at_prefix.1,
        crate::out::digest(&a.graphs)
    );

    let m = &mut out.m;
    m.set(
        "setup_s",
        crate::out::median(&setups).expect("several set-ups"),
    );
    set_loop_metrics(
        m,
        a.compose_us.len(),
        wall,
        &a.compose_us,
        &a.request_ms,
        args.trace,
    );
    bcp_metrics(
        m,
        &a.compose_us,
        a.probes,
        a.complete,
        a.candidates,
        a.shed,
        a.lookups,
        a.dht_msgs,
    );
    m.absent_all(
        &[
            "bcp.cache_hit_ratio",
            "bcp.cache_lookups",
            "bcp.cache_invalidations",
        ],
        "the compose cache is off in geo100k (world default)",
    );
    m.set(
        "setup.build_s",
        crate::out::median(&builds).expect("two builds"),
    );
    m.set(
        "setup.populate_s",
        crate::out::median(&populates).expect("two builds"),
    );
    let why_paths = "no composition succeeded";
    set_pct(
        m,
        "paths.session_demands_us.p50",
        &a.demands_us,
        50.0,
        why_paths,
    );
    set_pct(
        m,
        "paths.session_demands_us.p99",
        &a.demands_us,
        99.0,
        why_paths,
    );
    m.set("paths.busy_s", a.demands_us.iter().sum::<f64>() / 1e6);
    let mut pairs = PairCounts::default();
    pairs.add(&net, None);
    pairs.set_metrics(m);
    m.absent(
        "paths.pair_hit_ratio",
        "geo100k prices legs from coordinates; no pair-delay lookups",
    );
    set_pct(m, "state.commit_us.p50", &a.commit_us, 50.0, why_paths);
    set_pct(m, "state.commit_us.p99", &a.commit_us, 99.0, why_paths);
    m.set("state.commits", a.successes as f64);
    m.set("state.commit_rejects", a.rejects as f64);
    m.absent_all(
        &["state.release_busy_s", "state.advance_busy_s"],
        "geo100k never releases sessions nor advances model time",
    );
    m.set("workload.gen_busy_s", a.gen_s);
    m.absent_all(
        &["event_core.busy_s", "event_core.events"],
        "geo100k schedules no events",
    );

    out.info
        .nums("setup_s_samples", &setups)
        .nums("build_s_samples", &builds)
        .nums("populate_s_samples", &populates)
        .int("requests", n)
        .int("successes", a.successes)
        .int("commit_rejects", a.rejects)
        .num("timed_wall_s", wall)
        .int("compose_samples", a.compose_us.len() as u64)
        .int("world_seed", sc.seed)
        .int("worker_threads", 1)
        .int("build_threads", sc.build_threads as u64);
    out.timed_wall_s = wall;
    out.tracer = Some(tr);
    out
}

/// The BCP counters every sim workload reports.
#[allow(clippy::too_many_arguments)]
pub fn bcp_metrics(
    m: &mut Metrics,
    compose_us: &[f64],
    probes: u64,
    complete: u64,
    candidates: u64,
    shed: u64,
    lookups: u64,
    dht_msgs: u64,
) {
    let calls = compose_us.len() as f64;
    let why = "no BCP compose ran";
    set_pct(m, "bcp.compose_us.p50", compose_us, 50.0, why);
    set_pct(m, "bcp.compose_us.p99", compose_us, 99.0, why);
    m.set("bcp.compose_samples", calls);
    m.set("bcp.busy_s", compose_us.iter().sum::<f64>() / 1e6);
    m.set("bcp.calls", calls);
    m.set("bcp.probes", probes as f64);
    m.ratio("bcp.probes_per_compose", probes as f64, calls);
    m.ratio("bcp.complete_ratio", complete as f64, probes as f64);
    m.ratio("bcp.candidates_per_compose", candidates as f64, calls);
    m.ratio("bcp.shed_per_compose", shed as f64, calls);
    m.ratio("dht.lookups_per_compose", lookups as f64, calls);
    m.ratio("dht.messages_per_compose", dht_msgs as f64, calls);
}

/// Pair-delay cache counters, summed over worlds: each world's own table
/// (the program's exported counters) plus the benchmark's session-demand
/// table, if any. The world's counters are synced only by `compose_with`,
/// so a workload that calls `compose` alone sees the benchmark's table only.
#[derive(Clone, Copy, Default)]
pub struct PairCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    bypasses: u64,
}

impl PairCounts {
    pub fn add(&mut self, net: &SpiderNet, paths: Option<&PathTable>) {
        let own = |f: fn(&PathTable) -> u64| paths.map_or(0, f);
        let world = |c: &str| net.metrics().value(c);
        self.hits += world(counter::PAIR_CACHE_HITS) + own(PathTable::pair_hits);
        self.misses += world(counter::PAIR_CACHE_MISSES) + own(PathTable::pair_misses);
        self.evictions += world(counter::PAIR_CACHE_EVICTIONS) + own(PathTable::pair_rejections);
        self.bypasses += world(counter::PAIR_CACHE_BYPASSES) + own(PathTable::pair_bypasses);
    }

    pub fn set_metrics(&self, m: &mut Metrics) {
        let lookups = (self.hits + self.misses) as f64;
        m.set("paths.pair_lookups", lookups);
        m.ratio("paths.pair_hit_ratio", self.hits as f64, lookups);
        m.set("paths.pair_evictions", self.evictions as f64);
        m.set("paths.pair_bypasses", self.bypasses as f64);
    }
}
