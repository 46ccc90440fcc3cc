//! `churn-load`: an open loop in model time (Poisson arrivals, Zipf
//! popularity, establish and teardown, one crash every few units) that
//! the simulator drains as fast as one caller can. The benchmark drives
//! the cell itself, call by call, in the exact order of
//! `loadgen::run_cell`, so the two must agree on every model-time field.

use crate::geo::{bcp_metrics, PairCounts};
use crate::out::{fastest, median, set_loop_metrics, set_pct};
use crate::trace::Tracer;
use crate::{classify, Args, Check, RunOut, WORLD_SEED};
use spidernet_core::bcp::BcpConfig;
use spidernet_core::loadgen::{
    run_cell, zipf_request, ArrivalProcess, ArrivalSampler, ChurnConfig, LoadCellResult,
    LoadConfig, ZipfSampler,
};
use spidernet_core::recovery::FailureOutcome;
use spidernet_core::system::{SpiderNet, SpiderNetConfig};
use spidernet_core::workload::{provisioned_functions, PopulationConfig};
use spidernet_sim::event_core::EventCore;
use spidernet_sim::metrics::counter;
use spidernet_sim::time::{SimDuration, SimTime};
use spidernet_util::error::Error;
use spidernet_util::id::{PeerId, SessionId};
use spidernet_util::rng::{rng_for, Rng};
use std::time::Instant;

/// World and cell shape.
struct Shape {
    ip_nodes: usize,
    peers: usize,
    units: u64,
}

fn shape(args: &Args) -> Shape {
    if args.tiny {
        Shape {
            ip_nodes: 500,
            peers: 100,
            units: 20,
        }
    } else {
        Shape {
            ip_nodes: 5_000,
            peers: 1_000,
            units: 50,
        }
    }
}

/// A run of `--seconds S` drives `round(S / (CELL_S × REPEATS))` cells
/// (at least one), whatever the speed of the code, so every run at one
/// seed measures the same traffic. A cell took 2.5–4 s on a shared 2-vCPU
/// x86-64 VM, so a run measures for longer than S. Cells are short so
/// that a run spans several traffic realisations: the compose p99 moves
/// with which peers crash.
const CELL_S: f64 = 1.25;

/// Each cell runs this many times, on fresh clones of the world; every
/// request and every unit's other work counts with its fastest time
/// over the repeats (see `out::fastest`).
const REPEATS: usize = 3;

fn load_config(seed: u64, units: u64) -> LoadConfig {
    LoadConfig {
        arrivals: ArrivalProcess::Poisson { rate: 40.0 },
        duration_units: units,
        session_lifetime: (5.0, 20.0),
        zipf_exponent: 0.9,
        seed,
        bcp: BcpConfig::builder().shed_utilization(0.85).build(),
        compose_caching: true,
        churn: Some(ChurnConfig {
            period: 5,
            revive_after: 3,
        }),
        ..LoadConfig::default()
    }
}

/// Per-call wall times and counts of one or more cells.
#[derive(Clone, Default)]
struct Acc {
    compose_us: Vec<f64>,
    establish_us: Vec<f64>,
    teardown_us: Vec<f64>,
    fail_peer_ms: Vec<f64>,
    reactive_ms: Vec<f64>,
    session_ms: Vec<f64>,
    /// Per unit, the wall time outside its requests: expiries, revivals,
    /// the crash and its recovery, and `advance`.
    unit_ms: Vec<f64>,
    gen_s: f64,
    advance_s: f64,
    revive_s: f64,
    event_s: f64,
    events: u64,
    probes: u64,
    complete: u64,
    candidates: u64,
    shed: u64,
    lookups: u64,
    dht_msgs: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Acc {
    /// Repeats of one cell merged into one pass: every call's fastest
    /// time, the fastest busy time of each kind, the counts of the first
    /// repeat and the failures of the worst. `None` if the repeats made
    /// different calls.
    fn fastest(reps: &[Acc]) -> Option<Acc> {
        let each = |f: fn(&Acc) -> &Vec<f64>| {
            fastest(&reps.iter().map(|a| f(a).as_slice()).collect::<Vec<_>>())
        };
        let least = |f: fn(&Acc) -> f64| reps.iter().map(f).reduce(f64::min).unwrap_or(0.0);
        let worst = reps.iter().max_by_key(|a| a.failed)?;
        Some(Acc {
            compose_us: each(|a| &a.compose_us)?,
            establish_us: each(|a| &a.establish_us)?,
            teardown_us: each(|a| &a.teardown_us)?,
            fail_peer_ms: each(|a| &a.fail_peer_ms)?,
            reactive_ms: each(|a| &a.reactive_ms)?,
            session_ms: each(|a| &a.session_ms)?,
            unit_ms: each(|a| &a.unit_ms)?,
            gen_s: least(|a| a.gen_s),
            advance_s: least(|a| a.advance_s),
            revive_s: least(|a| a.revive_s),
            event_s: least(|a| a.event_s),
            failed: worst.failed,
            errors: worst.errors.clone(),
            ..reps[0].clone()
        })
    }

    /// Appends the calls and counts of another cell.
    fn absorb(&mut self, o: Acc) {
        self.compose_us.extend(o.compose_us);
        self.establish_us.extend(o.establish_us);
        self.teardown_us.extend(o.teardown_us);
        self.fail_peer_ms.extend(o.fail_peer_ms);
        self.reactive_ms.extend(o.reactive_ms);
        self.session_ms.extend(o.session_ms);
        self.unit_ms.extend(o.unit_ms);
        self.gen_s += o.gen_s;
        self.advance_s += o.advance_s;
        self.revive_s += o.revive_s;
        self.event_s += o.event_s;
        self.events += o.events;
        self.probes += o.probes;
        self.complete += o.complete;
        self.candidates += o.candidates;
        self.shed += o.shed;
        self.lookups += o.lookups;
        self.dht_msgs += o.dht_msgs;
        self.failed += o.failed;
        self.errors.extend(o.errors);
    }
}

fn sample_range(rng: &mut Rng, (lo, hi): (f64, f64)) -> f64 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// One load cell against a clone of `base`, mirroring `run_cell`.
/// Returns the cell's result, its world, its wall time and its calls.
fn drive(
    base: &SpiderNet,
    cfg: &LoadConfig,
    tr: &mut Tracer,
) -> (LoadCellResult, SpiderNet, f64, Acc) {
    let mut acc = Acc::default();
    let started = Instant::now();
    let mut net = base.clone();
    net.set_compose_caching(cfg.compose_caching);
    if cfg.bcp.shed_utilization < 1.0 {
        net.state_mut().set_shed_watermark(cfg.bcp.shed_utilization);
    }
    let mut arrivals = ArrivalSampler::new(cfg.arrivals.clone(), cfg.seed, "loadgen-arrivals");
    let mut req_rng = rng_for(cfg.seed, "loadgen-requests");
    let mut churn_rng = rng_for(cfg.seed, "loadgen-churn");
    let pool = provisioned_functions(net.registry());
    let zipf = ZipfSampler::new(pool.len(), cfg.zipf_exponent).expect("pool is non-empty");

    let mut core = EventCore::new();
    let expire = core.register_handler("session-expire");
    let revive = core.register_handler("peer-revive");

    let mut res = LoadCellResult::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut in_flight = 0u64;
    let sp = tr.begin("next_arrival", "workload", 0);
    let mut next_arrival = arrivals.next_arrival();
    acc.gen_s += tr.end(sp);

    for unit in 0..cfg.duration_units {
        let unit_started = Instant::now();
        let sp = tr.begin("pop_until", "sim", 0);
        let fired = core.pop_until(SimTime::from_secs(unit));
        acc.event_s += tr.end(sp);
        acc.events += fired.len() as u64;
        for f in fired {
            if f.handler == expire {
                let sp = tr.begin("teardown", "core.recovery", f.payload);
                let ok = net.teardown(SessionId::new(f.payload)).is_ok();
                acc.teardown_us.push(tr.end(sp) * 1e6);
                if ok {
                    res.expired += 1;
                    in_flight = in_flight.saturating_sub(1);
                }
            } else if f.handler == revive {
                let sp = tr.begin("revive_peer", "core.recovery", f.payload);
                net.revive_peer(PeerId::new(f.payload));
                acc.revive_s += tr.end(sp);
            }
        }

        if let Some(churn) = &cfg.churn {
            if churn.period > 0 && unit > 0 && unit % churn.period == 0 {
                let live = net.state().live_peers();
                if live.len() > 2 {
                    let victim = live[churn_rng.gen_range(0..live.len() as u64) as usize];
                    res.churn_kills += 1;
                    let sp = tr.begin("fail_peer", "core.recovery", victim.raw());
                    let outcomes = net.fail_peer(victim);
                    acc.fail_peer_ms.push(tr.end(sp) * 1e3);
                    for (sid, outcome) in outcomes {
                        match outcome {
                            FailureOutcome::RecoveredByBackup { .. } => res.recovered_backup += 1,
                            FailureOutcome::NeedsReactive => {
                                let sp = tr.begin("reactive_recover", "core.recovery", sid.raw());
                                let ok = net.reactive_recover(sid, &cfg.bcp);
                                acc.reactive_ms.push(tr.end(sp) * 1e3);
                                if ok {
                                    res.recovered_reactive += 1;
                                } else {
                                    res.abandoned += 1;
                                    in_flight = in_flight.saturating_sub(1);
                                }
                            }
                        }
                    }
                    let sp = tr.begin("schedule", "sim", 0);
                    core.schedule(
                        SimTime::from_secs(unit + churn.revive_after.max(1)),
                        revive,
                        victim.raw(),
                    );
                    acc.event_s += tr.end(sp);
                }
            }
        }

        let mut other = unit_started.elapsed();
        while next_arrival < (unit + 1) as f64 {
            res.arrivals += 1;
            let id = res.arrivals;
            let root = tr.begin("request", "bench", id);
            let sp = tr.begin("zipf_request", "workload", id);
            let req = zipf_request(
                net.overlay(),
                net.registry(),
                &pool,
                &zipf,
                &cfg.request,
                &mut req_rng,
            );
            let lifetime = sample_range(&mut req_rng, cfg.session_lifetime).max(1.0);
            acc.gen_s += tr.end(sp);
            let sp = tr.begin("compose", "core.bcp", id);
            let composed = net.compose(&req, &cfg.bcp);
            acc.compose_us.push(tr.end(sp) * 1e6);
            match composed {
                Ok(outcome) => {
                    let s = &outcome.stats;
                    acc.probes += s.probes_sent;
                    acc.complete += s.complete_probes;
                    acc.candidates += s.candidates_examined;
                    acc.shed += s.shed_candidates;
                    acc.lookups += s.dht_lookups;
                    acc.dht_msgs += s.dht_messages;
                    let setup_ms = s.discovery_ms + s.probing_ms;
                    let sp = tr.begin("establish", "core.recovery", id);
                    let established = net.establish(&req, outcome);
                    acc.establish_us.push(tr.end(sp) * 1e6);
                    match established {
                        Ok(sid) => {
                            res.admitted += 1;
                            setups.push(setup_ms);
                            in_flight += 1;
                            res.peak_in_flight = res.peak_in_flight.max(in_flight);
                            let sp = tr.begin("schedule", "sim", id);
                            core.schedule(
                                SimTime::from_ms((next_arrival + lifetime) * 1_000.0),
                                expire,
                                sid.raw(),
                            );
                            acc.event_s += tr.end(sp);
                        }
                        Err(Error::AdmissionRejected { .. }) | Err(Error::Network(_)) => {
                            res.rejected_admission += 1
                        }
                        Err(e) => {
                            res.failed_other += 1;
                            acc.failed += 1;
                            acc.errors.push(format!("establish {id}: {e}"));
                        }
                    }
                }
                Err(Error::AdmissionRejected { .. }) => res.rejected_admission += 1,
                Err(Error::NoQualifiedComposition) => res.rejected_qos += 1,
                Err(e) => {
                    // run_cell files these under "other"; a request from a
                    // crashed source (`Network`) is still a model outcome.
                    res.failed_other += 1;
                    if !classify(&e) {
                        acc.failed += 1;
                        acc.errors.push(format!("compose {id}: {e}"));
                    }
                }
            }
            let sp = tr.begin("next_arrival", "workload", id);
            next_arrival = arrivals.next_arrival();
            acc.gen_s += tr.end(sp);
            acc.session_ms.push(tr.end(root) * 1e3);
        }

        let advancing = Instant::now();
        let sp = tr.begin("advance", "core.state", 0);
        net.advance(SimDuration::from_secs(1));
        acc.advance_s += tr.end(sp);
        other += advancing.elapsed();
        acc.unit_ms.push(other.as_secs_f64() * 1e3);
    }

    let (hits, misses, invalidations) = net.compose_cache_stats();
    res.cache_hits = hits;
    res.cache_misses = misses;
    res.cache_invalidations = invalidations;
    res.shed_candidates = net.metrics().value(counter::LOAD_SHED);
    if !setups.is_empty() {
        res.setup_p50_ms = spidernet_util::stats::percentile(&mut setups, 50.0);
        res.setup_p95_ms = spidernet_util::stats::percentile(&mut setups, 95.0);
        res.setup_p99_ms = spidernet_util::stats::percentile(&mut setups, 99.0);
    }
    res.composes = res.arrivals;
    (res, net, started.elapsed().as_secs_f64(), acc)
}

pub fn run(args: &Args) -> RunOut {
    let sh = shape(args);
    let mut out = RunOut::default();
    let mut setup_tr = Tracer::new(false);

    let (mut setups, mut builds, mut populates) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = None;
    for _ in 0..3 {
        drop(world.take());
        let sp = setup_tr.begin("setup.build", "dht", 0);
        let mut net = SpiderNet::build(
            &SpiderNetConfig::builder()
                .ip_nodes(sh.ip_nodes)
                .peers(sh.peers)
                .seed(WORLD_SEED)
                .build(),
        );
        let b = setup_tr.end(sp);
        let sp = setup_tr.begin("setup.populate", "dht", 0);
        net.populate(&PopulationConfig {
            functions: 12,
            ..PopulationConfig::default()
        });
        let p = setup_tr.end(sp);
        setups.push(b + p);
        builds.push(b);
        populates.push(p);
        world = Some(net);
    }
    let base = world.expect("built above");

    let mut tr = Tracer::new(args.trace);
    let (mut keys, mut cell_walls) = (Vec::new(), Vec::new());
    let mut soft_ok = Ok(());
    let (mut wall, mut cache_hits, mut cache_misses, mut cache_inv) = (0.0, 0u64, 0u64, 0u64);
    let (mut switches, mut reactive, mut abandoned) = (0u64, 0u64, 0u64);
    let mut pairs = PairCounts::default();
    // Cell k draws its traffic from seed `cell_seed(k)`: one run averages
    // over several traffic realisations (which peers crash matters most),
    // and cell 0 is the run's own seed.
    let cell_seed = |k: u64| args.seed.wrapping_add(k.wrapping_mul(1_000_003));
    let cells = (args.seconds / (CELL_S * REPEATS as f64)).round().max(1.0) as usize;
    let mut passes: Vec<Vec<Acc>> = vec![Vec::new(); cells];
    let mut repeat_keys: Vec<Vec<String>> = vec![Vec::new(); cells];
    // Every cell runs once before any runs again, so the repeats of a
    // cell lie several seconds apart.
    for r in 0..REPEATS {
        for k in 0..cells {
            let cfg = load_config(cell_seed(k as u64), sh.units);
            let (res, net, w, acc) = drive(&base, &cfg, &mut tr);
            wall += w;
            cell_walls.push(w);
            if let Err(e) = net.state().verify_soft_accounting() {
                soft_ok = Err(e);
            }
            repeat_keys[k].push(res.deterministic_key());
            passes[k].push(acc);
            if r == 0 {
                keys.push(res.deterministic_key());
                cache_hits += res.cache_hits;
                cache_misses += res.cache_misses;
                cache_inv += res.cache_invalidations;
                switches += res.recovered_backup;
                reactive += res.recovered_reactive;
                abandoned += res.abandoned;
                pairs.add(&net, None);
            }
        }
    }
    let mut acc = Acc::default();
    let mut merged = true;
    for cell in passes {
        match Acc::fastest(&cell) {
            Some(a) => acc.absorb(a),
            None => merged = false,
        }
    }
    // The cells' own time: every request and every unit's other work at
    // its fastest over the repeats.
    let busy_s = (acc.session_ms.iter().sum::<f64>() + acc.unit_ms.iter().sum::<f64>()) / 1e3;

    // Correctness: the first cell's model-time result is run_cell's.
    let reference = run_cell(&base, &load_config(cell_seed(0), sh.units)).deterministic_key();
    out.checks.push(Check::new(
        "run_cell_cross_check",
        keys[0] == reference,
        format!("run_cell key {reference}; ours {}", keys[0]),
    ));
    out.checks.push(Check::new(
        "repeats_agree",
        merged && repeat_keys.iter().all(|k| k.iter().all(|x| *x == k[0])),
        format!("{REPEATS} runs of each of {cells} cells"),
    ));
    out.checks.push(Check::new(
        "soft_accounting",
        soft_ok.is_ok(),
        format!("{soft_ok:?}"),
    ));
    out.fingerprint = format!(
        "churn-load peers={} units={} {}",
        sh.peers, sh.units, keys[0]
    );
    out.attempted = acc.compose_us.len() as u64 + acc.reactive_ms.len() as u64;
    out.failed = acc.failed;
    out.errors = acc.errors;

    let m = &mut out.m;
    let composes = (acc.compose_us.len() + acc.reactive_ms.len()) as f64;
    m.set("setup_s", median(&setups).expect("several set-ups"));
    set_loop_metrics(
        m,
        composes as usize,
        busy_s,
        &acc.compose_us,
        &acc.session_ms,
        args.trace,
    );
    bcp_metrics(
        m,
        &acc.compose_us,
        acc.probes,
        acc.complete,
        acc.candidates,
        acc.shed,
        acc.lookups,
        acc.dht_msgs,
    );
    m.set("bcp.cache_lookups", (cache_hits + cache_misses) as f64);
    m.ratio(
        "bcp.cache_hit_ratio",
        cache_hits as f64,
        (cache_hits + cache_misses) as f64,
    );
    m.set("bcp.cache_invalidations", cache_inv as f64);
    m.set("setup.build_s", median(&builds).expect("several builds"));
    m.set(
        "setup.populate_s",
        median(&populates).expect("several builds"),
    );
    m.absent_all(
        &[
            "paths.session_demands_us.p50",
            "paths.session_demands_us.p99",
            "paths.busy_s",
        ],
        "churn-load computes session demands inside establish",
    );
    pairs.set_metrics(m);
    m.absent_all(
        &[
            "state.commit_us.p50",
            "state.commit_us.p99",
            "state.release_busy_s",
        ],
        "churn-load commits inside establish and releases inside teardown",
    );
    let admitted = acc.establish_us.len() as f64;
    m.set("state.commits", admitted);
    m.set("state.commit_rejects", 0.0);
    m.set("state.advance_busy_s", acc.advance_s);
    let why = "no call of this kind in the cell";
    set_pct(m, "recovery.establish_us.p50", &acc.establish_us, 50.0, why);
    set_pct(m, "recovery.establish_us.p99", &acc.establish_us, 99.0, why);
    set_pct(m, "recovery.teardown_us.p50", &acc.teardown_us, 50.0, why);
    set_pct(m, "recovery.fail_peer_ms.p50", &acc.fail_peer_ms, 50.0, why);
    set_pct(
        m,
        "recovery.fail_peer_ms.max",
        &acc.fail_peer_ms,
        100.0,
        why,
    );
    m.set("recovery.fail_peers", acc.fail_peer_ms.len() as f64);
    set_pct(m, "recovery.reactive_ms.p50", &acc.reactive_ms, 50.0, why);
    m.set("recovery.switches", switches as f64);
    m.set("recovery.reactive", reactive as f64);
    m.set("recovery.abandoned", abandoned as f64);
    m.set("event_core.busy_s", acc.event_s);
    m.set("event_core.events", acc.events as f64);
    m.set("workload.gen_busy_s", acc.gen_s);

    out.info
        .nums("setup_s_samples", &setups)
        .nums("build_s_samples", &builds)
        .nums("populate_s_samples", &populates)
        .nums("cell_wall_s", &cell_walls)
        .raw(
            "cell_keys",
            &format!(
                "[{}]",
                keys.iter()
                    .map(|k| crate::out::quote(k))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .num("fastest_busy_s", busy_s)
        .int("cells", cells as u64)
        .int("repeats", REPEATS as u64)
        .int("units_per_cell", sh.units)
        .int("composes", composes as u64)
        .int("compose_samples", acc.compose_us.len() as u64)
        .num("revive_busy_s", acc.revive_s)
        .num("timed_wall_s", wall)
        .int("worker_threads", 1);
    out.timed_wall_s = wall;
    out.tracer = Some(tr);
    out
}
