//! `fig8-grid`: the paper's default Fig. 8 grid (5 rates × 5
//! algorithms), driven call by call in the order of
//! `experiments::fig8::run`'s cells, whose rates it must reproduce.

use crate::geo::{bcp_metrics, PairCounts};
use crate::out::{fastest, median, set_loop_metrics, set_pct};
use crate::trace::Tracer;
use crate::{classify, Args, Check, RunOut, WORLD_SEED};
use spidernet_core::bcp::{BcpConfig, LookupMode, QuotaPolicy};
use spidernet_core::experiments::fig8::{self, Algorithm, Fig8Config};
use spidernet_core::model::request::CompositionRequest;
use spidernet_core::paths::PathTable;
use spidernet_core::recovery::session_demands;
use spidernet_core::selection::is_qualified;
use spidernet_core::state::SessionAllocation;
use spidernet_core::system::{CompositionOptions, SpiderNet, SpiderNetConfig};
use spidernet_core::workload::{random_request, PopulationConfig, RequestConfig};
use spidernet_sim::event_core::EventCore;
use spidernet_sim::time::SimTime;
use spidernet_util::arena::{SlotArena, SlotKey};
use spidernet_util::rng::{rng_for, Rng};
use std::time::Instant;

/// World builds per run; `setup_s` is their median.
const SETUPS: usize = 31;

/// A run of `--seconds S` drives `round(S / GRID_S)` grids (at least
/// one), whatever the speed of the code. A grid took 2.5–5 s on a shared
/// 2-vCPU x86-64 VM. Every grid does the same work, and every request
/// and every unit's expiries count with their fastest time over the
/// grids (see `out::fastest`).
const GRID_S: f64 = 2.0;

fn config(args: &Args) -> Fig8Config {
    let cfg = Fig8Config {
        seed: WORLD_SEED,
        threads: Some(1),
        ..Fig8Config::default()
    };
    if args.tiny {
        Fig8Config {
            ip_nodes: 300,
            peers: 60,
            functions: 12,
            duration_units: 20,
            workloads: vec![3, 9],
            population: PopulationConfig {
                functions: 12,
                ..PopulationConfig::default()
            },
            request: RequestConfig {
                functions: (2, 3),
                ..RequestConfig::default()
            },
            ..cfg
        }
    } else {
        cfg
    }
}

/// `fraction × Π Z_k`, floored at 1 (fig8's probe budget per request).
fn fraction_budget(net: &SpiderNet, req: &CompositionRequest, fraction: f64) -> u32 {
    let combos: f64 = req
        .function_graph
        .functions()
        .iter()
        .map(|&f| net.registry().replicas(f).len() as f64)
        .product();
    ((combos * fraction).round() as u32).max(1)
}

#[derive(Clone, Default)]
struct Acc {
    bcp_us: Vec<f64>,
    optimal_us: Vec<f64>,
    random_us: Vec<f64>,
    static_us: Vec<f64>,
    demands_us: Vec<f64>,
    commit_us: Vec<f64>,
    request_ms: Vec<f64>,
    /// Per cell and unit, the wall time of its expiries (outside its
    /// requests).
    unit_ms: Vec<f64>,
    release_s: f64,
    event_s: f64,
    events: u64,
    gen_s: f64,
    commits: u64,
    rejects: u64,
    examined: u64,
    pruned: u64,
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
    fn calls(&self) -> usize {
        self.bcp_us.len() + self.optimal_us.len() + self.random_us.len() + self.static_us.len()
    }

    /// Repeats of one grid merged into one pass: every call's fastest
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
            bcp_us: each(|a| &a.bcp_us)?,
            optimal_us: each(|a| &a.optimal_us)?,
            random_us: each(|a| &a.random_us)?,
            static_us: each(|a| &a.static_us)?,
            demands_us: each(|a| &a.demands_us)?,
            commit_us: each(|a| &a.commit_us)?,
            request_ms: each(|a| &a.request_ms)?,
            unit_ms: each(|a| &a.unit_ms)?,
            release_s: least(|a| a.release_s),
            event_s: least(|a| a.event_s),
            gen_s: least(|a| a.gen_s),
            failed: worst.failed,
            errors: worst.errors.clone(),
            ..reps[0].clone()
        })
    }
}

/// One cell (one algorithm at one rate) on a clone of `base`, with
/// requests from `seed`; returns its success rate and the world it left.
fn cell(
    cfg: &Fig8Config,
    base: &SpiderNet,
    (algo, workload, seed): (Algorithm, u64, u64),
    tr: &mut Tracer,
    acc: &mut Acc,
) -> (f64, SpiderNet, PathTable) {
    let mut net = base.clone();
    let mut rng: Rng = rng_for(seed, "fig8-requests");
    let mut expiry = EventCore::new();
    let expire = expiry.register_handler("session-expire");
    let mut live: SlotArena<SessionAllocation> = SlotArena::new();
    let mut paths = PathTable::new();
    let (mut successes, mut attempts) = (0u64, 0u64);

    for unit in 0..cfg.duration_units {
        let unit_started = Instant::now();
        let sp = tr.begin("pop_until", "sim", 0);
        let fired = expiry.pop_until(SimTime::from_secs(unit));
        acc.event_s += tr.end(sp);
        acc.events += fired.len() as u64;
        for f in fired {
            if let Some(alloc) = live.remove(SlotKey::from_raw(f.payload)) {
                let sp = tr.begin("release", "core.state", f.payload);
                net.state_mut().release(&alloc);
                acc.release_s += tr.end(sp);
            }
        }
        acc.unit_ms.push(unit_started.elapsed().as_secs_f64() * 1e3);
        for _ in 0..workload {
            attempts += 1;
            let root = tr.begin("request", "bench", attempts);
            let sp = tr.begin("random_request", "workload", attempts);
            let req = random_request(net.overlay(), net.registry(), &cfg.request, &mut rng);
            let lifetime = rng.gen_range(cfg.session_lifetime.0..=cfg.session_lifetime.1);
            let bcp = match algo {
                Algorithm::Probing(fraction) => Some(
                    BcpConfig::builder()
                        .budget(fraction_budget(&net, &req, fraction))
                        .quota(QuotaPolicy::ReplicaFraction(fraction.max(0.05)))
                        .merge_cap(256)
                        .lookup(LookupMode::Prefetch)
                        .build(),
                ),
                _ => None,
            };
            acc.gen_s += tr.end(sp);

            let picked = match (algo, bcp) {
                (Algorithm::Probing(_), Some(bcp)) => {
                    let sp = tr.begin("compose", "core.bcp", attempts);
                    let r = net.compose(&req, &bcp);
                    acc.bcp_us.push(tr.end(sp) * 1e6);
                    match r {
                        Ok(o) => {
                            let s = &o.stats;
                            acc.probes += s.probes_sent;
                            acc.complete += s.complete_probes;
                            acc.candidates += s.candidates_examined;
                            acc.shed += s.shed_candidates;
                            acc.lookups += s.dht_lookups;
                            acc.dht_msgs += s.dht_messages;
                            Ok(Some(o.best))
                        }
                        Err(e) => Err(e),
                    }
                }
                _ => {
                    let (opts, name, lat) = match algo {
                        Algorithm::Optimal => (
                            CompositionOptions::optimal_best_only(cfg.optimal_cap),
                            "compose_with.optimal",
                            &mut acc.optimal_us,
                        ),
                        Algorithm::Random => (
                            CompositionOptions::random(),
                            "compose_with.random",
                            &mut acc.random_us,
                        ),
                        _ => (
                            CompositionOptions::static_(),
                            "compose_with.static",
                            &mut acc.static_us,
                        ),
                    };
                    let sp = tr.begin(name, "core.baselines", attempts);
                    let r = net.compose_with(&req, &opts);
                    lat.push(tr.end(sp) * 1e6);
                    match r {
                        Ok(o) => {
                            acc.examined += o.combos_examined;
                            acc.pruned += o.combos_pruned;
                            let keep =
                                matches!(algo, Algorithm::Optimal) || is_qualified(&o.eval, &req);
                            Ok(keep.then_some(o.best))
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            let graph = match picked {
                Ok(g) => g,
                Err(e) => {
                    if !classify(&e) {
                        acc.failed += 1;
                        acc.errors.push(format!(
                            "{} rate {workload} request {attempts}: {e}",
                            algo.label()
                        ));
                    }
                    None
                }
            };
            if let Some(graph) = graph {
                let sp = tr.begin("session_demands", "topology", attempts);
                let (peers, links) =
                    session_demands(&graph, &req, net.registry(), net.overlay(), &mut paths);
                acc.demands_us.push(tr.end(sp) * 1e6);
                let sp = tr.begin("commit", "core.state", attempts);
                let committed = net.state_mut().commit(&peers, &links);
                acc.commit_us.push(tr.end(sp) * 1e6);
                match committed {
                    Ok(alloc) => {
                        acc.commits += 1;
                        successes += 1;
                        let sp = tr.begin("schedule", "sim", attempts);
                        let key = live.insert(alloc);
                        expiry.schedule(SimTime::from_secs(unit + lifetime), expire, key.to_raw());
                        acc.event_s += tr.end(sp);
                    }
                    Err(_) => acc.rejects += 1,
                }
            }
            acc.request_ms.push(tr.end(root) * 1e3);
        }
    }
    (successes as f64 / attempts.max(1) as f64, net, paths)
}

pub fn run(args: &Args) -> RunOut {
    let cfg = config(args);
    let mut out = RunOut::default();
    let mut setup_tr = Tracer::new(false);

    // A build takes tens of ms, so one scheduler hiccup moves a single
    // sample a lot: take the median of many.
    let (mut setups, mut builds, mut populates) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let sp = setup_tr.begin("setup.build", "dht", 0);
        let mut net = SpiderNet::build(
            &SpiderNetConfig::builder()
                .ip_nodes(cfg.ip_nodes)
                .peers(cfg.peers)
                .seed(cfg.seed)
                .build(),
        );
        let b = setup_tr.end(sp);
        let sp = setup_tr.begin("setup.populate", "dht", 0);
        net.populate(&cfg.population);
        let p = setup_tr.end(sp);
        setups.push(b + p);
        builds.push(b);
        populates.push(p);
        world = Some(net);
    }
    let base = world.expect("built above");

    // The grid at the world's own seed must give fig8::run's rates.
    let mut replay = Vec::new();
    for &w in &cfg.workloads {
        for &algo in &cfg.algorithms {
            let cell = cell(
                &cfg,
                &base,
                (algo, w, cfg.seed),
                &mut setup_tr,
                &mut Acc::default(),
            );
            replay.push(cell.0);
        }
    }
    let reference: Vec<f64> = fig8::run(&cfg)
        .rows
        .iter()
        .flat_map(|row| cfg.algorithms.iter().map(move |a| row.success[&a.label()]))
        .collect();
    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    out.checks.push(Check::new(
        "fig8_run_cross_check",
        bits(&replay) == bits(&reference),
        format!(
            "at seed {}: fig8::run rates {reference:?}; ours {replay:?}",
            cfg.seed
        ),
    ));

    let mut tr = Tracer::new(args.trace);
    let mut grids: Vec<Vec<f64>> = Vec::new();
    let (mut wall, mut grid_walls) = (0.0, Vec::new());
    let mut accs = Vec::new();
    // Pair-cache counters of every cell of one grid (each repetition of
    // the grid is identical, as the check below asserts).
    let mut pairs = PairCounts::default();
    for g in 0..(args.seconds / GRID_S).round().max(1.0) as u64 {
        let (mut acc, mut rates) = (Acc::default(), Vec::new());
        let started = Instant::now();
        for &w in &cfg.workloads {
            for &algo in &cfg.algorithms {
                let (rate, net, paths) = cell(&cfg, &base, (algo, w, args.seed), &mut tr, &mut acc);
                rates.push(rate);
                if g == 0 {
                    pairs.add(&net, Some(&paths));
                }
            }
        }
        let grid_wall = started.elapsed().as_secs_f64();
        wall += grid_wall;
        grid_walls.push(grid_wall);
        grids.push(rates);
        accs.push(acc);
    }
    let merged = Acc::fastest(&accs);
    out.checks.push(Check::new(
        "grids_repeat",
        merged.is_some() && grids.iter().all(|g| bits(g) == bits(&grids[0])),
        format!("{} grids at seed {}", grids.len(), args.seed),
    ));
    let mut acc = merged.unwrap_or_else(|| accs.swap_remove(0));
    // The grid's own time: every request and every unit's expiries at
    // their fastest over the grids.
    let busy_s = (acc.request_ms.iter().sum::<f64>() + acc.unit_ms.iter().sum::<f64>()) / 1e3;
    let cells: Vec<String> = grids[0]
        .iter()
        .map(|r| format!("{:016x}", r.to_bits()))
        .collect();
    out.fingerprint = format!("fig8-grid peers={} rates={}", cfg.peers, cells.join(","));

    let composes = acc.calls();
    out.attempted = composes as u64;
    out.failed = acc.failed;
    out.errors = std::mem::take(&mut acc.errors);

    let m = &mut out.m;
    m.set("setup_s", median(&setups).expect("several set-ups"));
    set_loop_metrics(
        m,
        composes,
        busy_s,
        &acc.bcp_us,
        &acc.request_ms,
        args.trace,
    );
    bcp_metrics(
        m,
        &acc.bcp_us,
        acc.probes,
        acc.complete,
        acc.candidates,
        acc.shed,
        acc.lookups,
        acc.dht_msgs,
    );
    m.absent_all(
        &[
            "bcp.cache_hit_ratio",
            "bcp.cache_lookups",
            "bcp.cache_invalidations",
        ],
        "the compose cache is off in fig8-grid (world default)",
    );
    m.set("setup.build_s", median(&builds).expect("several builds"));
    m.set(
        "setup.populate_s",
        median(&populates).expect("several builds"),
    );
    let why = "no composition was picked";
    set_pct(
        m,
        "paths.session_demands_us.p50",
        &acc.demands_us,
        50.0,
        why,
    );
    set_pct(
        m,
        "paths.session_demands_us.p99",
        &acc.demands_us,
        99.0,
        why,
    );
    m.set("paths.busy_s", acc.demands_us.iter().sum::<f64>() / 1e6);
    pairs.set_metrics(m);
    set_pct(m, "state.commit_us.p50", &acc.commit_us, 50.0, why);
    set_pct(m, "state.commit_us.p99", &acc.commit_us, 99.0, why);
    m.set("state.commits", acc.commits as f64);
    m.set("state.commit_rejects", acc.rejects as f64);
    m.set("state.release_busy_s", acc.release_s);
    m.absent(
        "state.advance_busy_s",
        "fig8 cells never advance model time",
    );
    let why = "no baseline call of this kind";
    set_pct(m, "baselines.optimal_us.p50", &acc.optimal_us, 50.0, why);
    set_pct(m, "baselines.optimal_us.p99", &acc.optimal_us, 99.0, why);
    m.set(
        "baselines.optimal_busy_s",
        acc.optimal_us.iter().sum::<f64>() / 1e6,
    );
    m.set(
        "baselines.combos_considered",
        (acc.examined + acc.pruned) as f64,
    );
    m.ratio(
        "baselines.prune_ratio",
        acc.pruned as f64,
        (acc.examined + acc.pruned) as f64,
    );
    set_pct(m, "baselines.random_us.p50", &acc.random_us, 50.0, why);
    set_pct(m, "baselines.static_us.p50", &acc.static_us, 50.0, why);
    m.set("event_core.busy_s", acc.event_s);
    m.set("event_core.events", acc.events as f64);
    m.set("workload.gen_busy_s", acc.gen_s);

    out.info
        .nums("setup_s_samples", &setups)
        .nums("build_s_samples", &builds)
        .nums("populate_s_samples", &populates)
        .nums("grid_wall_s", &grid_walls)
        .num("fastest_busy_s", busy_s)
        .int("grids", grids.len() as u64)
        .int("composes", composes as u64)
        .int("bcp_compose_samples", acc.bcp_us.len() as u64)
        .int("optimal_samples", acc.optimal_us.len() as u64)
        .num("timed_wall_s", wall)
        .int("worker_threads", 1)
        .int("cross_check_threads", 1);
    out.timed_wall_s = wall;
    out.tracer = Some(tr);
    out
}
