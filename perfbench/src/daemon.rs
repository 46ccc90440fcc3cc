//! `daemon-open`: 8 loopback daemons (`perfbench serve`, which runs
//! `spidernet_runtime::net::run_node` with the standard deploy config)
//! and one generator thread that sends Poisson `CtrlCompose` arrivals over
//! the source daemon's control connection at a fixed ladder of rates.
//! Every admitted session streams 20 frames of 8×8 pixels.

use crate::out::{median, pct, set_pct, Metrics};
use crate::trace::Tracer;
use crate::{Args, Check, RunOut, WORLD_SEED};
use spidernet_runtime::net::{
    run_node, setup_fingerprint, setup_to_wire, CtrlClient, DeployConfig, NodeConfig,
};
use spidernet_runtime::Cluster;
use spidernet_util::rng::rng_for;
use spidernet_wire::{WireMsg, WireSetup, WireStats};
use std::collections::BTreeMap;
use std::io::{Error as IoError, ErrorKind};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const PEERS: usize = 8;
const FRAMES: u64 = 20;
const INTERVAL_MS: f64 = 200.0;

/// The p99 setup limit a rung must meet, ms. An unloaded setup takes
/// about 65 ms (mostly emulated WAN time at time_scale 0.05); a p99 above
/// 150 ms means a session waited in the daemons about as long again as
/// the protocol itself takes, which is saturation.
pub const P99_LIMIT_MS: f64 = 150.0;

/// The rate ladder: sessions per second, and each rung's share of the
/// measuring time. Each session costs the daemons a few ms of CPU on a
/// quiet 2-CPU host, which puts the knee near 600/s there; but
/// neighbours on a shared host can slow it 2.5× for minutes, and once
/// the daemons saturate both CPUs they miss probe-collection deadlines
/// (a setup then differs from the in-process one) and shed frames. The
/// ladder therefore stops at 100/s, and the headline rung, 80/s, takes
/// most of the time.
const LADDER: &[(f64, f64)] = &[(20.0, 0.05), (40.0, 0.05), (80.0, 0.8), (100.0, 0.1)];
const HEADLINE: usize = 2;

/// The headline rung runs as this many replicas of the same arrival
/// times, one after another; every session counts with its fastest
/// figures over the replicas (see `out::fastest`), so a host stall that
/// hits one replica does not reach the p99.
const REPLICAS: usize = 3;

/// Daemon set-ups per run; `setup_s` is their median (one takes tens of
/// ms, so a single scheduler hiccup moves one sample a lot).
const SETUPS: usize = 31;

fn deploy_config(seed: u64) -> DeployConfig {
    let exe = std::env::current_exe().expect("own executable path");
    DeployConfig::standard(PEERS, seed, exe)
}

/// `perfbench serve`: one daemon.
pub fn serve(argv: &[String]) {
    let (mut index, mut seed, mut ports) = (None, 8u64, Vec::new());
    let mut it = argv.iter();
    while let (Some(k), Some(v)) = (it.next(), it.next()) {
        match k.as_str() {
            "--index" => index = v.parse().ok(),
            "--seed" => seed = v.parse().expect("--seed is a number"),
            "--ports" => {
                ports = v
                    .split(',')
                    .map(|p| p.parse().expect("--ports lists numbers"))
                    .collect()
            }
            _ => panic!("unknown serve flag {k}"),
        }
    }
    let index = index.expect("--index");
    assert_eq!(ports.len(), PEERS, "--ports lists one port per peer");
    let cfg = NodeConfig {
        index,
        cluster: deploy_config(seed).cluster,
        ports,
        transport: Default::default(),
    };
    if let Err(e) = run_node(cfg) {
        eprintln!("perfbench serve {index}: {e}");
        std::process::exit(1);
    }
}

/// A set of daemon processes. Dropping it kills and reaps every one.
struct Daemons {
    children: Vec<Child>,
    ports: Vec<u16>,
}

impl Daemons {
    fn spawn(seed: u64) -> std::io::Result<Daemons> {
        let mut holders = Vec::new();
        for _ in 0..PEERS {
            holders.push(TcpListener::bind(("127.0.0.1", 0))?);
        }
        let ports: Vec<u16> = holders
            .iter()
            .map(|l| l.local_addr().map(|a| a.port()))
            .collect::<std::io::Result<_>>()?;
        drop(holders);
        let list = ports
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let exe = std::env::current_exe()?;
        let mut d = Daemons {
            children: Vec::new(),
            ports,
        };
        for i in 0..PEERS {
            d.children.push(
                Command::new(&exe)
                    .args([
                        "serve",
                        "--index",
                        &i.to_string(),
                        "--seed",
                        &seed.to_string(),
                        "--ports",
                        &list,
                    ])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()?,
            );
        }
        Ok(d)
    }

    /// One stats snapshot, over a connection of its own.
    fn stats(&self, i: usize) -> std::io::Result<WireStats> {
        let mut c = CtrlClient::connect(self.ports[i], Duration::from_secs(10))?;
        c.send(&WireMsg::CtrlStatsRequest)?;
        match c.recv_matching(Duration::from_secs(5), |f| {
            matches!(f, WireMsg::CtrlStatsReply(_))
        })? {
            WireMsg::CtrlStatsReply(s) => Ok(s),
            _ => unreachable!("matched above"),
        }
    }

    /// Waits until every component is registered in the DHT.
    fn wait_registered(&self, timeout: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut total = 0;
            for i in 0..PEERS {
                total += self.stats(i)?.store_entries;
            }
            if total >= PEERS as u64 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(IoError::other(format!(
                    "registration incomplete: {total}/{PEERS}"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// utime + stime of every daemon, seconds (`/proc/<pid>/stat`, in
    /// ticks of 1/100 s).
    fn cpu_s(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| {
                let stat = std::fs::read_to_string(format!("/proc/{}/stat", c.id())).ok()?;
                let f: Vec<&str> = stat.rsplit_once(") ")?.1.split_whitespace().collect();
                Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
            })
            .sum()
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        self.children
            .iter()
            .filter_map(|c| crate::out::peak_rss_mb(c.id()))
            .reduce(f64::max)
    }

    /// Asks every daemon to shut down, then reaps them (killing any that
    /// do not exit within two seconds).
    fn shutdown(mut self) {
        for &port in &self.ports {
            if let Ok(mut c) = CtrlClient::connect(port, Duration::from_secs(2)) {
                let _ = c.send(&WireMsg::CtrlShutdown);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for c in &mut self.children {
            while Instant::now() < deadline && matches!(c.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for c in &mut self.children {
            if matches!(c.try_wait(), Ok(None)) {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

/// Spawns the daemons and waits for the DHT; returns them with the
/// whole set-up time and the registration wait alone.
fn set_up(seed: u64) -> std::io::Result<(Daemons, f64, f64)> {
    let t = Instant::now();
    let d = Daemons::spawn(seed)?;
    let spawned = Instant::now();
    d.wait_registered(Duration::from_secs(30))?;
    Ok((
        d,
        t.elapsed().as_secs_f64(),
        spawned.elapsed().as_secs_f64(),
    ))
}

/// What one rung measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    sessions: u64,
    wall_s: f64,
    /// Wall time with no session in flight, spent waiting for the next
    /// arrival to fall due.
    idle_s: f64,
    /// Per result, in arrival order: the session's index in the rung,
    /// its setup (from when it was due), its service time (from when it
    /// was sent) and its setup overhead.
    index: Vec<usize>,
    setup_ms: Vec<f64>,
    service_us: Vec<f64>,
    overhead_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    backlog: u64,
    failed: u64,
    frames_sent: u64,
    frames_delivered: u64,
    setups: Vec<WireSetup>,
    gen_s: f64,
    errors: Vec<String>,
}

impl Rung {
    fn p99(&self) -> f64 {
        pct(&self.setup_ms, 99.0).unwrap_or(f64::INFINITY)
    }
}

/// The replicas of one rung, and each session's fastest setup, service
/// time and overhead over the replicas that answered it.
struct Step {
    rate: f64,
    reps: Vec<Rung>,
    setup_ms: Vec<f64>,
    service_us: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl Step {
    fn new(reps: Vec<Rung>) -> Step {
        let n = reps.iter().map(|r| r.sessions as usize).max().unwrap_or(0);
        let column = |f: fn(&Rung) -> &Vec<f64>| {
            let mut best = vec![f64::INFINITY; n];
            for r in &reps {
                for (at, &i) in r.index.iter().enumerate() {
                    best[i] = best[i].min(f(r)[at]);
                }
            }
            best.into_iter().filter(|v| v.is_finite()).collect()
        };
        Step {
            rate: reps.first().map_or(0.0, |r| r.rate),
            setup_ms: column(|r| &r.setup_ms),
            service_us: column(|r| &r.service_us),
            overhead_ms: column(|r| &r.overhead_ms),
            reps,
        }
    }

    /// Meets the p99 limit, with no failed session and no growing
    /// backlog: at the end of no replica may more composes be outstanding
    /// than Little's law allows at the limit.
    fn passes(&self) -> bool {
        self.reps.iter().all(|r| {
            r.failed == 0 && (r.backlog as f64) <= (self.rate * P99_LIMIT_MS / 1e3).max(4.0)
        }) && pct(&self.setup_ms, 99.0).is_some_and(|p| p <= P99_LIMIT_MS)
    }
}

/// Drives one rung: sends each compose when it is due, streams every
/// admitted session, and waits until all of them are done.
#[allow(clippy::too_many_arguments)]
fn drive_rung(
    client: &mut CtrlClient,
    cfg: &DeployConfig,
    rate: f64,
    secs: f64,
    seed: u64,
    rung_index: usize,
    first_request: u64,
    tr: &mut Tracer,
) -> std::io::Result<Rung> {
    let mut r = Rung {
        rate,
        ..Rung::default()
    };
    // A Poisson process given its count: `rate × secs` arrival times
    // drawn uniformly over the rung. Every run of a rung then offers the
    // same number of sessions, and so do the headline's replicas, which
    // share their arrival times.
    let sp = tr.begin("arrivals", "workload", 0);
    let mut rng = rng_for(seed, &format!("perfbench-daemon-rung-{rung_index}"));
    let mut due: Vec<f64> = (0..(rate * secs).round() as usize)
        .map(|_| rng.gen_range(0.0..secs))
        .collect();
    due.sort_by(f64::total_cmp);
    r.gen_s += tr.end(sp);
    r.sessions = due.len() as u64;
    let chain: Vec<u8> = cfg.chain.iter().map(|f| f.code()).collect();
    let scale = cfg.cluster.time_scale;

    let start = Instant::now();
    let end_at = start + Duration::from_secs_f64(secs);
    let drain_deadline = end_at + Duration::from_secs(15);
    let due_at = |i: usize| start + Duration::from_secs_f64(due[i]);
    let mut next = 0usize;
    let mut pending: BTreeMap<u64, (Instant, Instant)> = BTreeMap::new();
    let mut streaming: BTreeMap<u64, ()> = BTreeMap::new();
    let mut backlog: Option<u64> = None;
    loop {
        let now = Instant::now();
        if backlog.is_none() && now >= end_at {
            backlog = Some(pending.len() as u64 + (due.len() - next) as u64);
        }
        if next < due.len() && now >= due_at(next) {
            let request = first_request + next as u64;
            let sp = tr.begin("send_compose", "wire", request);
            client.send(&WireMsg::CtrlCompose {
                request,
                dest: cfg.dest.raw(),
                chain: chain.clone(),
                budget: cfg.budget,
            })?;
            tr.end(sp);
            let d = due_at(next);
            r.lag_ms.push((now - d).as_secs_f64() * 1e3);
            pending.insert(request, (d, now));
            next += 1;
            continue;
        }
        if next == due.len() && pending.is_empty() && streaming.is_empty() && backlog.is_some() {
            break;
        }
        if now >= drain_deadline {
            r.failed += (pending.len() + streaming.len()) as u64;
            r.errors.push(format!(
                "rung {rate}/s: {} composes and {} streams timed out",
                pending.len(),
                streaming.len()
            ));
            break;
        }
        let mut until = if next < due.len() {
            due_at(next)
        } else {
            drain_deadline
        };
        if backlog.is_none() {
            until = until.min(end_at);
        }
        let wait = until
            .saturating_duration_since(now)
            .max(Duration::from_micros(50));
        // With no session in flight the generator is only waiting for the
        // next arrival to fall due: that is idle time, not the daemons'.
        let frame = if pending.is_empty() && streaming.is_empty() {
            let sp = tr.begin("await_arrival", "bench", 0);
            let frame = client.recv(wait);
            r.idle_s += tr.end(sp);
            frame
        } else {
            let sp = tr.begin("recv", "runtime", 0);
            let frame = client.recv(wait);
            tr.end(sp);
            frame
        };
        let frame = match frame {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::TimedOut => continue,
            Err(e) => return Err(e),
        };
        let arrived = Instant::now();
        match frame {
            WireMsg::CtrlComposeResult(s) => {
                let Some((d, sent)) = pending.remove(&s.request) else {
                    continue;
                };
                let wall_ms = (arrived - d).as_secs_f64() * 1e3;
                r.index.push((s.request - first_request) as usize);
                r.setup_ms.push(wall_ms);
                r.service_us.push((arrived - sent).as_secs_f64() * 1e6);
                r.overhead_ms.push(wall_ms - scale * s.total_ms);
                if s.ok {
                    let sp = tr.begin("send_stream", "wire", s.request);
                    client.send(&WireMsg::CtrlStream {
                        session: s.request,
                        path: s.path.clone(),
                        functions: s.functions.clone(),
                        backups: s.backups.clone(),
                        dest: s.dest,
                        frames: FRAMES,
                        interval_ms: INTERVAL_MS,
                        width: cfg.dims.0,
                        height: cfg.dims.1,
                    })?;
                    tr.end(sp);
                    streaming.insert(s.request, ());
                } else {
                    r.failed += 1;
                    r.errors
                        .push(format!("session {}: setup failed", s.request));
                }
                r.setups.push(s);
            }
            WireMsg::CtrlStreamReport(rep) => {
                if streaming.remove(&rep.session).is_none() {
                    continue;
                }
                r.frames_sent += rep.sent;
                r.frames_delivered += rep.delivered;
                if rep.delivered < rep.sent || !rep.all_valid {
                    r.failed += 1;
                    r.errors.push(format!(
                        "session {}: {}/{} frames delivered, valid={}",
                        rep.session, rep.delivered, rep.sent, rep.all_valid
                    ));
                }
            }
            _ => {}
        }
    }
    r.backlog = backlog.unwrap_or(0);
    r.wall_s = start.elapsed().as_secs_f64();
    Ok(r)
}

/// The same compositions in the in-process cluster (request ids
/// `1..=n`), eight at a time: each result depends only on its request
/// id, as long as no probe collection outlasts its wall deadline.
fn in_process_setups(cfg: &DeployConfig, n: u64) -> Result<Vec<WireSetup>, String> {
    let cluster = Cluster::start(cfg.cluster.clone());
    let next = AtomicU64::new(0);
    let got = Mutex::new(Vec::new());
    let timeouts = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                while next.fetch_add(1, Ordering::Relaxed) < n {
                    match cluster.compose(
                        cfg.source,
                        cfg.dest,
                        cfg.chain.clone(),
                        cfg.budget,
                        Duration::from_secs(30),
                    ) {
                        Some(setup) => got
                            .lock()
                            .expect("no verifier thread panics")
                            .push(setup_to_wire(&setup)),
                        None => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    match timeouts.load(Ordering::Relaxed) {
        0 => Ok(got.into_inner().expect("no verifier thread panics")),
        t => Err(format!("{t} in-process compositions timed out")),
    }
}

/// Ladder and headline for a run of `seconds` (tiny: short rungs).
fn ladder(args: &Args) -> Vec<(f64, f64)> {
    let scale = if args.tiny { 0.3 } else { 1.0 };
    LADDER
        .iter()
        .map(|&(rate, share)| (rate * scale, share * args.seconds))
        .collect()
}

pub fn run(args: &Args) -> RunOut {
    match run_inner(args) {
        Ok(out) => out,
        Err(e) => {
            let mut out = RunOut {
                attempted: 1,
                failed: 1,
                ..RunOut::default()
            };
            out.checks
                .push(Check::new("daemons_ran", false, e.to_string()));
            out.m.absent_all(
                &crate::out::METRICS.iter().map(|m| m.0).collect::<Vec<_>>(),
                "the daemons failed",
            );
            out.tracer = Some(Tracer::new(args.trace));
            out
        }
    }
}

fn run_inner(args: &Args) -> std::io::Result<RunOut> {
    let cfg = deploy_config(WORLD_SEED);
    let mut out = RunOut::default();
    let (mut setups, mut boots) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(d) = kept.take() {
            Daemons::shutdown(d);
        }
        let (d, s, b) = set_up(WORLD_SEED)?;
        setups.push(s);
        boots.push(b);
        kept = Some(d);
    }
    let daemons = kept.expect("set up above");
    let mut client =
        CtrlClient::connect(daemons.ports[cfg.source.index()], Duration::from_secs(10))?;

    let mut tr = Tracer::new(args.trace);
    let cpu0 = daemons.cpu_s();
    let mut steps = Vec::new();
    let mut request = 1u64;
    for (k, &(rate, secs)) in ladder(args).iter().enumerate() {
        let replicas = if k == HEADLINE { REPLICAS } else { 1 };
        let mut reps = Vec::new();
        for _ in 0..replicas {
            let root = tr.begin("rung", "bench", k as u64);
            let r = drive_rung(
                &mut client,
                &cfg,
                rate,
                secs / replicas as f64,
                args.seed,
                k,
                request,
                &mut tr,
            )?;
            tr.end(root);
            request += r.sessions;
            reps.push(r);
        }
        steps.push(Step::new(reps));
    }
    let errors: Vec<String> = steps
        .iter_mut()
        .flat_map(|s| s.reps.iter_mut())
        .flat_map(|r| std::mem::take(&mut r.errors))
        .collect();
    let rungs: Vec<&Rung> = steps.iter().flat_map(|s| &s.reps).collect();
    let cpu_s = daemons.cpu_s() - cpu0;
    let peak_rss = daemons.peak_rss_mb();
    let mut totals = WireStats::default();
    for i in 0..PEERS {
        let s = daemons.stats(i)?;
        totals.frames_tx += s.frames_tx;
        totals.bytes_tx += s.bytes_tx;
        totals.decode_errors += s.decode_errors;
        totals.conns_opened += s.conns_opened;
        totals.conn_retries += s.conn_retries;
        totals.msgs_dropped += s.msgs_dropped;
    }
    drop(client);
    daemons.shutdown();

    let sessions: u64 = rungs.iter().map(|r| r.sessions).sum();
    let all: Vec<WireSetup> = rungs
        .iter()
        .flat_map(|r| r.setups.iter().cloned())
        .collect();
    let socket_fp = setup_fingerprint(&all);
    let verify = in_process_setups(&cfg, sessions).map(|inproc| {
        // The sessions whose socket setup differs from the in-process one.
        let one = |s: &WireSetup| setup_fingerprint(std::slice::from_ref(s));
        let theirs: BTreeMap<u64, &WireSetup> = inproc.iter().map(|s| (s.request, s)).collect();
        let show = |w: &WireSetup| format!("ok={} path={:?} total_ms={}", w.ok, w.path, w.total_ms);
        let differ: Vec<String> = all
            .iter()
            .filter(|s| theirs.get(&s.request).map(|t| one(t)) != Some(one(s)))
            .map(|s| {
                let t = theirs.get(&s.request).map_or("none".into(), |t| show(t));
                format!("request {}: socket {} / in-process {t}", s.request, show(s))
            })
            .collect();
        (setup_fingerprint(&inproc), differ)
    });
    out.checks.push(Check::new(
        "in_process_cross_check",
        verify.as_ref().is_ok_and(|(f, _)| *f == socket_fp),
        format!(
            "socket {socket_fp:#018x}, in-process (fingerprint, differing sessions) {verify:?}, \
             {sessions} sessions"
        ),
    ));
    out.checks.push(Check::new(
        "every_session_answered",
        all.len() as u64 == sessions,
        format!("{} results for {sessions} sessions", all.len()),
    ));
    out.fingerprint =
        format!("daemon-open sessions={sessions} setup_fingerprint={socket_fp:#018x}");
    out.attempted = sessions;
    out.failed = rungs.iter().map(|r| r.failed).sum();
    out.errors = errors;

    let h = &steps[HEADLINE];
    let answered = h.reps.iter().map(|r| r.setup_ms.len()).sum::<usize>() as f64;
    let h_wall: f64 = h.reps.iter().map(|r| r.wall_s).sum();
    let m = &mut out.m;
    m.set("setup_s", median(&setups).expect("several set-ups"));
    let why = "no session completed at the headline rate";
    m.ratio("composes_per_s", answered, h_wall);
    set_pct(m, "compose_p50_us", &h.service_us, 50.0, why);
    set_pct(m, "compose_p99_us", &h.service_us, 99.0, why);
    set_pct(m, "session_setup_p50_ms", &h.setup_ms, 50.0, why);
    set_pct(m, "session_setup_p99_ms", &h.setup_ms, 99.0, why);
    match steps
        .iter()
        .filter(|s| s.passes())
        .map(|r| r.rate)
        .reduce(f64::max)
    {
        Some(rate) => m.set("max_rate_per_s", rate),
        None => m.absent("max_rate_per_s", "no rung met the p99 limit"),
    }
    if let Some(mb) = peak_rss {
        m.set("peak_rss_mb", mb);
    }
    if args.trace {
        m.ratio("traced.composes_per_s", answered, h_wall);
        set_pct(m, "traced.session_setup_p50_ms", &h.setup_ms, 50.0, why);
    }
    runtime_metrics(m, h, &rungs, &totals, cpu_s, sessions, &boots);

    let mut ladder_json = Vec::new();
    for r in &rungs {
        let mut o = crate::out::Obj::new();
        o.num("rate_per_s", r.rate)
            .int("sessions", r.sessions)
            .num("wall_s", r.wall_s)
            .num("idle_s", r.idle_s)
            .num("setup_p50_ms", pct(&r.setup_ms, 50.0).unwrap_or(f64::NAN))
            .num("setup_p99_ms", r.p99())
            .num("lag_p99_ms", pct(&r.lag_ms, 99.0).unwrap_or(f64::NAN))
            .int("backlog_at_end", r.backlog)
            .int("failed", r.failed)
            .int("frames_sent", r.frames_sent)
            .int("frames_delivered", r.frames_delivered);
        ladder_json.push(o.finish());
    }
    let passes: Vec<String> = steps
        .iter()
        .map(|s| format!("[{}, {}]", s.rate, s.passes()))
        .collect();
    out.info
        .nums("setup_s_samples", &setups)
        .nums("bootstrap_s_samples", &boots)
        .num("p99_limit_ms", P99_LIMIT_MS)
        .num("headline_rate_per_s", h.rate)
        .int("headline_samples", h.setup_ms.len() as u64)
        .int("headline_replicas", REPLICAS as u64)
        .raw("ladder", &format!("[{}]", ladder_json.join(", ")))
        .raw("rate_passes", &format!("[{}]", passes.join(", ")))
        .num("daemon_cpu_s", cpu_s)
        .int("fault_drops", totals.msgs_dropped)
        .int("generator_threads", 1);
    // The timed wall leaves out idle waits, so trace coverage is the share
    // of the busy time the layers account for.
    out.timed_wall_s = rungs.iter().map(|r| r.wall_s - r.idle_s).sum();
    out.tracer = Some(tr);
    Ok(out)
}

fn runtime_metrics(
    m: &mut Metrics,
    h: &Step,
    rungs: &[&Rung],
    totals: &WireStats,
    cpu_s: f64,
    sessions: u64,
    boots: &[f64],
) {
    let why = "no session completed at the headline rate";
    set_pct(
        m,
        "runtime.setup_overhead_ms.p50",
        &h.overhead_ms,
        50.0,
        why,
    );
    set_pct(
        m,
        "runtime.setup_overhead_ms.p99",
        &h.overhead_ms,
        99.0,
        why,
    );
    m.set("runtime.cpu_s", cpu_s);
    m.ratio("runtime.cpu_ms_per_session", cpu_s * 1e3, sessions as f64);
    m.set(
        "runtime.bootstrap_s",
        median(boots).expect("several set-ups"),
    );
    m.ratio(
        "wire.frames_tx_per_session",
        totals.frames_tx as f64,
        sessions as f64,
    );
    m.ratio(
        "wire.bytes_tx_per_session",
        totals.bytes_tx as f64,
        sessions as f64,
    );
    m.set("wire.decode_errors", totals.decode_errors as f64);
    let lost: u64 = rungs
        .iter()
        .map(|r| r.frames_sent - r.frames_delivered.min(r.frames_sent))
        .sum();
    m.set("evnet.msgs_dropped", lost as f64);
    m.set("evnet.conns_opened", totals.conns_opened as f64);
    m.set("evnet.conn_retries", totals.conn_retries as f64);
    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    set_pct(m, "loadgen.lag_ms.p99", &lag, 99.0, "no compose was sent");
    m.set(
        "loadgen.backlog",
        rungs.iter().map(|r| r.backlog).max().unwrap_or(0) as f64,
    );
    m.set("workload.gen_busy_s", rungs.iter().map(|r| r.gen_s).sum());
    let sim = "daemon-open runs no simulator layer; the daemons' own work is in runtime.*";
    let names: Vec<&'static str> = crate::out::METRICS
        .iter()
        .map(|x| x.0)
        .filter(|n| {
            [
                "bcp.",
                "dht.",
                "setup.",
                "paths.",
                "state.",
                "recovery.",
                "baselines.",
                "event_core.",
            ]
            .iter()
            .any(|p| n.starts_with(p))
        })
        .collect();
    m.absent_all(&names, sim);
}
