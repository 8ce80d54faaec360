//! `serve-mix`: the service latency users see. An in-process
//! `casyn_serve::Server` with a temporary state directory (WAL + disk
//! cache) and one worker per core takes manifests from one open-loop
//! generator at a fixed rate; one collector fetches results in
//! submission order. Three kinds of job are mixed:
//!
//! * cold — a new small PLA: a compute plus WAL and cache writes;
//! * repeat — an exact resubmission: a result-cache hit (or a dedup onto
//!   the in-flight original);
//! * re-K — a recent design with a new K list: a prepare-cache hit.
//!
//! Latency runs from each request's due time to the moment its result is
//! in hand, so a stall also charges the requests queued behind it.

use crate::compose::{self, LayerCounts, Quality, Row};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{nproc, write_trace, Args, Report, OUT_DIR};
use casyn_exec::Pool;
use casyn_flow::{full_flow, prepare_pool, FlowOptions};
use casyn_netlist::bench::{random_pla, PlaGenConfig};
use casyn_netlist::network::Network;
use casyn_netlist::Pla;
use casyn_obs::json::JsonValue;
use casyn_serve::{request_json, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The schedule seed used when none is given.
const DEFAULT_SEED: u64 = 0x5e4e;

/// Offered load in jobs per second. At this rate the workers of a
/// 2-core machine are busy about 15% of the time, so a job rarely waits
/// behind another: the median job's latency is its compute plus about
/// 4 ms of HTTP, WAL and thread wake-ups. At 18-24 jobs/s with a heavier
/// mix, the dispatcher's run-the-whole-batch barrier turned timing
/// jitter into head-of-line waits, and latency percentiles spread by
/// 25-60% between runs of the same code.
const RATE_PER_S: f64 = 16.0;
/// Repeats and re-K jobs draw from this many most recent designs, which
/// stay well inside the server's prepare and result caches.
const RECENT: usize = 8;
/// The K lists jobs choose from; all of one length, so re-K jobs cost
/// about the same.
const K_LISTS: [&[f64]; 6] =
    [&[0.0, 0.5], &[0.1, 1.0], &[0.0, 0.2], &[0.5, 5.0], &[1.0, 5.0], &[0.2, 0.5]];
/// Set-ups per run; setup_s is their median (one takes about 50 ms).
const SETUP_REPS: usize = 21;
/// Routing layers of every job. With five, every flow of these small
/// designs routes without overflow in its first pass, so a job's
/// compute time follows its design's size. At serve's default of three,
/// about half the flows stop at the router's 12-pass cap; whether a
/// design does is a coin flip of its random terms, and a capped flow
/// spends about 6 ms more in the router, a large share of a re-K job's
/// 16 ms compute.
const LAYERS: usize = 5;
const VECTORS: usize = 64;
/// A run is invalid when the generator sent any request later than this
/// after its due time, or left more than one second of arrivals
/// unfinished when it stopped.
const MAX_GEN_LATE_MS: f64 = 250.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Repeat,
    ReK,
}

struct Job {
    due_s: f64,
    kind: Kind,
    design: usize,
    ks: usize,
}

/// The seeded job schedule: designs (PLA text) and timed submissions.
struct Schedule {
    designs: Vec<String>,
    jobs: Vec<Job>,
}

/// The `c`-th small PLA: its size cycles through fixed steps so every
/// run sees the same spread of small and medium designs, and its terms
/// come from `rng`.
fn small_pla(rng: &mut StdRng, c: usize) -> String {
    random_pla(&PlaGenConfig {
        inputs: 12 + c % 5,
        outputs: 6 + c % 7,
        terms: TERMS[c % TERMS.len()],
        min_literals: 3,
        max_literals: 8,
        mean_outputs_per_term: 1.3,
        seed: rng.gen(),
    })
    .to_pla_string()
}

/// The mix, one block of ten consecutive jobs in a seeded order: two
/// cold, five re-K and three repeats. Fixing the counts per block keeps
/// every run's mix the same and spreads cold jobs evenly over time. The
/// median job is a re-K job near the middle of their latencies, where
/// they are dense; cold jobs make up most of the slowest 5%. Mixes whose
/// median fell on a cache hit (about 3 ms, mostly thread wake-ups) or on
/// the sparse gap between re-K and cold latencies spread by 28-44%
/// between runs on a 2 vCPU machine.
const BLOCK: [Kind; 10] = [
    Kind::Cold,
    Kind::Cold,
    Kind::ReK,
    Kind::ReK,
    Kind::ReK,
    Kind::ReK,
    Kind::ReK,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
];

/// Product-term counts cold designs cycle through.
const TERMS: [usize; 5] = [24, 32, 40, 48, 56];

fn schedule(seed: u64, seconds: f64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (RATE_PER_S * seconds).round().max(1.0) as usize;
    let mut designs = Vec::new();
    let mut jobs: Vec<Job> = Vec::with_capacity(n);
    // K lists already submitted per design
    let mut used: Vec<Vec<usize>> = Vec::new();
    let mut block = Vec::new();
    for i in 0..n {
        if block.is_empty() {
            block = BLOCK.to_vec();
            // seeded Fisher-Yates; popped from the back below
            for j in (1..block.len()).rev() {
                block.swap(j, rng.gen_range(0..=j));
            }
        }
        let mut kind = block.pop().expect("block refilled above");
        if designs.is_empty() {
            kind = Kind::Cold;
        }
        let recent = designs.len().saturating_sub(RECENT)..designs.len();
        let mut pick = (0, 0);
        if kind == Kind::ReK {
            let d = rng.gen_range(recent.clone());
            let fresh: Vec<usize> = (0..K_LISTS.len()).filter(|k| !used[d].contains(k)).collect();
            if fresh.is_empty() {
                kind = Kind::Cold;
            } else {
                pick = (d, fresh[rng.gen_range(0..fresh.len())]);
            }
        }
        if kind == Kind::Repeat {
            let d = rng.gen_range(recent);
            pick = (d, used[d][rng.gen_range(0..used[d].len())]);
        }
        if kind == Kind::Cold {
            let c = designs.len();
            designs.push(small_pla(&mut rng, c));
            used.push(Vec::new());
            pick = (c, c % K_LISTS.len());
        }
        let (design, ks) = pick;
        if !used[design].contains(&ks) {
            used[design].push(ks);
        }
        jobs.push(Job { due_s: i as f64 / RATE_PER_S, kind, design, ks });
    }
    Schedule { designs, jobs }
}

fn manifest(design: usize, text: &str, ks: &[f64]) -> String {
    let job = JsonValue::object(vec![
        ("name".into(), JsonValue::Str(format!("d{design}"))),
        ("source".into(), JsonValue::Str(text.into())),
        ("format".into(), JsonValue::Str("pla".into())),
        ("ks".into(), JsonValue::Array(ks.iter().map(|&k| JsonValue::Number(k)).collect())),
        ("layers".into(), JsonValue::Number(LAYERS as f64)),
    ]);
    JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![job]))]).to_string_compact()
}

/// The flow options the server derives for a manifest entry with
/// default utilization and placer and [`LAYERS`] routing layers.
fn server_options() -> FlowOptions {
    let mut opts = FlowOptions::default();
    opts.route.layers = LAYERS;
    opts
}

fn network_of(text: &str) -> Result<Network, String> {
    text.parse::<Pla>().map(|p| p.to_network()).map_err(|e| format!("design text: {e}"))
}

/// What the client saw of one job.
#[derive(Default, Clone)]
struct Outcome {
    submit_ms: f64,
    latency_ms: f64,
    /// Server-side compute wall time (0 for cache hits).
    compute_ms: f64,
    cache: String,
    refused: bool,
    error: Option<String>,
    rows: Vec<Row>,
    /// When the result was in hand, from the start of the run.
    done_s: f64,
}

/// Parses a result document's rows, dropping the timing telemetry.
fn rows_of(doc: &JsonValue) -> Result<Vec<Row>, String> {
    let rows = doc.get("rows").and_then(JsonValue::as_array).ok_or("result has no rows")?;
    rows.iter()
        .map(|r| {
            let num = |k: &str| {
                r.get(k).and_then(JsonValue::as_f64).ok_or_else(|| format!("row has no {k}"))
            };
            Ok(Row {
                cells: num("num_cells")? as usize,
                area: num("cell_area")?,
                routed_wl: num("wirelength_um")?,
                violations: num("violations")? as usize,
                // the job rows do not carry the iteration count
                iters: 0,
                crit_ns: num("critical_ns")?,
            })
        })
        .collect()
}

fn counter(addr: &str, key: &str) -> f64 {
    request_json(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|(_, doc)| {
            doc.get("metrics").and_then(|m| m.get(key)).and_then(JsonValue::as_f64)
        })
        .unwrap_or(0.0)
}

/// A started server with its state directory.
struct Service {
    server: Server,
    dir: PathBuf,
}

impl Service {
    fn start(tag: &str) -> Result<Service, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("serve-state-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: nproc(),
            state_dir: Some(dir.clone()),
            result_wait_secs: 120,
            ..Default::default()
        })?;
        Ok(Service { server, dir })
    }

    fn stop(self) -> Result<(), String> {
        let addr = self.server.endpoint();
        request_json(&addr, "POST", "/shutdown", Some("{}"))?;
        self.server.wait()?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// Submits one manifest and blocks until its single job is terminal.
fn submit_and_wait(addr: &str, body: &str) -> Result<JsonValue, String> {
    let (status, doc) = request_json(addr, "POST", "/jobs", Some(body))?;
    if status != 202 {
        return Err(format!("submit answered {status}"));
    }
    let id = job_id(&doc)?;
    let (_, res) = request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None)?;
    Ok(res)
}

fn job_id(submit: &JsonValue) -> Result<usize, String> {
    submit
        .get("jobs")
        .and_then(JsonValue::as_array)
        .and_then(|j| j.first())
        .and_then(|j| j.get("id"))
        .and_then(JsonValue::as_f64)
        .map(|id| id as usize)
        .ok_or_else(|| "submit response has no job id".into())
}

/// Set-up: server start plus one warm-up job to completion.
fn setup(tag: &str) -> Result<Service, String> {
    let svc = Service::start(tag)?;
    // the same warm-up design for every seed
    let warm = manifest(usize::MAX, &small_pla(&mut StdRng::seed_from_u64(0x3a3a), 2), K_LISTS[0]);
    submit_and_wait(&svc.server.endpoint(), &warm)?;
    Ok(svc)
}

/// The open loop: the generator (this thread) submits each job at its
/// due time and fetches cache hits at once; the collector thread waits
/// for the other results in submission order. Two connections at most
/// are open at once.
fn open_loop(addr: &str, sched: &Schedule) -> (Vec<Outcome>, f64, f64, f64) {
    let pending: Mutex<(VecDeque<(usize, usize)>, bool)> = Mutex::new((VecDeque::new(), false));
    let ready = Condvar::new();
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(vec![Outcome::default(); sched.jobs.len()]);
    let peak = Mutex::new(0u64);
    let sample_peak = || {
        let mut p = peak.lock().expect("peak sampler poisoned");
        *p = (*p).max(casyn_obs::alloc::peak_bytes());
    };
    let t0 = Instant::now();
    let mut max_late_ms = 0.0f64;
    let mut window_end_s = 0.0;
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let next = {
                let mut g = pending.lock().expect("pending queue poisoned");
                loop {
                    if let Some(n) = g.0.pop_front() {
                        break Some(n);
                    }
                    if g.1 {
                        break None;
                    }
                    g = ready.wait(g).expect("pending queue poisoned");
                }
            };
            let Some((i, id)) = next else { break };
            let got = request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None);
            let done_s = t0.elapsed().as_secs_f64();
            sample_peak();
            let mut g = outcomes.lock().expect("outcomes poisoned");
            record_result(&mut g[i], got, id, done_s, sched.jobs[i].due_s);
        });
        for (i, job) in sched.jobs.iter().enumerate() {
            let due = Duration::from_secs_f64(job.due_s);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = t0.elapsed();
            max_late_ms = max_late_ms.max((sent.as_secs_f64() - job.due_s) * 1e3);
            let body = manifest(job.design, &sched.designs[job.design], K_LISTS[job.ks]);
            let got = request_json(addr, "POST", "/jobs", Some(&body));
            let answered = t0.elapsed();
            sample_peak();
            let mut o =
                Outcome { submit_ms: (answered - sent).as_secs_f64() * 1e3, ..Default::default() };
            o.done_s = answered.as_secs_f64();
            o.latency_ms = (o.done_s - job.due_s) * 1e3;
            let mut queued = None;
            match got {
                Ok((202, doc)) => {
                    let first =
                        doc.get("jobs").and_then(JsonValue::as_array).and_then(|j| j.first());
                    let field = |f| first.and_then(|j| j.get(f)).and_then(JsonValue::as_str);
                    o.cache = field("cache").unwrap_or("?").to_string();
                    let done = field("status") == Some("done");
                    match job_id(&doc) {
                        // a cache hit is done on admission: fetch its rows
                        // now rather than behind the collector's queue
                        Ok(id) if done => {
                            let got =
                                request_json(addr, "GET", &format!("/jobs/{id}/result"), None);
                            record_result(&mut o, got, id, t0.elapsed().as_secs_f64(), job.due_s);
                        }
                        Ok(id) => queued = Some(id),
                        Err(e) => o.error = Some(e),
                    }
                }
                Ok((429 | 503, _)) => o.refused = true,
                Ok((status, _)) => o.error = Some(format!("submit answered {status}")),
                Err(e) => o.error = Some(e),
            }
            outcomes.lock().expect("outcomes poisoned")[i] = o;
            if let Some(id) = queued {
                pending.lock().expect("pending queue poisoned").0.push_back((i, id));
                ready.notify_one();
            }
        }
        window_end_s = t0.elapsed().as_secs_f64();
        pending.lock().expect("pending queue poisoned").1 = true;
        ready.notify_one();
    });
    let outcomes = outcomes.into_inner().expect("outcomes poisoned");
    let peak = peak.into_inner().expect("peak sampler poisoned");
    (outcomes, max_late_ms, window_end_s, peak as f64 / 1e6)
}

/// Records a fetched result document: completion time, compute time and
/// rows, or the error.
fn record_result(
    o: &mut Outcome,
    got: Result<(u16, JsonValue), String>,
    id: usize,
    done_s: f64,
    due_s: f64,
) {
    o.done_s = done_s;
    o.latency_ms = (done_s - due_s) * 1e3;
    match got {
        Ok((200, doc)) => {
            o.compute_ms = doc.get("wall_ms").and_then(JsonValue::as_f64).unwrap_or(0.0);
            if doc.get("status").and_then(JsonValue::as_str) != Some("done") {
                o.error = Some(format!("job {id} ended {:?}", doc.get("status")));
            }
            match rows_of(&doc) {
                Ok(r) => o.rows = r,
                Err(e) => o.error = Some(e),
            }
        }
        Ok((status, _)) => o.error = Some(format!("result of job {id} answered {status}")),
        Err(e) => o.error = Some(e),
    }
}

/// The distinct (design, K list) computations of a schedule, in first
/// submission order.
fn distinct(sched: &Schedule) -> Vec<(usize, usize)> {
    let mut seen = Vec::new();
    for j in &sched.jobs {
        if !seen.contains(&(j.design, j.ks)) {
            seen.push((j.design, j.ks));
        }
    }
    seen
}

/// The distinct computations grouped by design: one prepare each,
/// then one flow per K of every K list.
fn by_design(keys: &[(usize, usize)]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(d, k) in keys {
        groups.entry(d).or_default().push(k);
    }
    groups.into_iter().collect()
}

type Expected = BTreeMap<(usize, usize), Vec<Row>>;

/// Reference rows for every distinct computation via the entry points,
/// one design per pool job, with every mapped netlist simulated against
/// its source. Returns the rows and the summed per-design wall time (ms).
fn reference(
    sched: &Schedule,
    keys: &[(usize, usize)],
    seed: u64,
    pool: &Pool,
    report: &mut Report,
) -> Result<(Expected, f64), String> {
    let opts = server_options();
    let serial = Pool::serial();
    let groups = by_design(keys);
    let per_design = pool.par_map(&groups, |(d, klists)| {
        let network = network_of(&sched.designs[*d])?;
        let t0 = Instant::now();
        let prep = prepare_pool(&network, &opts, &serial).map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for &k in klists {
            let mut r = Vec::new();
            for &kv in K_LISTS[k] {
                let res = full_flow(&prep, &compose::congestion_map(kv), &opts)
                    .map_err(|e| e.to_string())?;
                r.push(Row::of(&res));
                results.push(res);
            }
            rows.push(((*d, k), r));
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let bad: usize = results
            .iter()
            .map(|r| {
                compose::simulation_mismatches(
                    &network,
                    &r.netlist,
                    &opts,
                    seed ^ *d as u64,
                    VECTORS,
                )
            })
            .sum();
        Ok::<_, String>((rows, ms, bad))
    });
    let mut out = BTreeMap::new();
    let mut total_ms = 0.0;
    for (g, res) in groups.iter().zip(per_design) {
        let (rows, ms, bad) = res?;
        report.check(bad == 0, || format!("design d{}: {bad} vectors mismatch", g.0));
        out.extend(rows);
        total_ms += ms;
    }
    Ok((out, total_ms))
}

pub fn run(args: &Args) -> Report {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut report = Report::new(args.trace);
    if let Err(e) = run_inner(args, seed, &mut report) {
        report.fail(e);
    }
    report
}

fn run_inner(args: &Args, seed: u64, report: &mut Report) -> Result<(), String> {
    let sched = schedule(seed, args.seconds);
    let mut setup_s = Vec::new();
    let mut svc = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = svc.take() {
            Service::stop(old)?;
        }
        let t0 = Instant::now();
        svc = Some(setup(&rep.to_string())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let svc = svc.expect("at least one set-up ran");
    let addr = svc.server.endpoint();
    eprintln!(
        "serve-mix: seed {seed:#x}, {} jobs at {RATE_PER_S}/s over {} designs, setup median {:.3} s",
        sched.jobs.len(),
        sched.designs.len(),
        median(&setup_s)
    );
    let computes0 = counter(&addr, "serve.computes");
    let prep_hits0 = counter(&addr, "serve.prepare_hits");
    casyn_obs::alloc::reset_peak();
    let (outcomes, gen_late_ms, window_end_s, peak_mb) = open_loop(&addr, &sched);
    let computes = counter(&addr, "serve.computes") - computes0;
    let prep_hits = counter(&addr, "serve.prepare_hits") - prep_hits0;
    svc.stop()?;

    // every job must finish, and all jobs of one (design, K list) agree
    let mut served: BTreeMap<(usize, usize), Vec<Row>> = BTreeMap::new();
    let mut refused = 0;
    for (job, o) in sched.jobs.iter().zip(&outcomes) {
        report.attempted += 1;
        if o.refused {
            refused += 1;
            report.failed += 1;
            continue;
        }
        if let Some(e) = &o.error {
            report.fail(format!("job d{} {:?}: {e}", job.design, job.kind));
            continue;
        }
        let key = (job.design, job.ks);
        match served.get(&key) {
            None => {
                served.insert(key, o.rows.clone());
            }
            Some(first) => report.check(*first == o.rows, || {
                format!(
                    "d{} {:?} ({}) rows differ from the first result",
                    job.design, job.kind, o.cache
                )
            }),
        }
    }
    let keys = distinct(&sched);
    // the traced run times the reference serially, to compare with the
    // serial traced composition
    let pool = if args.trace { Pool::serial() } else { Pool::new(nproc()) };
    let (expected, reference_ms) = reference(&sched, &keys, seed, &pool, report)?;
    let mut quality = Quality::default();
    for (key, rows) in &served {
        // job rows carry no iteration count; compare everything else
        let want: Option<Vec<Row>> =
            expected.get(key).map(|e| e.iter().map(|r| Row { iters: 0, ..*r }).collect());
        report.check(want.as_ref() == Some(rows), || {
            format!(
                "d{} K list {:?}: served rows differ from the entry points",
                key.0, K_LISTS[key.1]
            )
        });
        rows.iter().for_each(|r| quality.add(r));
    }
    let latency: Vec<f64> = outcomes.iter().filter(|o| !o.refused).map(|o| o.latency_ms).collect();
    let backlog_end = outcomes.iter().filter(|o| o.done_s > window_end_s).count();
    let invalid = gen_late_ms > MAX_GEN_LATE_MS || backlog_end as f64 > RATE_PER_S;
    let kinds = [Kind::Cold, Kind::ReK, Kind::Repeat]
        .map(|k| sched.jobs.iter().filter(|j| j.kind == k).count());
    eprintln!(
        "jobs: {} (cold {}, re-K {}, repeat {}), refused {refused}, generator late {gen_late_ms:.1} ms, backlog at end {backlog_end}",
        outcomes.len(),
        kinds[0],
        kinds[1],
        kinds[2]
    );
    let busy_ms: f64 = outcomes.iter().map(|o| o.compute_ms).sum();
    eprintln!(
        "server busy {:.0}% of {} workers over the window",
        busy_ms / (nproc() as f64 * window_end_s * 1e3) * 100.0,
        nproc()
    );
    for kind in [Kind::Cold, Kind::ReK, Kind::Repeat] {
        let of_kind: Vec<&Outcome> = sched
            .jobs
            .iter()
            .zip(&outcomes)
            .filter(|(j, o)| j.kind == kind && !o.refused)
            .map(|(_, o)| o)
            .collect();
        let l: Vec<f64> = of_kind.iter().map(|o| o.latency_ms).collect();
        let mut caches: BTreeMap<&str, usize> = BTreeMap::new();
        for o in &of_kind {
            *caches.entry(o.cache.as_str()).or_default() += 1;
        }
        eprintln!(
            "  {kind:?}: p25 {:.2} ms, p50 {:.2} ms, p95 {:.2} ms, cache {caches:?}",
            quantile(&l, 0.25),
            median(&l),
            quantile(&l, 0.95)
        );
    }
    if invalid {
        report.fail(format!(
            "open loop invalid: generator late {gen_late_ms:.1} ms (limit {MAX_GEN_LATE_MS}), backlog {backlog_end} (limit {RATE_PER_S})"
        ));
    }
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("task_p50_ms", median(&latency));
        report.set("task_p95_ms", quantile(&latency, 0.95));
        report.set("peak_heap_mb", peak_mb);
        report.set("routed_wl_um", quality.routed_wl_um);
        report.set("crit_ns", quality.crit_ns);
        report.set("cell_area_um2", quality.cell_area_um2);
        return Ok(());
    }
    let served_ok: Vec<&Outcome> =
        outcomes.iter().filter(|o| !o.refused && o.error.is_none()).collect();
    let submit: Vec<f64> = served_ok.iter().map(|o| o.submit_ms).collect();
    let computed: Vec<&&Outcome> = served_ok.iter().filter(|o| o.compute_ms > 0.0).collect();
    let compute: Vec<f64> = computed.iter().map(|o| o.compute_ms).collect();
    let wait: Vec<f64> =
        computed.iter().map(|o| (o.latency_ms - o.compute_ms - o.submit_ms).max(0.0)).collect();
    let hits = served_ok.iter().filter(|o| o.cache == "hit" || o.cache == "disk").count();
    report.set("serve.submit_ms_p50", median(&submit));
    report.set("serve.submit_ms_p95", quantile(&submit, 0.95));
    report.set("serve.compute_ms_p95", quantile(&compute, 0.95));
    report.set("serve.queue_wait_ms_p95", quantile(&wait, 0.95));
    report.set("serve.hit_share", hits as f64 / outcomes.len() as f64);
    report.set("serve.prepare_hit_share", prep_hits / computes.max(1.0));
    report.set("serve.rejected", refused as f64);
    report.set("serve.backlog_end", backlog_end as f64);
    report.set("bench.gen_late_ms", gen_late_ms);
    traced(&sched, &keys, &expected, reference_ms, seed, report)
}

/// The traced run: every distinct computation rebuilt from the layer
/// functions, serially, against the serial entry-point reference.
fn traced(
    sched: &Schedule,
    keys: &[(usize, usize)],
    expected: &Expected,
    reference_ms: f64,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let opts = server_options();
    let serial = Pool::serial();
    let mut t = Tracer::default();
    let mut front_counts = LayerCounts::default();
    let mut flow_counts = LayerCounts::default();
    let mut traced_ms = 0.0;
    for (run, (d, klists)) in by_design(keys).into_iter().enumerate() {
        t.set_run(run as u32 + 1);
        let network = t.span("netlist.gen", |_| network_of(&sched.designs[d]))?;
        let t0 = Instant::now();
        let front = compose::prepare(&mut t, &network, &opts, &serial, &mut front_counts)?;
        for k in klists {
            let mut rows = Vec::new();
            for &kv in K_LISTS[k] {
                let (row, _) = compose::flow(
                    &mut t,
                    &front,
                    &compose::congestion_map(kv),
                    &opts,
                    &mut flow_counts,
                )?;
                rows.push(row);
            }
            report.check(expected.get(&(d, k)) == Some(&rows), || {
                format!("traced d{d}: rows differ from the entry points")
            });
        }
        traced_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    compose::set_layer_metrics(report, &t, &front_counts, &flow_counts);
    let layers = [
        "logic.decompose",
        "core.floorplan_map",
        "place.global",
        "core.map",
        "place.legalize",
        "route",
        "timing.sta",
    ];
    report.set("flow.glue_ms", reference_ms - t.self_ms(&layers));
    report.set("bench.trace_overhead_pct", (traced_ms / reference_ms - 1.0) * 100.0);
    write_trace("serve-mix", seed, &t.chrome_json())
}
