//! `spla-edge`: the paper's table regeneration. An SPLA-statistics PLA
//! is prepared once (in set-up) and swept over the 12-rung Table 2 K
//! ladder on a pool, at Table 2's calibrated routing supply.

use crate::compose::{self, LayerCounts, Quality, Row};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{nproc, write_trace, Args, Report};
use casyn_exec::Pool;
use casyn_flow::{k_sweep_prepared_pool, prepare_pool, FlowOptions, KSweepEntry, Prepared};
use casyn_netlist::bench::{random_pla, PlaGenConfig};
use casyn_netlist::network::Network;
use std::time::Instant;

/// Reproduces `casyn_netlist::bench::spla()`.
const DEFAULT_SEED: u64 = 0x5b1a;

/// Table 2's K ladder (`casyn_bench::TABLE_K_VALUES`).
const K_LADDER: [f64; 12] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0];

/// Routing supply at Table 2's calibrated routability edge.
const CAPACITY_SCALE: f64 = 5.895;
const PIN_BLOCKAGE: f64 = 0.8;
/// Utilization of the paper's K = 0 SPLA netlist in its fixed die.
const K0_UTILIZATION: f64 = 0.611;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Random vectors simulated per mapped netlist.
const VECTORS: usize = 64;

fn design(seed: u64) -> Network {
    random_pla(&PlaGenConfig {
        inputs: 16,
        outputs: 46,
        terms: 2307,
        min_literals: 6,
        max_literals: 13,
        mean_outputs_per_term: 1.35,
        seed,
    })
    .to_network()
}

fn options() -> FlowOptions {
    let mut opts = FlowOptions { target_utilization: K0_UTILIZATION, ..Default::default() };
    opts.route.capacity_scale = CAPACITY_SCALE;
    opts.route.pin_blockage = PIN_BLOCKAGE;
    opts
}

fn rows(entries: &[KSweepEntry]) -> Vec<Row> {
    entries.iter().map(|e| Row::of(&e.result)).collect()
}

fn setup(seed: u64, opts: &FlowOptions, pool: &Pool) -> Result<(Network, Prepared), String> {
    let network = design(seed);
    let prep = prepare_pool(&network, opts, pool).map_err(|e| format!("prepare: {e}"))?;
    Ok((network, prep))
}

pub fn run(args: &Args) -> Report {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut report = Report::new(args.trace);
    let opts = options();
    let pool = Pool::new(nproc());
    let mut setup_s = Vec::new();
    let mut first: Option<(Network, Prepared)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (network, prep) = match setup(seed, &opts, &pool) {
            Ok(s) => s,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some((network, prep)),
            Some((_, p)) => report
                .check(p.positions == prep.positions && p.floorplan == prep.floorplan, || {
                    "set-up is not deterministic: placements differ between repetitions".into()
                }),
        }
    }
    let (network, prep) = first.expect("at least one set-up ran");
    eprintln!(
        "spla-edge: seed {seed:#x}, {} base gates, die {:.0} um2, setup median {:.3} s",
        prep.base_gates,
        prep.floorplan.die_area(),
        median(&setup_s)
    );
    if args.trace {
        traced(seed, &network, &prep, &opts, &pool, &mut report);
        return report;
    }
    let mut ladder_ms = Vec::new();
    let mut reference: Option<Vec<KSweepEntry>> = None;
    let t_run = Instant::now();
    loop {
        let t0 = Instant::now();
        let entries = match k_sweep_prepared_pool(&prep, &K_LADDER, &opts, &pool) {
            Ok(e) => e,
            Err(e) => {
                report.fail(format!("ladder: {e}"));
                return report;
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ladder_ms.push(ms);
        match &reference {
            None => reference = Some(entries),
            Some(r) => report.check(rows(r) == rows(&entries), || {
                "repeated ladder rows differ from the first ladder".into()
            }),
        }
        // at least two ladders; a further one only if it ends in time
        if ladder_ms.len() >= 2 && t_run.elapsed().as_secs_f64() + ms / 1e3 > args.seconds {
            break;
        }
    }
    let peak_mb = casyn_obs::alloc::peak_bytes() as f64 / 1e6;
    let entries = reference.expect("at least one ladder ran");
    let mut quality = Quality::default();
    for (i, e) in entries.iter().enumerate() {
        let row = Row::of(&e.result);
        quality.add(&row);
        eprintln!(
            "  K={:<6} cells {:>6} area {:>9.0} WL {:>9.0} viol {:>4} iters {:>2} crit {:.3}",
            e.k, row.cells, row.area, row.routed_wl, row.violations, row.iters, row.crit_ns
        );
        let bad = compose::simulation_mismatches(
            &network,
            &e.result.netlist,
            &opts,
            seed ^ i as u64,
            VECTORS,
        );
        report.check(bad == 0, || format!("K={}: {bad} of {VECTORS} vectors mismatch", e.k));
    }
    eprintln!("ladders: {} ({:?} ms)", ladder_ms.len(), ladder_ms);
    report.set("setup_s", median(&setup_s));
    report.set("task_p50_ms", median(&ladder_ms));
    report.set("task_p95_ms", quantile(&ladder_ms, 0.95));
    report.set("peak_heap_mb", peak_mb);
    report.set("routed_wl_um", quality.routed_wl_um);
    report.set("crit_ns", quality.crit_ns);
    report.set("cell_area_um2", quality.cell_area_um2);
    report
}

/// The traced run: the front end and the ladder rebuilt from the layer
/// functions, serially, then the serial and pooled entry points for the
/// same ladder. All three must agree row for row.
fn traced(
    seed: u64,
    network: &Network,
    prep: &Prepared,
    opts: &FlowOptions,
    pool: &Pool,
    report: &mut Report,
) {
    let serial = Pool::serial();
    let mut t = Tracer::default();
    let mut counts = LayerCounts::default();
    let traced_net = t.span("netlist.gen", |_| design(seed));
    let front = match compose::prepare(&mut t, &traced_net, opts, &serial, &mut counts) {
        Ok(f) => f,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    report.check(front.positions == prep.positions && front.floorplan == prep.floorplan, || {
        "traced front end differs from prepare_pool".into()
    });
    let setup_counts = counts;
    let mut flow_counts = LayerCounts::default();
    let t0 = Instant::now();
    let mut traced_rows = Vec::new();
    let mut netlists = Vec::new();
    for (i, &k) in K_LADDER.iter().enumerate() {
        t.set_run(i as u32 + 1);
        match compose::flow(&mut t, &front, &compose::congestion_map(k), opts, &mut flow_counts) {
            Ok((row, nl)) => {
                traced_rows.push(row);
                netlists.push(nl);
            }
            Err(e) => {
                report.fail(format!("traced K={k}: {e}"));
                return;
            }
        }
    }
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (i, nl) in netlists.iter().enumerate() {
        let bad = compose::simulation_mismatches(network, nl, opts, seed ^ i as u64, VECTORS);
        report.check(bad == 0, || format!("traced K={}: {bad} vectors mismatch", K_LADDER[i]));
    }
    let timed_ladder = |p: &Pool| -> Result<(f64, Vec<Row>), String> {
        let t0 = Instant::now();
        let entries = k_sweep_prepared_pool(prep, &K_LADDER, opts, p).map_err(|e| e.to_string())?;
        Ok((t0.elapsed().as_secs_f64() * 1e3, rows(&entries)))
    };
    let (serial_ms, serial_rows, pooled_ms, pooled_rows) =
        match (timed_ladder(&serial), timed_ladder(pool)) {
            (Ok((s, sr)), Ok((p, pr))) => (s, sr, p, pr),
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("entry-point ladder: {e}"));
                return;
            }
        };
    report.check(traced_rows == pooled_rows, || {
        "traced serial composition does not reproduce the pooled ladder rows".into()
    });
    report.check(serial_rows == pooled_rows, || "serial and pooled ladder rows differ".into());
    eprintln!("ladder: traced serial {traced_ms:.0} ms, serial {serial_ms:.0} ms, pooled {pooled_ms:.0} ms");
    let layers = ["core.map", "place.legalize", "route", "timing.sta"];
    compose::set_layer_metrics(report, &t, &setup_counts, &flow_counts);
    report.set("flow.glue_ms", serial_ms - t.self_ms(&layers));
    report.set("exec.sweep_speedup", traced_ms / pooled_ms);
    report.set("exec.efficiency", traced_ms / pooled_ms / pool.workers() as f64);
    report.set("bench.trace_overhead_pct", (traced_ms / serial_ms - 1.0) * 100.0);
    if let Err(e) = write_trace("spla-edge", seed, &t.chrome_json()) {
        report.fail(e);
    }
}
