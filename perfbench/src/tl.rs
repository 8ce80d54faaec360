//! `tl-flows`: the single-design latency a `casyn map` user sees.
//! TOO_LARGE-statistics designs each run Table 1's pair — DAGON and SIS
//! (bounded extraction + cone minimum-area mapping) — from network to
//! timed result through `prepare_pool` + `full_flow`, in a die fixed
//! before either flow runs, as Table 1 fixes it.

use crate::compose::{self, LayerCounts, Quality, Row};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{nproc, write_trace, Args, Report};
use casyn_core::{CostKind, MapOptions, PartitionScheme};
use casyn_exec::Pool;
use casyn_flow::{full_flow, prepare_pool, FlowOptions, FlowResult};
use casyn_logic::OptimizeOptions;
use casyn_netlist::bench::{random_pla, PlaGenConfig};
use casyn_netlist::network::Network;
use casyn_place::Floorplan;
use std::time::Instant;

/// Design 0 of the default seed reproduces `casyn_netlist::bench::too_large()`.
const DEFAULT_SEED: u64 = 0x100_1a57e;

/// Designs per run. Design 0 is generated from the run seed itself,
/// design `j` from the seed mixed with `j`, so neighbouring run seeds share
/// no design.
const DESIGNS: u64 = 2;
/// Routing supply at which both flows converge within two negotiation
/// iterations on the default seed.
const CAPACITY_SCALE: f64 = 8.0;
const PIN_BLOCKAGE: f64 = 0.8;
/// Utilization of the paper's TOO_LARGE DAGON netlist in Table 1.
const UTILIZATION: f64 = 0.8437;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The layers `prepare_pool` + `full_flow` call for one flow of the pair.
const FLOW_LAYERS: [&str; 7] = [
    "logic.optimize",
    "logic.decompose",
    "place.global",
    "core.map",
    "place.legalize",
    "route",
    "timing.sta",
];
const VECTORS: usize = 64;

fn design(seed: u64) -> Network {
    random_pla(&PlaGenConfig {
        inputs: 38,
        outputs: 3,
        terms: 1390,
        min_literals: 10,
        max_literals: 22,
        mean_outputs_per_term: 1.2,
        seed,
    })
    .to_network()
}

/// Table 1's pair: (name, flow options, mapper options) in run order.
fn flows(fp: Floorplan) -> [(&'static str, FlowOptions, MapOptions); 2] {
    let mut dagon =
        FlowOptions { target_utilization: UTILIZATION, floorplan: Some(fp), ..Default::default() };
    dagon.route.capacity_scale = CAPACITY_SCALE;
    dagon.route.pin_blockage = PIN_BLOCKAGE;
    let mut sis = dagon.clone();
    // extraction effort bounded as Table 1 bounds it
    sis.optimize = Some(OptimizeOptions {
        max_cube_extractions: 350,
        max_kernel_extractions: 40,
        ..Default::default()
    });
    let area = |scheme| MapOptions { scheme, cost: CostKind::Area, ..Default::default() };
    [("DAGON", dagon, area(PartitionScheme::Dagon)), ("SIS", sis, area(PartitionScheme::Cone))]
}

/// One design of the run with its fixed die.
struct Design {
    seed: u64,
    network: Network,
    die: Floorplan,
}

/// Set-up: generate every design and size its die from the minimum-area
/// mapping of the unoptimized network, with a span around each call.
fn setup(seed: u64, t: &mut Tracer) -> Vec<Design> {
    let sizing = FlowOptions { target_utilization: UTILIZATION, ..Default::default() };
    (0..DESIGNS)
        .map(|j| {
            let seed = seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let network = t.span("netlist.gen", |_| design(seed));
            let graph = compose::subject_graph(t, &network, &sizing);
            let die = t.span("core.floorplan_map", |_| compose::floorplan_of(&graph, &sizing));
            Design { seed, network, die }
        })
        .collect()
}

/// Runs one design's pair through the entry points.
fn run_pair(d: &Design, pool: &Pool) -> Result<Vec<FlowResult>, String> {
    flows(d.die)
        .iter()
        .map(|(name, opts, map_opts)| {
            let prep = prepare_pool(&d.network, opts, pool)
                .map_err(|e| format!("design {:#x} {name}: {e}", d.seed))?;
            full_flow(&prep, map_opts, opts)
                .map_err(|e| format!("design {:#x} {name}: {e}", d.seed))
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut report = Report::new(args.trace);
    let pool = Pool::new(nproc());
    let mut setup_s = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ds = setup(seed, &mut Tracer::default());
        setup_s.push(t0.elapsed().as_secs_f64());
        if designs.is_empty() {
            designs = ds;
        } else {
            let same = designs.iter().zip(&ds).all(|(a, b)| a.die == b.die);
            report.check(same, || "set-up is not deterministic: dies differ".into());
        }
    }
    eprintln!(
        "tl-flows: seed {seed:#x}, {DESIGNS} designs, setup median {:.3} s",
        median(&setup_s)
    );
    if args.trace {
        traced(seed, &designs, &pool, &mut report);
        return report;
    }
    let mut design_ms = Vec::new();
    let mut reference: Vec<Vec<Row>> = Vec::new();
    let mut quality = Quality::default();
    let t_run = Instant::now();
    'measure: loop {
        for (j, d) in designs.iter().enumerate() {
            let t0 = Instant::now();
            let results = match run_pair(d, &pool) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    return report;
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            design_ms.push(ms);
            let rows: Vec<Row> = results.iter().map(Row::of).collect();
            if reference.len() <= j {
                for (r, (name, opts, _)) in results.iter().zip(flows(d.die)) {
                    let row = Row::of(r);
                    quality.add(&row);
                    eprintln!(
                        "  design {:#x} {name:<5} cells {:>6} area {:>9.0} WL {:>9.0} viol {:>4} iters {:>2} crit {:.3}",
                        d.seed, row.cells, row.area, row.routed_wl, row.violations, row.iters, row.crit_ns
                    );
                    let bad = compose::simulation_mismatches(
                        &d.network, &r.netlist, &opts, d.seed, VECTORS,
                    );
                    report.check(bad == 0, || {
                        format!("design {:#x} {name}: {bad} of {VECTORS} vectors mismatch", d.seed)
                    });
                }
                reference.push(rows);
            } else {
                report.check(reference[j] == rows, || {
                    format!("design {:#x}: repeated pair rows differ", d.seed)
                });
            }
            // a further pass only if it ends in time
            let pass_s = ms / 1e3 * designs.len() as f64;
            if j + 1 == designs.len() && t_run.elapsed().as_secs_f64() + pass_s > args.seconds {
                break 'measure;
            }
        }
    }
    eprintln!("designs timed: {} ({:?} ms)", design_ms.len(), design_ms);
    report.set("setup_s", median(&setup_s));
    report.set("task_p50_ms", median(&design_ms));
    report.set("task_p95_ms", quantile(&design_ms, 0.95));
    report.set("peak_heap_mb", casyn_obs::alloc::peak_bytes() as f64 / 1e6);
    report.set("routed_wl_um", quality.routed_wl_um);
    report.set("crit_ns", quality.crit_ns);
    report.set("cell_area_um2", quality.cell_area_um2);
    report
}

/// The traced run: every design's pair rebuilt from the layer functions
/// serially, then the serial and pooled entry points for the same work.
fn traced(seed: u64, designs: &[Design], pool: &Pool, report: &mut Report) {
    let serial = Pool::serial();
    let mut t = Tracer::default();
    let same = setup(seed, &mut t).iter().zip(designs).all(|(a, b)| a.die == b.die);
    report.check(same, || "traced set-up sized different dies".into());
    let setup_layer_ms = t.self_ms(&FLOW_LAYERS);
    let mut front_counts = LayerCounts::default();
    let mut flow_counts = LayerCounts::default();
    let mut traced_rows = Vec::new();
    let t0 = Instant::now();
    let mut run = 0;
    for d in designs {
        for (name, opts, map_opts) in flows(d.die) {
            run += 1;
            t.set_run(run);
            let out = compose::prepare(&mut t, &d.network, &opts, &serial, &mut front_counts)
                .and_then(|front| {
                    compose::flow(&mut t, &front, &map_opts, &opts, &mut flow_counts)
                });
            match out {
                Ok((row, _)) => traced_rows.push(row),
                Err(e) => {
                    report.fail(format!("traced design {:#x} {name}: {e}", d.seed));
                    return;
                }
            }
        }
    }
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let entry = |p: &Pool| -> Result<(f64, Vec<Row>), String> {
        let t0 = Instant::now();
        let mut rows = Vec::new();
        for d in designs {
            rows.extend(run_pair(d, p)?.iter().map(Row::of));
        }
        Ok((t0.elapsed().as_secs_f64() * 1e3, rows))
    };
    let (serial_ms, serial_rows, pooled_ms, pooled_rows) = match (entry(&serial), entry(pool)) {
        (Ok((s, sr)), Ok((p, pr))) => (s, sr, p, pr),
        (Err(e), _) | (_, Err(e)) => {
            report.fail(format!("entry-point pair: {e}"));
            return;
        }
    };
    report.check(traced_rows == pooled_rows, || {
        "traced serial composition does not reproduce the entry-point rows".into()
    });
    report.check(serial_rows == pooled_rows, || "serial and pooled pair rows differ".into());
    eprintln!("pairs: traced serial {traced_ms:.0} ms, serial {serial_ms:.0} ms, pooled {pooled_ms:.0} ms");
    compose::set_layer_metrics(report, &t, &front_counts, &flow_counts);
    report.set("flow.glue_ms", serial_ms - (t.self_ms(&FLOW_LAYERS) - setup_layer_ms));
    report.set("exec.sweep_speedup", traced_ms / pooled_ms);
    report.set("exec.efficiency", traced_ms / pooled_ms / pool.workers() as f64);
    report.set("bench.trace_overhead_pct", (traced_ms / serial_ms - 1.0) * 100.0);
    if let Err(e) = write_trace("tl-flows", seed, &t.chrome_json()) {
        report.fail(e);
    }
}
