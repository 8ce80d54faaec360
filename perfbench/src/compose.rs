//! The traced pipeline: the same steps `prepare_pool` and `full_flow`
//! take, rebuilt from each layer's public function with a span around
//! every call, plus the quality row used to prove the rebuilt pipeline
//! and the entry points compute the same thing.

use crate::trace::Tracer;
use crate::Report;
use casyn_core::{map, CostKind, MapOptions, PartitionScheme};
use casyn_exec::Pool;
use casyn_flow::{FlowOptions, FlowResult};
use casyn_logic::{decompose, optimize};
use casyn_netlist::mapped::MappedNetlist;
use casyn_netlist::network::Network;
use casyn_netlist::subject::SubjectGraph;
use casyn_netlist::Point;
use casyn_place::instance::{assign_mapped_ports, from_subject};
use casyn_place::metrics::total_hpwl_of_instance;
use casyn_place::{legalize_rows, place_subject_pool, Floorplan};
use casyn_route::route_mapped;
use casyn_timing::analyze_routed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The result columns of one flow that must repeat bit-for-bit between
/// the traced composition, the serial entry point and the pooled one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub cells: usize,
    pub area: f64,
    pub routed_wl: f64,
    pub violations: usize,
    pub iters: usize,
    pub crit_ns: f64,
}

impl Row {
    pub fn of(r: &FlowResult) -> Row {
        Row {
            cells: r.num_cells,
            area: r.cell_area,
            routed_wl: r.route.total_wirelength,
            violations: r.route.violations,
            iters: r.route.iterations,
            crit_ns: r.sta.critical_arrival(),
        }
    }
}

/// Sums of the quality metrics over a set of rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub routed_wl_um: f64,
    pub crit_ns: f64,
    pub cell_area_um2: f64,
}

impl Quality {
    pub fn add(&mut self, r: &Row) {
        self.routed_wl_um += r.routed_wl;
        self.crit_ns += r.crit_ns;
        self.cell_area_um2 += r.area;
    }
}

/// Counts gathered at the layer boundaries of the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub base_gates: usize,
    pub subject_hpwl_um: f64,
    pub legalize_displacement_um: f64,
    pub cells: usize,
    pub trees: usize,
    pub duplicated_covers: usize,
    pub route_iters: usize,
    pub rerouted_nets: usize,
    pub cap_hits: usize,
    pub violations: usize,
    pub overflow: f64,
}

/// The front-end artifacts `prepare_pool` produces.
pub struct Front {
    pub graph: SubjectGraph,
    pub positions: Vec<Point>,
    pub floorplan: Floorplan,
}

/// The die `prepare_pool` derives when no floorplan is fixed: a
/// throwaway minimum-area mapping at zero positions sized to the target
/// utilization.
pub fn floorplan_of(graph: &SubjectGraph, opts: &FlowOptions) -> Floorplan {
    let zeros = vec![Point::default(); graph.num_vertices()];
    let r = map(graph, &zeros, &opts.lib, &MapOptions::default());
    Floorplan::with_area(r.netlist.cell_area() / opts.target_utilization, 1.0)
}

/// The subject graph `prepare_pool` places (optimized first when the
/// options ask for it).
pub fn subject_graph(t: &mut Tracer, network: &Network, opts: &FlowOptions) -> SubjectGraph {
    let mut net = network.clone();
    if let Some(eff) = &opts.optimize {
        t.span("logic.optimize", |_| optimize(&mut net, eff));
    }
    t.span("logic.decompose", |_| decompose(&net).graph.sweep().0)
}

/// `prepare_pool`, one layer call at a time.
pub fn prepare(
    t: &mut Tracer,
    network: &Network,
    opts: &FlowOptions,
    pool: &Pool,
    counts: &mut LayerCounts,
) -> Result<Front, String> {
    t.span("prepare", |t| {
        let graph = subject_graph(t, network, opts);
        counts.base_gates += graph.num_gates();
        let floorplan = match opts.floorplan {
            Some(fp) => fp,
            None => t.span("core.floorplan_map", |_| floorplan_of(&graph, opts)),
        };
        let positions = t
            .span("place.global", |_| place_subject_pool(&graph, &floorplan, &opts.placer, pool))
            .map_err(|e| format!("placement: {e}"))?;
        counts.subject_hpwl_um += subject_hpwl(&graph, &positions, &floorplan);
        Ok(Front { graph, positions, floorplan })
    })
}

/// Half-perimeter wirelength of the placed subject graph, over the same
/// nets the placer optimizes.
fn subject_hpwl(graph: &SubjectGraph, positions: &[Point], fp: &Floorplan) -> f64 {
    let built = from_subject(graph, fp);
    let mut cell_pos = vec![Point::default(); built.instance.cell_width.len()];
    for (v, slot) in built.cell_of_vertex.iter().enumerate() {
        if let Some(c) = slot {
            cell_pos[*c] = positions[v];
        }
    }
    total_hpwl_of_instance(&built.instance, &cell_pos)
}

/// The mapper options of the paper's congestion-aware flow at `k`
/// (what `congestion_flow_prepared` passes to `full_flow`).
pub fn congestion_map(k: f64) -> MapOptions {
    MapOptions {
        scheme: PartitionScheme::PlacementDriven,
        cost: CostKind::AreaWire { k },
        ..Default::default()
    }
}

/// `full_flow`, one layer call at a time. Returns the row and the mapped
/// netlist (for simulation).
pub fn flow(
    t: &mut Tracer,
    front: &Front,
    map_opts: &MapOptions,
    opts: &FlowOptions,
    counts: &mut LayerCounts,
) -> Result<(Row, MappedNetlist), String> {
    t.span("flow", |t| {
        let r = t.span("core.map", |_| map(&front.graph, &front.positions, &opts.lib, map_opts));
        counts.trees += r.stats.num_trees;
        counts.duplicated_covers += r.stats.duplicated_covers;
        let mut nl = r.netlist;
        counts.cells += nl.num_cells();
        let fp = &front.floorplan;
        let legal = t.span("place.legalize", |_| {
            assign_mapped_ports(&mut nl, fp);
            let desired: Vec<Point> = nl.cells().iter().map(|c| c.pos).collect();
            let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
            let legal = legalize_rows(&desired, &widths, fp);
            for (cell, p) in nl.cells_mut().iter_mut().zip(&legal.pos) {
                cell.pos = *p;
            }
            legal
        });
        counts.legalize_displacement_um += legal.displacement;
        let route = t
            .span("route", |_| route_mapped(&nl, fp, &opts.route))
            .map_err(|e| format!("route: {e}"))?;
        counts.route_iters += route.iterations;
        counts.rerouted_nets += route.convergence.iters.iter().map(|i| i.rerouted).sum::<usize>();
        counts.cap_hits += usize::from(route.iterations >= opts.route.max_iters);
        counts.violations += route.violations;
        counts.overflow += route.overflow;
        let sta = t.span("timing.sta", |_| {
            analyze_routed(&nl, &opts.lib, &opts.timing, &route.net_wirelength)
        });
        let row = Row {
            cells: nl.num_cells(),
            area: nl.cell_area(),
            routed_wl: route.total_wirelength,
            violations: route.violations,
            iters: route.iterations,
            crit_ns: sta.critical_arrival(),
        };
        Ok((row, nl))
    })
}

/// Simulates `nl` against its source network on `vectors` seeded random
/// input vectors. The reference is the network's own SOP evaluation,
/// which does not depend on the mapper. Returns the number of vectors
/// whose outputs differ.
pub fn simulation_mismatches(
    network: &Network,
    nl: &MappedNetlist,
    opts: &FlowOptions,
    seed: u64,
    vectors: usize,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = network.inputs().len();
    (0..vectors)
        .filter(|_| {
            let asg: Vec<bool> = (0..inputs).map(|_| rng.gen()).collect();
            network.simulate_outputs(&asg)
                != nl.simulate_outputs_with(|c, p| opts.lib.eval_cell(c, p), &asg)
        })
        .count()
}

/// Sets the per-layer metrics every traced pipeline reports: self times
/// and allocation from the spans, counts from the layer boundaries.
pub fn set_layer_metrics(
    report: &mut Report,
    t: &Tracer,
    front: &LayerCounts,
    flows: &LayerCounts,
) {
    let totals = t.layer_totals();
    let ms = |n: &str| totals.get(n).map_or(0.0, |l| l.self_ms);
    let mb = |n: &str| totals.get(n).map_or(0.0, |l| l.self_alloc_mb);
    report.set("netlist.gen_ms", ms("netlist.gen"));
    report.set("logic.optimize_ms", ms("logic.optimize"));
    report.set("logic.decompose_ms", ms("logic.decompose"));
    report.set("logic.base_gates", front.base_gates as f64);
    report.set("core.floorplan_map_ms", ms("core.floorplan_map"));
    report.set("place.global_ms", ms("place.global"));
    report.set("place.alloc_mb", mb("place.global"));
    report.set("place.subject_hpwl_um", front.subject_hpwl_um);
    report.set("place.legalize_ms", ms("place.legalize"));
    report.set("place.legalize_displacement_um", flows.legalize_displacement_um);
    report.set("core.map_ms", ms("core.map"));
    report.set("core.alloc_mb", mb("core.map"));
    report.set("core.cells", flows.cells as f64);
    report.set("core.trees", flows.trees as f64);
    report.set("core.duplicated_covers", flows.duplicated_covers as f64);
    let route_ms = ms("route");
    report.set("route.ms", route_ms);
    report.set("route.iters", flows.route_iters as f64);
    report.set("route.ms_per_iter", route_ms / flows.route_iters.max(1) as f64);
    report.set("route.rerouted_nets", flows.rerouted_nets as f64);
    report.set("route.alloc_mb", mb("route"));
    report.set("route.cap_hits", flows.cap_hits as f64);
    report.set("route.violations", flows.violations as f64);
    report.set("route.overflow", flows.overflow);
    report.set("timing.sta_ms", ms("timing.sta"));
}
