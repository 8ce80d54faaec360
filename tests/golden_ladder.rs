//! Golden digest of a small K ladder, a k-way placement and a congested
//! routing run.
//!
//! Every number the paper's tables report for a rung is pinned here —
//! violations, router iterations and per-iteration reroutes, and the
//! exact bit patterns of routed wirelength, critical arrival and cell
//! area — so an optimization of the mapper's or the router's hot loops
//! that changes any result bit fails this test. Both placer backends are
//! selected explicitly, so the suite checks the same digests whatever
//! `CASYN_PLACER` says. The placement digest pins the bits of every
//! prepared position, so a change to the placer's hot loops that moves
//! any cell fails it even when the tables happen not to change.
//!
//! When a change is *meant* to alter results, the failure message prints
//! the new digest lines in source form.

use casyn::flow::{k_sweep_prepared, prepare, FlowOptions, FlowResult};
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::Point;
use casyn::place::{Floorplan, PlacerBackend};
use casyn::route::{route_pin_sets, RouteConfig, RouteResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes the tests that run the k-way placer: the placement digest
/// reads a process-global metrics counter the placer bumps.
static KWAY_LOCK: Mutex<()> = Mutex::new(());

const LADDER: [f64; 5] = [0.0, 0.05, 0.5, 5.0, 100.0];

/// FNV-1a over the bit patterns of a float series.
fn fnv_bits(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn route_series(r: &RouteResult) -> String {
    let rerouted: Vec<String> =
        r.convergence.iters.iter().map(|s| s.rerouted.to_string()).collect();
    format!("iters={} rerouted=[{}]", r.iterations, rerouted.join(","))
}

fn rung_digest(k: f64, r: &FlowResult) -> String {
    format!(
        "k={k} viol={} {} wl={:#018x} crit={:#018x} area={:#018x} cells={} dup={}",
        r.route.violations,
        route_series(&r.route),
        r.route.total_wirelength.to_bits(),
        r.sta.critical_arrival().to_bits(),
        r.cell_area.to_bits(),
        r.num_cells,
        r.map_stats.duplicated_covers,
    )
}

fn ladder_digest(backend: PlacerBackend) -> Vec<String> {
    let net = random_pla(&PlaGenConfig {
        inputs: 12,
        outputs: 8,
        terms: 72,
        min_literals: 3,
        max_literals: 7,
        mean_outputs_per_term: 1.4,
        seed: 0x901d,
    })
    .to_network();
    let mut opts = FlowOptions::default();
    opts.placer.backend = backend;
    // a supply tight enough that every rung negotiates, some to the
    // iteration cap
    opts.route.capacity_scale = 1.1;
    let prep = prepare(&net, &opts).unwrap();
    let rows = k_sweep_prepared(&prep, &LADDER, &opts).unwrap();
    rows.iter().map(|e| rung_digest(e.k, &e.result)).collect()
}

fn assert_digest(name: &str, got: &[String], want: &[&str]) {
    let printed: Vec<String> = got.iter().map(|l| format!("    {l:?},")).collect();
    assert!(
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w),
        "{name} digest changed; got:\n{}",
        printed.join("\n")
    );
}

#[test]
fn kway_ladder_digest_is_pinned() {
    let _guard = KWAY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_digest("kway", &ladder_digest(PlacerBackend::KWay), KWAY);
}

#[test]
fn bisect_ladder_digest_is_pinned() {
    assert_digest("bisect", &ladder_digest(PlacerBackend::Bisect), BISECT);
}

/// The k-way placement of a PLA large enough that the tail polish sees
/// crowded bins and makes thousands of swaps: the bits of every prepared
/// position, and the polish move count.
#[test]
fn kway_placement_digest_is_pinned() {
    let _guard = KWAY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = random_pla(&PlaGenConfig {
        inputs: 18,
        outputs: 10,
        terms: 260,
        min_literals: 4,
        max_literals: 9,
        mean_outputs_per_term: 1.3,
        seed: 0x9a1d,
    })
    .to_network();
    let mut opts = FlowOptions::default();
    opts.placer.backend = PlacerBackend::KWay;
    casyn::obs::set_enabled(true);
    let before = casyn::obs::snapshot();
    let prep = prepare(&net, &opts).unwrap();
    let delta = casyn::obs::delta(&before);
    casyn::obs::set_enabled(false);
    let polish = delta.counter("place.kway.polish_moves").unwrap_or(0);
    let xs: Vec<f64> = prep.positions.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = prep.positions.iter().map(|p| p.y).collect();
    let got = vec![format!(
        "n={} base_gates={} x={:#018x} y={:#018x} polish_moves={polish}",
        prep.positions.len(),
        prep.base_gates,
        fnv_bits(&xs),
        fnv_bits(&ys),
    )];
    assert_digest("kway placement", &got, PLACEMENT);
}

/// A congested routing run on raw pin sets: many random two- and
/// multi-pin nets over a small die, so negotiation runs to the
/// iteration cap with history and present costs in play and ends with a
/// fractional overflow.
#[test]
fn congested_pin_set_routing_is_pinned() {
    let fp = Floorplan::with_rows_and_area(14, (14.0 * 6.4) * (18.0 * 6.4));
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let nets: Vec<Vec<Point>> = (0..200)
        .map(|_| {
            let pins = rng.gen_range(2..6);
            (0..pins)
                .map(|_| Point::new(rng.gen_range(0.0..18.0 * 6.4), rng.gen_range(0.0..14.0 * 6.4)))
                .collect()
        })
        .collect();
    let cfg = RouteConfig { max_iters: 8, ..Default::default() };
    let r = route_pin_sets(&nets, &fp, &cfg).unwrap();
    let overflow: Vec<f64> = r.convergence.iters.iter().map(|s| s.overflow).collect();
    let max_util: Vec<f64> = r.convergence.iters.iter().map(|s| s.max_util).collect();
    let history: Vec<f64> = r.convergence.iters.iter().map(|s| s.history_cost).collect();
    let edges: Vec<String> =
        r.convergence.iters.iter().map(|s| s.overflowed_edges.to_string()).collect();
    let got = vec![
        format!(
            "viol={} overflow={:#018x} edges={} wl={:#018x}",
            r.violations,
            r.overflow.to_bits(),
            r.overflowed_edges,
            r.total_wirelength.to_bits()
        ),
        route_series(&r),
        format!(
            "series overflow={:#018x} max_util={:#018x} history={:#018x} edges=[{}]",
            fnv_bits(&overflow),
            fnv_bits(&max_util),
            fnv_bits(&history),
            edges.join(",")
        ),
        format!(
            "net_wirelength n={} fnv={:#018x}",
            r.net_wirelength.len(),
            fnv_bits(&r.net_wirelength)
        ),
    ];
    assert_digest("congested route", &got, CONGESTED);
}

const KWAY: &[&str] = &[
    "k=0 viol=0 iters=12 rerouted=[578,206,173,125,87,56,52,48,42,42,42,42] wl=0x40c59ccccccccccd crit=0x3ff730fefc90d0ae area=0x40af7ced916872b7 cells=272 dup=82",
    "k=0.05 viol=1 iters=12 rerouted=[599,228,216,133,99,75,47,33,29,29,29,29] wl=0x40c6933333333334 crit=0x3ff7560f5f446e3a area=0x40b02d0e56041896 cells=276 dup=82",
    "k=0.5 viol=1 iters=12 rerouted=[607,225,196,151,105,59,51,43,43,27,29,30] wl=0x40c729999999999a crit=0x3ff7d38a86877a6e area=0x40b0f1a9fbe76c88 cells=300 dup=82",
    "k=5 viol=33 iters=12 rerouted=[639,309,291,269,276,276,274,258,275,265,281,274] wl=0x40ca800000000000 crit=0x3ffacb2657a79402 area=0x40b27ef9db22d0dc cells=327 dup=82",
    "k=100 viol=35 iters=12 rerouted=[651,276,268,274,262,260,261,263,263,268,265,261] wl=0x40ca1ccccccccccd crit=0x3ffa7261757db667 area=0x40b326e978d4fde6 cells=342 dup=82",
];

const BISECT: &[&str] = &[
    "k=0 viol=0 iters=3 rerouted=[591,52,10] wl=0x40c3d9999999999a crit=0x3ff7cb010b58c2f6 area=0x40af7ced916872b7 cells=271 dup=82",
    "k=0.05 viol=0 iters=3 rerouted=[602,21,1] wl=0x40c4433333333334 crit=0x3ff7b40023ff8cba area=0x40b04dd2f1a9fbe9 cells=277 dup=82",
    "k=0.5 viol=0 iters=10 rerouted=[589,23,18,18,18,14,9,9,9,2] wl=0x40c3a00000000000 crit=0x3ff8402c487b2b4e area=0x40b024dd2f1a9fc1 cells=274 dup=82",
    "k=5 viol=0 iters=9 rerouted=[587,27,16,12,12,12,12,12,1] wl=0x40c379999999999a crit=0x3ff906ca52a9d8f8 area=0x40b0e978d4fdf3b5 cells=289 dup=82",
    "k=100 viol=0 iters=2 rerouted=[598,10] wl=0x40c45ccccccccccd crit=0x3ffa1887ef8fba05 area=0x40b1d2f1a9fbe769 cells=306 dup=82",
];

const PLACEMENT: &[&str] =
    &["n=2872 base_gates=2854 x=0x5a6ef3c7ee894400 y=0x187754784ec2aa8f polish_moves=6850"];

const CONGESTED: &[&str] = &[
    "viol=1 overflow=0x3fe0000000000000 edges=1 wl=0x40d6880000000000",
    "iters=8 rerouted=[524,185,114,66,16,13,13,12]",
    "series overflow=0x161b0a9cba08efba max_util=0xcdfb8b7738484041 history=0x1b5e4675cca4447c edges=[53,21,11,3,1,1,1,1]",
    "net_wirelength n=200 fnv=0x7b38b9764d52ef3f",
];
