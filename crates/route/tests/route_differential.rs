//! The product router against the one it replaced, tree for tree.
//!
//! `route` searches a per-call CSR adjacency over dense node ids;
//! `oracle::route` rebuilds an `RrNode` and re-enumerates its neighbours at
//! every expansion. On seeded synthetic netlists (locality 0–1, channel
//! widths 2–12, grids 5–12, placer seeds drawn per case) both must return
//! the same `Routing` — every tree and the iteration count — or the same
//! `RouteError`, under `RouterConfig::fast()`, `default()` and A* weight 0,
//! with `max_iterations` cut to 1–4 often enough that `Unroutable` is
//! reached. A* weights outside `[0, ∞)` (−0.5, NaN, ±∞) have no oracle
//! answer: `route` must refuse them up front. The minimum-channel-width
//! search must log the same attempts either way (under `fast()` and
//! `default()`).
//!
//! A failure prints the sampled case; the case count follows
//! `PROPTEST_CASES`.

mod oracle;

use proptest::prelude::*;
use vbs_arch::{ArchSpec, Device};
use vbs_netlist::generate::SyntheticSpec;
use vbs_netlist::Netlist;
use vbs_place::{place, Placement, PlacerConfig};
use vbs_route::{minimum_channel_width, route, RouteError, RouterConfig};

/// Number of router configurations [`config`] selects from: `fast()`,
/// `default()`, then A* weights 0, −0.5, NaN, +∞ and −∞.
const SELECTORS: u8 = 7;

/// The router configurations under test, by index.
fn config(selector: u8, max_iterations: usize) -> RouterConfig {
    let mut config = match selector {
        0 => RouterConfig::fast(),
        1 => RouterConfig::default(),
        weight => RouterConfig {
            astar_weight: [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                [weight as usize - 2],
            ..RouterConfig::fast()
        },
    };
    if max_iterations > 0 {
        config.max_iterations = max_iterations;
    }
    config
}

/// A seeded synthetic netlist placed on an `edge` × `edge` grid at channel
/// width `w`, or `None` when the placer refuses it. Under A* weight 0,
/// whose searches cover the whole region, the grid and netlist shrink, to
/// keep a debug run short.
fn placed(
    seed: u64,
    locality: f64,
    luts: usize,
    w: u16,
    edge: u16,
    selector: u8,
) -> Option<(Netlist, Device, Placement)> {
    let (luts, edge) = if selector == 2 {
        (luts.min(10), edge.min(6))
    } else {
        (luts, edge)
    };
    let io = 2 + (seed % 3) as usize;
    let luts = luts.min(usize::from(edge * edge) - 2 * io);
    let netlist = SyntheticSpec::new("differential", luts, io, io)
        .with_seed(seed)
        .with_locality(locality)
        .build()
        .ok()?;
    let device = Device::new(ArchSpec::new(w, 6).ok()?, edge, edge).ok()?;
    let placement = place(&netlist, &device, &PlacerConfig::fast(seed ^ 0x5eed)).ok()?;
    Some((netlist, device, placement))
}

/// Routes both ways and returns the shared outcome, or checks that `route`
/// refuses a weight outside `[0, ∞)` and returns that refusal.
fn compare(
    netlist: &Netlist,
    device: &Device,
    placement: &Placement,
    config: &RouterConfig,
    label: &str,
) -> Result<usize, RouteError> {
    let product = route(netlist, device, placement, config);
    if !(config.astar_weight >= 0.0 && config.astar_weight.is_finite()) {
        let refused = product.expect_err(label);
        assert!(
            matches!(refused, RouteError::InvalidAstarWeight { weight }
                if weight.to_bits() == config.astar_weight.to_bits()),
            "{label}: {refused:?}"
        );
        return Err(refused);
    }
    let oracle = oracle::route(netlist, device, placement, config);
    match (product, oracle) {
        (Ok(product), Ok(oracle)) => {
            assert!(product == oracle, "{label}: routings differ");
            Ok(product.iterations())
        }
        (Err(product), Err(oracle)) => {
            assert_eq!(product, oracle, "{label}");
            Err(product)
        }
        (product, oracle) => panic!("{label}: product {product:?}, oracle {oracle:?}"),
    }
}

/// `Ok`, `Unroutable` and a refused weight are all reached by the fixed
/// sweep.
#[test]
fn fixed_sweep_reaches_success_and_unroutable() {
    let (mut routed, mut unroutable, mut refused) = (0, 0, 0);
    for seed in 0..8u64 {
        let w = [2, 4, 8, 12][seed as usize % 4];
        for selector in 0..SELECTORS {
            let Some((netlist, device, placement)) = placed(seed, 0.5, 40, w, 8, selector) else {
                continue;
            };
            let config = config(selector, 1 + seed as usize % 4);
            let label = format!("seed {seed} W {w} config {selector}");
            match compare(&netlist, &device, &placement, &config, &label) {
                Ok(_) => routed += 1,
                Err(RouteError::Unroutable { .. }) => unroutable += 1,
                Err(RouteError::InvalidAstarWeight { .. }) => refused += 1,
                Err(_) => {}
            }
        }
    }
    assert!(
        routed > 5 && unroutable > 5 && refused > 5,
        "{routed} routed, {unroutable} unroutable, {refused} refused"
    );
}

proptest! {
    #[test]
    fn random_netlists_route_identically(
        seed in 0u64..u64::MAX,
        locality in 0u8..=100,
        luts in 4usize..32,
        w in 2u16..=12,
        edge in 5u16..=12,
        selector in 0u8..SELECTORS,
        max_iterations in 0usize..=4,
    ) {
        let locality = f64::from(locality) / 100.0;
        if let Some((netlist, device, placement)) = placed(seed, locality, luts, w, edge, selector) {
            let config = config(selector, max_iterations);
            let label = format!(
                "seed {seed} locality {locality} luts {luts} W {w} edge {edge} \
                 config {selector} max_iterations {}",
                config.max_iterations
            );
            let _ = compare(&netlist, &device, &placement, &config, &label);
        }
    }

    /// Under `fast()` and `default()` only: the other weights are held to
    /// the oracle route by route above, and a search routes up to six times.
    #[test]
    fn channel_width_searches_log_the_same_attempts(
        seed in 0u64..u64::MAX,
        luts in 4usize..16,
        edge in 5u16..=7,
        selector in 0u8..2,
        max_iterations in 1usize..=4,
    ) {
        if let Some((netlist, device, placement)) = placed(seed, 0.8, luts, 8, edge, selector) {
            let config = config(selector, max_iterations);
            let product = minimum_channel_width(&netlist, &device, &placement, &config, 2, 12);
            let oracle = oracle::minimum_channel_width(&netlist, &device, &placement, &config, 2, 12);
            prop_assert_eq!(
                product,
                oracle,
                "seed {} luts {} edge {} config {} max_iterations {}",
                seed, luts, edge, selector, max_iterations
            );
        }
    }
}
