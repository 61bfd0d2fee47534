//! Differential property suite for placement queries.
//!
//! The scheduler prices every placement with the exhaustive
//! [`naive_best_placement_with`] scan. Two properties are pinned over
//! randomized grids (topology, node counts, configuration menus,
//! bandwidths), randomized free slices including fully-saturated ones,
//! and random quota caps:
//!
//! * the scan places **iff** some configuration fits the largest free
//!   data slice, the largest free compute slice and the cap — the
//!   exactness of the pass's saturation early-out, which is why a
//!   queued job is priced to success once and the pass needs no cache;
//! * the cached [`PlacementEngine`] (a library type pending deletion,
//!   kept for a benchmark probe) still answers bit-identically to the
//!   scan — same winning (repository, site, configuration) triple, same
//!   predicted components, same `None`s — across cache reuse, EWMA
//!   bandwidth invalidation, dominance pruning and its early-out, over
//!   long query sequences with per-repository bandwidth drift;
//! * a predictor that implements only `predict_deployment` — no
//!   preparation of its own — is asked for exactly the feasible
//!   candidates, once each, and places what the analytical scan places.

use fg_bench::figures::sched_models;
use freeride_g::cluster::DeploymentRef;
use freeride_g::cluster::{ComputeSite, Configuration, RepositorySite, Wan};
use freeride_g::predict::{
    AnalyticalPredictor, AppClasses, Prediction, Predictor, Profile, ScalingFactors, SelectionError,
};
use freeride_g::sched::{
    naive_best_placement_with, AppModel, FreeSlices, GridSpec, PlacementEngine, RepoSpec, SiteSpec,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The configuration menu random grids draw from. Includes shapes that
/// cannot fit small grids, so infeasibility paths get exercised.
const MENU: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 2), (2, 4), (4, 8), (8, 16)];

/// Dataset sizes spanning the profile scale to several GB.
const SIZES: [u64; 6] = [1 << 20, 64 << 20, 200 << 20, 800 << 20, 3200 << 20, 12_800 << 20];

/// One placement query, generated as a flat tuple (the vendored
/// proptest has no mapping combinators): application selector, dataset
/// size selector, per-repository bandwidth drift factors, free-slice
/// selectors, and a quota-cap selector (values past 16 mean "no cap").
type Query = (usize, usize, Vec<f64>, Vec<usize>, Vec<usize>, usize);

/// The tuple-of-strategies that generates one [`Query`].
type QueryStrategy = (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    proptest::collection::VecStrategy<std::ops::Range<f64>>,
    proptest::collection::VecStrategy<std::ops::Range<usize>>,
    proptest::collection::VecStrategy<std::ops::Range<usize>>,
    std::ops::Range<usize>,
);

fn queries_strategy(max: usize) -> proptest::collection::VecStrategy<QueryStrategy> {
    proptest::collection::vec(
        (
            0usize..7,
            0usize..SIZES.len(),
            proptest::collection::vec(0.25f64..2.0, 3..4),
            proptest::collection::vec(0usize..17, 3..4),
            proptest::collection::vec(0usize..17, 3..4),
            0usize..24,
        ),
        1..max,
    )
}

/// A randomized grid: per-repository node counts and nominal
/// bandwidths, per-site node counts, and a non-empty configuration
/// menu. Applications are the paper's seven models.
fn grid_case(repos: &[(usize, f64)], sites: &[usize], menu_mask: &[bool]) -> GridSpec {
    let configs: Vec<Configuration> = MENU
        .iter()
        .zip(menu_mask)
        .filter(|(_, &keep)| keep)
        .map(|(&(d, c), _)| Configuration::new(d, c))
        .chain(std::iter::once(Configuration::new(1, 1)))
        .collect();
    GridSpec {
        repos: repos
            .iter()
            .enumerate()
            .map(|(i, &(nodes, bw))| RepoSpec {
                site: RepositorySite::pentium_repository(&format!("repo-{i}"), nodes),
                wan: Wan::per_stream(bw),
                wan_capacity: 4.0 * bw,
            })
            .collect(),
        sites: sites
            .iter()
            .enumerate()
            .map(|(i, &nodes)| SiteSpec {
                site: ComputeSite::pentium_myrinet(&format!("site-{i}"), nodes),
                ingress_capacity: 8e6,
            })
            .collect(),
        configs,
        apps: sched_models(),
        factors: HashMap::new(),
    }
}

/// What one [`Query`] asks of `grid`: application, dataset size, quota
/// cap, per-repository bandwidths and free slices.
fn query_inputs<'g>(
    grid: &'g GridSpec,
    (app_sel, size_sel, bw_factor, free_data_sel, free_cmp_sel, cap_sel): &Query,
) -> (&'g str, &'g AppModel, u64, Option<usize>, Vec<f64>, FreeSlices) {
    let (app_name, model) = &grid.apps[app_sel % grid.apps.len()];
    let quota_cap = if *cap_sel <= 16 { Some(*cap_sel) } else { None };
    let bw: Vec<f64> = grid
        .repos
        .iter()
        .enumerate()
        .map(|(ri, r)| r.wan.stream_bw * bw_factor[ri % bw_factor.len()])
        .collect();
    // Free slices clamped to each repository's/site's node count;
    // selectors at or above the count saturate to "all free" so both
    // empty and full grids occur.
    let free = FreeSlices::new(
        grid.repos
            .iter()
            .enumerate()
            .map(|(ri, r)| free_data_sel[ri % free_data_sel.len()].min(r.site.max_nodes))
            .collect(),
        grid.sites
            .iter()
            .enumerate()
            .map(|(si, s)| free_cmp_sel[si % free_cmp_sel.len()].min(s.site.max_nodes))
            .collect(),
    );
    (app_name, model, SIZES[*size_sel], quota_cap, bw, free)
}

/// Drive one engine through the whole query sequence and compare every
/// answer to the naive oracle over identical inputs.
fn check_engine(mut engine: PlacementEngine, grid: &GridSpec, queries: &[Query]) {
    for (qi, query) in queries.iter().enumerate() {
        let (app_name, model, bytes, quota_cap, bw, free) = query_inputs(grid, query);
        let fast = engine.best_placement(
            &AnalyticalPredictor,
            grid,
            app_name,
            bytes,
            &free,
            &bw,
            quota_cap,
        );
        let naive = naive_best_placement_with(
            &AnalyticalPredictor,
            grid,
            model,
            bytes,
            free.data(),
            free.cmp(),
            &bw,
            quota_cap,
        );
        assert_eq!(
            fast, naive,
            "query {qi} ({app_name}, {bytes} bytes, cap {quota_cap:?}) diverged \
             from the naive scan"
        );
    }
}

/// A predictor that knows nothing of preparations: the five required
/// methods, `predict_deployment` counting its calls and answering with
/// the analytical model. The scan reaches it through the provided
/// `with_prepared` adapter — the path any wrapper predictor takes.
#[derive(Debug, Default)]
struct CountingPredictor {
    calls: AtomicU64,
}

impl Predictor for CountingPredictor {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn predict_deployment(
        &self,
        profile: &Profile,
        classes: AppClasses,
        d: DeploymentRef<'_>,
        dataset_bytes: u64,
        factors: &HashMap<String, ScalingFactors>,
    ) -> Result<Prediction, SelectionError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        AnalyticalPredictor.predict_deployment(profile, classes, d, dataset_bytes, factors)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The seam: through the default adapter the scan makes one
    /// `predict_deployment` call per *feasible* candidate — none for a
    /// configuration that does not fit, none for a (repository, site)
    /// pair nothing fits — so a call count keeps meaning "candidates
    /// priced", and the placement is the analytical scan's bit for bit.
    #[test]
    fn a_plain_predictor_sees_one_call_per_feasible_candidate(
        repos in proptest::collection::vec((1usize..9, 2e5f64..2e6), 1..4),
        sites in proptest::collection::vec(1usize..17, 1..4),
        menu_mask in proptest::collection::vec(any::<bool>(), 6..7),
        queries in queries_strategy(49),
    ) {
        let grid = grid_case(&repos, &sites, &menu_mask);
        let counting = CountingPredictor::default();
        for query in &queries {
            let (app_name, model, bytes, quota_cap, bw, free) = query_inputs(&grid, query);
            let feasible = free
                .data()
                .iter()
                .flat_map(|&fd| free.cmp().iter().map(move |&fc| (fd, fc)))
                .flat_map(|(fd, fc)| {
                    grid.configs.iter().filter(move |c| {
                        c.data_nodes <= fd
                            && c.compute_nodes <= fc
                            && quota_cap.is_none_or(|cap| c.compute_nodes <= cap)
                    })
                })
                .count() as u64;
            let before = counting.calls.load(Ordering::Relaxed);
            let scan = |pred: &dyn Predictor| {
                naive_best_placement_with(
                    pred, &grid, model, bytes, free.data(), free.cmp(), &bw, quota_cap,
                )
            };
            let placed = scan(&counting);
            let calls = counting.calls.load(Ordering::Relaxed) - before;
            prop_assert!(
                calls == feasible,
                "{app_name} moving {bytes} bytes under cap {quota_cap:?} over {free:?}: \
                 {calls} calls for {feasible} feasible candidates"
            );
            prop_assert_eq!(placed, scan(&AnalyticalPredictor));
        }
    }

    /// The headline equivalence: random grid, long query sequence with
    /// bandwidth drift and varying occupancy through one cached engine,
    /// every answer bit-identical to the exhaustive scan.
    #[test]
    fn cached_engine_is_bit_identical_to_the_naive_scan(
        repos in proptest::collection::vec((1usize..9, 2e5f64..2e6), 1..4),
        sites in proptest::collection::vec(1usize..17, 1..4),
        menu_mask in proptest::collection::vec(any::<bool>(), 6..7),
        queries in queries_strategy(49),
    ) {
        let grid = grid_case(&repos, &sites, &menu_mask);
        check_engine(PlacementEngine::new(&grid), &grid, &queries);
    }

    /// Why the scheduling pass needs no placement cache: the scan
    /// places exactly when some configuration fits the largest free
    /// data slice, the largest free compute slice and the quota cap —
    /// any site pairs with any repository, so the maxima are reached
    /// together. A query that survives the pass's saturation early-out
    /// therefore succeeds, and a queued job is priced once, when it
    /// starts. A grid model that restricts which site may pair with
    /// which repository breaks this, and reopens the cache question.
    #[test]
    fn the_scan_places_iff_a_configuration_fits_the_largest_free_slices(
        repos in proptest::collection::vec((1usize..9, 2e5f64..2e6), 1..4),
        sites in proptest::collection::vec(1usize..17, 1..4),
        menu_mask in proptest::collection::vec(any::<bool>(), 6..7),
        queries in queries_strategy(49),
    ) {
        let grid = grid_case(&repos, &sites, &menu_mask);
        for query in &queries {
            let (app_name, model, bytes, quota_cap, bw, free) = query_inputs(&grid, query);
            let placed = naive_best_placement_with(
                &AnalyticalPredictor,
                &grid,
                model,
                bytes,
                free.data(),
                free.cmp(),
                &bw,
                quota_cap,
            );
            let fits = grid.configs.iter().any(|c| {
                c.data_nodes <= free.max_data()
                    && c.compute_nodes <= free.max_cmp()
                    && quota_cap.is_none_or(|cap| c.compute_nodes <= cap)
            });
            prop_assert!(
                placed.is_some() == fits,
                "{app_name} moving {bytes} bytes under cap {quota_cap:?} over {free:?}: \
                 placed {placed:?}, a configuration fits the maxima: {fits}"
            );
        }
    }
}

/// A saturated grid (zero free compute everywhere) must answer `None`
/// through the early-out, exactly like the scan.
#[test]
fn saturated_grid_answers_none_like_the_scan() {
    let grid = GridSpec::demo(sched_models());
    let mut engine = PlacementEngine::new(&grid);
    let free = FreeSlices::new(vec![8, 8], vec![0, 0]);
    let bw: Vec<f64> = grid.repos.iter().map(|r| r.wan.stream_bw).collect();
    let (name, model) = &grid.apps[0];
    let fast =
        engine.best_placement(&AnalyticalPredictor, &grid, name, 200 << 20, &free, &bw, None);
    let naive = naive_best_placement_with(
        &AnalyticalPredictor,
        &grid,
        model,
        200 << 20,
        free.data(),
        free.cmp(),
        &bw,
        None,
    );
    assert_eq!(fast, naive);
    assert_eq!(fast, None);
}

/// A quota cap below the smallest configuration excludes everything —
/// on both paths.
#[test]
fn impossible_quota_cap_answers_none_like_the_scan() {
    let grid = GridSpec::demo(sched_models());
    let mut engine = PlacementEngine::new(&grid);
    let free = FreeSlices::new(vec![8, 8], vec![16, 8]);
    let bw: Vec<f64> = grid.repos.iter().map(|r| r.wan.stream_bw).collect();
    let (name, model) = &grid.apps[0];
    let fast =
        engine.best_placement(&AnalyticalPredictor, &grid, name, 200 << 20, &free, &bw, Some(0));
    let naive = naive_best_placement_with(
        &AnalyticalPredictor,
        &grid,
        model,
        200 << 20,
        free.data(),
        free.cmp(),
        &bw,
        Some(0),
    );
    assert_eq!(fast, naive);
    assert_eq!(fast, None);
}
