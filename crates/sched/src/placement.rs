//! Placement queries: the paper's exhaustive enumeration over a
//! free-slice index — and a cached ranking nothing in the scheduler
//! calls any more.
//!
//! [`naive_best_placement_with`] is the paper's resource selection as
//! written — enumerate every (repository, site, configuration) triple,
//! predict each feasible one, keep the first strictly-cheapest. It is
//! **every** placement query the scheduler makes: an admission's
//! standalone and load-corrected predictions, and each start the
//! scheduling pass prices (see `core.rs`). One walk serves both: it
//! prepares each (repository, site) pair some configuration fits once
//! ([`Predictor::with_prepared`]) and prices the pair's feasible
//! configurations from that preparation, at one bandwidth vector for
//! the pass and at two (nominal, current) for an admission.
//! [`FreeSlices`] keeps the free node counts with maintained maxima,
//! which give the pass its O(1) "nothing can fit" early-out.
//!
//! The pass needs no cache, and the reason is the early-out's
//! exactness: any site pairs with any repository and the maxima bound
//! every slice, so a query that gets past the early-out has a feasible
//! candidate and places. A queued job is therefore priced to success
//! once, when it starts; a memo keyed by `(application, dataset size)`
//! is read again only by another job with the identical key, and
//! measured on the benchmark's three scheduler workloads that is 0 % of
//! queries, while a miss (two rankings allocated, priced and sorted, a
//! map insert) costs several scans. `tests/placement_differential.rs`
//! pins the exactness: if a future grid model restricts which site may
//! pair with which repository, it fails and the question reopens.
//!
//! [`PlacementEngine`] is that memo: per-repository candidate rankings
//! keyed by `(application, dataset size)`, re-priced when the
//! repository's bandwidth estimate (bit-compared) or the predictor's
//! [`Predictor::epoch`] moves, walked cheapest-first with dominance
//! pruning. It is bit-identical to the scan — the ranking order (total,
//! then site, then configuration index) reproduces the scan's
//! first-strictly-better tie-break, and the differential suite pins it
//! under random grids, quota caps and bandwidth drift — but it is a
//! library type **pending deletion**: it survives only because
//! `benchmark/src/layers.rs` constructs one for the
//! `sched.placement.best_cached_ns` / `rebuild_ratio` probe, and the
//! change that removed it from the scheduler claimed a gain and so could
//! not edit `benchmark/`. Once a benchmark change drops that probe,
//! `PlacementEngine`, `RepoRanking`, `build_ranking`, `walk` and
//! [`PlacementStats`] go (ROADMAP).

use crate::grid::{AppModel, GridSpec};
use fg_cluster::{Configuration, DeploymentRef};
use fg_predict::{Prediction, Predictor, SiteQuery};
use std::collections::HashMap;

/// The winning candidate of a placement query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Repository index in the grid.
    pub repo: usize,
    /// Compute-site index in the grid.
    pub site: usize,
    /// The chosen configuration.
    pub cfg: Configuration,
    /// Its predicted execution time components.
    pub predicted: Prediction,
}

/// Free node slices with maintained maxima: the scheduler's view of
/// which data and compute nodes are unoccupied, indexed so a feasibility
/// pre-check never rescans the per-repository and per-site vectors.
///
/// `max_data()`/`max_cmp()` are kept current across `alloc_*` and
/// `release_*` in O(1) amortized (a release only raises the maximum; an
/// allocation recomputes it only when it shrank the argmax).
#[derive(Debug, Clone)]
pub struct FreeSlices {
    data: Vec<usize>,
    cmp: Vec<usize>,
    max_data: usize,
    max_cmp: usize,
}

impl FreeSlices {
    /// An index over free data nodes per repository and free compute
    /// nodes per site.
    pub fn new(data: Vec<usize>, cmp: Vec<usize>) -> FreeSlices {
        let max_data = data.iter().copied().max().unwrap_or(0);
        let max_cmp = cmp.iter().copied().max().unwrap_or(0);
        FreeSlices { data, cmp, max_data, max_cmp }
    }

    /// Free data nodes per repository.
    pub fn data(&self) -> &[usize] {
        &self.data
    }

    /// Free compute nodes per site.
    pub fn cmp(&self) -> &[usize] {
        &self.cmp
    }

    /// The largest free data slice across repositories.
    pub fn max_data(&self) -> usize {
        self.max_data
    }

    /// The largest free compute slice across sites.
    pub fn max_cmp(&self) -> usize {
        self.max_cmp
    }

    /// Occupy `n` data nodes at `repo`. Panics on underflow, like the
    /// raw vector arithmetic it replaces.
    pub fn alloc_data(&mut self, repo: usize, n: usize) {
        let was = self.data[repo];
        self.data[repo] -= n;
        if was == self.max_data && n > 0 {
            self.max_data = self.data.iter().copied().max().unwrap_or(0);
        }
    }

    /// Return `n` data nodes to `repo`.
    pub fn release_data(&mut self, repo: usize, n: usize) {
        self.data[repo] += n;
        self.max_data = self.max_data.max(self.data[repo]);
    }

    /// Occupy `n` compute nodes at `site`.
    pub fn alloc_cmp(&mut self, site: usize, n: usize) {
        let was = self.cmp[site];
        self.cmp[site] -= n;
        if was == self.max_cmp && n > 0 {
            self.max_cmp = self.cmp.iter().copied().max().unwrap_or(0);
        }
    }

    /// Return `n` compute nodes to `site`.
    pub fn release_cmp(&mut self, site: usize, n: usize) {
        self.cmp[site] += n;
        self.max_cmp = self.max_cmp.max(self.cmp[site]);
    }

    /// Occupy a configuration's nodes at `(repo, site)`.
    pub fn alloc(&mut self, repo: usize, site: usize, cfg: &Configuration) {
        self.alloc_data(repo, cfg.data_nodes);
        self.alloc_cmp(site, cfg.compute_nodes);
    }

    /// Return a configuration's nodes to `(repo, site)`.
    pub fn release(&mut self, repo: usize, site: usize, cfg: &Configuration) {
        self.release_data(repo, cfg.data_nodes);
        self.release_cmp(site, cfg.compute_nodes);
    }
}

/// One priced candidate in a repository's ranking.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    site: usize,
    cfg: usize,
    data_nodes: usize,
    compute_nodes: usize,
    total: f64,
    predicted: Prediction,
}

/// A repository's candidates priced at one bandwidth under one
/// predictor epoch, cheapest first (ties broken by site then
/// configuration index, matching the naive scan's iteration order).
#[derive(Debug, Clone)]
struct RepoRanking {
    /// Bit pattern of the bandwidth the ranking was priced at. The
    /// stale sentinel is a NaN pattern: a real (finite, positive) EWMA
    /// estimate can never bit-match it, and a NaN bandwidth makes every
    /// candidate unpredictable in both paths anyway.
    bw_bits: u64,
    /// The [`Predictor::epoch`] the ranking was priced under. A
    /// stateful predictor bumps its epoch when training changes its
    /// predictions, invalidating every cached ranking even though the
    /// bandwidths are unchanged. The analytical predictor's constant
    /// epoch makes this test free on the default path.
    epoch: u64,
    ranked: Vec<Ranked>,
}

const STALE: u64 = u64::MAX;

impl RepoRanking {
    fn stale() -> RepoRanking {
        RepoRanking { bw_bits: STALE, epoch: 0, ranked: Vec::new() }
    }
}

/// Cached rankings for one `(application, dataset size)` key.
#[derive(Debug, Clone)]
struct Entry {
    repos: Vec<RepoRanking>,
}

/// Counters describing what a [`PlacementEngine`] did — cache hits are
/// `queries - rebuilds / repos`-shaped, and the benchmark harness
/// reports both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Placement queries answered.
    pub queries: u64,
    /// Per-repository ranking rebuilds (cache misses or bandwidth
    /// invalidations).
    pub rebuilds: u64,
}

/// The cached placement engine (pending deletion — see the module
/// docs; the scheduler does not use it). Queries borrow the grid so the
/// engine itself owns nothing but its cache.
#[derive(Debug)]
pub struct PlacementEngine {
    entries: HashMap<(usize, u64), Entry>,
    capacity: usize,
    stats: PlacementStats,
}

/// Keys cached before the engine drops the whole map and starts over.
/// Entries are only useful while their job sits in the queue; a bounded
/// cache with wholesale eviction keeps memory flat over million-job
/// traces without any bookkeeping on the hot path.
const DEFAULT_CAPACITY: usize = 16_384;

impl PlacementEngine {
    /// An engine with an empty cache. The grid is accepted (and
    /// ignored) so a future engine can precompute per-grid indices
    /// without touching every caller.
    pub fn new(_grid: &GridSpec) -> PlacementEngine {
        PlacementEngine {
            entries: HashMap::new(),
            capacity: DEFAULT_CAPACITY,
            stats: PlacementStats::default(),
        }
    }

    /// What the engine has done so far.
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }

    /// Cheapest feasible placement for `app` moving `dataset_bytes`,
    /// priced through `pred`, given the free slices, per-repository
    /// bandwidths, and an optional fair-share cap on the
    /// configuration's compute nodes. Bit-identical to
    /// [`naive_best_placement_with`] over the same inputs and
    /// predictor.
    #[allow(clippy::too_many_arguments)]
    pub fn best_placement<P: Predictor + ?Sized>(
        &mut self,
        pred: &P,
        grid: &GridSpec,
        app: &str,
        dataset_bytes: u64,
        free: &FreeSlices,
        bw: &[f64],
        quota_cap: Option<usize>,
    ) -> Option<Placement> {
        let app_idx = grid.app_index(app)?;
        let model = &grid.apps[app_idx].1;
        self.stats.queries += 1;
        // Infeasibility early-out off the slice index: a candidate is
        // feasible only when its configuration fits the *largest* free
        // data slice, the largest free compute slice, and the quota
        // cap — so when no configuration in the menu passes all three
        // bounds, every candidate everywhere is infeasible. Exact, not
        // heuristic: the walk's per-repo/per-site feasibility tests
        // compare against slices these maxima bound from above, and
        // any site may pair with any repository.
        if !grid.configs.iter().any(|c| {
            c.data_nodes <= free.max_data()
                && c.compute_nodes <= free.max_cmp()
                && quota_cap.is_none_or(|cap| c.compute_nodes <= cap)
        }) {
            return None;
        }
        let key = (app_idx, dataset_bytes);
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.entries.clear();
        }
        let entry = self
            .entries
            .entry(key)
            .or_insert_with(|| Entry { repos: vec![RepoRanking::stale(); grid.repos.len()] });
        // Re-price every ranking that is stale for its repository's
        // bandwidth or the predictor's epoch, then walk them against
        // the free slices.
        let epoch = pred.epoch();
        for (ri, ranking) in entry.repos.iter_mut().enumerate() {
            if ranking.bw_bits != bw[ri].to_bits() || ranking.epoch != epoch {
                *ranking =
                    build_ranking(pred, epoch, grid, model, &grid.repos[ri], dataset_bytes, bw[ri]);
                self.stats.rebuilds += 1;
            }
        }
        walk(&entry.repos, free.data(), free.cmp(), quota_cap).map(|(ri, c)| Placement {
            repo: ri,
            site: c.site,
            cfg: grid.configs[c.cfg],
            predicted: c.predicted,
        })
    }
}

/// Price every (site, configuration) candidate of one repository at
/// bandwidth `bw` through `pred` and sort cheapest first. Candidates
/// the predictor rejects are dropped, exactly as the naive scan skips
/// them. Nothing here allocates an owned `Deployment`: the borrow-based
/// [`Predictor::predict_deployment`] entry point prices each candidate
/// from references into the grid. `epoch` is sampled once by the
/// caller so one query's rebuilds all carry the same version even if
/// a concurrent observer bumps the predictor mid-query.
fn build_ranking<P: Predictor + ?Sized>(
    pred: &P,
    epoch: u64,
    grid: &GridSpec,
    model: &AppModel,
    repo: &crate::grid::RepoSpec,
    dataset_bytes: u64,
    bw: f64,
) -> RepoRanking {
    let mut ranked = Vec::with_capacity(grid.sites.len() * grid.configs.len());
    for (si, site) in grid.sites.iter().enumerate() {
        for (ci, cfg) in grid.configs.iter().enumerate() {
            let candidate = DeploymentRef {
                repository: &repo.site,
                compute: &site.site,
                stream_bw: bw,
                config: *cfg,
                cache: None,
            };
            let Ok(predicted) = pred.predict_deployment(
                &model.profile,
                model.classes,
                candidate,
                dataset_bytes,
                &grid.factors,
            ) else {
                continue;
            };
            ranked.push(Ranked {
                site: si,
                cfg: ci,
                data_nodes: cfg.data_nodes,
                compute_nodes: cfg.compute_nodes,
                total: predicted.total(),
                predicted,
            });
        }
    }
    // Cheapest first; ties by (site, configuration) index so the walk's
    // first feasible hit is the naive scan's first-strictly-better one.
    ranked.sort_by(|a, b| {
        a.total.total_cmp(&b.total).then(a.site.cmp(&b.site)).then(a.cfg.cmp(&b.cfg))
    });
    RepoRanking { bw_bits: bw.to_bits(), epoch, ranked }
}

/// Walk cost-sorted rankings against the free slices with dominance
/// pruning. Returns the winning repository index and candidate.
fn walk(
    repos: &[RepoRanking],
    free_data: &[usize],
    free_cmp: &[usize],
    quota_cap: Option<usize>,
) -> Option<(usize, Ranked)> {
    let mut best: Option<(usize, Ranked)> = None;
    for (ri, ranking) in repos.iter().enumerate() {
        let fd = free_data[ri];
        for c in &ranking.ranked {
            // Dominance prune: the ranking is sorted by total, so once
            // a candidate cannot strictly beat the incumbent, nothing
            // later in this repository can either. `>=` keeps the
            // earlier (repository, site, configuration) on ties — the
            // naive scan's first-strictly-better rule.
            if let Some((_, b)) = &best {
                if c.total >= b.total {
                    break;
                }
            }
            if c.data_nodes <= fd
                && c.compute_nodes <= free_cmp[c.site]
                && quota_cap.is_none_or(|cap| c.compute_nodes <= cap)
            {
                best = Some((ri, *c));
                break;
            }
        }
    }
    best
}

/// The paper's enumeration: predict every feasible (repository, site,
/// configuration) triple through `pred` and keep the first
/// strictly-cheapest one. Admissions and the scheduling pass both call
/// it (`best_placements` at one bandwidth vector).
#[allow(clippy::too_many_arguments)]
pub fn naive_best_placement_with<P: Predictor + ?Sized>(
    pred: &P,
    grid: &GridSpec,
    model: &AppModel,
    dataset_bytes: u64,
    free_data: &[usize],
    free_cmp: &[usize],
    bw: &[f64],
    quota_cap: Option<usize>,
) -> Option<Placement> {
    let [best] =
        best_placements(pred, grid, model, dataset_bytes, free_data, free_cmp, [bw], quota_cap);
    best
}

/// The enumeration at `V` per-repository bandwidth vectors in one walk:
/// `result[v]` is the first strictly-cheapest feasible triple priced at
/// `bws[v]`, exactly what a walk at that vector alone returns.
///
/// Feasibility — the configuration fits the repository's free data
/// nodes, the site's free compute nodes and the quota cap — is tested
/// before anything is predicted, so an infeasible candidate costs three
/// integer compares, and a (repository, site) pair no configuration
/// fits is never prepared. A pair that has one is prepared once
/// ([`Predictor::with_prepared`]) and each feasible configuration priced
/// from that preparation at every vector: what the predictor resolves
/// per pair (and, for a learned one, the lock it takes to read its
/// model) is paid `repos × sites` times per walk, not once per
/// candidate per vector.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_placements<P: Predictor + ?Sized, const V: usize>(
    pred: &P,
    grid: &GridSpec,
    model: &AppModel,
    dataset_bytes: u64,
    free_data: &[usize],
    free_cmp: &[usize],
    bws: [&[f64]; V],
    quota_cap: Option<usize>,
) -> [Option<Placement>; V] {
    let mut best = [None; V];
    for (ri, repo) in grid.repos.iter().enumerate() {
        for (si, site) in grid.sites.iter().enumerate() {
            let fits = |cfg: &Configuration| {
                cfg.data_nodes <= free_data[ri]
                    && cfg.compute_nodes <= free_cmp[si]
                    && quota_cap.is_none_or(|cap| cfg.compute_nodes <= cap)
            };
            if !grid.configs.iter().any(fits) {
                continue;
            }
            let pair = SiteQuery {
                profile: &model.profile,
                classes: model.classes,
                repository: &repo.site,
                compute: &site.site,
                cache: None,
                dataset_bytes,
                factors: &grid.factors,
            };
            pred.with_prepared(&pair, &mut |prepared| {
                for cfg in grid.configs.iter().filter(|cfg| fits(cfg)) {
                    for (slot, bw) in best.iter_mut().zip(bws) {
                        let Ok(predicted) = prepared.price(*cfg, bw[ri]) else { continue };
                        if slot.is_none_or(|b: Placement| predicted.total() < b.predicted.total()) {
                            *slot = Some(Placement { repo: ri, site: si, cfg: *cfg, predicted });
                        }
                    }
                }
            });
        }
    }
    best
}
