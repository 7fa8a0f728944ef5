//! What most of `datanet repro`'s sections and the overhead gate start
//! from, built lazily and once per run.

use datanet::{ElasticMapArray, Separation, SubDatasetView};
use datanet_dfs::{Dfs, SubDatasetId};
use datanet_mapreduce::{
    run_selection, DataNetScheduler, LocalityScheduler, MapScheduler, SelectionConfig,
    SelectionOutcome,
};
use datanet_workloads::{movie_dataset, MovieCatalog, NODES};
use std::cell::OnceCell;

/// What most of Section V starts from — the movie dataset on [`NODES`]
/// nodes, its hot movie, the α = 0.3 meta-data and the two selections the
/// figures compare. Every member is built at most once per process, on
/// first use, so a run of many sections pays for each once and a run of
/// one section pays only for what it reads.
#[derive(Default)]
pub(crate) struct Fixtures {
    movies: OnceCell<(Dfs, MovieCatalog)>,
    truth: OnceCell<Vec<u64>>,
    array: OnceCell<ElasticMapArray>,
    view: OnceCell<SubDatasetView>,
    without: OnceCell<SelectionOutcome>,
    with: OnceCell<SelectionOutcome>,
}

impl Fixtures {
    fn movies(&self) -> &(Dfs, MovieCatalog) {
        self.movies.get_or_init(|| movie_dataset(NODES))
    }

    /// The movie dataset on the paper's 32-node cluster.
    pub(crate) fn dfs(&self) -> &Dfs {
        &self.movies().0
    }

    /// The catalog the movie dataset was generated from.
    pub(crate) fn catalog(&self) -> &MovieCatalog {
        &self.movies().1
    }

    /// The target sub-dataset of Section V: the most-reviewed movie.
    pub(crate) fn hot(&self) -> SubDatasetId {
        self.catalog().most_reviewed()
    }

    /// Ground-truth bytes of the hot movie per block.
    pub(crate) fn truth(&self) -> &[u64] {
        self.truth
            .get_or_init(|| self.dfs().subdataset_distribution(self.hot()))
    }

    /// The meta-data at the paper's setting: "we set the value of α in
    /// Equation 5 to 0.3".
    pub(crate) fn array(&self) -> &ElasticMapArray {
        self.array
            .get_or_init(|| ElasticMapArray::build(self.dfs(), &Separation::Alpha(0.3)))
    }

    /// The Equation 6 view of the hot movie over [`Fixtures::array`].
    pub(crate) fn view(&self) -> &SubDatasetView {
        self.view.get_or_init(|| self.array().view(self.hot()))
    }

    fn select(&self, scheduler: &mut dyn MapScheduler) -> SelectionOutcome {
        let cfg = SelectionConfig::default();
        run_selection(self.dfs(), self.truth(), scheduler, &cfg)
    }

    /// Selection of the hot movie under Hadoop's locality scheduling
    /// ("without DataNet").
    pub(crate) fn without(&self) -> &SelectionOutcome {
        self.without
            .get_or_init(|| self.select(&mut LocalityScheduler::new(self.dfs())))
    }

    /// Selection of the hot movie under Algorithm 1 over
    /// [`Fixtures::view`] ("with DataNet").
    pub(crate) fn with(&self) -> &SelectionOutcome {
        self.with
            .get_or_init(|| self.select(&mut DataNetScheduler::new(self.dfs(), self.view())))
    }
}
