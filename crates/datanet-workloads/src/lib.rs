//! Synthetic workload generators reproducing the paper's datasets.
//!
//! The paper evaluates on (a) a movie-rating/review log derived from
//! MovieTweetings/MovieLens, stored chronologically — strongly
//! content-clustered because "most reviews about a movie are clustered
//! around the time of its release" — and (b) GitHub Archive event logs,
//! whose `IssueEvent` sub-dataset is imbalanced across blocks *without*
//! obvious clustering. Neither raw corpus ships with this reproduction, so
//! [`movies`] and [`github`] generate records with the same distributional
//! structure (see DESIGN.md for the substitution argument), and
//! [`worldcup`] adds the bursty web-access-log regime of the paper's
//! reference \[3\]. [`movie_dataset`] and [`github_dataset`] are the two
//! generators at the settings of the paper's experiments, on a DFS.
//!
//! All generators are deterministic under a fixed seed and emit records in
//! timestamp order — the property that turns temporal locality into HDFS
//! block clustering.

pub mod github;
pub mod movies;
mod setup;
pub mod worldcup;

pub use github::{EventType, GithubConfig};
pub use movies::{MovieCatalog, MoviesConfig};
pub use setup::{github_dataset, movie_dataset, NODES};
pub use worldcup::WorldCupConfig;
