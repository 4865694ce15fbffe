#![warn(missing_docs)]
#![doc = include_str!("../README.md")]

pub use baselines;
pub use extmem;
pub use graphgen;
pub use hopdb;
pub use hopdb_server;
pub use hoplabels;
pub use sfgraph;

pub use hoplabels::QueryBackend;
