#![warn(missing_docs)]

//! # hoplabels — 2-hop distance label indexes
//!
//! The query-side half of the paper: data structures for 2-hop label
//! covers, independent of how the labels were constructed (the `hopdb`
//! crate builds them; the `baselines` crate's PLL builds them too).
//!
//! * [`entry::LabelEntry`] — a `(pivot, dist)` pair;
//! * [`index::VertexLabels`] — one vertex's label, sorted by pivot id,
//!   or for a vertex derived from its one or two neighbours an
//!   [`index::Record`] of those neighbours and the arcs' weights;
//! * [`index::LabelIndex`] — the full index, `[Lout, Lin]` or `[L]`;
//!   [`index::merge_join`] and [`index::resolve`], the 2-hop join and the
//!   record rule that every reader, builder and baseline shares;
//! * [`image`] — `HOPIDX03`, the one serialized form: per label a
//!   64-bit hub word, hub distances packed at the image's width (4 bits
//!   on the benchmark graphs) and a tail of one varint per entry, pivot
//!   gap and distance together, per derived vertex a 1–7-byte record,
//!   under a CRC; its writer, checked decoder and validator;
//! * [`flat::FlatIndex`] — the frozen read path: a validated image
//!   served in place, and the batched parallel `query_many` used for
//!   serving;
//! * [`stats`] — label-size and pivot-coverage statistics backing
//!   Table 7 and Figures 8–9;
//! * [`disk`] — the I/O-counted disk query of Table 6's "Disk query
//!   time" column, over the same image (a measurement, not a serving
//!   path);
//! * [`query::QueryBackend`] — the serving-time query surface,
//!   implemented by `FlatIndex` and by `overlay::LiveIndex` over it;
//! * [`overlay`] — the delta overlay for live edge insertions:
//!   [`overlay::LiveIndex`] answers `min(frozen, overlay)` behind
//!   `QueryBackend` so the serving tier takes writes without a rebuild;
//! * [`shard`] — pivot-range sharding: split one index image into `k`
//!   smaller images whose per-shard answers min-merge back to the
//!   unsharded answer, for scale-out serving;
//! * [`verify`] — brute-force exactness/minimality checkers for tests.
//!
//! ## Rank convention
//!
//! All structures assume the graph has been *rank-relabeled*
//! (`sfgraph::ranking::relabel_by_rank`): vertex id 0 is the
//! highest-ranked vertex and `r(u) > r(v)` ⇔ `u < v`. Labels store
//! pivots in increasing id order, i.e. decreasing rank order.

pub mod disk;
pub mod entry;
pub mod flat;
pub mod image;
pub mod index;
pub mod overlay;
pub mod query;
pub mod shard;
pub mod stats;
pub mod verify;

pub use entry::LabelEntry;
pub use flat::FlatIndex;
pub use index::{DirectedLabels, LabelIndex, Record, UndirectedLabels, VertexLabels};
pub use overlay::{LiveIndex, OverlaySnapshot};
pub use query::QueryBackend;
pub use shard::{min_merge, shard_image, ShardSpec};
