#![warn(missing_docs)]

//! # hopdb-server — a long-running query daemon over `FlatIndex`
//!
//! The serving process the paper's sub-microsecond query path deserves:
//! a TCP daemon speaking a small length-prefixed binary protocol
//! ([`proto`]), booting from a serialized `HOPIDX04` index image that
//! [`hoplabels::flat::FlatIndex`] validates and then serves in place,
//! fanning request batches across `FlatIndex::query_many`'s scoped
//! worker pool, and supporting *hot index swap*: an
//! admin-frame-triggered atomic `Arc<Generation>` promotion so a
//! parallel rebuild can replace the serving index without dropping a
//! single connection.
//!
//! * [`proto`] — the `HOPQ`/`HOPR` wire format and its codec;
//! * [`backend`] — one immutable index generation (the image under
//!   its overlay) behind the `.rank` id translation every served image
//!   carries;
//! * `front` — the one endpoint: the readiness-driven serving loop
//!   (framing, pipelining, backpressure, HOPQ and HTTP on one port), its
//!   one stop path and the [`ServerHandle`] that the index node and the
//!   router both return; [`reactor`] picks its poller at build time
//!   (epoll on Linux, `poll(2)` on other unix);
//! * [`batch`] — the one job queue between the front and a stage:
//!   queries, and the update, swap and compact barriers;
//! * [`server`] — the index node: boot/recovery, and its stage — query
//!   executor, live updates, swap, compaction;
//! * [`router`] — the fan-out endpoint over a fleet of pivot ranges
//!   (replica: one range, many holders; shard: many ranges, one holder
//!   each), whose stage is a dispatcher;
//! * [`client`] — a blocking client used by `hopdb-cli admin`,
//!   hopbench (`benchmark/`), and the end-to-end tests.
//!
//! ```
//! use hoplabels::{LabelEntry, LabelIndex};
//! use hopdb_server::{serve, Client, ServerConfig};
//! use sfgraph::ranking::Ranking;
//!
//! // A 3-vertex path 1 –2– 0 –5– 2 in rank ids, serialized to disk
//! // with the ranking that maps original ids onto them: original
//! // vertex 2 ranks first.
//! let mut idx = LabelIndex::new(3, false);
//! let l = &mut idx.sides_mut()[0]; // an undirected index's one side, `L`
//! l[1].insert_min(LabelEntry::new(0, 2));
//! l[2].insert_min(LabelEntry::new(0, 5));
//! let path = std::env::temp_dir().join(format!("hopdb-doc-{}.idx", std::process::id()));
//! idx.write_hopidx(&mut std::fs::File::create(&path).unwrap()).unwrap();
//! let rank = path.with_extension("idx.rank");
//! std::fs::write(&rank, Ranking::from_order(vec![2, 0, 1]).to_sidecar_bytes()).unwrap();
//!
//! // Clients speak original ids: (0, 1) are ranks (1, 2).
//! let handle = serve("127.0.0.1:0", &path, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! assert_eq!(client.query(&[(0, 1), (1, 1)]).unwrap(), vec![7, 0]);
//! handle.shutdown();
//! std::fs::remove_file(path).unwrap();
//! std::fs::remove_file(rank).unwrap();
//! ```

pub mod backend;
pub mod batch;
pub mod client;
pub mod conn;
mod front;
pub mod http;
pub mod proto;
pub mod reactor;
pub mod router;
pub mod server;
pub mod wal;

pub use backend::Generation;
pub use client::Client;
pub use front::{FrontConfig, ServerHandle};
pub use router::{serve_router, RouteMode, RouterConfig};
pub use server::{serve, ServerConfig};
