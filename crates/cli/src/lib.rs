#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

//! # hopdb-cli — command-line front end
//!
//! Seven subcommands wire the library into a usable tool: `gen`,
//! `stats`, `build`, `query`, `shard`, `serve` and `admin`. [`USAGE`]
//! (`hopdb-cli help`) is the one statement of each command's options,
//! and an option a command — or the mode of it the other options pick —
//! does not read is refused before any work, so a stray one cannot
//! silently fall back to a default.
//!
//! `build` writes two artifacts: the `HOPIDX04` index image
//! (`hoplabels::image`) and a `.rank` sidecar holding the vertex-at-rank
//! permutation so `query` can accept original vertex ids. `query`
//! loads through the daemon's loader, `hopdb_server::Generation` (the
//! image validated and served in place, its `.rank` and `.shard`
//! sidecars read by the daemon's rules), requires the `.rank`, refuses
//! one shard of a split image, and answers single pairs or whole batch
//! files with `Generation::query_many`, sharding batches across
//! `--threads` workers. `shard` splits an index image by pivot range
//! into per-shard images (`hoplabels::shard`), each a complete
//! `HOPIDX04` index a stock daemon can serve, plus a `HOPSHRD2` sidecar
//! so the router can learn each backend's range and a copy of the
//! source's `.rank`, without which it writes nothing. `serve` runs the
//! `hopdb-server` daemon over the same index + sidecar pair (pass
//! `--graph` to enable compaction) — or, with `--route`, the scale-out
//! router that fans query batches across `--backends` daemons — and
//! `admin` speaks the wire protocol to a running daemon or router: its
//! status, hot index swap, live edge ingest, overlay compaction,
//! shutdown. Each admin verb is one `AdminCmd` variant sharing a single
//! connect-with-timeout path. Argument parsing is handwritten (no
//! external dependency); all logic lives in [`run`] so tests drive the
//! CLI in-process.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;

use graphgen::{
    barabasi_albert, erdos_renyi, glp, orient_scale_free, with_random_weights, GlpParams,
};
use hopdb::{HopDbConfig, Strategy};
use sfgraph::ranking::Ranking;
use sfgraph::{Graph, VertexId, INF_DIST};

/// CLI failure: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl From<sfgraph::GraphError> for CliError {
    fn from(e: sfgraph::GraphError) -> Self {
        CliError(format!("graph error: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

type Command = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

/// Every command: `(name, options that take a value, switches, body)`.
/// Anything else that looks like an option is an error, so a typo
/// cannot silently fall back to a default; a unit test holds these
/// lists and the options [`USAGE`] spells to each other.
const COMMANDS: [(&str, &str, &str, Command); 7] = [
    (
        "gen",
        "--model --vertices --density --seed --reciprocal --max-weight -o",
        "--directed --weighted",
        cmd_gen,
    ),
    ("stats", "-i", "--directed --weighted", cmd_stats),
    (
        "build",
        "-i -o --strategy --switch-at --threads --memory-records --block-bytes",
        "--directed --weighted --external",
        cmd_build,
    ),
    ("query", "-x --pairs --threads", "", cmd_query),
    ("shard", "-x --shards -o", "", cmd_shard),
    (
        "serve",
        "-x --addr --batch-threads --max-batch --max-inflight --idle-timeout-ms \
         --swap-path --graph --compact-threshold --wal-dir --durability --wal-max-bytes \
         --announce-file --route --backends --connect-timeout-ms --connect-retries",
        "--allow-remote-shutdown",
        cmd_serve,
    ),
    ("admin", "-a --timeout-ms --retries --batch", "", cmd_admin),
];

/// The `serve` options only an index node reads, and those only the
/// router (`--route`) reads; the rest of the row serves both. Each mode
/// refuses the other's, as the table refuses another command's.
const SERVE_NODE_ONLY: &str = "-x --batch-threads --swap-path --graph --compact-threshold \
     --wal-dir --durability --wal-max-bytes";
const SERVE_ROUTER_ONLY: &str = "--route --backends --connect-timeout-ms --connect-retries";

/// Refuse the first of `flags` that `args` holds: options the command
/// reads, but not in `mode`, as unknown as any other.
fn refuse(args: &Args, flags: &str, mode: &str) -> Result<(), CliError> {
    match flags.split_whitespace().find(|flag| args.has(flag)) {
        Some(flag) => Err(err(format!("unknown option {flag} for {mode}\n{USAGE}"))),
        None => Ok(()),
    }
}

/// One command's arguments: `--flag value` options looked up by name,
/// plus the positional arguments.
struct Args<'a> {
    rest: &'a [String],
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Split `rest` into options and positional arguments, refusing any
    /// option `command` does not read. A token is an option when it
    /// starts with `-` and is neither a (negative) number nor the bare
    /// `-` that names stdin.
    fn parse(
        command: &str,
        valued: &str,
        switches: &str,
        rest: &'a [String],
    ) -> Result<Args<'a>, CliError> {
        let lists = |list: &str, token: &str| list.split(' ').any(|flag| flag == token);
        let mut positional = Vec::new();
        let mut tokens = rest.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if token.len() < 2 || !token.starts_with('-') || token.parse::<i64>().is_ok() {
                positional.push(token);
            } else if lists(valued, token) {
                tokens.next(); // its value
            } else if !lists(switches, token) {
                return Err(err(format!("unknown option {token} for {command}\n{USAGE}")));
            }
        }
        Ok(Args { rest, positional })
    }

    fn opt(&self, flag: &str) -> Option<&'a str> {
        self.rest
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.opt(flag) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| err(format!("bad value for {flag}: {v}"))),
        }
    }

    fn required(&self, flag: &str) -> Result<&'a str, CliError> {
        self.opt(flag).ok_or_else(|| err(format!("missing required option {flag}")))
    }
}

/// Run the CLI with `args` (excluding the program name); human-readable
/// output goes to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let Some(&(_, valued, switches, command)) = COMMANDS.iter().find(|row| row.0 == name) else {
        return Err(err(format!("unknown command `{name}`\n{USAGE}")));
    };
    command(&Args::parse(name, valued, switches, rest)?, out)
}

/// Usage text shown by `help` and on argument errors.
pub const USAGE: &str = "usage: hopdb-cli <command> [options]

commands:
  gen    --model glp|ba|er --vertices N [--density D] [--seed S]
         [--directed [--reciprocal R]] [--weighted [--max-weight W]] -o FILE
  stats  -i EDGELIST [--directed] [--weighted]
  build  -i EDGELIST -o INDEX [--directed] [--weighted]
         [--strategy hybrid|stepping|doubling] [--switch-at K]
         (--switch-at is read by hybrid, the default strategy, only)
         [--threads N]   (0 = all cores; any N builds the identical index)
         [--external [--memory-records M] [--block-bytes B]]
         (--external runs the §4 disk-based build under an M-record /
          B-byte budget; --threads ≥ 2 pipelines its joins and spills)
  query  -x INDEX [s t ...] [--pairs FILE] [--threads N]
         (pairs from arguments and/or FILE of `s t` lines; N workers, 0 = all cores;
          one shard of a split index is refused: query the shard router)
  shard  -x INDEX --shards K [-o PREFIX]
         (split the index image into K per-shard images by pivot range,
          balanced by label-entry count; shard i is written to
          PREFIX.shard<i> — default PREFIX is INDEX — with its HOPSHRD2
          range sidecar at PREFIX.shard<i>.shard and a copy of INDEX.rank,
          which must be there; every shard is a complete index a stock
          `serve` daemon can load)
  serve  -x INDEX [--addr HOST:PORT] [--batch-threads N] [--max-batch PAIRS]
         [--max-inflight N] [--idle-timeout-ms MS] [--swap-path FILE]
         [--graph EDGELIST [--compact-threshold EDGES]]
         [--wal-dir DIR [--durability off|batch|always] [--wal-max-bytes B]]
         [--announce-file FILE] [--allow-remote-shutdown]
         (long-running TCP daemon; HOPQ wire protocol + HTTP/JSON on the
          same port; one readiness loop, epoll on Linux and poll(2) on
          other unix hosts; swap promotes --swap-path; query batches are
          whatever is queued when the last one is answered; --max-inflight
          caps pipelining per connection, --batch-threads fans one query
          batch across N workers; --graph names the edge list the index
          was built from and enables compaction — a rebuild from that file
          plus every edge accepted since, lossless across compactions and,
          with --wal-dir, restarts — when the overlay reaches
          --compact-threshold edges, 0 = only on `admin compact`; --wal-dir
          logs accepted updates before they are acknowledged and replays
          them after a crash, --durability picks the fsync policy, default
          batch = group-commit, and --wal-max-bytes (with --graph) caps the
          log on disk: a checkpoint, which truncates it, runs whenever it is
          exceeded; an option the others switch off is refused)
  serve  --route replica|shard --backends HOST:PORT,HOST:PORT[,...]
         [--addr HOST:PORT] [--max-batch PAIRS] [--max-inflight N]
         [--idle-timeout-ms MS] [--connect-timeout-ms MS] [--connect-retries N]
         [--announce-file FILE] [--allow-remote-shutdown]
         (scale-out router, no local index: `replica` load-balances
          query batches across identical backends with automatic
          failover and fans updates to all of them; `shard` splits each
          batch by the backends' pivot ranges — images made by `shard` —
          and min-merges the per-shard answers; either mode answers
          byte-identically to a single daemon over the unsharded index;
          point `admin swap`/`compact` at each backend in turn for a
          rolling swap, `admin shutdown` at the router stops the router
          only)
  admin  -a HOST:PORT [--timeout-ms MS] [--retries N] [--batch EDGES]
         info|swap|compact|shutdown|ingest [FILE]
         (talk to a running serve daemon or router; default 5000 ms timeout
          so a dead server fails the command instead of hanging it, 0 =
          wait; connection-refused errors are retried with backoff,
          --retries extra attempts, default 3; `info` prints the status,
          one line per `GET /stats` key; `ingest` streams `s t [w]` edge
          lines from FILE or stdin as live updates, --batch edges per
          frame, stopping at the first rejected batch with the offending
          line range; `compact` rebuilds and promotes a fresh generation
          and is exempt from the short timeout)";

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = args.opt("--model").unwrap_or("glp");
    let n: usize = args.parsed("--vertices")?.ok_or_else(|| err("missing --vertices"))?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let density: f64 = args.parsed("--density")?.unwrap_or(2.13);
    let mut g = match model {
        "glp" => glp(&GlpParams::with_density(n, density, seed)),
        "ba" => barabasi_albert(n, (density.round() as usize).max(1), seed),
        "er" => erdos_renyi(n, (n as f64 * density) as usize, seed),
        other => return Err(err(format!("unknown model `{other}` (glp|ba|er)"))),
    };
    if args.has("--directed") {
        let reciprocal: f64 = args.parsed("--reciprocal")?.unwrap_or(0.25);
        g = orient_scale_free(&g, reciprocal, seed);
    }
    if args.has("--weighted") {
        let max_w: u32 = args.parsed("--max-weight")?.unwrap_or(10);
        g = with_random_weights(&g, 1, max_w.max(1), seed);
    }
    let path = args.required("-o")?;
    let file = std::fs::File::create(path)?;
    sfgraph::io::write_edge_list(&g, std::io::BufWriter::new(file))?;
    writeln!(out, "wrote {} vertices / {} edges to {path}", g.num_vertices(), g.num_edges())?;
    Ok(())
}

fn load_graph(args: &Args) -> Result<Graph, CliError> {
    let path = args.required("-i")?;
    let file = std::fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    Ok(sfgraph::io::read_edge_list(
        std::io::BufReader::new(file),
        args.has("--directed"),
        args.has("--weighted"),
    )?)
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let mut s = String::new();
    let _ = writeln!(s, "|V|              {}", g.num_vertices());
    let _ = writeln!(s, "|E|              {}", g.num_edges());
    let _ = writeln!(s, "directed         {}", g.is_directed());
    let _ = writeln!(s, "weighted         {}", g.is_weighted());
    let _ = writeln!(s, "max degree       {}", g.max_degree());
    if let Some(gamma) = sfgraph::analysis::rank_exponent(&g) {
        let _ = writeln!(s, "rank exponent γ  {gamma:.3} (scale-free band: -0.9…-0.6)");
    }
    if let Some(alpha) = sfgraph::analysis::power_law_exponent(&g) {
        let _ = writeln!(s, "power-law α      {alpha:.3} (scale-free band: 2…3)");
    }
    let _ = writeln!(s, "expansion R      {:.2}", sfgraph::analysis::expansion_factor(&g, 16));
    let _ = writeln!(s, "hop diameter ≈   {}", sfgraph::analysis::hop_diameter(&g, 8, 2_000));
    let (wcc, largest) = sfgraph::analysis::weak_components(&g);
    let _ = writeln!(s, "components       {wcc} (largest {largest})");
    write!(out, "{s}")?;
    Ok(())
}

fn cmd_build(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    // Every option is checked before the graph is read: a block size of
    // 0 has no block I/Os to report, and an option this build does not
    // read is refused like an unknown one.
    let strategy = match args.opt("--strategy").unwrap_or("hybrid") {
        "hybrid" => Strategy::Hybrid { switch_at: args.parsed("--switch-at")?.unwrap_or(10) },
        "stepping" => Strategy::Stepping,
        "doubling" => Strategy::Doubling,
        other => return Err(err(format!("unknown strategy `{other}`"))),
    };
    if !matches!(strategy, Strategy::Hybrid { .. }) {
        refuse(args, "--switch-at", "build without --strategy hybrid")?;
    }
    let ext = if args.has("--external") {
        let defaults = extmem::ExtMemConfig::default();
        let block_bytes = args.parsed("--block-bytes")?.unwrap_or(defaults.block_bytes);
        if block_bytes == 0 {
            return Err(err("bad value for --block-bytes: 0 (a block holds at least 1 byte)"));
        }
        let memory_records = args.parsed("--memory-records")?.unwrap_or(defaults.memory_records);
        Some(extmem::ExtMemConfig { memory_records, block_bytes })
    } else {
        refuse(args, "--memory-records --block-bytes", "build without --external")?;
        None
    };
    let g = load_graph(args)?;
    let defaults = HopDbConfig::default();
    let cfg = HopDbConfig {
        strategy,
        parallelism: args.parsed("--threads")?.unwrap_or(defaults.parallelism),
        ..defaults
    };
    let started = std::time::Instant::now();
    let (ranking, relabeled) = hopdb::rank(&g, &cfg);
    let mut io_summary = None;
    let (index, stats) = if let Some(ext) = &ext {
        let result = hopdb::external::build_external(&relabeled, &cfg, ext)
            .map_err(|e| err(format!("external build failed: {e}")))?;
        let (read_bytes, write_bytes, read_blocks, write_blocks) = result.io;
        io_summary = Some(format!(
            "external I/O: {read_bytes} B read / {write_bytes} B written \
             ({read_blocks}+{write_blocks} blocks), {} sort runs, {} merge passes, {} seeks, \
             {} prune blocks, {} records encoded / {} decoded, {} raw candidates / {} hub-killed",
            result.sort_runs,
            result.merge_passes,
            result.seeks,
            result.prune_blocks,
            result.records_encoded,
            result.records_decoded,
            result.raw_candidates,
            result.hub_killed
        ));
        (result.index, result.stats)
    } else {
        hopdb::build_prelabeled(&relabeled, &cfg)
    };
    let elapsed = started.elapsed();

    // Persist: index file + ranking sidecar.
    let target = args.required("-o")?;
    let image_bytes = index.write_hopidx(&mut std::fs::File::create(target)?)?;
    write_ranking_sidecar(target, &ranking)?;

    writeln!(
        out,
        "built {} entries (avg {:.1}/vertex) in {:?} over {} iterations ({} threads)",
        index.total_entries(),
        index.avg_label_size(),
        elapsed,
        stats.num_iterations(),
        stats.threads,
    )?;
    if let Some(line) = &io_summary {
        writeln!(out, "{line}")?;
    }
    writeln!(
        out,
        "fringe: {} of {} vertices ({} leaves, {} of degree 2), core |E| = {} incl. {} shortcuts",
        stats.derived_vertices,
        index.num_vertices(),
        stats.derived_leaves,
        stats.derived_vertices - stats.derived_leaves,
        stats.core_edges,
        stats.shortcut_arcs
    )?;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    writeln!(
        out,
        "canonical filter: {} entries dropped in {:.3} ms",
        stats.post_pruned,
        ms(stats.post_prune_elapsed)
    )?;
    writeln!(out, "hub tables: built in {:.3} ms", ms(stats.hub_tables_elapsed))?;
    // Per iteration, over the core (its `entries` still count the
    // fringe's self-entries and the filtered entries): the counters, the
    // phase times summed over workers and the bytes moved, 0 from the
    // in-memory engine.
    let head = "iter     mode candidates     pruned   inserted    entries  gather ms   prune ms";
    writeln!(out, "{head}   apply ms       read B    written B")?;
    for it in &stats.iterations {
        writeln!(
            out,
            "{:>4} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>12} {:>12}",
            it.iteration,
            if it.stepping { "stepping" } else { "doubling" },
            it.candidates,
            it.pruned,
            it.inserted,
            it.total_entries,
            ms(it.gather),
            ms(it.prune),
            ms(it.apply),
            it.io_read_bytes,
            it.io_write_bytes
        )?;
    }
    let per_vertex = image_bytes as f64 / index.num_vertices().max(1) as f64;
    writeln!(out, "image: {image_bytes} B ({per_vertex:.2} B/vertex)")?;
    writeln!(out, "index: {target}  ranking: {target}.rank")?;
    Ok(())
}

fn write_ranking_sidecar(target: &str, ranking: &Ranking) -> Result<(), CliError> {
    std::fs::write(format!("{target}.rank"), ranking.to_sidecar_bytes())?;
    Ok(())
}

fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let target = args.required("-x")?;
    // The daemon's loader: the image validated once and queried in place,
    // its `.rank` and `.shard` sidecars read by the daemon's rules.
    let index = hopdb_server::Generation::load(Path::new(target), 1)
        .map_err(|e| err(format!("cannot load {target}: {e}")))?;
    // One shard holds one pivot range: its joins are upper bounds.
    if let Some(spec) = index.shard().filter(|spec| spec.count > 1) {
        return Err(err(format!(
            "{target} is shard {} of {}: its answers are upper bounds; serve every \
             shard and query through `serve --route shard`",
            spec.index, spec.count
        )));
    }

    // Pairs come from the positional arguments and/or a batch file of
    // whitespace-separated `s t` lines (comments as in a graph file).
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    let positional = &args.positional;
    if !positional.len().is_multiple_of(2) {
        return Err(err("query needs an even number of vertex ids: s t [s t ...]"));
    }
    let parse_vertex = |tok: &str| -> Result<VertexId, CliError> {
        tok.parse().map_err(|_| err(format!("bad vertex {tok}")))
    };
    for pair in positional.chunks_exact(2) {
        if let [s, t] = pair {
            pairs.push((parse_vertex(s)?, parse_vertex(t)?));
        }
    }
    if let Some(batch) = args.opt("--pairs") {
        let text =
            std::fs::read_to_string(batch).map_err(|e| err(format!("cannot open {batch}: {e}")))?;
        for (_, line) in data_lines(&text) {
            let mut it = line.split_whitespace();
            let (Some(s), Some(t), None) = (it.next(), it.next(), it.next()) else {
                return Err(err(format!("bad pair line in {batch}: `{line}`")));
            };
            pairs.push((parse_vertex(s)?, parse_vertex(t)?));
        }
    }
    if pairs.is_empty() {
        return Err(err("query needs vertex pairs: s t [s t ...] and/or --pairs FILE"));
    }
    let threads: usize = args.parsed("--threads")?.unwrap_or(1);
    let dists = index.query_many(&pairs, threads).map_err(err)?;
    for (&(s, t), d) in pairs.iter().zip(dists) {
        if d == INF_DIST {
            writeln!(out, "dist({s}, {t}) = unreachable")?;
        } else {
            writeln!(out, "dist({s}, {t}) = {d}")?;
        }
    }
    Ok(())
}

/// The lines of a pair or edge file that hold data, numbered from 1,
/// by the rule `build -i` reads graphs with ([`sfgraph::io::data_line`]).
fn data_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    (1..).zip(text.lines()).filter_map(|(n, line)| Some((n, sfgraph::io::data_line(line)?)))
}

fn cmd_shard(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let target = args.required("-x")?;
    let k: usize = args.parsed("--shards")?.ok_or_else(|| err("missing --shards"))?;
    let prefix = args.opt("-o").unwrap_or(target);
    let bytes = std::fs::read(target).map_err(|e| err(format!("cannot open {target}: {e}")))?;
    let shards = hoplabels::shard_image(&bytes, k)
        .map_err(|e| err(format!("cannot shard {target}: {e}")))?;
    // Every shard is served behind the source's ranking, validated
    // before one is written against the vertex count: the ranges tile
    // `[0, n)`.
    let n = shards.last().map_or(0, |(_, spec)| spec.hi as usize);
    let ranking = hopdb_server::backend::load_ranking(Path::new(target), n)
        .map_err(|e| err(e.to_string()))?;
    for (image, spec) in &shards {
        let path = format!("{prefix}.shard{}", spec.index);
        std::fs::write(&path, image)?;
        std::fs::write(format!("{path}.shard"), spec.encode())?;
        write_ranking_sidecar(&path, &ranking)?;
        writeln!(
            out,
            "shard {}/{}: pivots [{}, {}) -> {path} ({} bytes)",
            spec.index,
            spec.count,
            spec.lo,
            spec.hi,
            image.len(),
        )?;
    }
    Ok(())
}

/// The first socket address `addr` resolves to; errors name it after
/// `what` (`"backend "` or nothing).
fn resolve(what: &str, addr: &str) -> Result<SocketAddr, CliError> {
    let mut resolved =
        addr.to_socket_addrs().map_err(|e| err(format!("cannot resolve {what}{addr}: {e}")))?;
    resolved.next().ok_or_else(|| err(format!("cannot resolve {what}{addr}")))
}

/// Parse `--backends a:p,b:p,...` into socket addresses.
fn parse_backends(spec: &str) -> Result<Vec<SocketAddr>, CliError> {
    let parts = spec.split(',').map(str::trim).filter(|p| !p.is_empty());
    let backends = parts.map(|part| resolve("backend ", part)).collect::<Result<Vec<_>, _>>()?;
    if backends.is_empty() {
        return Err(err("--backends needs at least one HOST:PORT"));
    }
    Ok(backends)
}

/// The serving-loop limits `serve` takes with and without `--route`.
fn front_config(args: &Args) -> Result<hopdb_server::FrontConfig, CliError> {
    let defaults = hopdb_server::FrontConfig::default();
    Ok(hopdb_server::FrontConfig {
        max_batch: args.parsed("--max-batch")?.unwrap_or(defaults.max_batch),
        max_inflight: args.parsed("--max-inflight")?.unwrap_or(defaults.max_inflight),
        idle_timeout_ms: args.parsed("--idle-timeout-ms")?.unwrap_or(defaults.idle_timeout_ms),
        allow_shutdown: args.has("--allow-remote-shutdown"),
    })
}

fn cmd_serve_router(args: &Args, route: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let mode = route.parse::<hopdb_server::RouteMode>().map_err(err)?;
    let backends = parse_backends(args.required("--backends")?)?;
    let addr = args.opt("--addr").unwrap_or("127.0.0.1:7654");
    let defaults = hopdb_server::RouterConfig::default();
    let config = hopdb_server::RouterConfig {
        mode,
        backends,
        front: front_config(args)?,
        connect_timeout: args
            .parsed("--connect-timeout-ms")?
            .map_or(defaults.connect_timeout, std::time::Duration::from_millis),
        connect_retries: args.parsed("--connect-retries")?.unwrap_or(defaults.connect_retries),
    };
    let handle = hopdb_server::serve_router(addr, config)
        .map_err(|e| err(format!("cannot start {route} router on {addr}: {e}")))?;
    let at = handle.local_addr();
    if let Err(e) = announce(args, out, &format!("routing ({route}) on {at}"), at) {
        handle.shutdown();
        return Err(e);
    }
    handle.wait();
    writeln!(out, "router stopped")?;
    Ok(())
}

/// Announce an endpoint that is up: print `line`, and write its
/// address to `--announce-file` — scripts and tests poll that file
/// instead of parsing stdout; with `--addr 127.0.0.1:0` it is the only
/// way to learn the port. On an error the caller stops the endpoint: a
/// dropped handle would leak its threads and the bound port.
fn announce(args: &Args, out: &mut dyn Write, line: &str, at: SocketAddr) -> Result<(), CliError> {
    writeln!(out, "{line}")?;
    out.flush()?;
    if let Some(file) = args.opt("--announce-file") {
        std::fs::write(file, at.to_string())?;
    }
    Ok(())
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if let Some(route) = args.opt("--route") {
        refuse(args, SERVE_NODE_ONLY, "serve --route")?;
        return cmd_serve_router(args, route, out);
    }
    refuse(args, SERVE_ROUTER_ONLY, "serve without --route")?;
    // Options another option switches off: the log's without a log, and
    // the compaction triggers without a graph to compact from.
    if !args.has("--wal-dir") {
        refuse(args, "--durability --wal-max-bytes", "serve without --wal-dir")?;
    }
    if !args.has("--graph") {
        refuse(args, "--compact-threshold --wal-max-bytes", "serve without --graph")?;
    }
    let target = args.required("-x")?;
    let addr = args.opt("--addr").unwrap_or("127.0.0.1:7654");
    let defaults = hopdb_server::ServerConfig::default();
    let config = hopdb_server::ServerConfig {
        batch_threads: args.parsed("--batch-threads")?.unwrap_or(defaults.batch_threads),
        front: front_config(args)?,
        swap_path: args.opt("--swap-path").map(std::path::PathBuf::from),
        source_graph: args.opt("--graph").map(std::path::PathBuf::from),
        compact_threshold: args
            .parsed("--compact-threshold")?
            .unwrap_or(defaults.compact_threshold),
        wal_dir: args.opt("--wal-dir").map(std::path::PathBuf::from),
        durability: match args.opt("--durability") {
            None => defaults.durability,
            Some(v) => v.parse().map_err(err)?,
        },
        wal_max_bytes: args.parsed("--wal-max-bytes")?,
    };
    // The crash-recovery harness plants I/O fault points in a spawned
    // daemon through the environment; inert unless EXTMEM_FAULT_* vars
    // are present.
    extmem::device::faults::arm_from_env();
    let handle = hopdb_server::serve(addr, Path::new(target), config)
        .map_err(|e| err(format!("cannot serve {target} on {addr}: {e}")))?;
    let at = handle.local_addr();
    if let Err(e) = announce(args, out, &format!("serving {target} on {at} (generation 1)"), at) {
        handle.shutdown();
        return Err(e);
    }
    handle.wait();
    writeln!(out, "server stopped")?;
    Ok(())
}

/// One parsed `admin` action. Every verb shares the same
/// connect-with-timeout path in [`cmd_admin`]; parsing is separated
/// from execution so argument errors never open a socket.
enum AdminCmd {
    /// Print the endpoint's status, one line per `InfoReply` field.
    Info,
    /// Promote the `--swap-path` index (or re-load the boot index).
    Swap,
    /// Fold the overlay into a freshly built frozen index.
    Compact,
    /// Ask the server to stop.
    Shutdown,
    /// Stream edge insertions from a file (or stdin) as live updates.
    Ingest {
        /// `None` or `Some("-")` reads stdin.
        source: Option<String>,
        /// Edges per update frame.
        batch: usize,
    },
}

impl AdminCmd {
    const ACTIONS: &'static str = "info|swap|compact|shutdown|ingest [FILE]";

    fn parse(args: &Args) -> Result<AdminCmd, CliError> {
        let Some((&verb, rest)) = args.positional.split_first() else {
            return Err(err(format!("admin needs an action: {}", AdminCmd::ACTIONS)));
        };
        let cmd = match verb {
            "info" => AdminCmd::Info,
            "swap" => AdminCmd::Swap,
            "compact" => AdminCmd::Compact,
            "shutdown" => AdminCmd::Shutdown,
            "ingest" => {
                return Ok(AdminCmd::Ingest {
                    source: match rest {
                        [] => None,
                        [file] => Some(file.to_string()),
                        _ => return Err(err("admin ingest takes at most one FILE")),
                    },
                    batch: args.parsed::<usize>("--batch")?.unwrap_or(4096).max(1),
                });
            }
            other => {
                return Err(err(format!("unknown admin action `{other}` ({})", AdminCmd::ACTIONS)))
            }
        };
        if !rest.is_empty() {
            return Err(err(format!("admin {verb} takes no further arguments")));
        }
        Ok(cmd)
    }
}

/// The one connect path every admin verb goes through. A dead or
/// wedged server (bound port, nobody answering) must fail the command,
/// not hang it: the timeout bounds connect AND every read/write of the
/// conversation (0 = wait forever), while transient refusals — the
/// daemon restarting after a crash — are retried with backoff up to
/// `retries` extra attempts.
fn connect_admin(
    addr: &str,
    timeout_ms: u64,
    retries: u32,
) -> Result<hopdb_server::Client, CliError> {
    let timeout = (timeout_ms != 0).then(|| std::time::Duration::from_millis(timeout_ms));
    hopdb_server::Client::connect_retry(&resolve("", addr)?, timeout, retries)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))
}

/// Parse `s t [w]` edge lines (`#` comments, blank lines allowed;
/// missing weight means 1) from a file, or stdin for `None`/`"-"`.
/// Each edge carries its 1-based input line number so a rejected batch
/// can be reported as a line range, plus the origin name for messages.
type IngestEdges = (Vec<(usize, (VertexId, VertexId, u32))>, String);

fn read_ingest_edges(source: Option<&str>) -> Result<IngestEdges, CliError> {
    let (text, origin) = match source {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            (buf, "stdin".to_string())
        }
        Some(path) => (
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot open {path}: {e}")))?,
            path.to_string(),
        ),
    };
    let mut edges = Vec::new();
    for (lineno, line) in data_lines(&text) {
        let mut it = line.split_whitespace();
        let (s, t, w) = (it.next(), it.next(), it.next());
        let (Some(s), Some(t), None) = (s, t, it.next()) else {
            return Err(err(format!("bad edge line in {origin}: `{line}` (want `s t [w]`)")));
        };
        let parse = |tok: &str| -> Result<u32, CliError> {
            tok.parse().map_err(|_| err(format!("bad number `{tok}` in {origin}: `{line}`")))
        };
        edges.push((lineno, (parse(s)?, parse(t)?, w.map(parse).transpose()?.unwrap_or(1))));
    }
    Ok((edges, origin))
}

fn cmd_admin(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.required("-a")?;
    let cmd = AdminCmd::parse(args)?;
    let timeout_ms: u64 = args.parsed("--timeout-ms")?.unwrap_or(5_000);
    let retries: u32 = args.parsed("--retries")?.unwrap_or(3);
    let mut client = connect_admin(addr, timeout_ms, retries)?;
    let admin_err = |what: &str, e: std::io::Error| err(format!("{what} failed: {e}"));
    match cmd {
        AdminCmd::Info => {
            // The reply as declared: one `name value` line per field,
            // under the names `GET /stats` uses as keys.
            for (name, value) in client.info().map_err(|e| admin_err("info", e))?.fields() {
                writeln!(out, "{name:<16} {value}")?;
            }
        }
        AdminCmd::Swap => {
            let (generation, vertices) = client.swap().map_err(|e| admin_err("swap", e))?;
            writeln!(out, "promoted generation {generation} ({vertices} vertices)")?;
        }
        AdminCmd::Compact => {
            // The rebuild can dwarf the 5 s admin-chat timeout; keep the
            // short bound for connect, then give the compaction room.
            if timeout_ms != 0 {
                client.set_io_timeout(Some(std::time::Duration::from_millis(
                    timeout_ms.max(600_000),
                )))?;
            }
            let (generation, vertices) = client.compact().map_err(|e| admin_err("compact", e))?;
            writeln!(out, "compacted into generation {generation} ({vertices} vertices)")?;
        }
        AdminCmd::Shutdown => {
            client.shutdown_server().map_err(|e| admin_err("shutdown", e))?;
            writeln!(out, "server is shutting down")?;
        }
        AdminCmd::Ingest { source, batch } => {
            let (edges, origin) = read_ingest_edges(source.as_deref())?;
            if edges.is_empty() {
                return Err(err("ingest: no edges to send"));
            }
            let mut last = (0u64, 0u64);
            let mut applied = 0usize;
            for chunk in edges.chunks(batch) {
                let frame: Vec<_> = chunk.iter().map(|&(_, edge)| edge).collect();
                match client.update(&frame) {
                    Ok(reply) => {
                        last = reply;
                        applied += chunk.len();
                    }
                    Err(e) => {
                        // A rejected batch must stop the stream — blindly
                        // sending the rest would apply edges out of order
                        // around the hole. Point at the offending input.
                        let (first, last_line) = match chunk {
                            [(first, _), .., (last, _)] => (*first, *last),
                            [(only, _)] => (*only, *only),
                            [] => (0, 0), // `chunks` yields none
                        };
                        return Err(err(format!(
                            "ingest stopped at a rejected batch \
                             ({origin} lines {first}-{last_line}): {e}\n\
                             {applied} of {} edges were applied before it",
                            edges.len()
                        )));
                    }
                }
            }
            let (generation, overlay) = last;
            writeln!(
                out,
                "ingested {} edges (generation {generation}, overlay {overlay} edges)",
                edges.len()
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplabels::flat::FlatIndex;

    fn run_vec(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("hopdb-cli-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    type ServeThread = std::thread::JoinHandle<Result<String, CliError>>;

    /// Run `serve ARGS… --addr 127.0.0.1:0 --announce-file ANNOUNCE
    /// --allow-remote-shutdown` on its own thread (the daemon blocks
    /// until shutdown); returns the thread and the announced address.
    fn spawn_serve(args: &[&str], announce: &str) -> (ServeThread, String) {
        let tail =
            ["--addr", "127.0.0.1:0", "--announce-file", announce, "--allow-remote-shutdown"];
        let serve_args: Vec<String> =
            ["serve"].iter().chain(args).chain(&tail).map(|s| s.to_string()).collect();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            run(&serve_args, &mut out).map(|()| String::from_utf8(out).unwrap())
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(announce) {
                if !addr.is_empty() {
                    return (server, addr);
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never announced its address");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn gen_stats_build_query_pipeline() {
        let graph = tmp("pipeline.txt");
        let index = tmp("pipeline.idx");

        let out = run_vec(&[
            "gen",
            "--model",
            "glp",
            "--vertices",
            "400",
            "--density",
            "3",
            "--seed",
            "5",
            "-o",
            &graph,
        ])
        .unwrap();
        assert!(out.contains("400 vertices"), "{out}");

        let out = run_vec(&["stats", "-i", &graph]).unwrap();
        assert!(out.contains("|V|              400"), "{out}");
        assert!(out.contains("max degree"), "{out}");

        let out = run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        assert!(out.contains("built"), "{out}");
        assert!(std::path::Path::new(&format!("{index}.rank")).exists());

        let out = run_vec(&["query", "-x", &index, "0", "1", "5", "5"]).unwrap();
        assert!(out.contains("dist(5, 5) = 0"), "{out}");
        assert!(out.lines().count() == 2, "{out}");

        // Cross-check CLI answers against an in-process build.
        let file = std::fs::File::open(&graph).unwrap();
        let g = sfgraph::io::read_edge_list(std::io::BufReader::new(file), false, false).unwrap();
        let db = hopdb::build(&g, &HopDbConfig::default());
        let out = run_vec(&["query", "-x", &index, "3", "77"]).unwrap();
        let expect = db.query(3, 77);
        assert!(
            out.contains(&format!("dist(3, 77) = {expect}")),
            "cli said {out}, library says {expect}"
        );

        for f in [&graph, &index, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn directed_weighted_pipeline() {
        let graph = tmp("dw.txt");
        let index = tmp("dw.idx");
        run_vec(&[
            "gen",
            "--model",
            "glp",
            "--vertices",
            "200",
            "--seed",
            "3",
            "--directed",
            "--weighted",
            "--max-weight",
            "5",
            "-o",
            &graph,
        ])
        .unwrap();
        let out =
            run_vec(&["build", "-i", &graph, "--directed", "--weighted", "-o", &index]).unwrap();
        assert!(out.contains("built"), "{out}");
        let out = run_vec(&["query", "-x", &index, "0", "0"]).unwrap();
        assert!(out.contains("= 0"), "{out}");
        for f in [&graph, &index, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn threaded_build_is_byte_identical() {
        let graph = tmp("thr.txt");
        run_vec(&["gen", "--model", "glp", "--vertices", "400", "--seed", "11", "-o", &graph])
            .unwrap();
        let seq_idx = tmp("thr-1.idx");
        let par_idx = tmp("thr-4.idx");
        let out = run_vec(&["build", "-i", &graph, "-o", &seq_idx, "--threads", "1"]).unwrap();
        assert!(out.contains("(1 threads)"), "{out}");
        let out = run_vec(&["build", "-i", &graph, "-o", &par_idx, "--threads", "4"]).unwrap();
        assert!(out.contains("(4 threads)"), "{out}");
        let (seq, par) = (std::fs::read(&seq_idx).unwrap(), std::fs::read(&par_idx).unwrap());
        assert_eq!(seq, par, "serialized indexes diverge between 1 and 4 threads");
        assert_eq!(
            std::fs::read(format!("{seq_idx}.rank")).unwrap(),
            std::fs::read(format!("{par_idx}.rank")).unwrap()
        );
        for f in [&graph, &seq_idx, &par_idx] {
            let _ = std::fs::remove_file(f);
            let _ = std::fs::remove_file(format!("{f}.rank"));
        }
    }

    /// The in-memory build prints the one per-iteration table: one row
    /// per iteration, three phase times and two byte columns that stay 0
    /// without `--external`, and the last row's `entries` is the size of
    /// the core's index: the one just written plus the self-entry of
    /// every fringe vertex it derives.
    #[test]
    fn memory_build_prints_the_iteration_table() {
        let graph = tmp("tbl.txt");
        let index = tmp("tbl.idx");
        run_vec(&["gen", "--model", "glp", "--vertices", "300", "--seed", "21", "-o", &graph])
            .unwrap();
        let out = run_vec(&[
            "build",
            "-i",
            &graph,
            "-o",
            &index,
            "--strategy",
            "hybrid",
            "--switch-at",
            "2",
        ])
        .unwrap();
        let summary: Vec<&str> = out.lines().next().expect("summary line").split(' ').collect();
        assert_eq!((summary[0], summary[2]), ("built", "entries"), "{out}");
        let iterations = summary[summary.iter().position(|&w| w == "iterations").unwrap() - 1];

        let mut lines = out.lines().skip_while(|l| !l.contains("gather ms"));
        let head: Vec<&str> = lines.next().expect("table header").split_whitespace().collect();
        assert_eq!(head[..6], ["iter", "mode", "candidates", "pruned", "inserted", "entries"]);
        assert_eq!(
            head[6..],
            ["gather", "ms", "prune", "ms", "apply", "ms", "read", "B", "written", "B"]
        );
        let rows: Vec<Vec<&str>> = lines
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .take_while(|cells| cells[0].parse::<u32>().is_ok())
            .collect();
        assert_eq!(rows.len().to_string(), iterations, "{out}");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 11, "{out}");
            assert_eq!(row[0], (i + 1).to_string());
            assert_eq!(row[1], if i < 2 { "stepping" } else { "doubling" }, "{out}");
            assert!(
                row[6..9].iter().all(|ms| ms.parse::<f64>().is_ok_and(|ms| ms >= 0.0)),
                "{out}"
            );
            assert_eq!(row[9..], ["0", "0"], "{out}");
        }
        let fringe: u64 = out
            .split("fringe: ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .expect("a fringe line");
        assert!(fringe > 0, "{out}");
        let filtered: u64 = out
            .split("canonical filter: ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .expect("a canonical filter line");
        assert!(filtered > 0, "hybrid with doubling rounds leaves entries to filter: {out}");
        assert_hub_tables_timed(&out);
        let core_entries: u64 = rows.last().expect("rows")[5].parse().unwrap();
        let built: u64 = summary[1].parse().unwrap();
        assert_eq!(core_entries, built + fringe + filtered, "{out}");
        assert!(!out.contains("external I/O:"), "{out}");
        for f in [&graph, &index, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Both engines time the hub tables apart from the seeding row, on a
    /// line of their own under the canonical filter's.
    fn assert_hub_tables_timed(out: &str) {
        let mut lines = out.lines().skip_while(|l| !l.starts_with("canonical filter: "));
        let line = lines.nth(1).expect("a line after the canonical filter's");
        let ms = line.strip_prefix("hub tables: built in ").and_then(|l| l.strip_suffix(" ms"));
        assert!(ms.and_then(|ms| ms.parse::<f64>().ok()).is_some_and(|ms| ms >= 0.0), "{out}");
    }

    #[test]
    fn external_build_is_byte_identical_to_memory_and_across_threads() {
        let graph = tmp("ext.txt");
        run_vec(&["gen", "--model", "glp", "--vertices", "300", "--seed", "19", "-o", &graph])
            .unwrap();
        let mem_idx = tmp("ext-mem.idx");
        let ext1_idx = tmp("ext-t1.idx");
        let ext4_idx = tmp("ext-t4.idx");
        run_vec(&["build", "-i", &graph, "-o", &mem_idx]).unwrap();
        // Tiny budget so the external sorters really spill.
        let out = run_vec(&[
            "build",
            "-i",
            &graph,
            "-o",
            &ext1_idx,
            "--external",
            "--memory-records",
            "1024",
            "--block-bytes",
            "4096",
        ])
        .unwrap();
        assert!(out.contains("external I/O:") && out.contains(" seeks"), "{out}");
        assert!(out.contains(" records encoded / ") && out.contains(" decoded, "), "{out}");
        assert!(out.contains(" seeks, ") && out.contains(" prune blocks, "), "{out}");
        // The raw candidates the joins offered, and those the hub tables
        // killed: some but not all of them, here and on a directed graph.
        let assert_some_killed = |out: &str| {
            let counts = out
                .split(" decoded, ")
                .nth(1)
                .and_then(|rest| rest.split(" hub-killed\n").next())
                .and_then(|counts| counts.split_once(" raw candidates / "))
                .and_then(|(raw, killed)| {
                    Some((raw.parse::<u64>().ok()?, killed.parse::<u64>().ok()?))
                })
                .expect("`<raw> raw candidates / <killed> hub-killed` ending the summary line");
            assert!(counts.1 > 0 && counts.1 < counts.0, "{out}");
        };
        assert_some_killed(&out);
        assert_hub_tables_timed(&out);
        let io_line =
            |out: &str| out.lines().find(|l| l.starts_with("external I/O:")).map(str::to_owned);
        let sequential_io = io_line(&out);
        // The per-iteration table is the in-memory build's, phase times
        // included, and accounts for every written byte.
        let total: u64 = out
            .split(" B written")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|bytes| bytes.parse().ok())
            .expect("`<n> B written` in the summary line");
        let mut rows = out.lines().skip_while(|l| !l.contains("written B"));
        assert!(rows.next().is_some_and(|head| head.contains("gather ms")), "{out}");
        let rows: Vec<Vec<&str>> = rows
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .take_while(|cells| cells.len() == 11)
            .collect();
        let ms: f64 = rows.iter().flat_map(|r| &r[6..9]).map(|ms| ms.parse::<f64>().unwrap()).sum();
        assert!(ms > 0.0, "the external engine times its phases: {out}");
        let per_iteration: Vec<u64> = rows.iter().map(|r| r[10].parse().unwrap()).collect();
        assert!(per_iteration.len() >= 3, "{out}");
        assert_eq!(per_iteration.iter().sum::<u64>(), total, "{out}");
        let out = run_vec(&[
            "build",
            "-i",
            &graph,
            "-o",
            &ext4_idx,
            "--external",
            "--memory-records",
            "1024",
            "--block-bytes",
            "4096",
            "--threads",
            "4",
        ])
        .unwrap();
        assert!(out.contains("(4 threads)"), "{out}");
        assert_eq!(io_line(&out), sequential_io, "the I/O line must not depend on --threads");
        let mem = std::fs::read(&mem_idx).unwrap();
        let ext1 = std::fs::read(&ext1_idx).unwrap();
        let ext4 = std::fs::read(&ext4_idx).unwrap();
        assert_eq!(ext1, mem, "external build diverges from the in-memory engine");
        assert_eq!(ext4, ext1, "threaded external build diverges from sequential");
        let directed = tmp("ext-dir.txt");
        let (dir_mem, dir_ext) = (tmp("ext-dir-mem.idx"), tmp("ext-dir-ext.idx"));
        let gen = ["gen", "--model", "glp", "--vertices", "300", "--seed", "19", "--directed"];
        run_vec(&[&gen[..], &["-o", &directed]].concat()).unwrap();
        run_vec(&["build", "-i", &directed, "--directed", "-o", &dir_mem]).unwrap();
        let out = run_vec(&[
            "build",
            "-i",
            &directed,
            "--directed",
            "-o",
            &dir_ext,
            "--external",
            "--memory-records",
            "1024",
            "--block-bytes",
            "4096",
        ])
        .unwrap();
        assert_some_killed(&out);
        assert_eq!(std::fs::read(&dir_ext).unwrap(), std::fs::read(&dir_mem).unwrap());
        for f in [&graph, &mem_idx, &ext1_idx, &ext4_idx, &directed, &dir_mem, &dir_ext] {
            let _ = std::fs::remove_file(f);
            let _ = std::fs::remove_file(format!("{f}.rank"));
        }
    }

    #[test]
    fn batch_query_file_and_threads() {
        let graph = tmp("batch.txt");
        let index = tmp("batch.idx");
        let pairs_file = tmp("batch.pairs");
        run_vec(&["gen", "--model", "glp", "--vertices", "300", "--seed", "9", "-o", &graph])
            .unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        std::fs::write(&pairs_file, "% konect\n# header comment\n0 1\n5 5   # self pair\n\n7 42\n")
            .unwrap();

        let batch = run_vec(&["query", "-x", &index, "--pairs", &pairs_file]).unwrap();
        assert_eq!(batch.lines().count(), 3, "{batch}");
        assert!(batch.contains("dist(5, 5) = 0"), "{batch}");

        // Same answers pair-by-pair, any thread count, any mix of
        // positional and file pairs — order is input order.
        let threaded =
            run_vec(&["query", "-x", &index, "--pairs", &pairs_file, "--threads", "4"]).unwrap();
        assert_eq!(batch, threaded);
        let mixed =
            run_vec(&["query", "-x", &index, "3", "4", "--pairs", &pairs_file, "--threads", "0"])
                .unwrap();
        assert!(mixed.starts_with("dist(3, 4)"), "{mixed}");
        assert!(mixed.ends_with(&batch), "positional pairs come first:\n{mixed}");

        assert!(run_vec(&["query", "-x", &index, "--pairs", "/nonexistent"]).is_err());
        std::fs::write(&pairs_file, "1 2 3\n").unwrap();
        assert!(run_vec(&["query", "-x", &index, "--pairs", &pairs_file])
            .unwrap_err()
            .0
            .contains("bad pair line"));
        for f in [&graph, &index, &pairs_file, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn errors_are_friendly() {
        assert!(run_vec(&[]).is_err());
        assert!(run_vec(&["frobnicate"]).unwrap_err().0.contains("unknown command"));
        assert!(run_vec(&["gen", "-o", "/tmp/x"]).unwrap_err().0.contains("--vertices"));
        assert!(run_vec(&["query", "-x", "/nonexistent/idx", "1", "2"]).is_err());
        let graph = tmp("err.txt");
        run_vec(&["gen", "--model", "glp", "--vertices", "50", "-o", &graph]).unwrap();
        let index = tmp("err.idx");
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        assert!(run_vec(&["query", "-x", &index, "1"]).unwrap_err().0.contains("even number"));
        assert!(run_vec(&["query", "-x", &index, "1", "999999"])
            .unwrap_err()
            .0
            .contains("out of range"));
        for f in [&graph, &index, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn a_mistyped_option_fails_the_command_before_it_does_any_work() {
        let graph = tmp("typo.txt");
        let msg = run_vec(&[
            "gen",
            "--model",
            "glp",
            "--vertices",
            "200",
            "--densty",
            "9",
            "--bogus-flag",
            "1",
            "-o",
            &graph,
        ])
        .unwrap_err()
        .0;
        assert!(msg.starts_with("unknown option --densty for gen\nusage: hopdb-cli"), "{msg}");
        assert!(!Path::new(&graph).exists(), "gen ran despite the typo");

        let index = tmp("typo.idx");
        let msg = run_vec(&[
            "build",
            "-i",
            &graph,
            "-o",
            &index,
            "--post_prune",
            "--stratgy",
            "stepping",
        ])
        .unwrap_err()
        .0;
        assert!(msg.starts_with("unknown option --post_prune for build\n"), "{msg}");
        // An option of another command is as unknown as a typo.
        let msg = run_vec(&["serve", "-x", &index, "--threads", "2"]).unwrap_err().0;
        assert!(msg.starts_with("unknown option --threads for serve\n"), "{msg}");
        // Negative numbers and the bare `-` (stdin) stay positional.
        let msg = run_vec(&["query", "-x", &index, "-5", "-"]).unwrap_err().0;
        assert!(!msg.contains("unknown option"), "{msg}");
    }

    /// `serve` reads one mode's options: the router's under `--route`,
    /// the index node's without it. Either refuses the other's by name
    /// before it binds or connects anything.
    #[test]
    fn serve_refuses_the_other_modes_options() {
        let wal_dir = tmp("router-wal");
        let msg = run_vec(&[
            "serve",
            "--route",
            "replica",
            "--backends",
            "127.0.0.1:1",
            "--connect-retries",
            "0",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            &wal_dir,
        ])
        .unwrap_err()
        .0;
        assert!(msg.starts_with("unknown option --wal-dir for serve --route\n"), "{msg}");
        assert!(!Path::new(&wal_dir).exists(), "a router made a log directory");
        let missing = tmp("no-such.idx");
        let msg = run_vec(&[
            "serve",
            "-x",
            &missing,
            "--addr",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:1",
        ])
        .unwrap_err()
        .0;
        assert!(msg.starts_with("unknown option --backends for serve without --route\n"), "{msg}");

        // The two lists split the one `serve` row: shared options are in
        // neither, and neither names an option the row does not accept.
        let (_, valued, switches, _) = COMMANDS.iter().find(|row| row.0 == "serve").unwrap();
        let row: Vec<&str> = valued.split_whitespace().chain(switches.split_whitespace()).collect();
        for flag in SERVE_NODE_ONLY.split_whitespace() {
            assert!(row.contains(&flag) && !SERVE_ROUTER_ONLY.contains(flag), "{flag}");
        }
        assert!(SERVE_ROUTER_ONLY.split_whitespace().all(|flag| row.contains(&flag)));
    }

    /// An option another option switches off is refused by name before
    /// anything is bound: the log's options without `--wal-dir`, the
    /// compaction triggers without `--graph`.
    #[test]
    fn serve_refuses_options_its_other_options_switch_off() {
        let (graph, wal_dir) = (tmp("off.txt"), tmp("off-wal"));
        let cases: [(&[&str], &str); 5] = [
            (&["--durability", "always"], "--durability for serve without --wal-dir"),
            (
                &["--wal-max-bytes", "1", "--graph", &graph],
                "--wal-max-bytes for serve without --wal-dir",
            ),
            (&["--compact-threshold", "4"], "--compact-threshold for serve without --graph"),
            (
                &["--compact-threshold", "4", "--wal-dir", &wal_dir],
                "--compact-threshold for serve without --graph",
            ),
            (
                &["--wal-max-bytes", "1", "--wal-dir", &wal_dir],
                "--wal-max-bytes for serve without --graph",
            ),
        ];
        let missing = tmp("off-no-such.idx");
        for (extra, want) in cases {
            let mut argv = vec!["serve", "-x", &missing, "--addr", "127.0.0.1:0"];
            argv.extend_from_slice(extra);
            let msg = run_vec(&argv).unwrap_err().0;
            assert!(msg.starts_with(&format!("unknown option {want}\n")), "{extra:?}: {msg}");
        }
        assert!(!Path::new(&wal_dir).exists(), "a refused serve made a log directory");
    }

    /// Help text and parser cannot drift: the options `USAGE` spells
    /// under a command are exactly the ones the command accepts.
    #[test]
    fn usage_spells_exactly_the_options_each_command_reads() {
        let mut spelled: std::collections::BTreeMap<&str, std::collections::BTreeSet<&str>> =
            Default::default();
        let mut command = "";
        for line in USAGE.lines().skip_while(|line| *line != "commands:").skip(1) {
            // A command's section starts at a two-space indent.
            if let Some(head) = line.strip_prefix("  ").filter(|head| !head.starts_with(' ')) {
                command = head.split(' ').next().unwrap();
            }
            let is_option = |token: &&str| {
                token.strip_prefix('-').is_some_and(|rest| {
                    rest.trim_start_matches('-').starts_with(|c: char| c.is_ascii_lowercase())
                })
            };
            let tokens = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            spelled.entry(command).or_default().extend(tokens.filter(is_option));
        }
        for (name, valued, switches, _) in COMMANDS {
            let accepted: std::collections::BTreeSet<&str> =
                valued.split(' ').chain(switches.split(' ')).filter(|f| !f.is_empty()).collect();
            assert_eq!(spelled.get(name), Some(&accepted), "options of `{name}`");
        }
        assert_eq!(spelled.len(), COMMANDS.len(), "{:?}", spelled.keys());
    }

    /// The README's command lines that disagree with [`COMMANDS`]: every
    /// `hopdb-cli <cmd> …` (or `-p hopdb-cli -- <cmd> …`), continued over
    /// a trailing `\` and ended by a backtick, must name a command (or
    /// `help`), use only options that command reads, and not mix the
    /// node-only and router-only `serve` options.
    fn readme_drift(readme: &str) -> Vec<String> {
        let joined = readme.replace("\\\n", " ");
        let mut drift = Vec::new();
        for line in joined.lines() {
            for (at, found) in line.match_indices("hopdb-cli ") {
                let rest = &line[at + found.len()..];
                let rest = rest.strip_prefix("-- ").unwrap_or(rest);
                let rest = rest.split('`').next().unwrap_or_default();
                let mut tokens = rest.split_whitespace();
                let name = tokens.next().unwrap_or_default();
                if name == "help" {
                    continue;
                }
                let Some((_, valued, switches, _)) = COMMANDS.iter().find(|row| row.0 == name)
                else {
                    drift.push(format!("`hopdb-cli {name}` names no command: {line}"));
                    continue;
                };
                let accepted = |flag: &str| {
                    valued.split(' ').chain(switches.split(' ')).any(|known| known == flag)
                };
                let options: Vec<&str> = tokens
                    .map(|token| token.trim_matches(|c: char| "[](),.;:".contains(c)))
                    .filter(|token| {
                        token.strip_prefix('-').is_some_and(|rest| {
                            rest.trim_start_matches('-')
                                .starts_with(|c: char| c.is_ascii_lowercase())
                        })
                    })
                    .collect();
                for option in options.iter().filter(|option| !accepted(option)) {
                    drift.push(format!("`{name}` reads no {option}: {line}"));
                }
                let mixes = |list: &str| list.split(' ').any(|flag| options.contains(&flag));
                if name == "serve" && mixes(SERVE_NODE_ONLY) && mixes(SERVE_ROUTER_ONLY) {
                    drift.push(format!("`serve` mixes node and router options: {line}"));
                }
            }
        }
        drift
    }

    /// The README and the parser cannot drift: every command line the
    /// README shows is one `run` would accept, option for option.
    #[test]
    fn readme_command_lines_use_only_the_options_each_command_reads() {
        let readme = include_str!("../../../README.md");
        assert!(readme.matches("hopdb-cli ").count() > 10, "the README shows its commands");
        assert_eq!(readme_drift(readme), Vec::<String>::new());

        let misspelled = "```text\nhopdb-cli build -i g.txt -o g.idx \\\n    --thread 4\n```";
        assert_eq!(readme_drift(misspelled).len(), 1, "{misspelled}");
        let mixed = "`hopdb-cli serve --route shard --backends a,b --wal-dir d`";
        assert_eq!(readme_drift(mixed).len(), 1, "{mixed}");
        assert_eq!(readme_drift("`hopdb-cli bulid -i g.txt`").len(), 1);
    }

    #[test]
    fn help_prints_usage() {
        let out = run_vec(&["help"]).unwrap();
        assert!(out.contains("usage: hopdb-cli"));
        assert!(out.contains("serve"), "{out}");
        assert!(out.contains("admin"), "{out}");
    }

    #[test]
    fn serve_and_admin_roundtrip() {
        let graph = tmp("serve.txt");
        let index = tmp("serve.idx");
        let announce = tmp("serve.addr");
        run_vec(&["gen", "--model", "glp", "--vertices", "250", "--seed", "21", "-o", &graph])
            .unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        let (server, addr) = spawn_serve(&["-x", &index], &announce);

        // Served answers (original vertex ids, via the .rank sidecar)
        // must match the CLI's direct query path.
        let direct = run_vec(&["query", "-x", &index, "0", "1", "17", "42"]).unwrap();
        let mut client = hopdb_server::Client::connect(&addr).unwrap();
        let served = client.query(&[(0, 1), (17, 42)]).unwrap();
        for (line, dist) in direct.lines().zip(&served) {
            let rendered =
                if *dist == INF_DIST { "unreachable".to_string() } else { dist.to_string() };
            assert!(line.ends_with(&format!("= {rendered}")), "{line} vs {dist}");
        }

        let info = run_vec(&["admin", "-a", &addr, "info"]).unwrap();
        assert!(info.contains("generation       1"), "{info}");
        assert!(info.contains("vertices         250"), "{info}");
        assert!(info.contains("mode             single"), "{info}");
        // `info` is the one status verb; the retired one is unknown.
        let msg = run_vec(&["admin", "-a", &addr, "stats"]).unwrap_err().0;
        assert!(msg.contains("unknown admin action `stats`"), "{msg}");
        // No --swap-path: swap re-loads the boot index, bumping the
        // generation without changing answers.
        let swap = run_vec(&["admin", "-a", &addr, "swap"]).unwrap();
        assert!(swap.contains("promoted generation 2"), "{swap}");
        assert_eq!(client.query(&[(0, 1), (17, 42)]).unwrap(), served);

        assert!(run_vec(&["admin", "-a", &addr, "frobnicate"]).is_err());
        let bye = run_vec(&["admin", "-a", &addr, "shutdown"]).unwrap();
        assert!(bye.contains("shutting down"), "{bye}");
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("serving"), "{out}");
        assert!(out.contains("server stopped"), "{out}");
        for f in [&graph, &index, &announce, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn serve_ingest_info_compact_roundtrip() {
        let graph = tmp("live.txt");
        let index = tmp("live.idx");
        let announce = tmp("live.addr");
        let edges_file = tmp("live.edges");
        run_vec(&["gen", "--model", "glp", "--vertices", "200", "--seed", "33", "-o", &graph])
            .unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();

        // --graph enables compaction; threshold 0 = manual only.
        let (server, addr) =
            spawn_serve(&["-x", &index, "--graph", &graph, "--compact-threshold", "0"], &announce);

        let mut client = hopdb_server::Client::connect(&addr).unwrap();
        let before = client.query_one(0, 199).unwrap();
        assert!(before > 1, "vertices 0 and 199 are already adjacent; pick others");

        // Ingest a weight-1 edge between them (plus a comment and a
        // weighted line to exercise the parser) and watch the distance
        // drop to 1 without a rebuild.
        std::fs::write(&edges_file, "# live edges\n0 199\n3 4 2\n").unwrap();
        let ingest = run_vec(&["admin", "-a", &addr, "ingest", &edges_file]).unwrap();
        assert!(ingest.contains("ingested 2 edges (generation 1"), "{ingest}");
        assert_eq!(client.query_one(0, 199).unwrap(), 1);

        let info = run_vec(&["admin", "-a", &addr, "info"]).unwrap();
        assert!(info.contains("generation       1"), "{info}");
        assert!(info.contains("overlay_edges    2"), "{info}");
        assert!(info.contains("compactions      0"), "{info}");

        // Compaction folds the overlay into a fresh frozen generation;
        // answers must not change across the promotion.
        let compact = run_vec(&["admin", "-a", &addr, "compact"]).unwrap();
        assert!(compact.contains("compacted into generation 2"), "{compact}");
        assert_eq!(client.query_one(0, 199).unwrap(), 1);
        let info = run_vec(&["admin", "-a", &addr, "info"]).unwrap();
        assert!(info.contains("generation       2"), "{info}");
        assert!(info.contains("overlay_edges    0"), "{info}");
        assert!(info.contains("compactions      1"), "{info}");

        // Parse errors fail before any socket I/O.
        std::fs::write(&edges_file, "1 2 3 4\n").unwrap();
        let msg = run_vec(&["admin", "-a", &addr, "ingest", &edges_file]).unwrap_err().0;
        assert!(msg.contains("bad edge line"), "{msg}");
        let msg = run_vec(&["admin", "-a", &addr, "info", "extra"]).unwrap_err().0;
        assert!(msg.contains("no further arguments"), "{msg}");

        run_vec(&["admin", "-a", &addr, "shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        for f in [&graph, &index, &announce, &edges_file, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// `admin ingest` reads an edge file by the rule `build -i` reads a
    /// graph with: KONECT's `%` header lines are not data.
    #[test]
    fn ingest_reads_konect_headers_and_trailing_comments() {
        let graph = tmp("konect.txt");
        let index = tmp("konect.idx");
        let announce = tmp("konect.addr");
        let edges_file = tmp("konect.edges");
        std::fs::write(&graph, "% sym unweighted\n% 5 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n").unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        let (server, addr) = spawn_serve(&["-x", &index], &announce);

        std::fs::write(&edges_file, "% sym unweighted\n% 1 6 6\n0 5 # closes the path\n").unwrap();
        let ingest = run_vec(&["admin", "-a", &addr, "ingest", &edges_file]).unwrap();
        assert!(ingest.contains("ingested 1 edges"), "{ingest}");
        let mut client = hopdb_server::Client::connect(&addr).unwrap();
        assert_eq!(client.query_one(0, 5).unwrap(), 1);
        assert_eq!(client.query_one(0, 4).unwrap(), 2);

        run_vec(&["admin", "-a", &addr, "shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        for f in [&graph, &index, &announce, &edges_file, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn shard_splits_into_loadable_images_with_sidecars() {
        let graph = tmp("shard.txt");
        let index = tmp("shard.idx");
        run_vec(&["gen", "--model", "glp", "--vertices", "300", "--seed", "13", "-o", &graph])
            .unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();

        let out = run_vec(&["shard", "-x", &index, "--shards", "3"]).unwrap();
        assert_eq!(out.lines().count(), 3, "{out}");
        assert!(out.contains("shard 0/3: pivots [0, "), "{out}");

        let whole = FlatIndex::load(Path::new(&index)).unwrap();
        let mut cleanup = vec![graph.clone(), index.clone(), format!("{index}.rank")];
        for i in 0..3 {
            let path = format!("{index}.shard{i}");
            // Every shard is a complete index over the full vertex set...
            let flat = FlatIndex::load(Path::new(&path)).unwrap();
            assert_eq!(flat.num_vertices(), whole.num_vertices());
            // ...with a decodable range sidecar and the ranking copied
            // alongside so daemons serve original vertex ids.
            let map = std::fs::read(format!("{path}.shard")).unwrap();
            let spec = hoplabels::ShardSpec::decode(&map, whole.num_vertices()).unwrap();
            assert_eq!(spec.index, i);
            assert_eq!(spec.count, 3);
            assert!(std::path::Path::new(&format!("{path}.rank")).exists());
            cleanup.extend([path.clone(), format!("{path}.shard"), format!("{path}.rank")]);
        }

        // A shard answers only for its pivot range, so `query` refuses
        // one of a 2-way split and names the router; a 1-way split is
        // the whole index, and the unsharded image still answers.
        let half = tmp("shard-half");
        run_vec(&["shard", "-x", &index, "--shards", "2", "-o", &half]).unwrap();
        let whole_answer = run_vec(&["query", "-x", &index, "3", "77"]).unwrap();
        let msg = run_vec(&["query", "-x", &format!("{half}.shard1"), "3", "77"]).unwrap_err().0;
        assert!(msg.contains("shard 1 of 2") && msg.contains("serve --route shard"), "{msg}");
        let one = tmp("shard-one");
        run_vec(&["shard", "-x", &index, "--shards", "1", "-o", &one]).unwrap();
        let one_answer = run_vec(&["query", "-x", &format!("{one}.shard0"), "3", "77"]).unwrap();
        assert_eq!(one_answer, whole_answer);
        for (prefix, k) in [(&half, 2), (&one, 1)] {
            for i in 0..k {
                let path = format!("{prefix}.shard{i}");
                cleanup.extend([format!("{path}.shard"), format!("{path}.rank"), path]);
            }
        }

        assert!(run_vec(&["shard", "-x", &index]).unwrap_err().0.contains("--shards"));
        assert!(run_vec(&["shard", "-x", &graph, "--shards", "2"])
            .unwrap_err()
            .0
            .contains("cannot shard"));
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    /// A built `<name>.idx` (with its `.rank`) over a small GLP graph;
    /// returns the index path and every path to clean up.
    fn small_index(name: &str, vertices: &str) -> (String, Vec<String>) {
        let graph = tmp(&format!("{name}.txt"));
        let index = tmp(&format!("{name}.idx"));
        run_vec(&["gen", "--model", "glp", "--vertices", vertices, "-o", &graph]).unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        let cleanup = vec![graph, index.clone(), format!("{index}.rank")];
        (index, cleanup)
    }

    #[test]
    fn query_fails_on_a_shard_map_it_cannot_read() {
        let (index, cleanup) = small_index("unreadable-shard", "60");
        let map = format!("{index}.shard");
        std::fs::create_dir(&map).unwrap();
        let msg = run_vec(&["query", "-x", &index, "3", "7"]).unwrap_err().0;
        assert!(msg.contains(&format!("cannot read {map}")), "{msg}");
        std::fs::remove_dir(&map).unwrap();
        assert!(run_vec(&["query", "-x", &index, "3", "7"]).is_ok());
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn serve_fails_on_a_rank_it_cannot_read() {
        let (index, cleanup) = small_index("serve-unreadable-rank", "60");
        let rank = format!("{index}.rank");
        std::fs::remove_file(&rank).unwrap();
        std::fs::create_dir(&rank).unwrap();
        let msg = run_vec(&["serve", "-x", &index, "--addr", "127.0.0.1:0"]).unwrap_err().0;
        assert!(msg.contains(&format!("cannot read {rank}")), "{msg}");
        std::fs::remove_dir(&rank).unwrap();
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Without its `.rank` an image would answer in rank ids, which no
    /// client can know: `query`, `serve` and `shard` refuse it, naming
    /// the file, and `shard` writes nothing.
    #[test]
    fn an_image_without_its_rank_is_refused() {
        let (index, cleanup) = small_index("no-rank", "60");
        let rank = format!("{index}.rank");
        std::fs::remove_file(&rank).unwrap();
        let missing = format!("{rank}: no ranking sidecar");
        let msg = run_vec(&["query", "-x", &index, "3", "7"]).unwrap_err().0;
        assert!(msg.contains(&missing), "{msg}");
        let msg = run_vec(&["serve", "-x", &index, "--addr", "127.0.0.1:0"]).unwrap_err().0;
        assert!(msg.contains(&missing), "{msg}");
        let msg = run_vec(&["shard", "-x", &index, "--shards", "1"]).unwrap_err().0;
        assert!(msg.starts_with(&missing), "{msg}");
        assert!(!Path::new(&format!("{index}.shard0")).exists());
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn shard_fails_on_a_rank_it_cannot_read_before_writing_a_shard() {
        let (index, cleanup) = small_index("shard-unreadable-rank", "60");
        let rank = format!("{index}.rank");
        std::fs::remove_file(&rank).unwrap();
        std::fs::create_dir(&rank).unwrap();
        let msg = run_vec(&["shard", "-x", &index, "--shards", "2"]).unwrap_err().0;
        assert!(msg.contains(&format!("cannot read {rank}")), "{msg}");
        assert!(!Path::new(&format!("{index}.shard0")).exists());
        std::fs::remove_dir(&rank).unwrap();
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn shard_refuses_a_stale_rank_before_writing_a_shard() {
        let (index, mut cleanup) = small_index("shard-stale-rank", "60");
        let (other, other_cleanup) = small_index("shard-stale-rank-other", "40");
        cleanup.extend(other_cleanup);
        let rank = format!("{index}.rank");
        std::fs::copy(format!("{other}.rank"), &rank).unwrap();
        let msg = run_vec(&["shard", "-x", &index, "--shards", "2"]).unwrap_err().0;
        assert!(msg.starts_with(&format!("{rank}: ")), "{msg}");
        assert!(!Path::new(&format!("{index}.shard0")).exists());
        for f in cleanup {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn ingest_stops_at_the_first_nacked_batch_with_its_line_range() {
        let graph = tmp("nack.txt");
        let index = tmp("nack.idx");
        let announce = tmp("nack.addr");
        let edges_file = tmp("nack.edges");
        run_vec(&["gen", "--model", "glp", "--vertices", "120", "--seed", "27", "-o", &graph])
            .unwrap();
        run_vec(&["build", "-i", &graph, "-o", &index]).unwrap();
        let (server, addr) = spawn_serve(&["-x", &index], &announce);

        // Line 4 carries a zero-weight edge the server nacks. With
        // --batch 2 it lands in the second frame (input lines 4-5);
        // the stream must stop there — the lines after the bad frame
        // must never be sent — and the error must name the range.
        std::fs::write(&edges_file, "# comment\n0 50\n1 51\n2 52 0\n3 53\n4 54\n5 55\n").unwrap();
        let msg =
            run_vec(&["admin", "-a", &addr, "--batch", "2", "ingest", &edges_file]).unwrap_err().0;
        assert!(msg.contains("lines 4-5"), "{msg}");
        assert!(msg.contains("weight 0"), "{msg}");
        assert!(msg.contains("2 of 6 edges were applied"), "{msg}");

        // Only the first frame reached the daemon: the overlay holds
        // exactly 2 edges, none from or after the rejected frame.
        let info = run_vec(&["admin", "-a", &addr, "info"]).unwrap();
        assert!(info.contains("overlay_edges    2"), "{info}");
        let mut client = hopdb_server::Client::connect(&addr).unwrap();
        assert_eq!(client.query_one(0, 50).unwrap(), 1, "the frame before the nack applied");

        run_vec(&["admin", "-a", &addr, "shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        for f in [&graph, &index, &announce, &edges_file, &format!("{index}.rank")] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn admin_times_out_against_a_dead_server() {
        // A listener that is bound but never accepts (and never
        // answers) models a wedged daemon: the kernel completes the
        // TCP handshake from the backlog, then nothing ever arrives.
        // Before --timeout-ms, `admin info` would hang forever here.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let started = std::time::Instant::now();
        let got = run_vec(&["admin", "-a", &addr, "--timeout-ms", "300", "info"]);
        let elapsed = started.elapsed();
        let msg = got.unwrap_err().0;
        assert!(msg.contains("info failed"), "{msg}");
        assert!(
            elapsed >= std::time::Duration::from_millis(250),
            "returned before the timeout could have fired: {elapsed:?}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "timeout did not bound the hang: {elapsed:?}"
        );
        drop(listener);
    }

    #[test]
    fn post_prune_flag_is_unknown() {
        // The canonical filter ends every pruned build; there is no
        // switch, and the option is refused before the graph is read.
        let index = tmp("pp.idx");
        let args = ["build", "-i", &tmp("pp-missing.txt"), "-o", &index, "--post-prune"];
        let msg = run_vec(&args).unwrap_err().0;
        assert!(
            msg.starts_with("unknown option --post-prune for build\nusage: hopdb-cli"),
            "{msg}"
        );
        assert!(!USAGE.contains("--post-prune"), "{USAGE}");
        assert!(!Path::new(&index).exists(), "build ran despite the unknown option");
    }
}
