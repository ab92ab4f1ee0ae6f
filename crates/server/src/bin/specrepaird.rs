//! The `specrepaird` CLI.
//!
//! ```text
//! specrepaird serve   [--addr A] [--workers N] [--queue N] [--deadline-ms N]
//!                     [--max-scope N] [--cache-per-shard N] [--shutdown-file P]
//!                     [--chaos-rate R] [--chaos-seed N] [--trace]
//!                     [--cache-dir P] [--disk-chaos-rate R] [--disk-chaos-seed N]
//!                     [--metrics-history-interval-ms N] [--metrics-history-capacity N]
//!                     [--metrics-history-file P]
//!                     [--shard-id N --peers a,b,c]
//! specrepaird route   --shards a,b,c [--addr A] [--workers N] [--queue N]
//!                     [--deadline-ms N] [--max-scope N] [--shutdown-file P]
//! specrepaird loadgen [--addr A] [--requests N] [--connections N]
//!                     [--deadline-ms N] [--seed N] [--chaos-rate R]
//!                     [--shed-backoff-ms N] [--profile uniform|zipfian]
//!                     [--tenants N] [--shards a,b,c]
//! ```
//!
//! `serve` runs the daemon in the foreground until `POST /shutdown` (or the
//! shutdown file appears); `--shard-id`/`--peers` name its place in a
//! router's shard list, which it reports under `cluster` in `GET /metrics`
//! and which changes nothing else. `route` runs the deterministic cluster
//! front-end: it forwards each repair to the shard owning the spec's
//! fingerprint, degrading to a local solve when that shard is down. `loadgen` drives a running daemon (or
//! router) and exits nonzero if any response was outside the expected set
//! (200/503/504); `--profile zipfian` generates a multi-tenant rank-skewed
//! workload, and `--shards` makes the report read per-shard hit rates.
//! `--chaos-rate` (serve/loadgen) turns on deterministic LM-transport
//! fault injection, exercised through the resilience layer and visible in
//! `GET /metrics` under `transport`. `--trace` turns on the span collector:
//! every repair's per-phase busy time aggregates into `GET /trace/summary`,
//! and responses always carry a deterministic `trace_id`. `--cache-dir`
//! turns on the persistent verdict cache (warm boot + crash-safe appends;
//! `GET /metrics` grows a `persistent` section); `--disk-chaos-rate` injects
//! deterministic disk faults into that tier's appends.
//! `--metrics-history-interval-ms` turns on the in-memory time-series ring:
//! every scalar metric is sampled at that cadence, served at
//! `GET /metrics/history`, and dumped to `--metrics-history-file` (default
//! `metrics_history.jsonl`) on drain.

use specrepair_server::server::ShardConfig;
use specrepair_server::{
    loadgen, router, server, LoadgenConfig, RouterConfig, ServerConfig, WorkloadProfile,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("route") => route(&args[1..]),
        Some("loadgen") => run_loadgen(&args[1..]),
        _ => die("expected a subcommand: serve | route | loadgen"),
    }
}

/// Splits a `--shards`/`--peers` comma list into trimmed addresses.
fn addr_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn serve(args: &[String]) {
    let mut config = ServerConfig::default();
    let mut shard_id: Option<usize> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => config.addr = flags.value(&flag),
            "--workers" => config.workers = flags.parsed(&flag),
            "--queue" => config.queue_capacity = flags.parsed(&flag),
            "--deadline-ms" => config.default_deadline_ms = flags.parsed(&flag),
            "--max-scope" => config.max_scope = flags.parsed(&flag),
            "--cache-per-shard" => config.cache_per_shard = flags.parsed(&flag),
            "--shutdown-file" => config.shutdown_file = Some(flags.value(&flag).into()),
            "--chaos-rate" => config.chaos_rate = flags.rate(&flag),
            "--chaos-seed" => config.chaos_seed = flags.parsed(&flag),
            "--trace" => config.trace = true,
            "--cache-dir" => config.cache_dir = Some(flags.value(&flag).into()),
            "--disk-chaos-rate" => config.disk_chaos_rate = flags.rate(&flag),
            "--disk-chaos-seed" => config.disk_chaos_seed = flags.parsed(&flag),
            "--metrics-history-interval-ms" | "--metrics-history-interval" => {
                config.metrics_history_interval_ms = flags.parsed(&flag)
            }
            "--metrics-history-capacity" => config.metrics_history_capacity = flags.parsed(&flag),
            "--metrics-history-file" => {
                config.metrics_history_file = Some(flags.value(&flag).into())
            }
            "--shard-id" => shard_id = Some(flags.parsed(&flag)),
            "--peers" => peers = addr_list(&flags.value(&flag)),
            other => die(&format!("unknown flag `{other}` for serve")),
        }
    }
    config.shard = match (shard_id, peers.is_empty()) {
        (Some(shard_id), false) => Some(ShardConfig { shard_id, peers }),
        (None, true) => None,
        _ => die("--shard-id and --peers must be given together"),
    };
    let handle = server::spawn(config).unwrap_or_else(|e| die(&format!("cannot bind: {e}")));
    eprintln!("specrepaird listening on {}", handle.addr());
    handle.join();
    eprintln!("specrepaird drained and stopped");
}

fn route(args: &[String]) {
    let mut config = RouterConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => config.addr = flags.value(&flag),
            "--shards" => config.shards = addr_list(&flags.value(&flag)),
            "--workers" => config.workers = flags.parsed(&flag),
            "--queue" => config.queue_capacity = flags.parsed(&flag),
            "--deadline-ms" => config.default_deadline_ms = flags.parsed(&flag),
            "--max-scope" => config.max_scope = flags.parsed(&flag),
            "--shutdown-file" => config.shutdown_file = Some(flags.value(&flag).into()),
            other => die(&format!("unknown flag `{other}` for route")),
        }
    }
    let handle =
        router::spawn_router(config).unwrap_or_else(|e| die(&format!("cannot start router: {e}")));
    eprintln!("specrepaird router listening on {}", handle.addr());
    handle.join();
    eprintln!("specrepaird router drained and stopped");
}

fn run_loadgen(args: &[String]) {
    let mut config = LoadgenConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => config.addr = flags.value(&flag),
            "--requests" => config.requests = flags.parsed(&flag),
            "--connections" => config.connections = flags.parsed(&flag),
            "--deadline-ms" => config.deadline_ms = flags.parsed(&flag),
            "--seed" => config.seed = flags.parsed(&flag),
            "--chaos-rate" => config.chaos_rate = flags.rate(&flag),
            "--shed-backoff-ms" => config.shed_backoff_ms = flags.parsed(&flag),
            "--profile" => {
                config.profile =
                    WorkloadProfile::parse(&flags.value(&flag)).unwrap_or_else(|e| die(&e))
            }
            "--tenants" => config.tenants = flags.parsed(&flag),
            "--shards" => config.shards = addr_list(&flags.value(&flag)),
            other => die(&format!("unknown flag `{other}` for loadgen")),
        }
    }
    let report = loadgen::run(&config);
    println!("{}", report.render());
    if !report.clean() {
        eprintln!(
            "error: {} response(s) outside the expected 200/503/504 set",
            report.unexpected
        );
        std::process::exit(1);
    }
}

/// A minimal `--flag value` scanner.
struct Flags<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args, pos: 0 }
    }

    fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.get(self.pos)?.clone();
        self.pos += 1;
        Some(flag)
    }

    fn value(&mut self, flag: &str) -> String {
        let value = self
            .args
            .get(self.pos)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        self.pos += 1;
        value.clone()
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.value(flag)
            .parse()
            .unwrap_or_else(|_| die(&format!("{flag} needs a number")))
    }

    fn rate(&mut self, flag: &str) -> f64 {
        let rate: f64 = self.parsed(flag);
        if !(0.0..=1.0).contains(&rate) {
            die(&format!("{flag} needs a number in [0, 1]"));
        }
        rate
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: specrepaird serve   [--addr A] [--workers N] [--queue N] [--deadline-ms N] \
         [--max-scope N] [--cache-per-shard N] [--shutdown-file P] \
         [--chaos-rate R] [--chaos-seed N] [--trace] \
         [--cache-dir P] [--disk-chaos-rate R] [--disk-chaos-seed N] \
         [--metrics-history-interval-ms N] [--metrics-history-capacity N] \
         [--metrics-history-file P] [--shard-id N --peers a,b,c]\n\
         \x20      specrepaird route   --shards a,b,c [--addr A] [--workers N] [--queue N] \
         [--deadline-ms N] [--max-scope N] [--shutdown-file P]\n\
         \x20      specrepaird loadgen [--addr A] [--requests N] [--connections N] \
         [--deadline-ms N] [--seed N] [--chaos-rate R] [--shed-backoff-ms N] \
         [--profile uniform|zipfian] [--tenants N] [--shards a,b,c]"
    );
    std::process::exit(2);
}
