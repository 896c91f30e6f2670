//! The repository benchmark: closed-loop PACTree workloads that print
//! end-to-end metrics (or, traced, per-layer metrics) and check every
//! answer. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--tiny] [--inject-wrong-answer]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod embedded;
mod layers;
mod service;
mod window;

use std::sync::Arc;
use std::time::{Duration, Instant};

use pacsrv::{PacService, ServiceConfig, TcpServer};
use pactree::{PacTree, PacTreeConfig};
use pmem::model::{self, CoherenceMode, NvmModelConfig};
use ycsb::{Distribution, KeySpace, Mix};

use embedded::{LoadOut, Loaded};
use layers::{ratio, Counters};
use obsv::{HistSnapshot, OpSetSnapshot};
use service::Service;
use window::Control;

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    pub space: KeySpace,
    pub mix: Mix,
    pub distribution: Distribution,
    /// Keys loaded before the window.
    pub preload: u64,
    /// Load threads (embedded) or connections (service).
    pub threads: usize,
    /// Whether load goes through `PacService` over TCP.
    pub service: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Size of each of the tree's pools.
    pub pool_bytes: usize,
}

pub const WORKLOADS: [&str; 3] = ["lookup-insert-str", "scan-int", "service-tcp"];

/// Bytes of each pool per key in the tree: the fullest pool's allocator
/// high water over keys was 46 (integer) and 49 (string) at 1-1.5M keys,
/// plus about 60% headroom. Pools are zeroed up front, so their size is
/// paid in set-up time and resident memory.
fn bytes_per_key(space: KeySpace) -> u64 {
    match space {
        KeySpace::Integer => 72,
        KeySpace::String => 80,
    }
}

/// Highest insert rate the pools are sized for, in inserts per second
/// (2.5 times the ~100k/s of `lookup-insert-str` on a 2-CPU host). A run
/// that outgrows its pools does not finish: PACTree keeps retrying the
/// failed allocation, and `run.py`'s time limit ends the run unreported.
const MAX_INSERTS_PER_S: f64 = 250_000.0;

impl Spec {
    pub fn new(name: &str, tiny: bool, warmup_s: f64, seconds: f64) -> Option<Spec> {
        let (space, mix, distribution, preload, service) = match name {
            "lookup-insert-str" => (
                KeySpace::String,
                Mix::ReadInsert,
                Distribution::Uniform,
                1_000_000,
                false,
            ),
            "scan-int" => (
                KeySpace::Integer,
                Mix::E,
                Distribution::Zipfian(0.99),
                1_000_000,
                false,
            ),
            "service-tcp" => (
                KeySpace::Integer,
                Mix::B,
                Distribution::Zipfian(0.99),
                20_000,
                true,
            ),
            _ => return None,
        };
        let preload = if tiny { preload / 50 } else { preload };
        let insert_share = match mix {
            Mix::ReadInsert => 0.5,
            Mix::E => 0.05,
            _ => 0.0,
        };
        let keys = preload as f64 + insert_share * MAX_INSERTS_PER_S * (warmup_s + seconds);
        let pool_bytes = (keys as u64 * bytes_per_key(space)).max(64 << 20);
        Some(Spec {
            name: WORKLOADS.into_iter().find(|w| *w == name)?,
            space,
            mix,
            distribution,
            preload,
            threads: 2,
            service,
            setups: if tiny {
                2
            } else if service {
                5
            } else {
                3
            },
            pool_bytes: pool_bytes.next_multiple_of(1 << 20) as usize,
        })
    }

    pub fn workload(&self) -> ycsb::Workload {
        ycsb::Workload::new(self.mix, self.distribution, self.preload)
    }
}

/// A well-mixed per-thread seed (SplitMix64 of the run seed and thread).
pub fn thread_seed(seed: u64, t: usize) -> u64 {
    let mut z = seed
        ^ (t as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    tiny: bool,
    inject_wrong: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".into(),
        tiny: false,
        inject_wrong: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            "--commit" => a.commit = value()?,
            "--tiny" => a.tiny = true,
            "--inject-wrong-answer" => a.inject_wrong = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// The tree plus, for the service workload, the service and its listener.
struct Rig {
    tree: Arc<PacTree>,
    server: Option<(Arc<Service>, TcpServer)>,
}

/// Set-up: pool creation, population with the NVM model off, SMO and
/// epoch quiesce, and (service workload) service and listener start.
fn set_up(spec: &Spec, i: usize) -> Rig {
    let tree = PacTree::create(
        PacTreeConfig::named(&format!("perfbench-{}-{i}", spec.name))
            .with_pool_size(spec.pool_bytes)
            .with_numa_pools(pmem::numa::nodes()),
    )
    .expect("create pactree");
    ycsb::driver::populate(&tree, spec.space, spec.preload, spec.threads);
    assert!(tree.quiesce(Duration::from_secs(60)), "population quiesces");
    let server = spec.service.then(|| {
        let cfg = ServiceConfig::named(&format!("perfbench-svc-{i}"), spec.threads);
        let svc = PacService::start(Arc::clone(&tree), cfg);
        let listener = TcpServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
        (svc, listener)
    });
    Rig { tree, server }
}

fn tear_down(rig: Rig) {
    if let Some((svc, listener)) = rig.server {
        listener.stop();
        svc.shutdown(Duration::from_secs(30));
    }
    rig.tree.destroy();
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ns samples, in µs.
fn pct_us(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1000.0
}

/// Metrics in print order: name, value, unit.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let warmup_s = (args.seconds * 0.25).min(1.0);
    let Some(spec) = Spec::new(&args.workload, args.tiny, warmup_s, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        );
        std::process::exit(2);
    };
    // A panic on any other thread would leave the rest waiting at a
    // barrier: end the run at once instead, with no result line.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        if std::thread::current().name() != Some("main") {
            std::process::exit(101);
        }
    }));
    run(&spec, &args, warmup_s);
}

/// Everything a run measured.
struct Measured {
    out: LoadOut,
    /// Length of each window slice, in seconds.
    slices: Vec<f64>,
    /// Counter deltas over the window.
    d: Counters,
    /// Service histograms (sojourn, batch size) over the window.
    svc: Option<(OpSetSnapshot, HistSnapshot)>,
    smo_pending: usize,
    epoch_backlog: u64,
    drain_ms: f64,
    /// Whether the backlogs drained both before and after the window.
    drained: bool,
}

/// Warmup, quiesce, the measured window, and (traced service runs) the
/// in-process arm, all under the NVM model `nvm`.
fn measure(spec: &Spec, args: &Args, rig: &Rig, nvm: &NvmModelConfig, warmup_s: f64) -> Measured {
    let tree = &rig.tree;
    let server = rig.server.as_ref();
    let svc_snap = || {
        server.map(|(s, _)| {
            (
                s.metrics().ops.snapshot(),
                s.metrics().batch_sizes.snapshot(),
            )
        })
    };
    let loaded = (spec.mix == Mix::E).then(|| Loaded::integer(spec.preload));
    let extra = args.trace && spec.service;
    model::set_config(nvm.clone());
    let ctl = Control::new(spec.threads, args.trace);
    let mut before = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (ctl, loaded) = (&ctl, loaded.as_ref());
                s.spawn(move || match server {
                    Some((svc, listener)) => service::client_thread(
                        spec,
                        svc,
                        listener.local_addr(),
                        ctl,
                        args.seed,
                        t,
                        args.inject_wrong,
                        extra,
                    ),
                    None => embedded::load_thread(
                        spec,
                        tree,
                        loaded,
                        ctl,
                        args.seed,
                        t,
                        args.inject_wrong,
                    ),
                })
            })
            .collect();
        let slices = ctl.run_window(Duration::from_secs_f64(warmup_s), args.seconds, || {
            let quiet = tree.quiesce(Duration::from_secs(60));
            before = Some((quiet, Counters::take(tree), svc_snap()));
        });
        let (warm_drained, c0, svc0) = before.take().expect("window opened");
        let d = Counters::take(tree).since(&c0);
        let svc = svc0
            .zip(svc_snap())
            .map(|((o0, b0), (o1, b1))| (o1.since(&o0), b1.since(&b0)));
        let smo_pending = tree.pending_smo_count();
        let epoch_backlog = tree.collector().queued() - tree.collector().executed();
        let start = Instant::now();
        let drained = tree.quiesce(Duration::from_secs(60)) && warm_drained;
        let drain_ms = start.elapsed().as_secs_f64() * 1e3;
        if extra {
            ctl.run_extra((args.seconds * 0.2).min(2.0));
        }
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        Measured {
            out: LoadOut::merge(outs),
            slices,
            d,
            svc,
            smo_pending,
            epoch_backlog,
            drain_ms,
            drained,
        }
    })
}

/// Medians over the window slices of one kind (traced or untraced).
struct SliceView<'a> {
    m: &'a Measured,
    idx: Vec<usize>,
}

impl SliceView<'_> {
    fn throughput(&self) -> f64 {
        median(
            self.idx
                .iter()
                .map(|&s| self.m.out.ops[s] as f64 / self.m.slices[s])
                .collect(),
        )
    }

    fn pct(&self, samples: &[Vec<u32>], q: f64) -> f64 {
        median(self.idx.iter().map(|&s| pct_us(&samples[s], q)).collect())
    }

    /// Fewest samples in one slice, and the total.
    fn counts(&self, samples: &[Vec<u32>]) -> (usize, usize) {
        let n = self.idx.iter().map(|&s| samples[s].len());
        (n.clone().min().unwrap_or(0), n.sum())
    }
}

fn run(spec: &Spec, args: &Args, warmup_s: f64) {
    model::set_config(NvmModelConfig::disabled());
    let mut setup_s = Vec::new();
    let mut rig = None;
    for i in 0..spec.setups {
        if let Some(r) = rig.take() {
            tear_down(r);
        }
        let start = Instant::now();
        rig = Some(set_up(spec, i));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    let tree = &rig.tree;

    // The window runs under the paper's Optane model, undilated: model
    // time is wall time, so CPU cost and modelled stalls both count.
    let nvm = NvmModelConfig::optane(CoherenceMode::Snoop);
    let mut m = measure(spec, args, &rig, &nvm, warmup_s);
    model::set_config(NvmModelConfig::disabled());
    for v in m.out.read_ns.iter_mut().chain(&mut m.out.write_ns) {
        v.sort_unstable();
    }
    m.out.extra_ns.sort_unstable();
    let out = &m.out;
    let d = &m.d;

    // Whole-run checks.
    let invariants_ok = std::panic::catch_unwind(|| tree.check_invariants()).is_ok();
    let final_keys = tree.count_pairs() as u64;
    let count_ok = final_keys == spec.preload + out.inserted;
    let self_test_ok = check::self_test();
    let run_failures = u64::from(!invariants_ok) + u64::from(!count_ok) + u64::from(!m.drained);
    let attempted = out.tally.attempted.max(1);
    let failed = out.tally.failed + run_failures;
    let correct = failed == 0 && self_test_ok;

    let n = m.slices.len();
    let untraced = SliceView {
        m: &m,
        idx: (0..n).filter(|&s| !args.trace || s % 2 == 0).collect(),
    };
    let traced = SliceView {
        m: &m,
        idx: (0..n).filter(|&s| args.trace && s % 2 == 1).collect(),
    };
    let ops = out.ops.iter().sum::<u64>().max(1) as f64;
    let pool_hw: Vec<u64> = tree
        .pools()
        .iter()
        .map(|p| p.allocator().high_water())
        .collect();
    let (nodes, live) = tree.occupancy();

    println!(
        "# stamp {{\"commit\": \"{}\", \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"slices\": {n}, \"warmup_s\": {}, \"trace\": {}, \"threads\": {}, \
         \"model\": \"optane(Snoop) undilated, {} NUMA nodes, {} cpu-cache lines/thread, {} xpbuffer lines\", \
         \"pools\": {}, \"pool_bytes\": {}, \"pool_high_water\": {:?}, \
         \"preload_keys\": {}, \"inserted_keys\": {}, \"final_keys\": {}}}",
        args.commit,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spec.name,
        args.seed,
        args.seconds,
        warmup_s,
        u8::from(args.trace),
        spec.threads,
        pmem::numa::nodes(),
        nvm.cpu_cache_lines,
        nvm.xpbuffer_lines,
        pool_hw.len(),
        spec.pool_bytes,
        pool_hw,
        spec.preload,
        out.inserted,
        final_keys,
    );
    let (read_label, write_label) = match spec.mix {
        Mix::ReadInsert => ("lookup", "insert"),
        Mix::E => ("scan", "insert"),
        _ => ("read_call", "write_call"),
    };
    for (label, v) in [(read_label, &out.read_ns), (write_label, &out.write_ns)] {
        let (min, total) = untraced.counts(v);
        println!(
            "# {label}_p50_us {:.3} us, {label}_p99_us {:.3} us: medians over {} slices of >= {min} \
             samples ({total} in all, >= {} beyond p99 per slice)",
            untraced.pct(v, 0.5),
            untraced.pct(v, 0.99),
            untraced.idx.len(),
            min / 100,
        );
    }
    let calls = out.calls();
    if spec.service {
        let (min, total) = untraced.counts(&calls);
        println!(
            "# call_p50_us {:.3} us, call_p99_us {:.3} us: one {}-op round trip, medians over {} \
             slices of >= {min} samples ({total} in all)",
            untraced.pct(&calls, 0.5),
            untraced.pct(&calls, 0.99),
            service::BATCH,
            untraced.idx.len(),
        );
    }
    println!(
        "# throughput per slice (ops/s): {:?}",
        (0..n)
            .map(|s| (out.ops[s] as f64 / m.slices[s]).round())
            .collect::<Vec<_>>()
    );
    println!(
        "# failed_op_ratio {} ({failed} of {attempted}); invariants {}, count {} (want {}), \
         drained {}, self-test {}",
        failed as f64 / attempted as f64,
        if invariants_ok { "ok" } else { "VIOLATED" },
        final_keys,
        spec.preload + out.inserted,
        m.drained,
        if self_test_ok { "ok" } else { "FAILED" },
    );

    let mut mx = Metrics(Vec::new());
    let untraced_tput = untraced.throughput();
    if !args.trace {
        mx.put("throughput_ops_s", untraced_tput, "ops/s");
        mx.put("read_p50_us", untraced.pct(&out.read_ns, 0.5), "us");
        mx.put("read_p99_us", untraced.pct(&out.read_ns, 0.99), "us");
        mx.put("write_p50_us", untraced.pct(&out.write_ns, 0.5), "us");
        mx.put("write_p99_us", untraced.pct(&out.write_ns, 0.99), "us");
        let g = &d.global;
        mx.put(
            "media_read_bytes_per_op",
            g.media_read_bytes as f64 / ops,
            "B/op",
        );
        mx.put(
            "media_write_bytes_per_op",
            (g.media_write_bytes + g.directory_write_bytes) as f64 / ops,
            "B/op",
        );
        mx.put(
            "space_bytes_per_key",
            layers::space_bytes(tree) as f64 / final_keys.max(1) as f64,
            "B/key",
        );
        mx.put("peak_rss_mib", layers::peak_rss_mib(), "MiB");
        mx.put("setup_s", median(setup_s), "s");
    } else {
        let tcp_call_p50 = untraced.pct(&calls, 0.5);
        per_layer_metrics(&mut mx, spec, args, &m, (nodes, live), tcp_call_p50);
        let traced_tput = traced.throughput();
        mx.put("trace.throughput_ops_s", traced_tput, "ops/s");
        mx.put(
            "trace.overhead_share",
            1.0 - ratio(traced_tput, untraced_tput),
            "ratio",
        );
        println!(
            "# traced {traced_tput:.0} ops/s vs untraced {untraced_tput:.0} ops/s (medians over {} and {} slices)",
            traced.idx.len(),
            untraced.idx.len(),
        );
    }
    for (name, v, u) in &mx.0 {
        println!("# {name} = {v} {u}");
    }
    tear_down(rig);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        mx.json()
    );
}

/// The per-layer metrics of a traced run (all but the trace overhead).
/// `tcp_call_p50` is the median call latency of the untraced slices.
fn per_layer_metrics(
    mx: &mut Metrics,
    spec: &Spec,
    args: &Args,
    m: &Measured,
    occ: (usize, usize),
    tcp_call_p50: f64,
) {
    let (d, out) = (&m.d, &m.out);
    let ops = out.ops.iter().sum::<u64>().max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    let g = &d.global;
    mx.put(
        "pmem.search.read_bytes_per_op",
        per_op(d.search.media_read_bytes),
        "B/op",
    );
    mx.put(
        "pmem.data.read_bytes_per_op",
        per_op(d.data.media_read_bytes),
        "B/op",
    );
    mx.put(
        "pmem.data.write_bytes_per_op",
        per_op(d.data.media_write_bytes + d.data.directory_write_bytes),
        "B/op",
    );
    mx.put(
        "pmem.data.flushes_per_op",
        per_op(d.data.flushes),
        "flushes/op",
    );
    mx.put(
        "pmem.log.write_bytes_per_op",
        per_op(d.log.media_write_bytes + d.log.directory_write_bytes),
        "B/op",
    );
    mx.put("pmem.fences_per_op", per_op(g.fences), "fences/op");
    mx.put("pmem.xpbuffer.hit_ratio", g.xpbuffer_hit_rate(), "ratio");
    mx.put("pmem.allocs_per_op", per_op(g.allocs), "allocs/op");
    mx.put("pmem.alloc_ns_per_op", per_op(g.alloc_ns), "ns/op");
    mx.put(
        "pmem.throttle_stall_ns_per_op",
        per_op(g.throttle_stall_ns),
        "ns/op",
    );
    mx.put(
        "pactree.jump.direct_hit_ratio",
        d.direct_hit_ratio(),
        "ratio",
    );
    mx.put("pactree.fp.false_hit_ratio", d.false_hit_ratio(), "ratio");
    mx.put("pactree.retries_per_op", per_op(d.retries), "retries/op");
    mx.put("pactree.splits_per_op", per_op(d.splits), "splits/op");
    mx.put(
        "pactree.smo.replayed_per_op",
        per_op(d.smo_replayed),
        "smo/op",
    );
    mx.put("pactree.smo.pending_at_end", m.smo_pending as f64, "count");
    mx.put("pactree.smo.drain_ms", m.drain_ms, "ms");
    mx.put(
        "pactree.epoch.backlog_at_end",
        m.epoch_backlog as f64,
        "count",
    );
    let (nodes, live) = occ;
    mx.put(
        "pactree.node.occupancy",
        ratio(live as f64, (nodes * pactree::data::NODE_SLOTS) as f64),
        "ratio",
    );
    mx.put(
        "pactree.scan.pairs_per_scan",
        ratio(out.scan_pairs as f64, out.scans as f64),
        "pairs/scan",
    );
    let traced_ops: u64 = (1..out.ops.len()).step_by(2).map(|s| out.ops[s]).sum();
    mx.put(
        "ycsb.gen_ns_per_op",
        ratio(out.gen_ns as f64, traced_ops as f64),
        "ns/op",
    );
    // Service layers read 0 on the embedded workloads, which bypass them;
    // the codec is timed on frames built from any workload's operations.
    let (sojourn_p50, sojourn_p99, batch_mean) = match &m.svc {
        Some((ops, batches)) => {
            let soj = ops.merged();
            (
                soj.quantile(0.5) as f64 / 1e3,
                soj.quantile(0.99) as f64 / 1e3,
                batches.mean(),
            )
        }
        None => (0.0, 0.0, 0.0),
    };
    mx.put("pacsrv.service.sojourn_p50_us", sojourn_p50, "us");
    mx.put("pacsrv.service.sojourn_p99_us", sojourn_p99, "us");
    mx.put("pacsrv.service.batch_mean", batch_mean, "ops/batch");
    mx.put(
        "pacsrv.queue.depth_mean",
        ratio(out.depth_sum as f64, out.depth_samples as f64),
        "ops",
    );
    let (encode_ns, decode_ns) = service::wire_cost(spec, args.seed, 20_000);
    mx.put("pacsrv.wire.encode_ns_per_frame", encode_ns, "ns/frame");
    mx.put("pacsrv.wire.decode_ns_per_frame", decode_ns, "ns/frame");
    let inproc_p50 = pct_us(&out.extra_ns, 0.5);
    mx.put("pacsrv.transport.inproc_call_p50_us", inproc_p50, "us");
    let share = if spec.service {
        1.0 - ratio(inproc_p50, tcp_call_p50)
    } else {
        0.0
    };
    mx.put("pacsrv.transport.share", share, "ratio");
}
