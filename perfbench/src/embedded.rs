//! The embedded workloads: load threads call PACTree directly.

use std::sync::Arc;
use std::time::Instant;

use pactree::PacTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ycsb::workload::Op;
use ycsb::KeySpace;

use crate::check::{self, value_of, Tally};
use crate::window::{Control, Phase};
use crate::{thread_seed, Spec};

/// What one load thread saw.
#[derive(Default)]
pub struct LoadOut {
    /// Per window slice, latencies in ns of reads (lookups, scans,
    /// read-only service calls) and writes (inserts, service calls
    /// carrying a put).
    pub read_ns: Vec<Vec<u32>>,
    pub write_ns: Vec<Vec<u32>>,
    /// Operations per window slice.
    pub ops: Vec<u64>,
    /// Latencies in ns of the extra arm's calls.
    pub extra_ns: Vec<u32>,
    /// Checks of every answer, warmup included.
    pub tally: Tally,
    /// Time spent generating operations in traced slices.
    pub gen_ns: u64,
    /// Fresh keys inserted, warmup included.
    pub inserted: u64,
    pub scans: u64,
    pub scan_pairs: u64,
    /// Queue depth summed over the samples taken between traced calls.
    pub depth_sum: u64,
    pub depth_samples: u64,
}

impl LoadOut {
    /// Counts `ops` operations, timed together as one `ns` sample, in `slice`.
    pub fn record(&mut self, slice: usize, is_write: bool, ns: u32, ops: u64) {
        self.grow(slice + 1);
        self.ops[slice] += ops;
        if is_write {
            self.write_ns[slice].push(ns);
        } else {
            self.read_ns[slice].push(ns);
        }
    }

    fn grow(&mut self, slices: usize) {
        if self.ops.len() < slices {
            self.ops.resize(slices, 0);
            self.read_ns.resize_with(slices, Vec::new);
            self.write_ns.resize_with(slices, Vec::new);
        }
    }

    /// Per slice, every latency sample (reads and writes), sorted.
    pub fn calls(&self) -> Vec<Vec<u32>> {
        self.read_ns
            .iter()
            .zip(&self.write_ns)
            .map(|(r, w)| {
                let mut c: Vec<u32> = r.iter().chain(w).copied().collect();
                c.sort_unstable();
                c
            })
            .collect()
    }

    pub fn merge(outs: Vec<LoadOut>) -> LoadOut {
        let mut all = LoadOut::default();
        for o in outs {
            all.grow(o.ops.len());
            for (s, n) in o.ops.iter().enumerate() {
                all.ops[s] += n;
            }
            for (s, v) in o.read_ns.into_iter().enumerate() {
                all.read_ns[s].extend(v);
            }
            for (s, v) in o.write_ns.into_iter().enumerate() {
                all.write_ns[s].extend(v);
            }
            all.extra_ns.extend(o.extra_ns);
            all.tally.add(o.tally);
            all.gen_ns += o.gen_ns;
            all.inserted += o.inserted;
            all.scans += o.scans;
            all.scan_pairs += o.scan_pairs;
            all.depth_sum += o.depth_sum;
            all.depth_samples += o.depth_samples;
        }
        all
    }
}

pub fn elapsed_ns(since: Instant) -> u32 {
    since.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// Fresh-key ids for thread `t` of `threads`: disjoint across threads and
/// from the loaded ids `0..preload`.
pub fn insert_ids(preload: u64, t: usize, threads: usize) -> impl FnMut() -> u64 {
    let mut next = preload + t as u64;
    move || {
        let id = next;
        next += threads as u64;
        id
    }
}

/// Loaded integer keys, sorted, so a scan's expected length is known.
pub struct Loaded {
    sorted: Vec<u64>,
}

impl Loaded {
    pub fn integer(preload: u64) -> Loaded {
        let mut sorted: Vec<u64> = (0..preload)
            .map(|i| u64::from_be_bytes(KeySpace::Integer.encode(i).try_into().expect("8 bytes")))
            .collect();
        sorted.sort_unstable();
        Loaded { sorted }
    }

    /// Loaded keys at or after `start`.
    fn from(&self, start: &[u8]) -> usize {
        let start = u64::from_be_bytes(start.try_into().expect("integer key"));
        self.sorted.len() - self.sorted.partition_point(|&k| k < start)
    }
}

/// One load thread of an embedded workload.
pub fn load_thread(
    spec: &Spec,
    tree: &Arc<PacTree>,
    loaded: Option<&Loaded>,
    ctl: &Control,
    seed: u64,
    t: usize,
    inject_wrong: bool,
) -> LoadOut {
    pmem::numa::pin_thread_round_robin();
    let workload = spec.workload();
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, t));
    let mut next_insert = insert_ids(spec.preload, t, spec.threads);
    let mut out = LoadOut::default();
    let mut corrupt_next = inject_wrong && t == 0;
    ctl.run_load(
        |phase, slice| {
            let record = phase == Phase::Window;
            let traced = ctl.traced(slice);
            let gen_start = Instant::now();
            let op = workload.next_op(&mut rng, &mut next_insert);
            let (Op::Read(id) | Op::Insert(id) | Op::Scan(id, _) | Op::Update(id)) = op;
            let key = spec.space.encode(id);
            let start = Instant::now();
            if record && traced {
                out.gen_ns += (start - gen_start).as_nanos() as u64;
            }
            let (ok, is_write, ns) = match op {
                Op::Read(_) => {
                    let mut got = tree.lookup(&key);
                    let ns = elapsed_ns(start);
                    if record && std::mem::take(&mut corrupt_next) {
                        got = got.map(|v| v ^ 1);
                    }
                    (check::lookup_ok(id, got), false, ns)
                }
                Op::Insert(_) => {
                    let r = tree.insert(&key, value_of(id));
                    let ns = elapsed_ns(start);
                    let ok = check::insert_ok(&r);
                    out.inserted += u64::from(ok);
                    (ok, true, ns)
                }
                Op::Scan(_, want) => {
                    let mut pairs = tree.scan(&key, want);
                    let ns = elapsed_ns(start);
                    if record && std::mem::take(&mut corrupt_next) && !pairs.is_empty() {
                        pairs.remove(0);
                    }
                    if record {
                        out.scans += 1;
                        out.scan_pairs += pairs.len() as u64;
                    }
                    let loaded_from = loaded.map_or(0, |l| l.from(&key));
                    (
                        check::scan_ok(&key, id, want, loaded_from, &pairs),
                        false,
                        ns,
                    )
                }
                Op::Update(_) => unreachable!("embedded mixes issue no updates"),
            };
            // Warmup answers are checked too.
            out.tally.record(ok);
            if record {
                out.record(slice, is_write, ns, 1);
            }
        },
        false,
    );
    out
}
