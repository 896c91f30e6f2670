//! Per-layer counters, read from each layer's public interface before and
//! after a measured window.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pactree::PacTree;
use pmem::stats::{self, StatsSnapshot};

/// Counters of the NVM substrate and of PACTree at one instant.
pub struct Counters {
    /// Process-wide NVM model totals (fences are only counted here).
    pub global: StatsSnapshot,
    pub search: StatsSnapshot,
    /// Summed over the per-NUMA-node data pools.
    pub data: StatsSnapshot,
    pub log: StatsSnapshot,
    pub jumps: Vec<u64>,
    pub splits: u64,
    pub smo_replayed: u64,
    pub retries: u64,
    pub fp_checks: u64,
    pub fp_false_hits: u64,
}

fn sum(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        media_read_bytes: a.media_read_bytes + b.media_read_bytes,
        media_write_bytes: a.media_write_bytes + b.media_write_bytes,
        directory_write_bytes: a.directory_write_bytes + b.directory_write_bytes,
        flushes: a.flushes + b.flushes,
        fences: a.fences + b.fences,
        allocs: a.allocs + b.allocs,
        frees: a.frees + b.frees,
        alloc_ns: a.alloc_ns + b.alloc_ns,
        xpbuffer_hits: a.xpbuffer_hits + b.xpbuffer_hits,
        xpbuffer_misses: a.xpbuffer_misses + b.xpbuffer_misses,
        throttle_stall_ns: a.throttle_stall_ns + b.throttle_stall_ns,
    }
}

impl Counters {
    pub fn take(tree: &Arc<PacTree>) -> Counters {
        // `pools()` is search, data..., log.
        let pools = tree.pools();
        let (search, rest) = pools.split_first().expect("pactree has a search pool");
        let (log, data) = rest.split_last().expect("pactree has a log pool");
        let st = tree.stats();
        Counters {
            global: stats::global().snapshot(),
            search: search.stats().snapshot(),
            data: data
                .iter()
                .map(|p| p.stats().snapshot())
                .fold(StatsSnapshot::default(), sum),
            log: log.stats().snapshot(),
            jumps: st.jump_histogram().into_iter().map(|(_, c)| c).collect(),
            splits: st.splits.load(Ordering::Relaxed),
            smo_replayed: st.smo_replayed.load(Ordering::Relaxed),
            retries: st.retries.load(Ordering::Relaxed),
            fp_checks: st.fp_checks.load(Ordering::Relaxed),
            fp_false_hits: st.fp_false_hits.load(Ordering::Relaxed),
        }
    }

    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            global: self.global.since(&earlier.global),
            search: self.search.since(&earlier.search),
            data: self.data.since(&earlier.data),
            log: self.log.since(&earlier.log),
            jumps: self
                .jumps
                .iter()
                .zip(&earlier.jumps)
                .map(|(a, b)| a - b)
                .collect(),
            splits: self.splits - earlier.splits,
            smo_replayed: self.smo_replayed - earlier.smo_replayed,
            retries: self.retries - earlier.retries,
            fp_checks: self.fp_checks - earlier.fp_checks,
            fp_false_hits: self.fp_false_hits - earlier.fp_false_hits,
        }
    }

    /// Share of locates that landed on the target data node directly.
    pub fn direct_hit_ratio(&self) -> f64 {
        ratio(self.jumps[0] as f64, self.jumps.iter().sum::<u64>() as f64)
    }

    pub fn false_hit_ratio(&self) -> f64 {
        ratio(self.fp_false_hits as f64, self.fp_checks as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bytes of pool space the tree's allocators ever handed out.
pub fn space_bytes(tree: &Arc<PacTree>) -> u64 {
    tree.pools()
        .iter()
        .map(|p| p.allocator().high_water())
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
