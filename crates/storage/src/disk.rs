//! The simulated-disk I/O cost model.
//!
//! The paper ran on "a software RAID system consisting of 12 disks"
//! delivering "several hundreds of megabytes per second" of sequential
//! bandwidth. We substitute a deterministic cost model: every block read
//! costs one seek plus `bytes / bandwidth` of transfer time. Because the
//! paper's cold-run results are bandwidth-bound, preserving the *ratio*
//! between compressed and raw transfer volumes preserves the experiment's
//! shape (Table 2: the +Compression step improves cold time, and the
//! +Materialization step *worsens* it by reading 32-bit floats instead of
//! 8.13-bit compressed `tf` values).

use std::time::Duration;

/// Deterministic disk cost model: `cost(bytes) = seek + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed per-read positioning cost.
    pub seek: Duration,
    /// Sequential transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl DiskModel {
    /// The paper's testbed: a 12-disk software RAID. We model it at
    /// 600 MB/s sequential with a 4 ms average positioning cost — the
    /// multi-megabyte block granularity makes results insensitive to the
    /// exact seek figure.
    pub fn raid12() -> Self {
        DiskModel {
            seek: Duration::from_micros(4_000),
            bandwidth_bytes_per_sec: 600.0 * 1024.0 * 1024.0,
        }
    }

    /// An infinitely fast disk — used to isolate CPU cost in ablations.
    pub fn instant() -> Self {
        DiskModel {
            seek: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Simulated wall-clock cost of reading `bytes` in one sequential
    /// request.
    ///
    /// Saturates at [`Duration::MAX`] instead of panicking: a corrupt
    /// on-disk length that slips past validation must at worst produce an
    /// absurd simulated cost, never turn the cost model into a panic
    /// (`Duration::from_secs_f64` aborts on overflow, NaN and negatives).
    pub fn read_cost(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec.is_infinite() {
            return self.seek;
        }
        let transfer_secs = bytes as f64 / self.bandwidth_bytes_per_sec;
        let transfer = Duration::try_from_secs_f64(transfer_secs).unwrap_or(Duration::MAX);
        self.seek.saturating_add(transfer)
    }

    /// Simulated wall-clock cost of writing `bytes` in one sequential
    /// request. The model is symmetric — positioning plus transfer at the
    /// same sequential bandwidth — which matches the spill path's
    /// write-once streaming pattern (no read-modify-write amplification).
    pub fn write_cost(&self, bytes: usize) -> Duration {
        self.read_cost(bytes)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::raid12()
    }
}

/// Accumulated I/O accounting: how many requests were simulated, how many
/// bytes moved, and how much simulated disk time they cost. One `IoStats`
/// tracks one direction — the buffer manager keeps a read stream, the
/// spill path keeps separate write-side and read-side records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of simulated sequential requests (reads, or writes when the
    /// record tracks a write stream).
    pub reads: u64,
    /// Total bytes transferred from the simulated disk.
    pub bytes: u64,
    /// Accumulated simulated disk time.
    pub sim_time: Duration,
}

impl IoStats {
    /// Adds one read of `bytes` costing `cost`.
    pub fn record(&mut self, bytes: usize, cost: Duration) {
        self.reads += 1;
        self.bytes += bytes as u64;
        self.sim_time += cost;
    }

    /// Merges another stats record into this one (used when aggregating
    /// per-query stats into a run total).
    pub fn merge(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.bytes += other.bytes;
        self.sim_time += other.sim_time;
    }

    /// The change from a `before` snapshot to this one, saturating at zero
    /// per field. Saturation matters under concurrency: if the shared
    /// counters were reset between the two snapshots (`reset_stats` racing
    /// an in-flight query), a plain subtraction would underflow; the delta
    /// is then meaningless but must stay a harmless zero, never a panic or
    /// a wrapped-around huge value.
    pub fn delta_since(&self, before: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(before.reads),
            bytes: self.bytes.saturating_sub(before.bytes),
            sim_time: self.sim_time.saturating_sub(before.sim_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_cost_is_seek_plus_transfer() {
        let disk = DiskModel {
            seek: Duration::from_millis(10),
            bandwidth_bytes_per_sec: 1000.0,
        };
        let cost = disk.read_cost(2000);
        assert_eq!(cost, Duration::from_millis(10) + Duration::from_secs(2));
    }

    #[test]
    fn write_cost_is_symmetric_with_read_cost() {
        let disk = DiskModel::raid12();
        assert_eq!(disk.write_cost(1 << 22), disk.read_cost(1 << 22));
    }

    #[test]
    fn instant_disk_costs_nothing() {
        assert_eq!(DiskModel::instant().read_cost(1 << 30), Duration::ZERO);
    }

    #[test]
    fn read_cost_saturates_instead_of_panicking() {
        // A pathological declared size over a trickling bandwidth would
        // overflow `Duration`; the model must clamp, not panic.
        let slow = DiskModel {
            seek: Duration::from_millis(1),
            bandwidth_bytes_per_sec: f64::MIN_POSITIVE,
        };
        assert_eq!(slow.read_cost(usize::MAX), Duration::MAX);
        assert_eq!(slow.write_cost(usize::MAX), Duration::MAX);
        // Zero bandwidth yields a NaN transfer time — also clamped.
        let stuck = DiskModel {
            seek: Duration::ZERO,
            bandwidth_bytes_per_sec: 0.0,
        };
        assert_eq!(stuck.read_cost(0), Duration::MAX);
    }

    #[test]
    fn bigger_reads_cost_more() {
        let disk = DiskModel::raid12();
        assert!(disk.read_cost(1 << 24) > disk.read_cost(1 << 20));
    }

    #[test]
    fn compression_ratio_preserved_in_cost() {
        // 4x smaller transfer => transfer component 4x cheaper.
        let disk = DiskModel {
            seek: Duration::ZERO,
            bandwidth_bytes_per_sec: 1_000_000.0,
        };
        let raw = disk.read_cost(4_000_000);
        let compressed = disk.read_cost(1_000_000);
        assert_eq!(raw, compressed * 4);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let mut before = IoStats::default();
        before.record(100, Duration::from_millis(1));
        let mut after = before;
        after.record(50, Duration::from_millis(2));
        let delta = after.delta_since(&before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.bytes, 50);
        assert_eq!(delta.sim_time, Duration::from_millis(2));
        // A reset between snapshots leaves `after` below `before`: the
        // delta saturates to zero instead of underflowing.
        let reset_delta = IoStats::default().delta_since(&before);
        assert_eq!(reset_delta, IoStats::default());
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = IoStats::default();
        a.record(100, Duration::from_millis(1));
        a.record(200, Duration::from_millis(2));
        assert_eq!(a.reads, 2);
        assert_eq!(a.bytes, 300);
        assert_eq!(a.sim_time, Duration::from_millis(3));
        let mut b = IoStats::default();
        b.record(1, Duration::from_millis(5));
        b.merge(&a);
        assert_eq!(b.reads, 3);
        assert_eq!(b.bytes, 301);
        assert_eq!(b.sim_time, Duration::from_millis(8));
    }
}
