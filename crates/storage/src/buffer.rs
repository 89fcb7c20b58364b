//! ColumnBM's buffer manager: compressed blocks cached in RAM.
//!
//! The buffer manager *owns* the RAM-resident compressed blocks: a resident
//! slot holds the block's `Arc`, [`BufferManager::pin`] hands a reader a
//! clone, and eviction is dropping the slot's. A pin therefore outlives
//! eviction — bytes above the budget are bounded by the live pins.
//! Accessing a non-resident block fetches it from its column (a real
//! `pread` + validation if disk-backed) and charges the simulated disk cost for
//! its *compressed* size — this is precisely where compression "increases the
//! perceived I/O bandwidth" (§2.1): a block that holds 4 MB of logical data
//! but compresses to 1 MB costs a quarter of the transfer time.
//!
//! Residency is managed LRU under a configurable RAM budget. Two convenience
//! modes mirror the paper's experimental conditions: [`BufferMode::Cold`]
//! (nothing resident; every first touch pays I/O — Table 2's "cold data"
//! column) and [`BufferMode::Hot`] (blocks stay resident once touched and
//! the budget is unbounded — "hot data").
//!
//! # Concurrency
//!
//! One buffer manager is shared by every concurrent query on a node, so the
//! residency map is **lock-striped**: a block's `(column id, block index)`
//! key hashes to one of [`NUM_STRIPES`] independently locked shards, and the
//! hot path (a residency hit) takes exactly one stripe lock. A miss takes
//! it twice — to find the block absent, then to admit it — and fetches in
//! between under no lock, so a slow read never blocks another query's pool
//! access. I/O statistics are plain atomic counters, never behind a lock.
//!
//! Each stripe keeps its resident blocks on an intrusive, slab-backed LRU
//! list (hits relink in O(1) with no allocation) and mirrors its oldest
//! tick into a lock-free atomic. Eviction — entered when an admission
//! pushes the pool over budget, i.e. never in `Hot` mode — reads the
//! [`NUM_STRIPES`] mirrors, picks the stripe holding the globally oldest
//! block, and locks **only that stripe** to pop its list head; it never
//! scans the pool and never holds two stripe locks at once (observable via
//! [`BufferManager::eviction_lock_acquisitions`]). Single-threaded
//! behaviour is bit-identical to the historical single-`Mutex` pool: same
//! LRU victim order, same admission accounting, same `warm`/`evict_all`
//! semantics. (Under concurrency, when the just-admitted block is itself
//! the globally oldest, the sweep may evict its stripe's second-oldest
//! instead of hopping stripes — residency under racing queries is
//! schedule-dependent anyway.)

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use x100_compress::CompressedBlock;

use crate::column::{Column, ColumnId};
use crate::disk::{DiskModel, IoStats};
use crate::StorageError;

/// Number of lock stripes in the residency map. A small power of two:
/// enough that concurrent queries touching different blocks almost never
/// contend, few enough that the (rare, over-budget-only) full-pool eviction
/// sweep stays cheap.
pub const NUM_STRIPES: usize = 16;

/// Experimental buffer conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferMode {
    /// Start with an empty pool; blocks become resident as they are read
    /// (subject to the RAM budget). A fresh `Cold` run charges I/O for every
    /// distinct block.
    Cold,
    /// Everything fits and stays in RAM; only the first touch of each block
    /// ever costs I/O, and re-runs are free. The distributed experiment
    /// (§3.4) keeps "the whole index (10GB) in RAM" this way.
    Hot,
}

/// Slab-slot sentinel: "no neighbour" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One resident block in a stripe's slab: the block itself, its identity
/// and accounting, plus the intrusive links of the stripe's recency list.
#[derive(Debug)]
struct Slot {
    key: (ColumnId, u32),
    /// The pool's reference to the block; `None` only on the free list.
    block: Option<Arc<CompressedBlock>>,
    bytes: usize,
    tick: u64,
    prev: u32,
    next: u32,
}

/// One shard of the residency map. A block lives in exactly one stripe,
/// chosen by hashing its key, so per-stripe byte counts partition the pool
/// total.
///
/// Residency is a `HashMap` into a slab of [`Slot`]s threaded onto a
/// doubly-linked recency list (`head` = oldest, `tail` = newest). A hit
/// relinks its slot at the tail without allocating; eviction pops the head.
/// Freed slots go on a free list, so steady-state churn reuses capacity.
#[derive(Debug)]
struct Stripe {
    /// Resident blocks: (column, block index) -> slab slot.
    resident: HashMap<(ColumnId, u32), u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    bytes: usize,
}

impl Default for Stripe {
    fn default() -> Self {
        Stripe {
            resident: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }
}

impl Stripe {
    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends slot `i` at the tail (newest) end.
    fn push_tail(&mut self, i: u32) {
        self.slots[i as usize].prev = self.tail;
        self.slots[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Refreshes a resident slot to `tick` (a hit): O(1) relink, no
    /// allocation.
    fn refresh(&mut self, i: u32, tick: u64) {
        self.unlink(i);
        self.slots[i as usize].tick = tick;
        self.push_tail(i);
    }

    /// Admits a new block at the newest end.
    fn insert(
        &mut self,
        key: (ColumnId, u32),
        block: Arc<CompressedBlock>,
        bytes: usize,
        tick: u64,
    ) {
        let slot = Slot {
            key,
            block: Some(block),
            bytes,
            tick,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("stripe slab fits u32");
                self.slots.push(slot);
                i
            }
        };
        self.resident.insert(key, i);
        self.push_tail(i);
        self.bytes += bytes;
    }

    /// Removes the resident block at slot `i`, returning the pool's
    /// reference to it (dropping it *is* the eviction) and its size.
    fn remove_slot(&mut self, i: u32) -> (Option<Arc<CompressedBlock>>, usize) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let (block, bytes) = (slot.block.take(), slot.bytes);
        self.resident.remove(&slot.key);
        self.free.push(i);
        self.bytes -= bytes;
        (block, bytes)
    }

    /// The oldest resident slot that is not `protect`: the list head, or
    /// its successor when the head is the protected block.
    fn oldest_excluding(&self, protect: (ColumnId, u32)) -> Option<u32> {
        let mut i = self.head;
        while i != NIL {
            if self.slots[i as usize].key != protect {
                return Some(i);
            }
            i = self.slots[i as usize].next;
        }
        None
    }

    /// The tick of the oldest resident block (`u64::MAX` when empty) — the
    /// value mirrored into the stripe's lock-free atomic.
    fn oldest_tick(&self) -> u64 {
        match self.head {
            NIL => u64::MAX,
            i => self.slots[i as usize].tick,
        }
    }
}

/// ColumnBM: owns the resident blocks, charges simulated I/O, accumulates
/// stats.
///
/// Thread-safe and designed for sharing (`Arc<BufferManager>`): concurrent
/// queries on different blocks proceed on different stripe locks, and the
/// statistics counters are lock-free.
#[derive(Debug)]
pub struct BufferManager {
    disk: DiskModel,
    capacity_bytes: usize,
    stripes: Vec<Mutex<Stripe>>,
    /// Per-stripe mirror of [`Stripe::oldest_tick`], written only under the
    /// owning stripe's lock but readable without it — eviction picks its
    /// victim stripe from these without touching any lock.
    oldest: Vec<AtomicU64>,
    /// Global LRU clock; every hit and every admission draws the next tick.
    tick: AtomicU64,
    /// Total bytes resident across all stripes. Updated while holding the
    /// owning stripe's lock; exact at quiescence (and the eviction loop
    /// only ever re-checks it, never trusts one read).
    resident_bytes: AtomicUsize,
    /// Stripe-lock acquisitions made by the eviction path (test hook for
    /// the no-pool-scan property).
    eviction_locks: AtomicU64,
    // I/O statistics, one atomic per field (sim time in nanoseconds).
    stat_reads: AtomicU64,
    stat_bytes: AtomicU64,
    stat_sim_nanos: AtomicU64,
}

/// Stripe index for a block key: an avalanching multiply over the key's
/// standard hash, folded to the stripe count.
fn stripe_of(key: &(ColumnId, u32)) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % NUM_STRIPES
}

/// Residency key for a block. The index is stored narrowed to `u32`; the
/// narrowing is checked, because a silent `as` cast would alias block
/// `2^32 + k` onto block `k` — distinct blocks sharing one residency entry,
/// and (worse) a pin of one handing out the bytes of the other.
/// At the default 32 Ki-value block size a `u32` of blocks is a
/// half-petabyte column, so overflow is a caller bug, not a data regime.
fn block_key(column: &Column, block_idx: usize) -> (ColumnId, u32) {
    let idx = u32::try_from(block_idx).unwrap_or_else(|_| {
        panic!("block index {block_idx} exceeds the u32 buffer-pool key range")
    });
    (column.id(), idx)
}

impl BufferManager {
    /// Creates a buffer manager with a RAM budget in bytes.
    pub fn new(disk: DiskModel, capacity_bytes: usize) -> Self {
        BufferManager {
            disk,
            capacity_bytes,
            stripes: (0..NUM_STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            oldest: (0..NUM_STRIPES).map(|_| AtomicU64::new(u64::MAX)).collect(),
            tick: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            eviction_locks: AtomicU64::new(0),
            stat_reads: AtomicU64::new(0),
            stat_bytes: AtomicU64::new(0),
            stat_sim_nanos: AtomicU64::new(0),
        }
    }

    /// Creates a buffer manager in the given experimental mode. `Hot` gets
    /// an unbounded budget; `Cold` gets the budget provided.
    pub fn with_mode(disk: DiskModel, mode: BufferMode, capacity_bytes: usize) -> Self {
        match mode {
            BufferMode::Cold => Self::new(disk, capacity_bytes),
            BufferMode::Hot => Self::new(disk, usize::MAX),
        }
    }

    /// The disk model in use.
    pub fn disk(&self) -> DiskModel {
        self.disk
    }

    /// The next LRU tick — drawn with a stripe lock held, so ticks ascend
    /// along every stripe's recency list.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A pin on `key`'s block if it is resident in stripe `si` (locked by
    /// the caller), refreshed to most recently used.
    fn hit(
        &self,
        si: usize,
        st: &mut Stripe,
        key: (ColumnId, u32),
    ) -> Option<Arc<CompressedBlock>> {
        let &slot = st.resident.get(&key)?;
        st.refresh(slot, self.next_tick());
        self.oldest[si].store(st.oldest_tick(), Ordering::Relaxed);
        st.slots[slot as usize].block.clone()
    }

    /// Pins block `block_idx` of `column`: the returned reference stays
    /// readable, with no further pool or column access, for as long as the
    /// caller holds it — whatever the pool evicts meanwhile.
    ///
    /// A miss fetches the block with **no lock held** — for a disk-backed
    /// column the real `pread` + validation, where a read fault surfaces as a
    /// typed error — then admits it, charges the simulated disk cost to
    /// [`IoStats`] (a deterministic [`DiskModel`] overlay on the physical
    /// read: accounted, never slept) and evicts LRU blocks if over budget.
    /// Threads missing the same block each fetch it; the first to re-take
    /// the stripe lock admits and is charged, the others adopt its block —
    /// so a hot pool's I/O totals stay a set property of the blocks
    /// touched, whatever the interleaving.
    pub fn pin(
        &self,
        column: &Column,
        block_idx: usize,
    ) -> Result<Arc<CompressedBlock>, StorageError> {
        let key = block_key(column, block_idx);
        let si = stripe_of(&key);
        let resident = self.hit(si, &mut self.stripes[si].lock(), key);
        if let Some(block) = resident {
            return Ok(block);
        }
        // Miss: the fetch, with no lock held.
        let block = column.fetch(block_idx)?;
        let bytes = column.block_bytes(block_idx);
        {
            let mut st = self.stripes[si].lock();
            // Lost the race to admit this block: adopt the winner's.
            if let Some(block) = self.hit(si, &mut st, key) {
                return Ok(block);
            }
            // Admit; the over-budget check happens after the stripe lock is
            // released, because evicting may involve *other* stripes.
            st.insert(key, Arc::clone(&block), bytes, self.next_tick());
            self.oldest[si].store(st.oldest_tick(), Ordering::Relaxed);
            self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
            // Pay the disk.
            let cost = self.disk.read_cost(bytes);
            self.stat_reads.fetch_add(1, Ordering::Relaxed);
            self.stat_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.stat_sim_nanos
                .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        }
        if self.resident_bytes.load(Ordering::Relaxed) > self.capacity_bytes {
            self.evict_lru(key);
        }
        Ok(block)
    }

    /// Pin-and-release: makes the block resident and most recently used,
    /// charging a miss exactly as [`Self::pin`] does.
    ///
    /// # Panics
    /// Panics if the fetch behind a miss fails; callers that must survive
    /// a read fault use [`Self::pin`].
    pub fn touch(&self, column: &Column, block_idx: usize) {
        self.pin(column, block_idx)
            .expect("fetch behind a touch miss failed");
    }

    /// Evicts least-recently-used blocks until the pool is back under
    /// budget, never evicting `protect` (the block just admitted).
    ///
    /// Victim selection reads the per-stripe oldest-tick mirrors lock-free,
    /// then locks **only the stripe holding the globally oldest block** and
    /// pops its list head — one stripe-lock acquisition per evicted block
    /// on the common path (counted in
    /// [`Self::eviction_lock_acquisitions`]), never two stripe locks at
    /// once, and never a scan of the pool.
    ///
    /// Under concurrency `protect` may well be the globally oldest block
    /// (other threads drew newer ticks while this miss was in flight); its
    /// stripe then yields its second-oldest entry instead, and a stripe
    /// holding *nothing but* `protect` is skipped for the rest of the
    /// round. When nothing but `protect` is left anywhere, an over-sized
    /// block simply stays resident, exactly like the historical
    /// single-block pool behaviour.
    fn evict_lru(&self, protect: (ColumnId, u32)) {
        'pool: while self.resident_bytes.load(Ordering::Relaxed) > self.capacity_bytes {
            // Stripes that turned out to hold nothing evictable this round
            // (raced empty, or hold only the protected block).
            let mut banned = [false; NUM_STRIPES];
            loop {
                let mut best: Option<(u64, usize)> = None;
                for (si, oldest) in self.oldest.iter().enumerate() {
                    if banned[si] {
                        continue;
                    }
                    let t = oldest.load(Ordering::Relaxed);
                    if t != u64::MAX && best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, si));
                    }
                }
                let Some((_, si)) = best else { break 'pool };
                self.eviction_locks.fetch_add(1, Ordering::Relaxed);
                let mut st = self.stripes[si].lock();
                let Some(slot) = st.oldest_excluding(protect) else {
                    banned[si] = true;
                    continue;
                };
                let (victim, vbytes) = st.remove_slot(slot);
                self.oldest[si].store(st.oldest_tick(), Ordering::Relaxed);
                self.resident_bytes.fetch_sub(vbytes, Ordering::Relaxed);
                // Free the victim (if unpinned) outside the stripe lock.
                drop(st);
                drop(victim);
                break;
            }
        }
    }

    /// Pre-loads every block of `column`, charging I/O once per block.
    /// Used to warm the pool for hot-data experiments.
    pub fn warm(&self, column: &Column) {
        for i in 0..column.block_count() {
            self.touch(column, i);
        }
    }

    /// Drops all residency (the start of a cold run) without resetting
    /// accumulated statistics. The pool's block references go with it, so
    /// the next run re-reads disk-backed blocks from the segment file.
    pub fn evict_all(&self) {
        let mut stripes: Vec<MutexGuard<'_, Stripe>> =
            self.stripes.iter().map(|s| s.lock()).collect();
        for (si, st) in stripes.iter_mut().enumerate() {
            **st = Stripe::default();
            self.oldest[si].store(u64::MAX, Ordering::Relaxed);
        }
        self.resident_bytes.store(0, Ordering::Relaxed);
    }

    /// Accumulated I/O statistics.
    ///
    /// Lock-free; under concurrent traffic the three fields are read
    /// independently, so a snapshot may straddle an in-flight miss (e.g.
    /// its read counted but its bytes not yet). Quiescent reads are exact.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.stat_reads.load(Ordering::Relaxed),
            bytes: self.stat_bytes.load(Ordering::Relaxed),
            sim_time: Duration::from_nanos(self.stat_sim_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Resets accumulated statistics (between experimental runs). Safe to
    /// call while queries are in flight: counters restart from zero, and
    /// readers computing deltas against a pre-reset snapshot must saturate
    /// ([`IoStats::delta_since`]) rather than underflow.
    pub fn reset_stats(&self) {
        self.stat_reads.store(0, Ordering::Relaxed);
        self.stat_bytes.store(0, Ordering::Relaxed);
        self.stat_sim_nanos.store(0, Ordering::Relaxed);
    }

    /// Number of currently resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().resident.len()).sum()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Whether a specific block is resident (test hook).
    pub fn is_resident(&self, column: &Column, block_idx: usize) -> bool {
        let key = block_key(column, block_idx);
        self.stripes[stripe_of(&key)]
            .lock()
            .resident
            .contains_key(&key)
    }

    /// Number of stripe-lock acquisitions made by the eviction path (test
    /// hook). The common case is exactly one per evicted block; retries (a
    /// stripe raced empty, or held only the protected block) add one each.
    pub fn eviction_lock_acquisitions(&self) -> u64 {
        self.eviction_locks.load(Ordering::Relaxed)
    }

    /// Internal-consistency check (test hook): the lock-free byte total
    /// must equal the sum of per-stripe byte counts; each stripe's recency
    /// list must agree with its residency map (same membership, ticks
    /// nondecreasing head→tail) and with its published oldest-tick mirror.
    /// Exact at quiescence; takes every stripe lock.
    pub fn assert_consistent(&self) {
        let stripes: Vec<MutexGuard<'_, Stripe>> = self.stripes.iter().map(|s| s.lock()).collect();
        let mut total = 0usize;
        for (i, st) in stripes.iter().enumerate() {
            let sum: usize = st
                .resident
                .values()
                .map(|&slot| st.slots[slot as usize].bytes)
                .sum();
            assert_eq!(st.bytes, sum, "stripe {i} byte count drifted");
            let mut walked = 0usize;
            let mut cur = st.head;
            let mut last_tick = 0u64;
            while cur != NIL {
                let slot = &st.slots[cur as usize];
                assert_eq!(
                    st.resident.get(&slot.key),
                    Some(&cur),
                    "stripe {i} recency list disagrees with residency map"
                );
                assert!(slot.tick >= last_tick, "stripe {i} recency order broken");
                last_tick = slot.tick;
                walked += 1;
                cur = slot.next;
            }
            assert_eq!(walked, st.resident.len(), "stripe {i} list length drifted");
            assert_eq!(
                self.oldest[i].load(Ordering::Relaxed),
                st.oldest_tick(),
                "stripe {i} oldest-tick mirror drifted"
            );
            total += st.bytes;
        }
        assert_eq!(
            self.resident_bytes.load(Ordering::Relaxed),
            total,
            "pool byte total drifted from stripe sum"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use x100_compress::Codec;

    fn column(n: usize, block: usize) -> Column {
        let values: Vec<u32> = (0..n as u32).collect();
        let mut b = crate::column::ColumnBuilder::with_block_size(
            "c",
            Codec::PforDelta { width: 8 },
            block,
        );
        b.extend(&values);
        b.finish()
    }

    #[test]
    fn first_touch_charges_io_second_does_not() {
        let col = column(1024, 256);
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        bm.touch(&col, 0);
        let after_first = bm.stats();
        assert_eq!(after_first.reads, 1);
        bm.touch(&col, 0);
        assert_eq!(bm.stats(), after_first, "hit must be free");
    }

    #[test]
    fn evict_all_makes_next_touch_cold() {
        let col = column(1024, 256);
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        bm.touch(&col, 1);
        bm.evict_all();
        bm.touch(&col, 1);
        assert_eq!(bm.stats().reads, 2);
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        let col = column(4096, 256); // 16 blocks
        let one_block = col.block(0).compressed_bytes();
        // Budget for ~2 blocks.
        let bm = BufferManager::new(DiskModel::raid12(), one_block * 2 + 8);
        bm.touch(&col, 0);
        bm.touch(&col, 1);
        bm.touch(&col, 2); // evicts block 0
        assert!(!bm.is_resident(&col, 0));
        assert!(bm.is_resident(&col, 2));
        // Re-touching block 0 is a miss again.
        let reads_before = bm.stats().reads;
        bm.touch(&col, 0);
        assert_eq!(bm.stats().reads, reads_before + 1);
    }

    #[test]
    fn lru_respects_recency() {
        let col = column(4096, 256);
        let one_block = col.block(0).compressed_bytes();
        let bm = BufferManager::new(DiskModel::raid12(), one_block * 2 + 8);
        bm.touch(&col, 0);
        bm.touch(&col, 1);
        bm.touch(&col, 0); // refresh 0; now 1 is LRU
        bm.touch(&col, 2); // should evict 1, not 0
        assert!(bm.is_resident(&col, 0));
        assert!(!bm.is_resident(&col, 1));
    }

    /// Satellite regression: eviction must not scan the pool. Each evicted
    /// block costs exactly one stripe-lock acquisition on the eviction
    /// path — the victim's stripe, found via the lock-free oldest-tick
    /// mirrors — and staying under budget costs none.
    #[test]
    fn eviction_locks_only_the_victims_stripe() {
        let col = column(4096, 256); // 16 blocks
        let one_block = col.block(0).compressed_bytes();
        let bm = BufferManager::new(DiskModel::raid12(), one_block * 2 + 8);
        bm.touch(&col, 0);
        bm.touch(&col, 1);
        assert_eq!(
            bm.eviction_lock_acquisitions(),
            0,
            "under budget, the eviction path must take no locks at all"
        );
        // Every further admission evicts exactly one block; single-threaded
        // the just-admitted block is never the oldest, so each eviction
        // resolves on its first (and only) stripe lock.
        for b in 2..col.block_count() {
            let before = bm.eviction_lock_acquisitions();
            bm.touch(&col, b);
            assert_eq!(
                bm.eviction_lock_acquisitions(),
                before + 1,
                "evicting for block {b} touched more than the victim's stripe"
            );
            assert!(
                !bm.is_resident(&col, b - 2),
                "block {} must be the LRU victim",
                b - 2
            );
        }
        bm.assert_consistent();
    }

    #[test]
    fn warm_loads_every_block() {
        let col = column(1024, 128);
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        bm.warm(&col);
        assert_eq!(bm.resident_blocks(), col.block_count());
        assert_eq!(bm.stats().reads as usize, col.block_count());
    }

    #[test]
    fn compressed_blocks_cost_less_io_time() {
        let values: Vec<u32> = (0..100_000u32).collect();
        let raw = Column::from_values("raw", Codec::Raw, &values);
        let pfd = Column::from_values("pfd", Codec::PforDelta { width: 8 }, &values);
        let bm_raw = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        let bm_pfd = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        bm_raw.warm(&raw);
        bm_pfd.warm(&pfd);
        assert!(
            bm_pfd.stats().sim_time < bm_raw.stats().sim_time,
            "compression must reduce simulated I/O time"
        );
    }

    #[test]
    fn reset_stats_clears_counters() {
        let col = column(256, 128);
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        bm.touch(&col, 0);
        bm.reset_stats();
        assert_eq!(bm.stats(), IoStats::default());
        // Residency survives a stats reset.
        assert!(bm.is_resident(&col, 0));
    }

    #[test]
    fn single_threaded_behaviour_consistent_across_many_columns() {
        // Blocks from several columns land in different stripes; the
        // observable accounting must still be the single-pool one.
        let cols: Vec<Column> = (0..8).map(|_| column(2048, 256)).collect();
        let bm = BufferManager::with_mode(DiskModel::raid12(), BufferMode::Hot, 0);
        for c in &cols {
            bm.warm(c);
        }
        let blocks: usize = cols.iter().map(Column::block_count).sum();
        assert_eq!(bm.resident_blocks(), blocks);
        assert_eq!(bm.stats().reads as usize, blocks);
        bm.assert_consistent();
        // Re-warms are all hits.
        for c in &cols {
            bm.warm(c);
        }
        assert_eq!(bm.stats().reads as usize, blocks);
    }

    /// Satellite stress test (loom-free): many threads hammer `touch`,
    /// `warm`, `evict_all` and `stats` on one pool under real capacity
    /// pressure. At quiescence the byte accounting must be internally
    /// consistent and back under the budget, and nothing may panic.
    #[test]
    fn concurrent_stress_under_capacity_pressure() {
        let cols: Vec<Column> = (0..6).map(|_| column(4096, 256)).collect();
        let one_block = cols[0].block(0).compressed_bytes();
        // Room for ~5 blocks while 6 columns × 16 blocks fight for it.
        let bm = Arc::new(BufferManager::new(DiskModel::raid12(), one_block * 5 + 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let bm = &bm;
                let cols = &cols;
                s.spawn(move || {
                    for round in 0..60 {
                        let c = &cols[(t + round) % cols.len()];
                        for b in 0..c.block_count() {
                            bm.touch(c, (b + t) % c.block_count());
                        }
                        if round % 13 == 5 && t == 0 {
                            bm.evict_all();
                        }
                        if round % 7 == 0 {
                            // Reading stats mid-flight must never panic.
                            let st = bm.stats();
                            assert!(st.bytes >= st.reads, "blocks are >1 byte");
                        }
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..40 {
                    let _ = bm.resident_blocks();
                    let _ = bm.resident_bytes();
                    std::thread::yield_now();
                }
            });
        });
        bm.assert_consistent();
        assert!(
            bm.resident_bytes() <= one_block * 5 + 8,
            "pool settled over budget: {} > {}",
            bm.resident_bytes(),
            one_block * 5 + 8
        );
        assert!(bm.resident_blocks() >= 1);
    }

    /// Satellite regression: `reset_stats` racing in-flight misses must
    /// never underflow or panic — counters only ever move forward from the
    /// reset point, and delta readers saturate.
    #[test]
    fn concurrent_reset_stats_never_underflows() {
        let col = column(4096, 256);
        let bm = Arc::new(BufferManager::with_mode(
            DiskModel::raid12(),
            BufferMode::Hot,
            0,
        ));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let bm = &bm;
                let col = &col;
                s.spawn(move || {
                    for _ in 0..50 {
                        let before = bm.stats();
                        bm.evict_all();
                        bm.warm(col);
                        // Saturating delta: fine even if another thread
                        // reset the counters between the two snapshots.
                        let delta = bm.stats().delta_since(&before);
                        assert!(delta.reads <= 16 * 50 * 3);
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..200 {
                    bm.reset_stats();
                    std::thread::yield_now();
                }
            });
        });
        let final_stats = bm.stats();
        // Sanity: counters are small and coherent, not wrapped-around huge.
        assert!(final_stats.reads < 1_000_000);
        assert!(final_stats.bytes < u64::MAX / 2);
    }
}
