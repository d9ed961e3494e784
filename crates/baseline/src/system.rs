//! The end-to-end CIDR-extended baseline system (paper §2.3, Figure 2).
//!
//! Write path: client data is DMAed NIC → host memory, the software
//! unique-chunk predictor scans the buffer, the batch scheduler ships
//! *all* chunks host → FPGA, the FPGA hashes everything and compresses the
//! predicted uniques, results bounce back to host memory, the software
//! table-cache (B+ tree indexed, CPU driven) validates the predictions,
//! and validated compressed uniques are staged in host memory into 4-MB
//! containers written to the data SSDs. Every hop bounces through host
//! DRAM — which is exactly the bottleneck Figures 4 and 5 expose.

use crate::predictor::{PredictorStats, UniquePredictor};
use bytes::Bytes;
use fidr_cache::{BPlusTree, CacheStats, ShardedTableCache};
use fidr_chunk::{Lba, Pba, Pbn};
use fidr_compress::{CompressedChunk, Encoding};
use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
use fidr_hash::Fingerprint;
use fidr_hwsim::{ops, CostParams, CpuTask, Ledger, MemPath, PcieLink, TimeModel};
use fidr_metrics::{Histogram, MetricsSnapshot};
use fidr_pool::WorkerPool;
use fidr_ssd::{DataSsdArray, QueueLocation, TableSsd};
use fidr_tables::{
    BucketInsertError, ContainerBuilder, ContainerLiveness, GcReport, HashPbnStore, LbaPbaTable,
    PbnLocation, ReductionStats, Snapshot, BUCKET_BYTES,
};
use fidr_trace::{SpanToken, TraceConfig, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Configuration of a baseline instance.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Host-DRAM table-cache capacity in 4-KB lines.
    pub cache_lines: usize,
    /// Buckets in the Hash-PBN table on the table SSDs.
    pub table_buckets: u64,
    /// Container flush threshold in bytes.
    pub container_threshold: usize,
    /// Predictor Bloom-filter size in bits.
    pub predictor_bits: usize,
    /// Data SSDs in the array.
    pub data_ssds: u32,
    /// Calibrated per-operation costs.
    pub cost: CostParams,
    /// Seeded fault schedule for the device models (inert by default).
    pub faults: FaultPlan,
    /// Bounded-retry policy for device faults and checksum re-reads.
    pub retry: RetryPolicy,
    /// Per-request span tracing (disabled by default).
    pub trace: TraceConfig,
    /// Worker threads for [`write_batch`](BaselineSystem::write_batch)'s
    /// hash + compression precompute. Commits stay in submission order,
    /// so modelled metrics are byte-identical for any worker count.
    pub workers: usize,
    /// Independent hash-prefix shards of the table cache (1 reproduces
    /// the unsharded cache exactly).
    pub cache_shards: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            cache_lines: 4096,
            table_buckets: 1 << 17,
            container_threshold: 4 << 20,
            predictor_bits: 1 << 22,
            data_ssds: 2,
            cost: CostParams::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            trace: TraceConfig::default(),
            workers: 1,
            cache_shards: 1,
        }
    }
}

/// Errors surfaced by the baseline system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A write chunk was not exactly 4 KB.
    BadChunkSize(usize),
    /// The Hash-PBN bucket for this fingerprint is full.
    TableFull,
    /// Read of an address that was never written.
    NotMapped(Lba),
    /// The data SSDs returned an unreadable region.
    Corrupt(String),
    /// A device IO failed even after the bounded retry budget.
    Io(String),
}

impl SystemError {
    /// Stable metric-name slug for per-error-kind counters.
    pub fn kind(&self) -> &'static str {
        match self {
            SystemError::BadChunkSize(_) => "bad_chunk_size",
            SystemError::TableFull => "table_full",
            SystemError::NotMapped(_) => "not_mapped",
            SystemError::Corrupt(_) => "corrupt",
            SystemError::Io(_) => "io",
        }
    }
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::BadChunkSize(n) => write!(f, "chunk of {n} bytes; expected 4096"),
            SystemError::TableFull => write!(f, "hash-PBN bucket full; grow the table"),
            SystemError::NotMapped(lba) => write!(f, "read of unmapped {lba}"),
            SystemError::Corrupt(e) => write!(f, "data SSD corruption: {e}"),
            SystemError::Io(e) => write!(f, "device IO failed past retry budget: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// The baseline data-reduction server.
///
/// # Examples
///
/// ```
/// use fidr_baseline::{BaselineConfig, BaselineSystem};
/// use fidr_chunk::Lba;
/// use bytes::Bytes;
///
/// let mut sys = BaselineSystem::new(BaselineConfig::default());
/// let data = Bytes::from(vec![7u8; 4096]);
/// sys.write(Lba(1), data.clone())?;
/// assert_eq!(sys.read(Lba(1))?, data.to_vec());
/// # Ok::<(), fidr_baseline::SystemError>(())
/// ```
#[derive(Debug)]
pub struct BaselineSystem {
    cfg: BaselineConfig,
    predictor: UniquePredictor,
    cache: ShardedTableCache<BPlusTree>,
    table_ssd: TableSsd,
    data_ssd: DataSsdArray,
    lba_map: LbaPbaTable,
    builder: ContainerBuilder,
    /// Raw chunk data of the still-open container, readable before seal
    /// (staged in host memory, as the baseline builds containers there).
    staging: HashMap<u32, Vec<u8>>,
    next_pbn: u64,
    next_container: u64,
    /// Fingerprint of each live unique chunk (for Hash-PBN deletion).
    pbn_fp: HashMap<Pbn, Fingerprint>,
    /// PBNs ever appended to each container.
    container_pbns: HashMap<u64, Vec<Pbn>>,
    liveness: ContainerLiveness,
    /// PBNs awaiting collection.
    dead: Vec<Pbn>,
    ledger: Ledger,
    stats: ReductionStats,
    /// Wall-clock time per FPGA chunk compression.
    compress_ns: Histogram,
    /// Compressed size as a percentage of the original (0–100).
    compress_pct: Histogram,
    /// Chunks that compressed via LZSS.
    compress_lzss_chunks: u64,
    /// Chunks stored raw because compression did not help.
    compress_raw_chunks: u64,
    /// End-to-end wall-clock time per client write (all outcomes).
    write_ns: Histogram,
    /// End-to-end wall-clock time per client read (all outcomes).
    read_ns: Histogram,
    /// End-to-end wall-clock time per client delete (all outcomes).
    delete_ns: Histogram,
    /// Client deletes acknowledged (the LBA was mapped; it no longer is).
    deletes_acked: u64,
    /// Garbage-collection passes run over this system's lifetime.
    gc_runs: u64,
    /// Cumulative outcome of every collection pass (for `gc.*` metrics).
    gc_total: GcReport,
    /// Shared fault injector armed into the device models.
    faults: FaultInjector,
    /// Client-write failures by [`SystemError::kind`].
    write_errors: HashMap<&'static str, u64>,
    /// Client-read failures by [`SystemError::kind`].
    read_errors: HashMap<&'static str, u64>,
    /// Client-delete failures by [`SystemError::kind`].
    delete_errors: HashMap<&'static str, u64>,
    /// Modelled (not slept) backoff spent re-reading mismatched chunks.
    recovery_backoff_ns: Histogram,
    /// Checksum mismatches detected on the read path.
    read_repair_detected: u64,
    /// Re-reads issued to heal checksum mismatches.
    read_repair_rereads: u64,
    /// Mismatches healed by a re-read.
    read_repair_repaired: u64,
    /// Mismatches that persisted past the retry budget.
    read_repair_unrecovered: u64,
    /// Container seals that failed past the device retry budget.
    seal_failures: u64,
    /// Per-request span tracer stamped with modelled time.
    tracer: Tracer,
    /// Modelled service times backing span durations.
    time: TimeModel,
    /// Persistent worker pool for batched-write preparation (present
    /// only when `cfg.workers` > 1 with an inert fault plan).
    pool: Option<WorkerPool>,
}

impl BaselineSystem {
    /// Builds a baseline server from `cfg`.
    pub fn new(cfg: BaselineConfig) -> Self {
        let faults = FaultInjector::new(cfg.faults);
        let mut table_ssd = TableSsd::new(cfg.table_buckets, QueueLocation::HostMemory);
        table_ssd.set_fault_injector(faults.clone(), cfg.retry);
        let mut data_ssd = DataSsdArray::new(cfg.data_ssds);
        data_ssd.set_fault_injector(faults.clone(), cfg.retry);
        // One persistent pool for the life of the system, not a thread
        // spawn per batch. Armed fault plans force the serial path.
        let pool = if cfg.workers > 1 && cfg.faults.is_inert() {
            Some(WorkerPool::new(cfg.workers))
        } else {
            None
        };
        BaselineSystem {
            predictor: UniquePredictor::new(cfg.predictor_bits),
            cache: ShardedTableCache::new(cfg.cache_shards.max(1), cfg.cache_lines, |_| {
                BPlusTree::new()
            }),
            table_ssd,
            data_ssd,
            lba_map: LbaPbaTable::new(),
            builder: ContainerBuilder::new(0, cfg.container_threshold),
            staging: HashMap::new(),
            next_pbn: 0,
            next_container: 0,
            pbn_fp: HashMap::new(),
            container_pbns: HashMap::new(),
            liveness: ContainerLiveness::new(),
            dead: Vec::new(),
            ledger: Ledger::new(),
            stats: ReductionStats::default(),
            compress_ns: Histogram::new(),
            compress_pct: Histogram::new(),
            compress_lzss_chunks: 0,
            compress_raw_chunks: 0,
            write_ns: Histogram::new(),
            read_ns: Histogram::new(),
            delete_ns: Histogram::new(),
            deletes_acked: 0,
            gc_runs: 0,
            gc_total: GcReport::default(),
            faults,
            write_errors: HashMap::new(),
            read_errors: HashMap::new(),
            delete_errors: HashMap::new(),
            recovery_backoff_ns: Histogram::new(),
            read_repair_detected: 0,
            read_repair_rereads: 0,
            read_repair_repaired: 0,
            read_repair_unrecovered: 0,
            seal_failures: 0,
            tracer: Tracer::new(cfg.trace),
            time: TimeModel::default(),
            pool,
            cfg,
        }
    }

    /// Span tracer (spans, drop counters, critical-path report).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Advances the tracer clock by the host time accrued since `mark`
    /// (a prior `self.time.host_ns(&self.ledger)` snapshot) and returns
    /// the new scalar for chained stages.
    fn advance_host(&mut self, mark: u64) -> u64 {
        let now = self.time.host_ns(&self.ledger);
        self.tracer.advance(now.saturating_sub(mark));
        now
    }

    /// Closes a `cache` span: emits a `table_ssd` child for any bucket IO
    /// the lookup triggered (delta against `table_bytes_mark`), folds in
    /// the host time accrued since `host_mark`, and returns the refreshed
    /// host-time mark.
    fn finish_cache_span(&mut self, span: SpanToken, host_mark: u64, table_bytes_mark: u64) -> u64 {
        if !self.tracer.is_enabled() {
            return host_mark;
        }
        let table_bytes = (self.ledger.table_ssd_read_bytes + self.ledger.table_ssd_write_bytes)
            .saturating_sub(table_bytes_mark);
        if table_bytes > 0 {
            let ios = table_bytes.div_ceil(BUCKET_BYTES as u64);
            let io = self.tracer.begin("table_ssd");
            self.tracer.attr(io, "bytes", table_bytes);
            self.tracer.attr(io, "ios", ios);
            self.tracer
                .advance(self.time.table_ssd_ns(table_bytes, ios));
            self.tracer.end(io);
        }
        let mark = self.advance_host(host_mark);
        self.tracer.end(span);
        mark
    }

    /// Resource ledger accumulated so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Data-reduction outcomes so far.
    pub fn stats(&self) -> ReductionStats {
        self.stats
    }

    /// Table-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Predictor accuracy counters.
    pub fn predictor_stats(&self) -> PredictorStats {
        self.predictor.stats()
    }

    /// Bytes stored on the data SSDs so far (sealed containers).
    pub fn stored_bytes(&self) -> u64 {
        self.data_ssd.stored_bytes()
    }

    /// Handles one 4-KB client write (Figure 2a).
    ///
    /// # Errors
    ///
    /// [`SystemError::BadChunkSize`] for non-4-KB chunks and
    /// [`SystemError::TableFull`] on Hash-PBN bucket overflow.
    pub fn write(&mut self, lba: Lba, data: Bytes) -> Result<(), SystemError> {
        self.write_prepared(lba, data, None)
    }

    /// Handles a batch of 4-KB client writes. With
    /// [`BaselineConfig::workers`] > 1 (and an inert fault plan — armed
    /// faults key off global device-call order) the batch SHA-256
    /// hashing and speculative LZSS compression of every chunk
    /// precompute on the persistent worker pool; each write then commits
    /// on this thread in submission order, recording stats at exactly
    /// the sites the serial path would, so modelled metrics stay
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Stops at the first failing write and returns its error.
    pub fn write_batch(&mut self, writes: Vec<(Lba, Bytes)>) -> Result<(), SystemError> {
        let workers = if self.cfg.faults.is_inert() {
            self.cfg.workers.max(1)
        } else {
            1
        };
        let (Some(pool), true) = (self.pool.as_ref(), workers > 1 && writes.len() >= 2) else {
            for (lba, data) in writes {
                self.write(lba, data)?;
            }
            return Ok(());
        };
        let mut prepared = prepare_writes(&writes, workers, pool);
        for (i, (lba, data)) in writes.into_iter().enumerate() {
            self.write_prepared(lba, data, prepared[i].take())?;
        }
        Ok(())
    }

    fn write_prepared(
        &mut self,
        lba: Lba,
        data: Bytes,
        pre: Option<PreparedWrite>,
    ) -> Result<(), SystemError> {
        let started = Instant::now();
        let op = self.tracer.begin("write");
        self.tracer.attr(op, "lba", lba.0);
        let out = self.write_inner(lba, data, op, pre);
        if let Err(e) = &out {
            self.tracer.attr(op, "error", e.kind());
        }
        self.tracer.end(op);
        self.write_ns.record_duration(started.elapsed());
        if let Err(e) = &out {
            *self.write_errors.entry(e.kind()).or_insert(0) += 1;
        }
        out
    }

    fn write_inner(
        &mut self,
        lba: Lba,
        data: Bytes,
        op: SpanToken,
        mut pre: Option<PreparedWrite>,
    ) -> Result<(), SystemError> {
        if data.len() != BUCKET_BYTES {
            return Err(SystemError::BadChunkSize(data.len()));
        }
        let len = data.len() as u64;
        let cost = self.cfg.cost;
        self.ledger.add_client_write_bytes(len);
        self.stats.write_chunks += 1;
        self.stats.raw_bytes += len;

        let traced = self.tracer.is_enabled();
        let mut mark = if traced {
            self.time.host_ns(&self.ledger)
        } else {
            0
        };

        // 1. NIC DMAs the request into a host-memory buffer.
        let nic_span = self.tracer.begin("nic");
        ops::dma_to_host(
            &mut self.ledger,
            PcieLink::NicHost,
            MemPath::NicBuffering,
            len,
        );
        self.ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        if traced {
            mark = self.advance_host(mark);
        }
        self.tracer.end(nic_span);

        // 2. The unique-chunk predictor scans the buffered data.
        let predict_span = self.tracer.begin("predict");
        ops::cpu_touch(&mut self.ledger, MemPath::UniquePrediction, len);
        self.ledger
            .charge_cpu(CpuTask::UniquePrediction, cost.predictor_cycles_per_chunk);
        let predicted_unique = self.predictor.predict_unique(&data);
        if traced {
            mark = self.advance_host(mark);
        }
        self.tracer
            .attr(predict_span, "predicted_unique", predicted_unique);
        self.tracer.end(predict_span);

        // 3. Batch scheduling groups chunks for the FPGA.
        let hash_span = self.tracer.begin("hash");
        self.ledger
            .charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);

        // 4. Every chunk crosses host memory → FPGA.
        ops::dma_from_host(
            &mut self.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            len,
        );

        // FPGA work: hash everything; compress the predicted uniques.
        // A precomputed batch entry already holds both results.
        let fingerprint = match &pre {
            Some(p) => p.fingerprint,
            None => Fingerprint::of(&data),
        };
        self.tracer.advance(self.time.hash_ns(len, 1));
        if traced {
            mark = self.advance_host(mark);
        }
        self.tracer.end(hash_span);
        let mut compressed = if predicted_unique {
            let spec = pre.as_mut().and_then(|p| p.compressed.take());
            Some(self.compress_chunk_with(&data, spec))
        } else {
            None
        };

        // 5. Hashes (and compressed uniques) come back to host memory.
        let returned = 32 + compressed.as_ref().map_or(0, |c| c.stored_len() as u64);
        ops::dma_to_host(
            &mut self.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            returned,
        );

        // 6. Software table-cache lookup validates the prediction.
        if traced {
            mark = self.advance_host(mark);
        }
        let cache_span = self.tracer.begin("cache");
        let table_bytes_mark = self.ledger.table_ssd_read_bytes + self.ledger.table_ssd_write_bytes;
        let (existing, line) = match self.table_lookup(fingerprint) {
            Ok(out) => out,
            Err(e) => {
                self.finish_cache_span(cache_span, mark, table_bytes_mark);
                return Err(e);
            }
        };
        mark = self.finish_cache_span(cache_span, mark, table_bytes_mark);
        let actually_unique = existing.is_none();
        self.predictor.validate(predicted_unique, actually_unique);
        self.tracer.attr(op, "dedup_hit", !actually_unique);

        let pbn = if let Some(pbn) = existing {
            self.stats.duplicate_chunks += 1;
            // A mispredicted "unique" wasted the compression work and the
            // PCIe/memory round trip already charged above.
            pbn
        } else {
            self.stats.unique_chunks += 1;
            let chunk = match compressed.take() {
                Some(c) => c,
                None => {
                    // Misprediction: a second FPGA round trip compresses
                    // the chunk the predictor wrongly called a duplicate.
                    ops::dma_from_host(
                        &mut self.ledger,
                        PcieLink::HostCompression,
                        MemPath::FpgaStaging,
                        len,
                    );
                    self.ledger
                        .charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);
                    let spec = pre.as_mut().and_then(|p| p.compressed.take());
                    let c = self.compress_chunk_with(&data, spec);
                    ops::dma_to_host(
                        &mut self.ledger,
                        PcieLink::HostCompression,
                        MemPath::FpgaStaging,
                        c.stored_len() as u64,
                    );
                    c
                }
            };
            self.predictor.observe(&data);
            let pbn = Pbn(self.next_pbn);
            self.next_pbn += 1;

            // Insert the new entry into the cached bucket (dirty line).
            self.cache
                .bucket_mut(line)
                .insert(fingerprint, pbn)
                .map_err(|e| match e {
                    BucketInsertError::Full => SystemError::TableFull,
                    // Duplicates are screened by the lookup above and PBNs
                    // are allocated sequentially far below the 6-byte
                    // ceiling, so anything else is state corruption.
                    other => SystemError::Corrupt(other.to_string()),
                })?;
            self.ledger
                .charge_cpu(CpuTask::TreeIndexing, self.cfg.cost.tree_update_cycles);

            // Stage the compressed chunk into the open container.
            self.stats.stored_bytes += chunk.stored_len() as u64;
            let slot = self.builder.append(&chunk);
            self.staging.insert(slot.offset, data.to_vec());
            self.lba_map.record_pbn(
                pbn,
                PbnLocation {
                    container: self.builder.id(),
                    offset: slot.offset,
                    compressed_len: slot.compressed_len,
                },
            );
            self.pbn_fp.insert(pbn, fingerprint);
            self.container_pbns
                .entry(self.builder.id())
                .or_default()
                .push(pbn);
            self.liveness.record_append(self.builder.id());
            if self.builder.is_full() {
                self.seal_container()?;
            }
            pbn
        };

        self.map_lba(lba, pbn);
        self.ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        self.ledger
            .charge_cpu(CpuTask::Other, cost.misc_cycles_per_chunk);
        if traced {
            self.advance_host(mark);
        }
        Ok(())
    }

    /// Points `lba` at `pbn`, queueing orphaned chunks for collection and
    /// resurrecting dead-but-uncollected chunks a duplicate re-references.
    fn map_lba(&mut self, lba: Lba, pbn: Pbn) {
        let resurrecting = self.lba_map.refcount(pbn) == 0 && self.dead.contains(&pbn);
        if resurrecting {
            let loc = self
                .lba_map
                .location(pbn)
                .expect("queued dead PBN is located");
            self.liveness.record_revive(loc.container);
            self.dead.retain(|&d| d != pbn);
        }
        if let Some(dead) = self.lba_map.map_write(lba, pbn) {
            if let Some(loc) = self.lba_map.location(dead) {
                self.liveness.record_dead(loc.container);
            }
            self.dead.push(dead);
        }
    }

    /// Deletes one 4-KB client block: unmaps the LBA, releases its
    /// reference on the shared chunk, and — when that was the last
    /// reference — queues the chunk for the next
    /// [`collect_garbage`](BaselineSystem::collect_garbage) pass. The
    /// chunk stays readable through other LBAs that still reference it.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotMapped`] if the LBA holds no current mapping.
    pub fn delete(&mut self, lba: Lba) -> Result<(), SystemError> {
        let started = Instant::now();
        let op = self.tracer.begin("delete");
        self.tracer.attr(op, "lba", lba.0);
        let out = self.delete_inner(lba);
        if let Err(e) = &out {
            self.tracer.attr(op, "error", e.kind());
        }
        self.tracer.end(op);
        self.delete_ns.record_duration(started.elapsed());
        if let Err(e) = &out {
            *self.delete_errors.entry(e.kind()).or_insert(0) += 1;
        }
        out
    }

    fn delete_inner(&mut self, lba: Lba) -> Result<(), SystemError> {
        let cost = self.cfg.cost;
        self.ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        self.ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        let pbn = self.lba_map.unmap(lba).ok_or(SystemError::NotMapped(lba))?;
        if self.lba_map.refcount(pbn) == 0 {
            if let Some(loc) = self.lba_map.location(pbn) {
                self.liveness.record_dead(loc.container);
            }
            self.dead.push(pbn);
        }
        self.deletes_acked += 1;
        Ok(())
    }

    /// Garbage collection for the baseline: the same two phases as FIDR's
    /// collector, but every survivor rewrite bounces through host memory
    /// (SSD → host → FPGA → host → SSD) under CPU control — GC pressure is
    /// part of why the host-centric design scales poorly.
    ///
    /// # Errors
    ///
    /// Propagates data-SSD decode failures.
    pub fn collect_garbage(&mut self, live_threshold: f64) -> Result<GcReport, SystemError> {
        let cost = self.cfg.cost;
        let mut report = GcReport::default();

        for pbn in std::mem::take(&mut self.dead) {
            if self.lba_map.refcount(pbn) > 0 {
                continue;
            }
            let fp = self
                .pbn_fp
                .remove(&pbn)
                .expect("dead PBN has a fingerprint on record");
            self.lba_map.reclaim(pbn);
            let (_, line) = self.table_lookup(fp)?;
            self.cache.bucket_mut(line).remove(&fp);
            self.ledger
                .charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);
            report.reclaimed_pbns += 1;
        }

        for container in self.liveness.sparse_containers(live_threshold) {
            if container == self.builder.id() {
                continue;
            }
            let pbns = self.container_pbns.remove(&container).unwrap_or_default();
            for pbn in pbns {
                if self.lba_map.refcount(pbn) == 0 {
                    continue;
                }
                let loc = self.lba_map.location(pbn).expect("live PBN located");
                if loc.container != container {
                    continue;
                }
                let data = self.fetch_chunk_verified(
                    Some(pbn),
                    Pba {
                        container: loc.container,
                        offset: loc.offset,
                        compressed_len: loc.compressed_len,
                    },
                )?;
                let io_bytes = loc.compressed_len as u64 + 4;
                // SSD → host memory, host → FPGA for recompression, back.
                ops::dma_to_host(
                    &mut self.ledger,
                    PcieLink::HostDataSsd,
                    MemPath::DataSsdStaging,
                    io_bytes,
                );
                self.ledger
                    .charge_cpu(CpuTask::DataSsdStack, cost.data_ssd_io_cycles);
                self.ledger.data_ssd_read_bytes += io_bytes;
                ops::dma_from_host(
                    &mut self.ledger,
                    PcieLink::HostCompression,
                    MemPath::FpgaStaging,
                    data.len() as u64,
                );
                let compressed = self.compress_chunk(&data);
                ops::dma_to_host(
                    &mut self.ledger,
                    PcieLink::HostCompression,
                    MemPath::FpgaStaging,
                    compressed.stored_len() as u64,
                );
                report.copied_bytes += compressed.stored_len() as u64;

                let slot = self.builder.append(&compressed);
                self.staging.insert(slot.offset, data);
                self.lba_map.relocate(
                    pbn,
                    PbnLocation {
                        container: self.builder.id(),
                        offset: slot.offset,
                        compressed_len: slot.compressed_len,
                    },
                );
                self.container_pbns
                    .entry(self.builder.id())
                    .or_default()
                    .push(pbn);
                self.liveness.record_append(self.builder.id());
                report.moved_chunks += 1;
                if self.builder.is_full() {
                    self.seal_container()?;
                }
            }
            if let Some(freed) = self.data_ssd.remove_container(container) {
                report.freed_bytes += freed;
            }
            self.liveness.remove(container);
            report.compacted_containers += 1;
        }
        self.gc_runs += 1;
        self.gc_total.absorb(report);
        Ok(report)
    }

    /// Dead chunks queued for the next collection pass.
    pub fn pending_dead_chunks(&self) -> usize {
        self.dead.len()
    }

    /// Client deletes acknowledged over this system's lifetime.
    pub fn deletes_acked(&self) -> u64 {
        self.deletes_acked
    }

    /// Cumulative outcome of every garbage-collection pass so far.
    pub fn gc_totals(&self) -> GcReport {
        self.gc_total
    }

    /// Splits a multi-chunk client write into 4-KB chunks and writes
    /// each; returns the chunk count.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadChunkSize`] if the request is empty or ragged,
    /// plus anything [`write`](BaselineSystem::write) returns.
    pub fn write_request(&mut self, start: Lba, data: Bytes) -> Result<usize, SystemError> {
        let len = data.len();
        let chunks = fidr_chunk::FixedChunker::default()
            .split(start, data)
            .map_err(|_| SystemError::BadChunkSize(len))?;
        let n = chunks.len();
        for chunk in chunks {
            self.write(chunk.lba, chunk.data)?;
        }
        Ok(n)
    }

    /// Reads `chunks` consecutive blocks starting at `start` and returns
    /// their concatenated contents.
    ///
    /// # Errors
    ///
    /// Anything [`read`](BaselineSystem::read) returns for any block.
    pub fn read_range(&mut self, start: Lba, chunks: usize) -> Result<Vec<u8>, SystemError> {
        let mut out = Vec::with_capacity(chunks * BUCKET_BYTES);
        for i in 0..chunks as u64 {
            out.extend(self.read(Lba(start.0 + i))?);
        }
        Ok(out)
    }

    /// Handles one 4-KB client read (Figure 2b) and returns the data.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotMapped`] for never-written addresses and
    /// [`SystemError::Corrupt`] if the SSD region fails to decode.
    pub fn read(&mut self, lba: Lba) -> Result<Vec<u8>, SystemError> {
        let started = Instant::now();
        let op = self.tracer.begin("read");
        self.tracer.attr(op, "lba", lba.0);
        let out = self.read_inner(lba);
        if let Err(e) = &out {
            self.tracer.attr(op, "error", e.kind());
        }
        self.tracer.end(op);
        self.read_ns.record_duration(started.elapsed());
        if let Err(e) = &out {
            *self.read_errors.entry(e.kind()).or_insert(0) += 1;
        }
        out
    }

    fn read_inner(&mut self, lba: Lba) -> Result<Vec<u8>, SystemError> {
        let cost = self.cfg.cost;
        let traced = self.tracer.is_enabled();
        let mut mark = if traced {
            self.time.host_ns(&self.ledger)
        } else {
            0
        };
        self.ledger.add_client_read_bytes(BUCKET_BYTES as u64);
        self.stats.read_chunks += 1;

        // NIC forwards the LBA to the host; software resolves the PBA and
        // schedules the chunk into a decompression batch.
        self.ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        self.ledger.charge_cpu(CpuTask::LbaMap, cost.lba_map_cycles);
        self.ledger
            .charge_cpu(CpuTask::BatchScheduling, cost.batch_sched_cycles_per_chunk);
        self.ledger
            .charge_cpu(CpuTask::Other, cost.misc_cycles_per_chunk);
        let pba = self
            .lba_map
            .lookup(lba)
            .ok_or(SystemError::NotMapped(lba))?;
        if traced {
            mark = self.advance_host(mark);
        }

        let pbn = self.lba_map.pbn_of(lba);
        let io_bytes = pba.compressed_len as u64 + 4;
        let ssd_span = self.tracer.begin("ssd");
        let rereads_mark = self.read_repair_rereads;
        self.tracer.attr(ssd_span, "bytes", io_bytes);
        let fetched = self.fetch_chunk_verified(pbn, pba);
        if traced {
            let attempts = 1 + self.read_repair_rereads - rereads_mark;
            if attempts > 1 {
                self.tracer.attr(ssd_span, "retries", attempts - 1);
            }
            self.tracer
                .advance(self.time.data_ssd_ns(io_bytes * attempts, attempts));
        }
        if let Err(e) = &fetched {
            self.tracer.attr(ssd_span, "error", e.kind());
        }
        self.tracer.end(ssd_span);
        let data = fetched?;

        // Compressed data SSD -> host memory.
        ops::dma_to_host(
            &mut self.ledger,
            PcieLink::HostDataSsd,
            MemPath::DataSsdStaging,
            io_bytes,
        );
        self.ledger
            .charge_cpu(CpuTask::DataSsdStack, cost.data_ssd_io_cycles);
        self.ledger.data_ssd_read_bytes += io_bytes;

        // Host memory -> FPGA for decompression, decompressed data back.
        let decompress_span = self.tracer.begin("compress");
        self.tracer
            .attr(decompress_span, "compressed_bytes", io_bytes);
        ops::dma_from_host(
            &mut self.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            io_bytes,
        );
        ops::dma_to_host(
            &mut self.ledger,
            PcieLink::HostCompression,
            MemPath::FpgaStaging,
            data.len() as u64,
        );
        self.tracer
            .advance(self.time.compress_ns(data.len() as u64));
        if traced {
            mark = self.advance_host(mark);
        }
        self.tracer.end(decompress_span);

        // NIC picks the decompressed data up from host memory.
        let nic_span = self.tracer.begin("nic");
        ops::dma_from_host(
            &mut self.ledger,
            PcieLink::NicHost,
            MemPath::NicBuffering,
            data.len() as u64,
        );
        self.ledger
            .charge_cpu(CpuTask::NicDriver, cost.nic_driver_cycles_per_chunk);
        if traced {
            self.advance_host(mark);
        }
        self.tracer.end(nic_span);
        Ok(data)
    }

    /// Seals any open container and flushes dirty table-cache lines.
    ///
    /// # Errors
    ///
    /// [`SystemError::Io`] if the seal or a bucket writeback fails past
    /// the retry budget; the open container and dirty lines survive for
    /// a later retry.
    pub fn flush(&mut self) -> Result<(), SystemError> {
        let op = self.tracer.begin("flush");
        let out = self.flush_inner();
        if let Err(e) = &out {
            self.tracer.attr(op, "error", e.kind());
        }
        self.tracer.end(op);
        out
    }

    fn flush_inner(&mut self) -> Result<(), SystemError> {
        if !self.builder.is_empty() {
            self.seal_container()?;
        }
        self.cache
            .flush_all(&mut self.table_ssd)
            .map_err(|e| SystemError::Io(e.to_string()))
    }

    /// Captures all durable state for persistence (flushes first). The
    /// snapshot format is shared with the FIDR system, so a volume can be
    /// checkpointed under one architecture and restored under the other.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SystemError> {
        self.flush()?;
        let store = self.table_ssd.store();
        let mut table_buckets = Vec::new();
        for idx in 0..store.num_buckets() {
            let bucket = store.bucket(idx);
            if !bucket.is_empty() {
                table_buckets.push((idx, bucket.clone()));
            }
        }
        Ok(Snapshot {
            num_buckets: store.num_buckets(),
            table_buckets,
            lbas: self.lba_map.lba_entries().collect(),
            pbns: self.lba_map.pbn_entries().collect(),
            containers: self.data_ssd.containers().cloned().collect(),
            next_pbn: self.next_pbn,
            next_container: self.next_container,
            pbn_fp: self.pbn_fp.iter().map(|(&p, &f)| (p, f)).collect(),
            liveness: self.liveness.entries().collect(),
            dead: self.dead.clone(),
        })
    }

    /// Rebuilds a baseline server from a [`Snapshot`] (restart recovery).
    /// The snapshot's table geometry overrides `cfg.table_buckets`.
    pub fn restore(cfg: BaselineConfig, snapshot: Snapshot) -> Self {
        let cfg = BaselineConfig {
            table_buckets: snapshot.num_buckets,
            ..cfg
        };
        let mut sys = BaselineSystem::new(cfg);

        let mut store = HashPbnStore::new(snapshot.num_buckets);
        for (idx, bucket) in snapshot.table_buckets {
            store.write_bucket(idx, bucket);
        }
        sys.table_ssd = TableSsd::from_store(store, QueueLocation::HostMemory);
        sys.table_ssd
            .set_fault_injector(sys.faults.clone(), sys.cfg.retry);

        for container in snapshot.containers {
            sys.data_ssd.load_container(container);
        }
        sys.lba_map = LbaPbaTable::from_entries(snapshot.lbas, snapshot.pbns);
        sys.next_pbn = snapshot.next_pbn;
        sys.next_container = snapshot.next_container;
        sys.builder = ContainerBuilder::new(snapshot.next_container, sys.cfg.container_threshold);
        sys.pbn_fp = snapshot.pbn_fp.into_iter().collect();
        sys.container_pbns.clear();
        for (pbn, loc) in sys.lba_map.pbn_entries().collect::<Vec<_>>() {
            sys.container_pbns
                .entry(loc.container)
                .or_default()
                .push(pbn);
        }
        sys.liveness = ContainerLiveness::from_entries(snapshot.liveness);
        sys.dead = snapshot.dead;
        // The predictor is soft state: re-observing nothing is safe (it
        // only mispredicts more until it re-learns).
        sys
    }

    /// Fault injection for tests and demos: flips one stored bit on the
    /// data SSDs. The next scrub (or read) of the affected chunk must
    /// detect it. Returns `false` if the location does not exist.
    pub fn inject_data_corruption(&mut self, container: u64, byte: usize) -> bool {
        self.data_ssd.inject_corruption(container, byte)
    }

    /// Background integrity scrub (fsck): verifies every live chunk's
    /// stored bytes against its recorded SHA-256 fingerprint. Transient
    /// read corruption is healed by bounded re-reads; only persistent
    /// mismatches fail the scrub. Returns the number of chunks verified.
    ///
    /// # Errors
    ///
    /// [`SystemError::Corrupt`] for the first PBN that still mismatches
    /// after re-reads.
    pub fn verify_integrity(&mut self) -> Result<u64, SystemError> {
        let live: Vec<(Pbn, PbnLocation)> = self
            .lba_map
            .pbn_entries()
            .filter(|(pbn, _)| self.lba_map.refcount(*pbn) > 0)
            .collect();
        let mut verified = 0u64;
        for (pbn, loc) in live {
            if !self.pbn_fp.contains_key(&pbn) {
                return Err(SystemError::Corrupt(format!("{pbn} missing fingerprint")));
            }
            self.fetch_chunk_verified(
                Some(pbn),
                Pba {
                    container: loc.container,
                    offset: loc.offset,
                    compressed_len: loc.compressed_len,
                },
            )?;
            verified += 1;
        }
        Ok(verified)
    }

    /// Compresses one chunk in the (modelled) FPGA, timing the real LZSS
    /// work and tracking the achieved ratio.
    fn compress_chunk(&mut self, data: &[u8]) -> CompressedChunk {
        self.compress_chunk_with(data, None)
    }

    /// [`compress_chunk`](Self::compress_chunk), optionally consuming a
    /// `(chunk, wall-clock)` pair precomputed on the worker pool — stats,
    /// span and modelled time are recorded identically either way; only
    /// the raw LZSS compute is skipped.
    fn compress_chunk_with(
        &mut self,
        data: &[u8],
        pre: Option<(CompressedChunk, std::time::Duration)>,
    ) -> CompressedChunk {
        let span = self.tracer.begin("compress");
        let (compressed, elapsed) = match pre {
            Some((compressed, elapsed)) => (compressed, elapsed),
            None => {
                let started = Instant::now();
                let compressed = CompressedChunk::compress(data);
                (compressed, started.elapsed())
            }
        };
        self.compress_ns.record_duration(elapsed);
        self.compress_pct
            .record((compressed.ratio() * 100.0).round() as u64);
        match compressed.encoding() {
            Encoding::Lzss => self.compress_lzss_chunks += 1,
            Encoding::Raw => self.compress_raw_chunks += 1,
        }
        self.tracer
            .attr(span, "compressed_bytes", compressed.stored_len() as u64);
        self.tracer.attr(
            span,
            "encoding",
            match compressed.encoding() {
                Encoding::Lzss => "lzss",
                Encoding::Raw => "raw",
            },
        );
        self.tracer
            .advance(self.time.compress_ns(data.len() as u64));
        self.tracer.end(span);
        compressed
    }

    /// Assembles a [`MetricsSnapshot`] covering every baseline stage:
    /// table-cache lookups, table/data SSD IO, compression, prediction
    /// accuracy, reduction outcomes, the resource ledger, and end-to-end
    /// write/read latency. Same schema and naming as
    /// `FidrSystem::metrics` (see `docs/OBSERVABILITY.md`); NIC and
    /// HW-tree metrics are absent because the baseline has neither.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.cache.export_metrics(&mut out);
        out.set_counter("cache.hw_engine.enabled", 0);
        self.table_ssd.export_metrics(&mut out);
        self.data_ssd.export_metrics(&mut out);
        self.ledger.export_metrics(&mut out);
        self.stats.export_metrics(&mut out);
        out.set_counter("compress.lzss.chunks", self.compress_lzss_chunks);
        out.set_counter("compress.raw_fallback.chunks", self.compress_raw_chunks);
        out.set_wall_clock_histogram("compress.chunk.ns", &self.compress_ns);
        out.set_histogram("compress.ratio.pct", &self.compress_pct);
        out.set_wall_clock_histogram("system.write.ns", &self.write_ns);
        out.set_wall_clock_histogram("system.read.ns", &self.read_ns);
        self.faults.stats().export_metrics(&mut out);
        out.set_counter("retry.read_repair.detected", self.read_repair_detected);
        out.set_counter("retry.read_repair.rereads", self.read_repair_rereads);
        out.set_counter("retry.read_repair.repaired", self.read_repair_repaired);
        out.set_counter(
            "retry.read_repair.unrecovered",
            self.read_repair_unrecovered,
        );
        out.set_counter("retry.seal.failures", self.seal_failures);
        out.set_histogram("system.retry.backoff.ns", &self.recovery_backoff_ns);
        for (kind, n) in &self.write_errors {
            out.set_counter(&format!("system.write.errors.{kind}"), *n);
        }
        for (kind, n) in &self.read_errors {
            out.set_counter(&format!("system.read.errors.{kind}"), *n);
        }
        for (kind, n) in &self.delete_errors {
            out.set_counter(&format!("system.delete.errors.{kind}"), *n);
        }
        // Lifecycle counters appear only once a delete or a GC pass has
        // actually happened, so stores that never delete export
        // byte-identically to pre-lifecycle revisions.
        if self.deletes_acked > 0 || self.gc_runs > 0 {
            out.set_wall_clock_histogram("system.delete.ns", &self.delete_ns);
            out.set_counter("delete.acked.count", self.deletes_acked);
            out.set_counter("delete.pending_dead.count", self.dead.len() as u64);
            out.set_counter("gc.runs.count", self.gc_runs);
            out.set_counter("gc.reclaimed_pbns.count", self.gc_total.reclaimed_pbns);
            out.set_counter(
                "gc.compacted_containers.count",
                self.gc_total.compacted_containers,
            );
            out.set_counter("gc.moved_chunks.count", self.gc_total.moved_chunks);
            out.set_counter("gc.copied_bytes", self.gc_total.copied_bytes);
            out.set_counter("gc.reclaimed_bytes", self.gc_total.freed_bytes);
        }
        let p = self.predictor.stats();
        out.set_counter("predictor.predictions.count", p.predictions);
        out.set_counter("predictor.predicted_unique.count", p.predicted_unique);
        out.set_counter("predictor.correct.count", p.correct);
        out.set_gauge("predictor.accuracy.ratio", p.accuracy());
        out.set_counter("trace.spans.count", self.tracer.recorded());
        out.set_counter("trace.dropped_spans", self.tracer.dropped());
        out
    }

    fn fetch_chunk(&mut self, pba: Pba) -> Result<Vec<u8>, SystemError> {
        if pba.container == self.builder.id() {
            return self
                .staging
                .get(&pba.offset)
                .cloned()
                .ok_or_else(|| SystemError::Corrupt("missing staged chunk".to_string()));
        }
        self.data_ssd.read_chunk(pba).map_err(|e| match e {
            fidr_ssd::DataSsdError::Io { .. } => SystemError::Io(e.to_string()),
            _ => SystemError::Corrupt(e.to_string()),
        })
    }

    /// Fetches a chunk and, when its fingerprint is on record, verifies
    /// the returned bytes against it, re-reading (bounded, with modelled
    /// backoff) to heal in-flight corruption. Persistent corruption still
    /// errors out.
    fn fetch_chunk_verified(&mut self, pbn: Option<Pbn>, pba: Pba) -> Result<Vec<u8>, SystemError> {
        let data = self.fetch_chunk(pba)?;
        let Some(expect) = pbn.and_then(|p| self.pbn_fp.get(&p).copied()) else {
            return Ok(data);
        };
        if Fingerprint::of(&data) == expect {
            return Ok(data);
        }
        self.read_repair_detected += 1;
        for attempt in 0..self.cfg.retry.max_retries {
            self.read_repair_rereads += 1;
            self.recovery_backoff_ns
                .record_duration(self.cfg.retry.backoff(attempt));
            let data = self.fetch_chunk(pba)?;
            if Fingerprint::of(&data) == expect {
                self.read_repair_repaired += 1;
                return Ok(data);
            }
        }
        self.read_repair_unrecovered += 1;
        Err(SystemError::Corrupt(format!(
            "container {} offset {} fails checksum verification after re-reads",
            pba.container, pba.offset
        )))
    }

    /// Seals a *clone* of the open builder so a failed device write keeps
    /// the builder and staging intact for a later retry — no acked write
    /// is lost.
    fn seal_container(&mut self) -> Result<(), SystemError> {
        let bytes = self.builder.len() as u64;
        let span = self.tracer.begin("ssd");
        self.tracer.attr(span, "container_bytes", bytes);
        self.tracer.advance(self.time.data_ssd_ns(bytes, 1));
        if let Err(e) = self.data_ssd.write_container(self.builder.clone().seal()) {
            self.seal_failures += 1;
            self.tracer.attr(span, "error", "io");
            self.tracer.end(span);
            return Err(SystemError::Io(e.to_string()));
        }
        self.tracer.end(span);
        self.next_container += 1;
        self.builder = ContainerBuilder::new(self.next_container, self.cfg.container_threshold);
        self.staging.clear();

        // Container bounces host memory → data SSD.
        ops::dma_from_host(
            &mut self.ledger,
            PcieLink::HostDataSsd,
            MemPath::DataSsdStaging,
            bytes,
        );
        self.ledger
            .charge_cpu(CpuTask::DataSsdStack, self.cfg.cost.data_ssd_io_cycles);
        self.ledger.data_ssd_write_bytes += bytes;
        self.stats.containers_sealed += 1;
        Ok(())
    }

    /// Looks up `fingerprint` through the software-managed table cache,
    /// charging the Table 2 cost categories, and returns the stored PBN
    /// (if duplicate) plus the cache line holding the bucket.
    fn table_lookup(
        &mut self,
        fingerprint: Fingerprint,
    ) -> Result<(Option<Pbn>, u32), SystemError> {
        let cost = self.cfg.cost;
        let bucket_idx = fingerprint.bucket_index(self.table_ssd.num_buckets());

        // B+ tree search on the CPU.
        self.ledger
            .charge_cpu(CpuTask::TreeIndexing, cost.tree_search_cycles);
        let access = self
            .cache
            .access(bucket_idx, &mut self.table_ssd)
            .map_err(|e| SystemError::Io(e.to_string()))?;

        if !access.hit {
            // Miss: bucket fetched table SSD → host memory by the CPU's
            // NVMe stack; tree insert for the new line.
            ops::dma_to_host(
                &mut self.ledger,
                PcieLink::HostTableSsd,
                MemPath::TableCache,
                BUCKET_BYTES as u64,
            );
            self.ledger
                .charge_cpu(CpuTask::TableSsdStack, cost.table_ssd_io_cycles);
            self.ledger.table_ssd_read_bytes += BUCKET_BYTES as u64;
            self.ledger
                .charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);

            // Evictions: tree deletes, LRU work, dirty flushes.
            for _ in 0..access.evicted {
                self.ledger
                    .charge_cpu(CpuTask::TreeIndexing, cost.tree_update_cycles);
                self.ledger
                    .charge_cpu(CpuTask::CacheReplacement, cost.lru_cycles);
            }
            for _ in 0..access.flushed {
                ops::dma_from_host(
                    &mut self.ledger,
                    PcieLink::HostTableSsd,
                    MemPath::TableCache,
                    BUCKET_BYTES as u64,
                );
                self.ledger
                    .charge_cpu(CpuTask::TableSsdStack, cost.table_ssd_io_cycles);
                self.ledger.table_ssd_write_bytes += BUCKET_BYTES as u64;
            }
        }

        // The CPU scans the cached bucket content for the fingerprint.
        ops::cpu_touch(&mut self.ledger, MemPath::TableCache, BUCKET_BYTES as u64);
        self.ledger
            .charge_cpu(CpuTask::TableContentScan, cost.bucket_scan_cycles);
        self.ledger
            .charge_cpu(CpuTask::CacheReplacement, cost.lru_cycles);

        let pbn = self.cache.bucket(access.line).lookup(&fingerprint);
        Ok((pbn, access.line))
    }
}

/// Hash and speculative LZSS output precomputed on the worker pool for
/// one batched write.
#[derive(Debug)]
struct PreparedWrite {
    fingerprint: Fingerprint,
    /// Compressed chunk plus the wall-clock the compression took; taken
    /// by whichever compress site fires (at most one per write), and
    /// silently dropped for writes the pipeline never compresses.
    compressed: Option<(CompressedChunk, std::time::Duration)>,
}

/// Fingerprints and speculatively compresses every chunk of `writes`
/// across up to `workers` persistent pool workers, in submission order
/// per slot. Each job hashes its whole slice in one batch digest
/// ([`Fingerprint::of_batch`]) before compressing.
/// Oversized chunks still prepare (cheaply wasted): `write_inner`
/// rejects them before consuming the precompute, exactly as in serial.
fn prepare_writes(
    writes: &[(Lba, Bytes)],
    workers: usize,
    pool: &WorkerPool,
) -> Vec<Option<PreparedWrite>> {
    let mut slots: Vec<Option<PreparedWrite>> = (0..writes.len()).map(|_| None).collect();
    let per_worker = writes.len().div_ceil(workers.min(writes.len()).max(1));
    pool.scope(|s| {
        for (k, (slice_in, slice_out)) in writes
            .chunks(per_worker)
            .zip(slots.chunks_mut(per_worker))
            .enumerate()
        {
            s.spawn_on(k, move || {
                let refs: Vec<&[u8]> = slice_in.iter().map(|(_, data)| data.as_ref()).collect();
                let fingerprints = Fingerprint::of_batch(&refs);
                for (((_, data), fingerprint), slot) in
                    slice_in.iter().zip(fingerprints).zip(slice_out.iter_mut())
                {
                    let started = Instant::now();
                    let compressed = CompressedChunk::compress(data);
                    *slot = Some(PreparedWrite {
                        fingerprint,
                        compressed: Some((compressed, started.elapsed())),
                    });
                }
            });
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> BaselineSystem {
        BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            ..BaselineConfig::default()
        })
    }

    fn chunk(tag: u64) -> Bytes {
        Bytes::from(fidr_compress::ContentGenerator::new(0.5).chunk(tag, 4096))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = sys();
        let data = chunk(1);
        s.write(Lba(5), data.clone()).unwrap();
        assert_eq!(s.read(Lba(5)).unwrap(), data.to_vec());
    }

    #[test]
    fn duplicates_are_eliminated() {
        let mut s = sys();
        let data = chunk(9);
        for lba in 0..10u64 {
            s.write(Lba(lba), data.clone()).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.unique_chunks, 1);
        assert_eq!(st.duplicate_chunks, 9);
        assert!(st.stored_bytes < 4096);
        // Every copy reads back the same content.
        for lba in 0..10u64 {
            assert_eq!(s.read(Lba(lba)).unwrap(), data.to_vec());
        }
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut s = sys();
        s.write(Lba(1), chunk(1)).unwrap();
        s.write(Lba(1), chunk(2)).unwrap();
        assert_eq!(s.read(Lba(1)).unwrap(), chunk(2).to_vec());
    }

    #[test]
    fn read_of_unwritten_errors() {
        let mut s = sys();
        assert!(matches!(s.read(Lba(77)), Err(SystemError::NotMapped(_))));
    }

    #[test]
    fn delete_unmaps_and_gc_reclaims_the_space() {
        let mut s = sys();
        for i in 0..64u64 {
            s.write(Lba(i), chunk(i)).unwrap();
        }
        s.flush().unwrap();
        for i in 0..56u64 {
            s.delete(Lba(i)).unwrap();
        }
        assert_eq!(s.deletes_acked(), 56);
        assert_eq!(s.pending_dead_chunks(), 56);
        assert!(matches!(s.read(Lba(0)), Err(SystemError::NotMapped(_))));
        assert!(matches!(s.delete(Lba(0)), Err(SystemError::NotMapped(_))));

        let report = s.collect_garbage(0.5).unwrap();
        assert_eq!(report.reclaimed_pbns, 56);
        assert!(report.freed_bytes > 0, "{report:?}");
        assert_eq!(s.gc_totals().freed_bytes, report.freed_bytes);
        for i in 56..64u64 {
            assert_eq!(s.read(Lba(i)).unwrap(), chunk(i).to_vec(), "LBA {i}");
        }
        // Lifecycle metrics appear only after activity (they did).
        let json = s.metrics().to_json();
        assert!(json.contains("\"delete.acked.count\""));
        assert!(json.contains("\"gc.reclaimed_bytes\""));
        assert!(!sys().metrics().to_json().contains("gc."), "fresh system");
    }

    #[test]
    fn delete_of_shared_chunk_keeps_other_references_readable() {
        let mut s = sys();
        let data = chunk(9);
        s.write(Lba(1), data.clone()).unwrap();
        s.write(Lba(2), data.clone()).unwrap();
        s.delete(Lba(1)).unwrap();
        assert_eq!(s.pending_dead_chunks(), 0);
        assert_eq!(s.collect_garbage(1.1).unwrap().reclaimed_pbns, 0);
        assert_eq!(s.read(Lba(2)).unwrap(), data.to_vec());
        s.delete(Lba(2)).unwrap();
        assert_eq!(s.pending_dead_chunks(), 1);
        assert_eq!(s.collect_garbage(1.1).unwrap().reclaimed_pbns, 1);
    }

    #[test]
    fn bad_chunk_size_rejected() {
        let mut s = sys();
        assert!(matches!(
            s.write(Lba(0), Bytes::from(vec![0u8; 100])),
            Err(SystemError::BadChunkSize(100))
        ));
    }

    #[test]
    fn containers_seal_and_remain_readable() {
        let mut s = sys();
        let mut written = Vec::new();
        for i in 0..64u64 {
            let data = chunk(1000 + i);
            s.write(Lba(i), data.clone()).unwrap();
            written.push((Lba(i), data));
        }
        assert!(s.stats().containers_sealed >= 1);
        for (lba, data) in written {
            assert_eq!(s.read(lba).unwrap(), data.to_vec(), "{lba}");
        }
    }

    #[test]
    fn ledger_charges_every_category_on_writes() {
        let mut s = sys();
        for i in 0..300u64 {
            s.write(Lba(i), chunk(i % 50)).unwrap();
        }
        let l = s.ledger();
        assert!(l.mem_bytes(MemPath::NicBuffering) > 0);
        assert!(l.mem_bytes(MemPath::UniquePrediction) > 0);
        assert!(l.mem_bytes(MemPath::FpgaStaging) > 0);
        assert!(l.mem_bytes(MemPath::TableCache) > 0);
        assert!(l.cpu_cycles(CpuTask::UniquePrediction) > 0);
        assert!(l.cpu_cycles(CpuTask::TreeIndexing) > 0);
        // Memory traffic far exceeds client bytes — the §3.2 bottleneck.
        assert!(l.mem_bytes_per_client_byte() > 3.0);
    }

    #[test]
    fn dedup_ratio_tracks_content() {
        let mut s = sys();
        // 50% duplicates: two writes of each content.
        for i in 0..200u64 {
            s.write(Lba(i), chunk(i / 2)).unwrap();
        }
        assert!((s.stats().dedup_ratio() - 0.5).abs() < 0.01);
    }

    #[test]
    fn batched_workers_match_serial_writes_byte_for_byte() {
        let writes: Vec<(Lba, Bytes)> = (0..96u64).map(|i| (Lba(i), chunk(i / 3))).collect();
        let mut serial = sys();
        for (lba, data) in writes.clone() {
            serial.write(lba, data).unwrap();
        }
        let mut batched = BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            workers: 4,
            cache_shards: 4,
            ..BaselineConfig::default()
        });
        batched.write_batch(writes.clone()).unwrap();
        // Sharding changes the cache's line placement (and so its
        // hit/miss pattern), but a 1-shard batched run must be
        // byte-identical to serial, and any shard count must keep the
        // functional outcomes.
        assert_eq!(batched.stats(), serial.stats());
        for (lba, data) in &writes {
            assert_eq!(batched.read(*lba).unwrap(), data.to_vec());
        }
        let mut one_shard = BaselineSystem::new(BaselineConfig {
            cache_lines: 64,
            table_buckets: 1 << 12,
            container_threshold: 64 << 10,
            workers: 4,
            ..BaselineConfig::default()
        });
        one_shard.write_batch(writes).unwrap();
        assert_eq!(one_shard.metrics().to_json(), serial.metrics().to_json());
    }
}
