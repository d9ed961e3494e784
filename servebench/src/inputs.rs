//! Seeded workload inputs, built in full before any server starts.
//!
//! Building a 4-KiB payload with the repository's content generator costs
//! about a third of a deduplicated write, so every payload is made here
//! and the timed loop only hands out `Bytes` handles. Equal seeds give
//! equal inputs, byte for byte.

use bytes::Bytes;
use fidr::core::DEFAULT_STREAM_SHIFT;
use fidr::hash::splitmix64;
use fidr::workload::{ChurnKind, ChurnSchedule, ChurnSpec, Request, Workload, WorkloadSpec};
use std::collections::{BTreeMap, HashMap};

/// Bytes per block, the unit of every client operation.
pub const BLOCK: usize = 4096;

/// The benchmark's traffic mixes (see the package README for why each
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Write-only Write-H traffic over one connection.
    DedupIngest,
    /// Write / overwrite / delete rounds over one connection, with GC.
    ReduceChurn,
    /// 80 % verified reads of a prefilled store plus 20 % new writes,
    /// over two connections.
    ReadMixed,
}

impl Mix {
    /// Every mix, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Mix; 3] = [Mix::DedupIngest, Mix::ReduceChurn, Mix::ReadMixed];

    /// The workload name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mix::DedupIngest => "dedup-ingest",
            Mix::ReduceChurn => "reduce-churn",
            Mix::ReadMixed => "read-mixed",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Client connections of the timed phase.
    pub fn conns(self) -> usize {
        match self {
            Mix::ReadMixed => 2,
            _ => 1,
        }
    }

    /// Server GC cadence (`ServerConfig::gc_every`); 0 is the server
    /// default. Only the churn mix deletes, so only it collects.
    pub fn gc_every(self) -> u64 {
        match self {
            Mix::ReduceChurn => 64,
            _ => 0,
        }
    }

    /// Whether the timed phase issues operations of `kind`. Latencies
    /// of the other kinds come from the epilogue that follows it.
    pub fn timed_has(self, kind: Kind) -> bool {
        matches!(
            (self, kind),
            (_, Kind::Write) | (Mix::ReduceChurn, Kind::Delete) | (Mix::ReadMixed, Kind::Read)
        )
    }

    /// Timed operations per connection and second the input lists are
    /// sized for: above the fastest whole-run rate seen on a 2-CPU host
    /// (about 24 500, 13 400 and 13 000). Held inputs cost memory, so a
    /// faster build ends the timed phase early when a list runs out
    /// instead of reusing inputs.
    pub fn rate_cap(self) -> usize {
        match self {
            Mix::DedupIngest => 28_000,
            Mix::ReduceChurn => 16_000,
            Mix::ReadMixed => 15_000,
        }
    }
}

/// Client operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// 4-KiB write, timed from call to ack.
    Write,
    /// 4-KiB read, timed from call to the end of byte-for-byte
    /// verification.
    Read,
    /// Delete, timed from call to ack.
    Delete,
}

impl Kind {
    /// Lower-case name used in metric names and spans.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Write => "write",
            Kind::Read => "read",
            Kind::Delete => "delete",
        }
    }
}

/// One client operation with everything needed to check its outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write `data` at `lba`.
    Write {
        /// Target block.
        lba: u64,
        /// Payload.
        data: Bytes,
    },
    /// Read `lba` and compare the reply with `expect`.
    Read {
        /// Target block.
        lba: u64,
        /// The bytes the block must hold.
        expect: Bytes,
    },
    /// Delete `lba` (always mapped when the op runs).
    Delete {
        /// Target block.
        lba: u64,
    },
}

impl Op {
    /// The operation's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Write { .. } => Kind::Write,
            Op::Read { .. } => Kind::Read,
            Op::Delete { .. } => Kind::Delete,
        }
    }

    /// The block the operation targets.
    pub fn lba(&self) -> u64 {
        match self {
            Op::Write { lba, .. } | Op::Read { lba, .. } | Op::Delete { lba } => *lba,
        }
    }
}

/// All inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Writes issued during set-up over two connections, one list per
    /// connection; no two lists write the same block.
    pub prefill: Vec<Vec<Op>>,
    /// The timed closed loop, one list per connection.
    pub timed: Vec<Vec<Op>>,
}

/// Deterministic stream of pseudo-random numbers (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a purpose tag, so independent
    /// draws from one seed never share a stream.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Write-H writes run in `dedup-ingest`'s set-up, so that the timed phase
/// starts with a warm table cache and set-up time measures real work.
pub const DEDUP_WARMUP: usize = 16_384;

/// Write-L blocks prefilled before `read-mixed`'s timed phase: 80 MiB of
/// raw data, about 23 MiB stored, so reads land in sealed 4-MiB
/// containers rather than the open one or the NIC buffer.
pub const READ_MIXED_PREFILL: usize = 20_000;

/// Share of `read-mixed`'s timed operations that are reads.
pub const READ_MIXED_READ_SHARE: f64 = 0.8;

/// `reduce-churn` shape: tenants × blocks per tenant (128 MiB, about ten
/// sealed containers of live data), the share of block visits that
/// delete, and the share of writes that repeat live content.
const CHURN_TENANTS: u64 = 4;
const CHURN_BLOCKS: u64 = 8192;
const CHURN_DELETE_PCT: u8 = 40;
const CHURN_DUP_SHARE: f64 = 0.4;

/// Duplicates in `reduce-churn` repeat one of the last this-many written
/// blocks' contents. Every round revisits each block once, roughly
/// 27 000 operations apart, so the repeated content is still live when
/// the server looks it up: its duplicate counts never depend on when a
/// GC pass ran.
const CHURN_DUP_WINDOW: usize = 1024;

/// First LBA of the region `read-mixed`'s timed writes go to; the prefill
/// stays below it, so no timed write touches a block a read targets.
const TIMED_WRITE_REGION: u64 = 1 << 23;

impl Inputs {
    /// Builds the inputs of `mix` for `seed`, with at most `timed_cap`
    /// timed operations per connection.
    pub fn build(mix: Mix, seed: u64, timed_cap: usize) -> Inputs {
        let (prefill, timed) = match mix {
            Mix::DedupIngest => {
                let (prefill, timed) = dedup_ingest(seed, timed_cap);
                (over_two_connections(prefill), vec![timed])
            }
            Mix::ReduceChurn => {
                let (prefill, timed) = reduce_churn(seed, timed_cap);
                (over_two_connections(prefill), vec![timed])
            }
            Mix::ReadMixed => read_mixed(seed, timed_cap),
        };
        Inputs { prefill, timed }
    }
}

/// Write payloads of a `WorkloadSpec` stream with equal contents sharing
/// one buffer, so held inputs cost memory per unique chunk only.
struct PayloadPool(HashMap<[u8; 32], Vec<Bytes>>);

impl PayloadPool {
    fn new() -> Self {
        PayloadPool(HashMap::new())
    }

    fn intern(&mut self, data: Bytes) -> Bytes {
        let mut key = [0u8; 32];
        key.copy_from_slice(&data[..32]);
        let same = self.0.entry(key).or_default();
        if let Some(held) = same.iter().find(|held| held[..] == data[..]) {
            return held.clone();
        }
        same.push(data.clone());
        data
    }
}

/// `spec`'s writes, LBAs shifted by `lba_base`, generated as they are
/// taken.
fn spec_writes(
    spec: WorkloadSpec,
    lba_base: u64,
    pool: &mut PayloadPool,
) -> impl Iterator<Item = Op> + '_ {
    Workload::new(spec).map(move |req| match req {
        Request::Write { lba, data } => Op::Write {
            lba: lba_base + lba.0,
            data: pool.intern(data),
        },
        Request::Read { .. } => unreachable!("write-only spec"),
    })
}

/// The first [`DEDUP_WARMUP`] writes of a Write-H stream as the prefill,
/// the next `n` as the timed list.
fn dedup_ingest(seed: u64, n: usize) -> (Vec<Op>, Vec<Op>) {
    let spec = WorkloadSpec {
        seed: Rng::new(seed, 1).next_u64(),
        ..WorkloadSpec::write_h(DEDUP_WARMUP + n)
    };
    let mut ops: Vec<Op> = spec_writes(spec, 0, &mut PayloadPool::new()).collect();
    let timed = ops.split_off(DEDUP_WARMUP);
    (ops, timed)
}

/// Splits set-up writes over two connections by LBA parity, so every
/// block's writes keep their order whatever the interleaving.
fn over_two_connections(ops: Vec<Op>) -> Vec<Vec<Op>> {
    let (even, odd) = ops.into_iter().partition(|op| op.lba() % 2 == 0);
    vec![even, odd]
}

/// Distinct, half-compressible 4-KiB contents cut from one seeded arena.
///
/// The arena alternates 64 bytes of noise with 64 bytes of a fixed motif,
/// and contents start on 128-byte boundaries, so every content is half
/// noise and LZSS stores it at about half its size. Contents share the
/// arena, so a churn run's fresh writes cost no memory of their own.
struct Arena {
    bytes: Bytes,
    next: usize,
}

const ARENA_BYTES: usize = 32 << 20;
const ARENA_STRIDE: usize = 128;

impl Arena {
    fn new(seed: u64) -> Arena {
        let mut rng = Rng::new(seed, 2);
        let motif = rng.next_u64().to_le_bytes();
        let mut bytes = Vec::with_capacity(ARENA_BYTES);
        while bytes.len() < ARENA_BYTES {
            for _ in 0..8 {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            for _ in 0..8 {
                bytes.extend_from_slice(&motif);
            }
        }
        Arena {
            bytes: Bytes::from(bytes),
            next: 0,
        }
    }

    /// Contents the arena holds.
    fn capacity() -> usize {
        (ARENA_BYTES - BLOCK) / ARENA_STRIDE + 1
    }

    /// A content no earlier call returned.
    fn fresh(&mut self) -> Bytes {
        assert!(self.next < Arena::capacity(), "churn arena exhausted");
        let at = self.next * ARENA_STRIDE;
        self.next += 1;
        self.bytes.slice(at..at + BLOCK)
    }
}

/// `reduce-churn`'s round 0, which writes every block once, as its
/// prefill, and up to `n` operations of the later rounds as its timed
/// list, so that the whole timed phase sees deletes, overwrites and GC.
fn reduce_churn(seed: u64, n: usize) -> (Vec<Op>, Vec<Op>) {
    let blocks = CHURN_TENANTS * CHURN_BLOCKS;
    // Once 60 % of blocks are live, a round emits about 0.84 ops per block.
    let rounds = (n as u64).div_ceil(blocks * 84 / 100) + 1;
    let schedule = ChurnSchedule::generate(ChurnSpec {
        tenants: CHURN_TENANTS,
        blocks_per_tenant: CHURN_BLOCKS,
        rounds,
        delete_pct: CHURN_DELETE_PCT,
        seed: Rng::new(seed, 3).next_u64(),
    });
    let mut arena = Arena::new(seed);
    let mut rng = Rng::new(seed, 4);
    let mut recent: Vec<Bytes> = Vec::with_capacity(CHURN_DUP_WINDOW);
    let mut written = 0usize;
    let mut ops: Vec<Op> = schedule
        .ops()
        .iter()
        .take(blocks as usize + n)
        .map(|op| {
            let lba = (op.tenant << DEFAULT_STREAM_SHIFT) | op.offset;
            match op.kind {
                ChurnKind::Write { .. } => {
                    let data = if !recent.is_empty() && rng.chance(CHURN_DUP_SHARE) {
                        recent[rng.below(recent.len() as u64) as usize].clone()
                    } else {
                        arena.fresh()
                    };
                    if recent.len() < CHURN_DUP_WINDOW {
                        recent.push(data.clone());
                    } else {
                        recent[written % CHURN_DUP_WINDOW] = data.clone();
                    }
                    written += 1;
                    Op::Write { lba, data }
                }
                ChurnKind::Delete => Op::Delete { lba },
            }
        })
        .collect();
    let timed = ops.split_off(blocks as usize);
    (ops, timed)
}

fn read_mixed(seed: u64, n: usize) -> (Vec<Vec<Op>>, Vec<Vec<Op>>) {
    let mut pool = PayloadPool::new();
    let prefill_spec = WorkloadSpec {
        seed: Rng::new(seed, 5).next_u64(),
        ..WorkloadSpec::write_l(READ_MIXED_PREFILL)
    };
    let prefill: Vec<Op> = spec_writes(prefill_spec, 0, &mut pool).collect();
    let mut stored: BTreeMap<u64, Bytes> = BTreeMap::new();
    for op in &prefill {
        if let Op::Write { lba, data } = op {
            stored.insert(*lba, data.clone());
        }
    }
    let targets: Vec<(u64, Bytes)> = stored.into_iter().collect();
    let conns = Mix::ReadMixed.conns();
    let mut timed = Vec::with_capacity(conns);
    for conn in 0..conns as u64 {
        // Separate streams for the op choice and the writes, so a longer
        // list extends a shorter one.
        let mut pick = Rng::new(seed, 6 + conn);
        // Write-H writes, as in the paper's Read-Mixed; each connection has
        // its own LBA region and content ids, disjoint from the prefill's.
        let write_spec = WorkloadSpec {
            seed: Rng::new(seed, 10 + conn).next_u64(),
            content_base: (conn + 1) << 40,
            ..WorkloadSpec::write_h(n)
        };
        let region = TIMED_WRITE_REGION + (conn << DEFAULT_STREAM_SHIFT);
        let mut writes = spec_writes(write_spec, region, &mut pool);
        let ops = (0..n)
            .map(|_| {
                if pick.chance(READ_MIXED_READ_SHARE) {
                    let (lba, expect) = &targets[pick.below(targets.len() as u64) as usize];
                    Op::Read {
                        lba: *lba,
                        expect: expect.clone(),
                    }
                } else {
                    writes.next().expect("the spec has a write per op")
                }
            })
            .collect();
        timed.push(ops);
    }
    (over_two_connections(prefill), timed)
}

/// Live contents after the prefill and the first `done[c]` timed ops of
/// each connection. Connections write disjoint blocks, so the order in
/// which their ops interleaved does not matter.
pub fn live_blocks(inputs: &Inputs, done: &[usize]) -> BTreeMap<u64, Bytes> {
    let mut live = BTreeMap::new();
    let timed = inputs
        .timed
        .iter()
        .zip(done)
        .flat_map(|(ops, &n)| ops[..n].iter());
    for op in inputs.prefill.iter().flatten().chain(timed) {
        match op {
            Op::Write { lba, data } => {
                live.insert(*lba, data.clone());
            }
            Op::Delete { lba } => {
                live.remove(lba);
            }
            Op::Read { .. } => {}
        }
    }
    live
}

/// Verified reads in the epilogue, cycling over a seeded sample of live
/// blocks when there are fewer.
pub const EPILOGUE_READS: usize = 24_000;

/// Where the timed mix has no deletes, the epilogue deletes the block it
/// just read after every this-many reads (when no later read needs it),
/// so its deletes spread over the whole epilogue rather than one burst.
pub const EPILOGUE_DELETE_EVERY: usize = 6;

/// The epilogue run after the timed phase: [`EPILOGUE_READS`] verified
/// reads of live blocks drawn without repeats using `seed` (cycling when
/// fewer blocks live), interleaved, for a mix whose timed phase has no
/// deletes, with deletes of blocks no later read targets.
pub fn epilogue(mix: Mix, seed: u64, live: &BTreeMap<u64, Bytes>) -> Vec<Op> {
    let mut blocks: Vec<(&u64, &Bytes)> = live.iter().collect();
    let mut rng = Rng::new(seed, 9);
    // Partial Fisher-Yates: a seeded sample without repeats.
    let take = EPILOGUE_READS.min(blocks.len());
    for i in 0..take {
        let j = i + rng.below((blocks.len() - i) as u64) as usize;
        blocks.swap(i, j);
    }
    if take == 0 {
        return Vec::new();
    }
    let deletes = !mix.timed_has(Kind::Delete);
    let mut ops = Vec::with_capacity(EPILOGUE_READS + EPILOGUE_READS / EPILOGUE_DELETE_EVERY);
    for r in 0..EPILOGUE_READS {
        let (lba, data) = blocks[r % take];
        ops.push(Op::Read {
            lba: *lba,
            expect: data.clone(),
        });
        let last_read = r + take >= EPILOGUE_READS;
        if deletes && last_read && r % EPILOGUE_DELETE_EVERY == EPILOGUE_DELETE_EVERY - 1 {
            ops.push(Op::Delete { lba: *lba });
        }
    }
    ops
}
