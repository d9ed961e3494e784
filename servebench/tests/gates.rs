//! The benchmark's own gates: the read-verification gate trips on
//! corrupted replies, inputs and write-side counters are pure functions
//! of the seed, and `read-mixed` never reads a block a timed write
//! changes. Run with `cargo test --release`.

use fidr::server::CorruptFault;
use fidr_servebench::inputs::{live_blocks, Inputs, Mix, Op};
use fidr_servebench::{serve, RunConfig, Served};
use std::collections::{BTreeSet, HashMap};

/// A run that ends when its `cap` timed inputs run out, long before the
/// time limit, so it always issues exactly the same operations.
fn fixed_run(mix: Mix, seed: u64, cap: usize, corrupt: Option<CorruptFault>) -> Served {
    let cfg = RunConfig {
        timed_cap: cap,
        setup_reps: 1,
        corrupt,
        ..RunConfig::new(mix, seed, 60.0)
    };
    serve(&cfg, &Inputs::build(mix, seed, cap))
}

#[test]
fn corrupted_read_replies_trip_the_gate() {
    let clean = fixed_run(Mix::DedupIngest, 3, 2000, None);
    assert_eq!(clean.failed(), 0);
    assert!(clean.correct());

    let corrupt = fixed_run(Mix::DedupIngest, 3, 2000, Some(CorruptFault { every: 97 }));
    assert!(corrupt.mismatched() > 0, "no read saw the corruption");
    assert_eq!(corrupt.failed(), corrupt.mismatched());
    assert!(corrupt.error_rate() > 0.0);
    assert!(!corrupt.correct(), "a mismatch must fail the run");
}

/// The write-side counters that must repeat exactly for one seed.
fn write_counters(served: &Served, with_seals: bool) -> Vec<u64> {
    let mut names = vec![
        "reduction.write_chunks.count",
        "reduction.duplicate_chunks.count",
        "reduction.unique_chunks.count",
        "reduction.raw.bytes",
    ];
    if with_seals {
        names.push("reduction.containers_sealed.count");
    }
    names
        .iter()
        .map(|n| served.drained.counter(n).expect(n))
        .collect()
}

#[test]
fn write_counters_repeat_per_seed_and_differ_across_seeds() {
    // reduce-churn: its prefill (round 0) and part of round 1, so
    // deletes, overwrites and GC passes interleave with the counted
    // writes.
    for (mix, cap, with_seals) in [
        (Mix::DedupIngest, 3000, true),
        (Mix::ReduceChurn, 12_000, false),
    ] {
        let a = write_counters(&fixed_run(mix, 7, cap, None), with_seals);
        let b = write_counters(&fixed_run(mix, 7, cap, None), with_seals);
        let c = write_counters(&fixed_run(mix, 8, cap, None), with_seals);
        assert_eq!(a, b, "{}: same seed, different counters", mix.name());
        assert_ne!(a, c, "{}: counters ignore the seed", mix.name());
    }
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for mix in Mix::ALL {
        // `assert!`, not `assert_eq!`: a failure would print every payload.
        let a = Inputs::build(mix, 5, 3000);
        assert!(a == Inputs::build(mix, 5, 3000), "{}", mix.name());
        assert!(a != Inputs::build(mix, 6, 3000), "{}", mix.name());
        assert_eq!(a.timed.len(), mix.conns());
        assert!(a.timed.iter().all(|ops| ops.len() == 3000));
        // A longer list extends a shorter one, so raising the input cap
        // leaves what a run executes unchanged.
        let longer = Inputs::build(mix, 5, 6000);
        assert!(a.prefill == longer.prefill, "{}", mix.name());
        for (short, long) in a.timed.iter().zip(&longer.timed) {
            assert!(short[..] == long[..3000], "{}", mix.name());
        }
    }
}

#[test]
fn read_mixed_reads_only_blocks_no_timed_write_changes() {
    let inputs = Inputs::build(Mix::ReadMixed, 11, 20_000);
    let written: BTreeSet<u64> = inputs
        .timed
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Write { .. }))
        .map(Op::lba)
        .collect();
    let prefilled = live_blocks(&inputs, &[0, 0]);
    let mut reads = 0;
    for op in inputs.timed.iter().flatten() {
        if let Op::Read { lba, expect } = op {
            reads += 1;
            assert!(!written.contains(lba), "read of timed-written {lba}");
            assert_eq!(prefilled.get(lba), Some(expect), "stale expectation");
        }
    }
    let share = reads as f64 / 40_000.0;
    assert!((share - 0.8).abs() < 0.02, "read share {share}");
    // The two prefill connections write disjoint blocks, so the final
    // contents do not depend on how they interleave.
    let lbas = |ops: &Vec<Op>| ops.iter().map(Op::lba).collect::<BTreeSet<u64>>();
    assert!(lbas(&inputs.prefill[0]).is_disjoint(&lbas(&inputs.prefill[1])));
}

#[test]
fn churn_duplicates_repeat_live_content() {
    let inputs = Inputs::build(Mix::ReduceChurn, 13, 40_000);
    // Round 0 (the prefill) writes each block once, so the order of its
    // two lists does not matter here.
    let ops = inputs.prefill.iter().flatten().chain(&inputs.timed[0]);
    // Content identity is the payload's address: fresh contents are
    // distinct slices of one arena, duplicates share a slice.
    let mut holder: HashMap<u64, usize> = HashMap::new();
    let mut refs: HashMap<usize, u32> = HashMap::new();
    let (mut writes, mut dups, mut deletes) = (0u32, 0u32, 0u32);
    for op in ops {
        match op {
            Op::Write { lba, data } => {
                writes += 1;
                let id = data.as_ptr() as usize;
                if let Some(n) = refs.get(&id) {
                    assert!(*n > 0, "duplicate of dead content at {lba}");
                    dups += 1;
                }
                if let Some(old) = holder.insert(*lba, id) {
                    *refs.get_mut(&old).expect("held") -= 1;
                }
                *refs.entry(id).or_default() += 1;
            }
            Op::Delete { lba } => {
                deletes += 1;
                let old = holder.remove(lba).expect("delete of a live block");
                *refs.get_mut(&old).expect("held") -= 1;
            }
            Op::Read { .. } => unreachable!("churn issues no reads"),
        }
    }
    let dup_share = f64::from(dups) / f64::from(writes);
    assert!(
        (dup_share - 0.4).abs() < 0.03,
        "duplicate share {dup_share}"
    );
    assert!(deletes > 10_000, "only {deletes} deletes");
}
