//! Scheduler equivalence: the timing wheel is the simulator's only
//! event engine. The binary heap it replaced was retired once every cell
//! of `tests/golden/digests.txt` had been shown to come out the same
//! under both engines (DESIGN.md §12.2), so the pinned cells are the
//! heap's outputs. These tests hold the wheel to them across seeds,
//! shard counts, forced worker layouts and both pilot fault mixes.

#[path = "golden/cells.rs"]
mod cells;

use cells::{crash_pilot, faulted_pilot, fleet_cell, pilot_cell};
use mmt::netsim::Time;
use mmt::pilot::manyflow::ManyFlowConfig;

#[test]
fn manyflow_heap_and_wheel_agree_for_eight_seeds_all_layouts() {
    let pins = cells::pinned();
    let mut mismatches = Vec::new();
    for seed in 1..=8u64 {
        for shards in [1usize, 2, 4] {
            for workers in [1usize, 2, 4] {
                let cfg = ManyFlowConfig::quick(seed)
                    .with_shards(shards)
                    .with_series(Time::from_micros(100));
                let got = fleet_cell(&cfg, workers);
                if let Some(m) = cells::mismatch(&pins, &format!("fleet-quick-seed{seed}"), got) {
                    mismatches.push(format!("{shards} shards / {workers} workers: {m}"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "wheel fleet diverged from the heap-verified pins:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn faulted_pilot_heap_and_wheel_agree() {
    // E12-style: the fault layer draws from its own seeded streams, so
    // engine-order bugs show up as diverged fault verdicts long before
    // they corrupt counters.
    let pins = cells::pinned();
    let mismatches: Vec<String> = [7u64, 21, 63]
        .into_iter()
        .filter_map(|seed| {
            let got = pilot_cell(faulted_pilot(seed), false);
            cells::mismatch(&pins, &format!("e12-faulted-seed{seed}-run"), got)
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "faulted pilot diverged from the heap-verified pins:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn crash_failover_pilot_heap_and_wheel_agree() {
    // E13-style: crash/restart events ride the same queue as packets and
    // timers, so this exercises tie-breaking between control events and
    // data events at one timestamp.
    let pins = cells::pinned();
    let mismatches: Vec<String> = [7u64, 42]
        .into_iter()
        .filter_map(|seed| {
            let got = pilot_cell(crash_pilot(seed), false);
            cells::mismatch(&pins, &format!("e13-crash-seed{seed}-run"), got)
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "failover pilot diverged from the heap-verified pins:\n{}",
        mismatches.join("\n")
    );
}
