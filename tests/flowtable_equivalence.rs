//! Flow-table equivalence: the struct-of-arrays flow table is the
//! fleet's only flow-state layout, and the pilot always parks its mode
//! word in a flow-table row. The boxed per-sensor (AoS) layout and the
//! pilot's table-off path were retired once every cell of
//! `tests/golden/digests.txt` had been shown to come out the same under
//! each of them (DESIGN.md §12.2), so the pinned cells are their outputs.
//! These tests hold the production paths to them.

#[path = "golden/cells.rs"]
mod cells;

use cells::{crash_pilot, faulted_pilot, fleet_cell, pilot_cell};
use mmt::netsim::Time;
use mmt::pilot::manyflow::{self, ManyFlowConfig};

#[test]
fn manyflow_soa_and_aos_agree_for_eight_seeds_all_layouts() {
    // Through `manyflow::run`, the entry point the bench and E14 use,
    // which picks its own worker count.
    let pins = cells::pinned();
    let mut mismatches = Vec::new();
    for seed in 1..=8u64 {
        for shards in [1usize, 2, 4] {
            let cfg = ManyFlowConfig::quick(seed)
                .with_shards(shards)
                .with_series(Time::from_micros(100));
            let report = manyflow::run(&cfg);
            assert!(report.shard.packets > 0, "seed {seed}: nothing delivered");
            let got = cells::report_digest(seed, &report.shard);
            if let Some(m) = cells::mismatch(&pins, &format!("fleet-quick-seed{seed}"), got) {
                mismatches.push(format!("{shards} shards: {m}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "SoA fleet diverged from the AoS-verified pins:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn manyflow_soa_wheel_matches_aos_heap() {
    // The two retired references were each checked against the same
    // pins, so the production pair (SoA on the wheel) must match them
    // on a sharded, multi-worker layout as well.
    let pins = cells::pinned();
    let cfg = ManyFlowConfig::quick(3)
        .with_shards(2)
        .with_series(Time::from_micros(100));
    let got = fleet_cell(&cfg, 2);
    if let Some(m) = cells::mismatch(&pins, "fleet-quick-seed3", got) {
        panic!("SoA + wheel diverged from the AoS- and heap-verified pin: {m}");
    }
}

#[test]
fn faulted_pilot_flow_table_on_and_off_agree() {
    // E12-style under the closed adaptation loop: the controller's word
    // is parked in and thawed from the flow table every control
    // interval, so a single misplaced bit in the round-trip shows up as
    // diverged adaptation decisions and counters.
    let pins = cells::pinned();
    let mismatches: Vec<String> = [7u64, 21, 63]
        .into_iter()
        .filter_map(|seed| {
            let got = pilot_cell(faulted_pilot(seed), true);
            cells::mismatch(&pins, &format!("e12-faulted-seed{seed}-run_adaptive"), got)
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "faulted adaptive pilot diverged from the table-off pins:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn crash_failover_pilot_flow_table_on_and_off_agree() {
    // E13-style under the closed loop: failover flips the flow's
    // retransmit-buffer slot from primary to standby in the table; the
    // flip must mirror, never drive, the recovery path.
    let pins = cells::pinned();
    let mismatches: Vec<String> = [7u64, 42]
        .into_iter()
        .filter_map(|seed| {
            let got = pilot_cell(crash_pilot(seed), true);
            cells::mismatch(&pins, &format!("e13-crash-seed{seed}-run_adaptive"), got)
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "failover adaptive pilot diverged from the table-off pins:\n{}",
        mismatches.join("\n")
    );
}
