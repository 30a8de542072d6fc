//! Golden digests: every observable output of a fixed set of runs,
//! pinned as one FNV-64 line per cell in `tests/golden/digests.txt`.
//!
//! A cell's digest covers its rendered Prometheus text, its trace and
//! its series JSONL (plus, for the closed-loop pilot, the number of
//! transitions applied). Cells:
//!
//! * the `ManyFlowConfig::quick(seed)` fleet, serial, seeds 1–8, series
//!   sampled every 100 µs (`scheduler_equivalence.rs` and
//!   `flowtable_equivalence.rs` hold the shard × worker layouts to the
//!   same cells);
//! * the E12 faulted pilot (seeds 7, 21, 63) and the E13 crash pilot
//!   (seeds 7, 42), each under `Pilot::run` and `Pilot::run_adaptive`.
//!
//! Any change to event order, RNG draws, wire bytes or telemetry shows
//! up as a named cell mismatch. A deliberate change regenerates the file
//! with `cargo test --test golden_digests -- --ignored regenerate_golden`
//! and commits the diff. The runs themselves live in `golden/cells.rs`.

#[path = "golden/cells.rs"]
mod cells;

use cells::{crash_pilot, faulted_pilot, fleet_cell, pilot_cell};
use mmt::netsim::Time;
use mmt::pilot::manyflow::ManyFlowConfig;

/// Every cell as `(name, digest)`, in file order.
fn all_cells() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in 1..=8u64 {
        let cfg = ManyFlowConfig::quick(seed).with_series(Time::from_micros(100));
        out.push((format!("fleet-quick-seed{seed}"), fleet_cell(&cfg, 1)));
    }
    let pilots = [7u64, 21, 63]
        .map(|s| (format!("e12-faulted-seed{s}"), faulted_pilot(s)))
        .into_iter()
        .chain([7u64, 42].map(|s| (format!("e13-crash-seed{s}"), crash_pilot(s))));
    for (name, cfg) in pilots {
        out.push((format!("{name}-run"), pilot_cell(cfg.clone(), false)));
        out.push((format!("{name}-run_adaptive"), pilot_cell(cfg, true)));
    }
    out
}

fn render(cells: &[(String, u64)]) -> String {
    let mut text = String::from(
        "# FNV-64 of each cell's Prometheus text, trace and series JSONL.\n\
         # Regenerate: cargo test --test golden_digests -- --ignored regenerate_golden\n",
    );
    for (name, d) in cells {
        text.push_str(&format!("{name} {d:016x}\n"));
    }
    text
}

#[test]
fn golden_digests_match() {
    let computed = all_cells();
    let pins = cells::pinned();
    let names: Vec<&str> = computed.iter().map(|(n, _)| n.as_str()).collect();
    let pinned_names: Vec<&str> = pins.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, pinned_names,
        "the golden file's cells differ from the suite's; regenerate with \
         `cargo test --test golden_digests -- --ignored regenerate_golden`"
    );
    let mismatches: Vec<String> = computed
        .iter()
        .filter_map(|(name, d)| cells::mismatch(&pins, name, *d))
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests diverged:\n{}",
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden/digests.txt; run after a deliberate output change"]
fn regenerate_golden() {
    let path = cells::golden_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create tests/golden");
    }
    std::fs::write(&path, render(&all_cells())).expect("write golden file");
}
