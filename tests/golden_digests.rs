//! Golden corpus: the engine's physics pinned as digests.
//!
//! Each case runs one scenario and hashes the `Debug` text of its
//! [`RunResult::scrub_ff`] with FNV-1a — the same scheme
//! `perfbench/digests.txt` uses — so any change to any observable of the
//! run (iteration times, energy, migrations, event counts, queue depth,
//! chaos counters …) changes the digest. A refactor must leave every
//! digest unchanged; a deliberate behaviour change re-records the table
//! (the failure message prints the whole current table) and regenerates
//! `perfbench/digests.txt` in the same change.
//!
//! Coverage: three apps at 16 and 64 cores under the paper's
//! interference, one case per chaos preset, the `nolb`,
//! `hiercloudrefine` and `greedybg` arms on `paper/jacobi2d/16`, and CI
//! seeds 2 and 3 on that cell and on the spot-storm and failure-drill
//! presets, all with fast-forward off, plus one clean fast-forward
//! `Auto` case where replay engages. Two
//! interfered cases also run as fast-forward `Auto` twins, which replay
//! windows with the background job resident and must hash to their
//! `Off` row's digest.

use cloudlb_core::{par_map, try_run_scenario, Scenario};
use cloudlb_runtime::FastForward;

/// Iterations per case: four LB windows at the default period of 10.
const ITERS: usize = 40;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn cases() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    let mut push = |label: String, mut scn: Scenario, ff: FastForward| {
        scn.iterations = ITERS;
        scn.fast_forward = ff;
        out.push((label, scn));
    };
    for app in ["jacobi2d", "wave2d", "mol3d"] {
        for cores in [16, 64] {
            let scn = Scenario::paper(app, cores, "cloudrefine");
            push(format!("paper/{app}/{cores}"), scn, FastForward::Off);
        }
    }
    type Make = fn(&str, usize, &str) -> Scenario;
    type Preset = (&'static str, Make, &'static str, &'static str);
    let presets: [Preset; 5] = [
        ("flaky_cloud", Scenario::flaky_cloud, "wave2d", "cloudrefine"),
        ("spot_storm", Scenario::spot_storm, "jacobi2d", "cloudrefine"),
        ("autoscale", Scenario::autoscale, "stencil3d", "cloudrefine"),
        ("noisy_cloud", Scenario::noisy_cloud, "mol3d", "robustcloudrefine"),
        ("failure_drill", Scenario::failure_drill, "jacobi2d", "cloudrefine"),
    ];
    for (name, make, app, arm) in presets {
        push(format!("{name}/{app}/16"), make(app, 16, arm), FastForward::Off);
    }
    // The other arms on one paper cell, and the CI seeds beyond the
    // default seed 1 on that cell and on the two presets that drive the
    // failure and membership handlers.
    for arm in ["nolb", "hiercloudrefine", "greedybg"] {
        let scn = Scenario::paper("jacobi2d", 16, arm);
        push(format!("paper/jacobi2d/16/{arm}"), scn, FastForward::Off);
    }
    let seeded: [(&str, Make); 3] = [
        ("paper", Scenario::paper),
        ("spot_storm", Scenario::spot_storm),
        ("failure_drill", Scenario::failure_drill),
    ];
    for (name, make) in seeded {
        for seed in [2, 3] {
            let scn = Scenario { seed, ..make("jacobi2d", 16, "cloudrefine") };
            push(format!("{name}/jacobi2d/16/seed{seed}"), scn, FastForward::Off);
        }
    }
    // A clean machine, so fast-forward actually replays windows.
    let clean = Scenario::paper("jacobi2d", 16, "nolb").base_of();
    push("clean_auto/jacobi2d/16".to_string(), clean, FastForward::Auto);
    for (twin, of) in AUTO_TWINS {
        let app = of.split('/').nth(1).expect("paper/<app>/<cores>");
        push(twin.to_string(), Scenario::paper(app, 16, "cloudrefine"), FastForward::Auto);
    }
    out
}

/// Fast-forward `Auto` twins of interfered rows: `(twin, row)`. A twin
/// has no digest of its own; it must reproduce its row's.
const AUTO_TWINS: &[(&str, &str)] =
    &[("paper_auto/jacobi2d/16", "paper/jacobi2d/16"), ("paper_auto/mol3d/16", "paper/mol3d/16")];

/// Digests recorded before the lazy core-settlement engine landed, so
/// this table proves that change bit-identical. The arm and seed rows
/// were recorded before the executor was split into modules.
const GOLDEN: &[(&str, u64)] = &[
    ("paper/jacobi2d/16", 0x65e481eaa2493650),
    ("paper/jacobi2d/64", 0xd020627d0cd440fe),
    ("paper/wave2d/16", 0x12c45eca66383d59),
    ("paper/wave2d/64", 0xbb176bf0800a0d93),
    ("paper/mol3d/16", 0xb0ebb02aee080b63),
    ("paper/mol3d/64", 0x6bbffc0145429df1),
    ("flaky_cloud/wave2d/16", 0x7396dc4471345c7b),
    ("spot_storm/jacobi2d/16", 0xa6841e97057ba6ce),
    ("autoscale/stencil3d/16", 0x3e706948d01f1503),
    ("noisy_cloud/mol3d/16", 0x813c1d7da2cf0701),
    ("failure_drill/jacobi2d/16", 0x431c8b7bbe2c74cd),
    ("paper/jacobi2d/16/nolb", 0x94c96810f8056348),
    ("paper/jacobi2d/16/hiercloudrefine", 0x539f4b4d058aa6f9),
    ("paper/jacobi2d/16/greedybg", 0xbd0be231277d71e8),
    ("paper/jacobi2d/16/seed2", 0x28004492feff191a),
    ("paper/jacobi2d/16/seed3", 0x9f4cb684d9e8a928),
    ("spot_storm/jacobi2d/16/seed2", 0x931b3c64a219f5b5),
    ("spot_storm/jacobi2d/16/seed3", 0xe99e325ddf98d9d1),
    ("failure_drill/jacobi2d/16/seed2", 0x24907987e73f32d3),
    ("failure_drill/jacobi2d/16/seed3", 0x29792ed5afbaf94a),
    ("clean_auto/jacobi2d/16", 0xd69973581e8b5bcd),
];

#[test]
fn golden_corpus_is_bit_identical() {
    let cases = cases();
    let labels: Vec<String> = cases.iter().map(|(l, _)| l.clone()).collect();
    let got: Vec<(u64, usize)> = par_map(cloudlb_core::default_jobs(), cases, |(label, scn)| {
        let r = try_run_scenario(&scn).unwrap_or_else(|e| panic!("{label}: {e}"));
        let ff_windows = r.ff_windows;
        (fnv1a(&format!("{:?}", r.scrub_ff())), ff_windows)
    });
    let golden = |label: &str| GOLDEN.iter().find(|&&(l, _)| l == label).map(|&(_, d)| d);
    let (mut have, mut table, mut twin_windows) = (Vec::new(), String::new(), 0);
    for (label, (digest, ff_windows)) in labels.into_iter().zip(got) {
        match AUTO_TWINS.iter().find(|&&(twin, _)| twin == label) {
            Some(&(_, of)) => {
                twin_windows += ff_windows;
                assert_eq!(Some(digest), golden(of), "{label} diverged from {of}");
            }
            None => {
                table += &format!("    (\"{label}\", 0x{digest:016x}),\n");
                have.push((label, digest));
            }
        }
    }
    // The balancer keeps migrating in jacobi2d's short run; mol3d's
    // mapping settles, so its twin replays with the job resident.
    assert!(twin_windows > 0, "no fast-forward twin replayed a window");
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(have, want, "golden digests changed; current table:\n{table}");
}
