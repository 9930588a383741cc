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
//! interference, one case per chaos preset, all with fast-forward off,
//! plus one clean fast-forward `Auto` case where replay engages. Two
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
    type Preset = (&'static str, fn(&str, usize, &str) -> Scenario, &'static str, &'static str);
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
/// this table proves that change bit-identical.
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
