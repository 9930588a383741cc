//! MICRO — the ghost-send hot loop: trait adjacency walk vs CSR.
//!
//! Every task completion walks the finishing chare's neighbor list to send
//! ghosts. The trait path ([`IterativeApp::neighbors`]) allocates a fresh
//! `Vec` and re-derives `message_bytes` per edge, per iteration; the
//! executor now pre-flattens the (static) graph into a [`CommCsr`] once
//! and walks an indexed row slice. This bench measures both on the
//! Mol3D communication graph (the densest of the apps) and records the
//! per-sweep times to `BENCH_comm_csr.json`.

use cloudlb_apps::Mol3D;
use cloudlb_bench::baseline::{self, Record};
use cloudlb_bench::Settings;
use cloudlb_runtime::program::IterativeApp;
use cloudlb_runtime::CommCsr;
use std::hint::black_box;
use std::time::Instant;

/// Median per-call time in µs over `samples` batches of `iters` calls.
fn median_us(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f(); // warm-up
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_call[per_call.len() / 2]
}

/// Time both walks over the Mol3D graph at 32 PEs.
fn walks(s: &Settings) -> Record {
    let samples = if s.fast { 5 } else { 20 };
    let app = Mol3D::for_pes(32);
    let csr = CommCsr::build(&app);
    let n = csr.num_chares();
    println!(
        "(Mol3D for 32 PEs: {n} chares, {} directed edges, {samples} batches)",
        csr.num_edges()
    );

    let trait_walk_us = median_us(samples, 10, || {
        let mut acc = 0usize;
        for chare in 0..n {
            for nb in app.neighbors(chare) {
                acc += app.message_bytes(chare, nb);
            }
        }
        black_box(acc);
    });
    let csr_walk_us = median_us(samples, 10, || {
        let mut acc = 0usize;
        for chare in 0..n {
            for e in csr.row(chare) {
                black_box(csr.neighbor(e));
                acc += csr.edge_bytes(e);
            }
        }
        black_box(acc);
    });

    // Sanity: both walks cover the same edges and bytes.
    let trait_bytes: usize = (0..n)
        .flat_map(|c| app.neighbors(c).into_iter().map(move |nb| (c, nb)))
        .map(|(c, nb)| app.message_bytes(c, nb))
        .sum();
    let csr_bytes: usize = (0..n)
        .flat_map(|c| csr.row(c))
        .map(|e| csr.edge_bytes(e))
        .sum();
    assert_eq!(trait_bytes, csr_bytes, "CSR must mirror the trait graph");

    let speedup = trait_walk_us / csr_walk_us;
    println!("trait walk {trait_walk_us:>10.2} µs/graph");
    println!("csr walk   {csr_walk_us:>10.2} µs/graph");
    println!("speedup    {speedup:>10.2}x");

    Record::new("comm_csr", s.fast, 1)
        .metric("chares", n)
        .metric("edges", csr.num_edges())
        .metric("trait_walk_us", trait_walk_us)
        .metric("csr_walk_us", csr_walk_us)
        .metric("speedup", speedup)
}

fn main() {
    baseline::run("comm graph walk — trait adjacency vs CSR", walks);
}
