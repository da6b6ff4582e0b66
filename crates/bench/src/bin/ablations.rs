//! Regenerates the ablation tables A1–A4 (docs/ARCHITECTURE.md
//! experiment index): the wavelength and gateway sweeps of the paper's
//! open challenge 3, the reconfiguration-policy comparison, and the
//! heterogeneous-quantization ablation, all on 2.5D-SiPh.
//!
//! The A1/A2 sweeps run through the `lumos_dse` engine on the shared
//! [`DseAxes::wavelength_ablation`] / [`DseAxes::gateway_ablation`]
//! grids; the A3 policies × models grid runs on the `lumos_dse` worker
//! pool. Output is independent of the worker count.
//!
//! ```text
//! cargo run -p lumos-bench --bin ablations
//! cargo run -p lumos-bench --bin ablations -- --threads 2   # pin workers
//! ```

use lumos_bench::bench_threads;
use lumos_core::dse::{self, DseAxes, MemoCache};
use lumos_core::{Platform, PlatformConfig, Runner};
use lumos_dnn::quantization::{extract_quantized_workloads, QuantPolicy, QuantizationScheme};
use lumos_phnet::ReconfigPolicy;

fn main() {
    wavelengths();
    gateways();
    policies();
    quantization();
}

/// A1: wavelength-count sweep (gateways fixed at Table 1's 4) on
/// ResNet-50 and VGG-16.
fn wavelengths() {
    println!("\n=== A1: wavelength sweep (2.5D-SiPh) ===");
    println!(
        "{:<8} {:<14} {:>12} {:>10} {:>12}",
        "λ", "model", "lat (ms)", "P (W)", "EPB (nJ/b)"
    );
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes::wavelength_ablation();
    let mut cache = MemoCache::in_memory();
    for model in [lumos_dnn::zoo::resnet50(), lumos_dnn::zoo::vgg16()] {
        let (points, _) = dse::sweep_with(&base, &axes, &model, bench_threads(), Some(&mut cache));
        for p in points {
            if p.feasible {
                println!(
                    "{:<8} {:<14} {:>12.3} {:>10.1} {:>12.3}",
                    p.wavelengths,
                    model.name(),
                    p.latency_ms,
                    p.power_w,
                    p.epb_nj
                );
            } else {
                println!("{:<8} {:<14} infeasible", p.wavelengths, model.name());
            }
        }
    }
    println!();
}

/// A2: gateways-per-chiplet sweep (wavelengths fixed at Table 1's 64)
/// on VGG-16. More gateways buy inter-chiplet bandwidth at laser,
/// tuning, and MRG-footprint cost.
fn gateways() {
    println!("\n=== A2: gateways-per-chiplet sweep (2.5D-SiPh, VGG-16) ===");
    println!(
        "{:<8} {:>12} {:>10} {:>12} {:>14}",
        "gw", "lat (ms)", "P (W)", "EPB (nJ/b)", "net rings"
    );
    let base = PlatformConfig::paper_table1();
    let axes = DseAxes::gateway_ablation();
    let mut cache = MemoCache::in_memory();
    let model = lumos_dnn::zoo::vgg16();
    let (points, _) = dse::sweep_with(&base, &axes, &model, bench_threads(), Some(&mut cache));
    for p in points {
        let rings = dse::grid_config(&base, p.wavelengths, p.gateways, p.mac_scale)
            .phnet
            .total_rings();
        if p.feasible {
            println!(
                "{:<8} {:>12.3} {:>10.1} {:>12.3} {:>14}",
                p.gateways, p.latency_ms, p.power_w, p.epb_nj, rings
            );
        } else {
            println!("{:<8} infeasible ({rings} rings)", p.gateways);
        }
    }
    println!();
}

/// A3: ReSiPI gateway activation vs PROWAVES wavelength scaling vs the
/// static corners, averaged over the Table 2 models.
fn policies() {
    const POLICIES: [(ReconfigPolicy, &str); 4] = [
        (ReconfigPolicy::ResipiGateways, "resipi"),
        (ReconfigPolicy::ProwavesWavelengths, "prowaves"),
        (ReconfigPolicy::StaticFull, "static_full"),
        (ReconfigPolicy::StaticMin, "static_min"),
    ];
    println!("\n=== A3: reconfiguration policies (2.5D-SiPh, Table 2 average) ===");
    println!(
        "{:<14} {:>12} {:>10} {:>12}",
        "policy", "lat (ms)", "P (W)", "EPB (nJ/b)"
    );
    let models = lumos_dnn::zoo::table2_models();
    let cells: Vec<(ReconfigPolicy, &lumos_dnn::Model)> = POLICIES
        .iter()
        .flat_map(|&(policy, _)| models.iter().map(move |m| (policy, m)))
        .collect();
    let reports = lumos_dse::parallel_map(&cells, bench_threads(), |(policy, model)| {
        let mut cfg = PlatformConfig::paper_table1();
        cfg.phnet.policy = *policy;
        Runner::new(cfg)
            .run(&Platform::Siph2p5D, model)
            .expect("feasible")
    });
    let n = models.len() as f64;
    for ((_, name), chunk) in POLICIES.iter().zip(reports.chunks(models.len())) {
        println!(
            "{:<14} {:>12.3} {:>10.1} {:>12.3}",
            name,
            chunk.iter().map(|r| r.latency_ms()).sum::<f64>() / n,
            chunk.iter().map(|r| r.avg_power_w()).sum::<f64>() / n,
            chunk.iter().map(|r| r.epb_nj()).sum::<f64>() / n
        );
    }
    println!();
}

/// A4: heterogeneous quantization (paper §III, ref. \[22\]) — interposer
/// traffic and latency vs per-layer bit-width policy.
fn quantization() {
    const POLICIES: [(&str, QuantPolicy); 3] = [
        ("uniform8", QuantPolicy::Uniform { bits: 8 }),
        (
            "edges8_4",
            QuantPolicy::EdgesHigh {
                edge_bits: 8,
                interior_bits: 4,
            },
        ),
        (
            "traffic8_4",
            QuantPolicy::TrafficAware {
                max_bits: 8,
                min_bits: 4,
            },
        ),
    ];
    println!("\n=== quantization ablation (2.5D-SiPh) ===");
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>12}",
        "model", "policy", "traffic(Gb)", "lat (ms)", "EPB (nJ/b)"
    );
    let runner = Runner::new(PlatformConfig::paper_table1());
    for model in [lumos_dnn::zoo::vgg16(), lumos_dnn::zoo::resnet50()] {
        for (name, policy) in POLICIES {
            let scheme = QuantizationScheme::assign(&model, policy);
            let work = extract_quantized_workloads(&model, &scheme);
            let r = runner
                .run_workloads(&Platform::Siph2p5D, model.name(), &work)
                .expect("feasible");
            println!(
                "{:<14} {:<12} {:>12.3} {:>12.3} {:>12.3}",
                model.name(),
                name,
                r.bits_moved as f64 / 1e9,
                r.latency_ms(),
                r.epb_nj()
            );
        }
    }
    println!();
}
