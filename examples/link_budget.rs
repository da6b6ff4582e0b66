//! Photonic link-budget walkthrough: how much laser power does the
//! paper's interposer actually need, and how many wavelengths could it
//! support?
//!
//! Exercises the device-level substrate (paper §II) end to end:
//! waveguides → splitters → modulators → filters → photodetector.
//!
//! ```text
//! cargo run --example link_budget
//! ```

use lumos::phnet::{config::PhnetConfig, layout::InterposerLayout};
use lumos::photonics::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PhnetConfig::paper_table1();
    let layout = InterposerLayout::from_config(&cfg);

    println!("SWMR broadcast path (memory -> farthest compute reader):");
    print!("{}", layout.swmr_budget.breakdown());
    println!("\nSWSR return path (compute writer -> memory filter row):");
    print!("{}", layout.swsr_budget.breakdown());

    // Solve the broadcast link at the Table 1 operating point.
    let modulator = Modulator::typical(ModulationFormat::Ook);
    let detector = Photodetector::typical();
    let laser = Laser::new(LaserPlacement::OffChip, cfg.wavelengths);
    let plan = ChannelPlan::dense(cfg.wavelengths)?;

    let design = solve_link(
        &layout.swmr_budget,
        &plan,
        cfg.rate_gbps,
        &modulator,
        &detector,
        &laser,
        cfg.ring_q,
        cfg.max_laser_dbm,
    )?;
    println!("\n64-wavelength SWMR solution:");
    println!("  required at PD:     {}", design.required_at_pd);
    println!("  required at laser:  {}", design.required_at_laser);
    println!(
        "  laser (electrical): {:.2} W per broadcast tree",
        design.laser_electrical_w
    );
    println!(
        "  aggregate rate:     {:.0} Gb/s",
        design.aggregate_rate_gbps
    );
    println!(
        "  crosstalk penalty:  {:.2} dB",
        design.crosstalk_penalty_db
    );
    println!(
        "  laser energy/bit:   {:.1} fJ",
        design.laser_energy_per_bit() * 1e15
    );

    // Design-space sanity check: what does the crosstalk wall look like?
    println!("\nMax wavelengths vs ring Q (20 dB signal-to-crosstalk):");
    for q in [2_000u32, 4_000, 8_000, 12_000, 16_000] {
        let n = max_channels_for_sxr(0.8, q, Decibels::new(20.0), 128);
        println!("  Q = {q:>6}: {n:>3} channels");
    }

    // And the laser wall: wavelengths supportable per path loss.
    println!("\nMax wavelengths vs path loss (laser capped at 20 dBm/ch):");
    for loss_db in [10.0, 20.0, 25.0, 30.0, 35.0] {
        let budget = LinkBudget::new().stage("path", Decibels::new(loss_db));
        let n = max_feasible_wavelengths(
            &budget, 0.8, 12.0, &modulator, &detector, &laser, 12_000, 20.0, 128,
        )
        .map(|(n, _)| n)
        .unwrap_or(0);
        println!("  {loss_db:>5.1} dB: {n:>3} channels");
    }
    Ok(())
}
