//! The traffic `lumos_perf`'s serve workloads time, pinned variant for
//! variant.
//!
//! Each serve workload cycles its passes through 16 arrival seeds, but
//! `lumos_perf/golden.txt` pins only variant 0 at seed 1. This test
//! rebuilds both serve workloads' configurations and seed rule (copied
//! from `lumos_perf/src/workloads.rs`) and pins every variant's pass
//! digest: a `StableHasher` over each configuration's report JSON, in
//! configuration order, exactly as a benchmark pass hashes them.
//! Variant 0 therefore equals the benchmark's golden at seed 1.
//!
//! Profiles do not depend on the seed, so each configuration's profiles
//! are built once. `serve_decode`'s are built on the worker pool, so
//! the digests must not depend on `LUMOS_DSE_THREADS`.

use std::hash::Hasher;

use lumos_core::{Platform, PlatformConfig};
use lumos_dnn::workload::Precision;
use lumos_dnn::zoo;
use lumos_dse::StableHasher;
use lumos_serve::{
    build_profiles, simulate_with_profiles, BatchPolicy, ContentionKind, ServeConfig, ServedModel,
};

/// `lumos_perf::workloads::SEED_VARIANTS`.
const SEED_VARIANTS: u64 = 16;

/// `serve_decode`'s pass digest per seed variant at seed 1.
const SERVE_DECODE: [u64; 16] = [
    0x89d0_ee87_6370_4488,
    0x529e_394a_ec58_c476,
    0xd21d_e6b3_327d_72cb,
    0x3318_58b4_e957_b063,
    0x68c6_65d2_c370_3088,
    0xf173_f1ba_1d00_3111,
    0x7bfc_cd28_2854_beb0,
    0x39da_378c_2494_7803,
    0xe412_96d5_e0b0_91ec,
    0x5956_040d_a2ef_169f,
    0x813d_c7d8_a5b4_e807,
    0x4c13_0e3a_3e37_b50a,
    0x2058_f2e1_3b79_b0ab,
    0x16ee_f4f3_24ad_c08c,
    0xe1f9_4f2f_9a68_69fc,
    0xac3e_44d2_83ae_1a33,
];

/// `serve_flow`'s pass digest per seed variant at seed 1.
const SERVE_FLOW: [u64; 16] = [
    0xdf01_5155_090a_33bb,
    0xda9d_58aa_76ac_8d31,
    0xfd55_59ed_f6c7_3432,
    0xd3fd_3df9_19d0_ac64,
    0x34ff_754d_e921_6e05,
    0x631f_a457_f153_f801,
    0xbeda_cd0c_7ff6_b327,
    0x6d8e_752b_e791_d880,
    0xbf62_b1c1_95de_6eb8,
    0xb5ac_3fe5_c720_1778,
    0x7727_3caf_a3a5_0e9d,
    0x23a4_57a5_7ebd_3677,
    0x5fb3_b1a8_dc71_d973,
    0x652f_3b9d_b594_da71,
    0xe674_4e54_7f09_af56,
    0xce50_6c0f_f67f_6756,
];

/// `lumos_perf::workloads::seed_variants`: variant `j` of `seed`.
fn variant_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `serve_decode`: the GPT-2 continuous(4) generator mix on SiPh, then
/// on Elec.
fn serve_decode() -> Vec<ServeConfig> {
    [
        (Platform::Siph2p5D, 400.0, 0.25),
        (Platform::Elec2p5D, 30.0, 1.5),
    ]
    .into_iter()
    .map(|(platform, rate_rps, duration_s)| {
        let generator = ServedModel::generator(
            &lumos_xformer::zoo::gpt2_small(),
            32,
            12,
            1,
            Precision::int8(),
            rate_rps,
            1_000.0,
        );
        ServeConfig::new(PlatformConfig::paper_table1(), platform, vec![generator])
            .with_duration_s(duration_s)
            .with_max_concurrency(16)
            .with_batching(BatchPolicy::continuous(4))
    })
    .collect()
}

/// `serve_flow`: LeNet5 at 20k rps plus ResNet-50 at 200 rps, flow-level
/// contention on Elec at K = 16.
fn serve_flow() -> Vec<ServeConfig> {
    let mix = vec![
        ServedModel::cnn(&zoo::lenet5(), Precision::int8(), 20_000.0, 5.0),
        ServedModel::cnn(&zoo::resnet50(), Precision::int8(), 200.0, 100.0),
    ];
    vec![
        ServeConfig::new(PlatformConfig::paper_table1(), Platform::Elec2p5D, mix)
            .with_duration_s(1.0)
            .with_max_concurrency(16)
            .with_contention(ContentionKind::FlowLevel),
    ]
}

/// Every variant's pass digest over `configs` at seed 1.
fn digests(configs: &[ServeConfig]) -> Vec<u64> {
    let profiles: Vec<_> = configs
        .iter()
        .map(|cfg| build_profiles(cfg).expect("profiles build"))
        .collect();
    (0..SEED_VARIANTS)
        .map(|j| {
            let mut h = StableHasher::new();
            for (cfg, profiles) in configs.iter().zip(&profiles) {
                let cfg = cfg.clone().with_seed(variant_seed(1, j));
                let report = simulate_with_profiles(&cfg, profiles).expect("serve run");
                h.write_str(&report.to_json());
            }
            h.finish()
        })
        .collect()
}

fn check(name: &str, configs: &[ServeConfig], goldens: &[u64; 16]) {
    let got = digests(configs);
    let drifted: Vec<String> = got
        .iter()
        .zip(goldens)
        .enumerate()
        .filter(|(_, (got, golden))| got != golden)
        .map(|(j, (got, _))| format!("variant {j}: {got:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{name} digests drifted from their goldens: {}",
        drifted.join(", ")
    );
}

#[test]
fn serve_decode_seed_variants_match_goldens() {
    check("serve_decode", &serve_decode(), &SERVE_DECODE);
}

#[test]
fn serve_flow_seed_variants_match_goldens() {
    check("serve_flow", &serve_flow(), &SERVE_FLOW);
}
