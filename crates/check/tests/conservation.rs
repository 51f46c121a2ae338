//! The conservation checker: clean runs conserve, corrupted maps are
//! caught.

use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_check::conservation::{check_totals, verify_conservation, verify_kernel_equivalence};
use nvpim_core::SimConfig;
use nvpim_workloads::parallel_mul::ParallelMul;

/// Both simulator arms conserve writes for representative configurations
/// (static, software-remapped, and dynamic Hw).
#[test]
fn representative_configs_conserve() {
    let workload = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper().with_iterations(12).with_seed(3);
    for config in ["StxSt", "RaxBs", "StxSt+Hw", "RaxRa+Hw"] {
        let config: BalanceConfig = config.parse().expect("valid literal");
        let findings = verify_conservation(&workload, config, cfg);
        assert!(findings.is_empty(), "{config}: {findings:?}");
    }
}

/// The compiled-kernel arm is bit-identical to step replay for dynamic
/// configurations across epoch boundaries (including a partial epoch),
/// and the analytic engine agrees with both on every reducibility rung
/// (closed-form, lazy software, and lazy hardware).
#[test]
fn kernel_arms_are_equivalent_for_dynamic_configs() {
    let workload = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    let cfg = SimConfig::paper()
        .with_iterations(17)
        .with_schedule(RemapSchedule::every(5))
        .with_read_tracking(true)
        .with_seed(3);
    for config in ["StxSt+Hw", "RaxBs+Hw", "BsxRa+Hw", "BsxBs", "RaxSt", "RaxRa+Hw"] {
        let config: BalanceConfig = config.parse().expect("valid literal");
        let findings = verify_kernel_equivalence(&workload, config, cfg);
        assert!(findings.is_empty(), "{config}: {findings:?}");
    }
}

/// A wear map that matches expectations passes `check_totals`.
#[test]
fn matching_totals_pass() {
    let mut wear = WearMap::new(ArrayDims::new(4, 4));
    wear.add_write_at(0, 0, 10);
    wear.add_read_at(1, 1, 4);
    assert!(check_totals("ok", &wear, Some((10, 4))).is_empty());
    assert!(check_totals("ok", &wear, None).is_empty());
}

/// Mismatched external totals produce `write-loss` / `read-loss`.
#[test]
fn mismatched_totals_are_flagged() {
    let mut wear = WearMap::new(ArrayDims::new(4, 4));
    wear.add_write_at(0, 0, 10);
    wear.add_read_at(1, 1, 4);
    let findings = check_totals("bad", &wear, Some((11, 3)));
    let codes: Vec<_> = findings.iter().map(|f| f.code).collect();
    assert_eq!(codes, vec!["write-loss", "read-loss"], "{findings:?}");
    assert!(findings[0].message.contains("10 writes but 11"), "{}", findings[0].message);
}
