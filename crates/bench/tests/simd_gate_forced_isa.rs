//! `IOS_FORCE_ISA` caps what `simd_gate` reports, not only what its kernels
//! dispatch to: a process forced below the host's widest tier models a host
//! without the wider one, so no row of the gate's report holds a number for
//! a tier wider than the forced one.

use ios_backend::simd::{self, Isa};
use serde_json::Value;
use std::process::Command;

#[test]
fn a_forced_tier_leaves_no_simd_gate_row_naming_a_wider_one() {
    // Only AVX2 runs the gate at speed below AVX-512: forcing the `fmaf`
    // reference tier would time every convolution row at ~100× its cost.
    if simd::detected_isa() != Isa::Avx512 {
        eprintln!("skipped: the host has no tier above AVX2 to force down from");
        return;
    }
    let forced = Isa::Avx2;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("simd_gate_forced_isa");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let run = Command::new(env!("CARGO_BIN_EXE_simd_gate"))
        .arg("--quick")
        .env("IOS_FORCE_ISA", forced.name())
        .current_dir(&dir)
        .output()
        .expect("simd_gate runs");
    let printed = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "simd_gate under {forced}:\n{printed}");
    let text = std::fs::read_to_string(dir.join("BENCH_simd.json")).expect("the gate's report");
    let report: Value = serde_json::from_str(&text).expect("a JSON report");
    assert_eq!(report["host"]["active_isa"].as_str(), Some(forced.name()));

    let wider: Vec<&str> = Isa::ALL
        .iter()
        .filter(|&&i| i > forced)
        .map(|i| i.name())
        .collect();
    let tables = report["tables"].as_array().expect("tables");
    assert_eq!(tables.len(), 3, "convolution, pooling and weight tables");
    for table in tables {
        let title = table["title"].as_str().expect("a title");
        for name in &wider {
            assert!(!title.contains(name), "{title:?} names {name}");
        }
        for row in table["rows"].as_array().expect("rows") {
            for (key, cell) in row.as_object().expect("a row object").iter() {
                if wider.iter().any(|name| key.contains(name)) {
                    assert!(
                        cell.is_null(),
                        "{key} = {cell:?} under {forced}:\n{printed}"
                    );
                }
            }
        }
    }
}
