//! Shared plumbing for the reproduction harnesses: experiment
//! configurations matching the paper's setups and table formatting.

use dwt::{Boundary, FilterBank, Matrix};
use dwt_mimd::{GuardOrdering, MimdDwtConfig};
use imagery::{landsat_scene, SceneParams};
use paragon::{MachineSpec, Mapping, SpmdConfig};

/// The paper's three experiment configurations: (filter size, levels).
pub const PAPER_CONFIGS: [(usize, usize); 3] = [(8, 1), (4, 2), (2, 4)];

/// Label such as `F8/L1`.
pub fn config_label(filter: usize, levels: usize) -> String {
    format!("F{filter}/L{levels}")
}

/// Whether the harness should run the full paper-sized experiments.
/// Reduced sizes keep a full `cargo bench` pass quick; set
/// `REPRO_FULL=1` for the paper's exact sizes.
pub fn full_size() -> bool {
    std::env::var("REPRO_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The 512×512 Landsat-TM stand-in scene of the paper's experiments
/// (or a 256×256 reduction when not in full mode).
pub fn paper_image() -> Matrix {
    let n = if full_size() { 512 } else { 256 };
    landsat_scene(n, n, SceneParams::default())
}

/// SPMD config on the simulated Paragon.
pub fn paragon_cfg(nranks: usize, mapping: Mapping) -> SpmdConfig {
    SpmdConfig::new(MachineSpec::paragon(), nranks, mapping)
}

/// SPMD config on the simulated T3D.
pub fn t3d_cfg(nranks: usize) -> SpmdConfig {
    SpmdConfig::new(MachineSpec::t3d(), nranks, Mapping::RowMajor)
}

/// The tuned distributed-DWT configuration (snake + simultaneous).
pub fn tuned_dwt(filter: usize, levels: usize) -> MimdDwtConfig {
    MimdDwtConfig::tuned(
        FilterBank::daubechies(filter).expect("paper filter sizes exist"),
        levels,
    )
}

/// The naive distributed-DWT configuration (row-major placement is
/// chosen by the caller; this sets the chain-ordered blocking exchange).
pub fn naive_dwt(filter: usize, levels: usize) -> MimdDwtConfig {
    MimdDwtConfig {
        ordering: GuardOrdering::ChainOrdered,
        ..tuned_dwt(filter, levels)
    }
}

/// Boundary mode used throughout the reproduction.
pub const MODE: Boundary = Boundary::Periodic;

/// The body of a JSON array of pre-rendered rows, as the `BENCH_*.json`
/// writers lay it out: each row on its own line indented four spaces, a
/// comma after every row but the last, and a newline after the last.
/// Empty for no rows.
pub fn json_rows<S: AsRef<str>>(rows: impl IntoIterator<Item = S>) -> String {
    let mut out = String::new();
    for row in rows {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        out.push_str("    ");
        out.push_str(row.as_ref());
    }
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Print a header banner for a harness section.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Format a speedup series as `P=1: 1.00x  P=2: 1.9x ...`.
pub fn speedup_row(times: &[(usize, f64)]) -> String {
    let t1 = times
        .iter()
        .find(|(p, _)| *p == 1)
        .map(|&(_, t)| t)
        .unwrap_or(times[0].1);
    times
        .iter()
        .map(|(p, t)| format!("P={p:<2} T={t:8.4}s S={:5.2}x", t1 / t))
        .collect::<Vec<_>>()
        .join("  |  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_the_three_from_the_evaluation() {
        assert_eq!(PAPER_CONFIGS.len(), 3);
        assert_eq!(config_label(8, 1), "F8/L1");
    }

    #[test]
    fn image_matches_requested_size() {
        let img = paper_image();
        assert!(img.rows() == 256 || img.rows() == 512);
        assert_eq!(img.rows(), img.cols());
    }

    #[test]
    fn speedup_row_normalizes_to_p1() {
        let row = speedup_row(&[(1, 4.0), (2, 2.0)]);
        assert!(row.contains("S= 1.00x"));
        assert!(row.contains("S= 2.00x"));
    }
}
