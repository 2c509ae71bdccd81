//! `DESIGN.md`'s *Experiment bins* table is the one index of the bench
//! binaries. It must name exactly the bins in `crates/bench/src/bin/`,
//! and each of them must have its committed `--json` baseline in
//! `bench/baselines/`, which is what CI re-runs and gates.

use std::collections::BTreeSet;
use std::path::Path;

/// First-column names of the body rows of `DESIGN.md`'s bin table.
fn design_bins() -> BTreeSet<String> {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("\n## Experiment bins")
        .nth(1)
        .expect("DESIGN.md has an `## Experiment bins` section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let cell = row.split('|').nth(1).unwrap().trim();
            cell.trim_matches('`').to_string()
        })
        .collect()
}

/// File names in `dir` (relative to the repo root) with `prefix` and
/// `suffix`, stripped of both.
fn stems(dir: &str, prefix: &str, suffix: &str) -> BTreeSet<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let stem = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            Some(stem.to_string())
        })
        .collect()
}

#[test]
fn design_bin_table_matches_the_bins_and_their_baselines() {
    let design = design_bins();
    assert!(!design.is_empty(), "DESIGN.md's bin table has no rows");
    let bins = stems("crates/bench/src/bin", "", ".rs");
    let baselines = stems("bench/baselines", "BENCH_", ".json");
    assert_eq!(design, bins, "DESIGN.md bin table vs crates/bench/src/bin");
    assert_eq!(design, baselines, "DESIGN.md bin table vs bench/baselines");
}
