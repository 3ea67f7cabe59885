//! The committed performance trajectory, `bench/trajectory.jsonl`: one
//! JSON object per change, giving a benchmark metric's median at the
//! parent and at the change. Every line must carry numeric `pr`,
//! `parent` and `change` fields, and `pr` must strictly increase, so the
//! file stays an append-only history that tools can read line by line.

use vortex_bench::gate::extract_number;

#[test]
fn trajectory_lines_are_numeric_and_in_change_order() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/trajectory.jsonl");
    let text = std::fs::read_to_string(&path).expect("trajectory readable");
    let mut last_pr = f64::NEG_INFINITY;
    let mut lines = 0;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {}: not one JSON object: {line}",
            n + 1
        );
        let field = |key: &str| {
            extract_number(line, key)
                .unwrap_or_else(|| panic!("line {}: no numeric {key:?}: {line}", n + 1))
        };
        let pr = field("pr");
        assert!(
            pr > last_pr,
            "line {}: pr {pr} does not follow {last_pr}",
            n + 1
        );
        last_pr = pr;
        for key in ["parent", "change"] {
            assert!(field(key) > 0.0, "line {}: {key} must be positive", n + 1);
        }
        lines += 1;
    }
    assert!(lines >= 3, "trajectory has only {lines} lines");
}
