//! E17: systematic schedule exploration (model checking) over the
//! deterministic world.
//!
//! Runs the `rqs-check` explorer over the canonical small models: bounded
//! DFS (with state-hash deduplication, and fault branching on one row)
//! and a seeded random walk. Columns report states visited, unique state
//! hashes, maximum depth and violations — the paper's safety claims mean
//! the violations column must read 0 everywhere; the `exp_explore` binary
//! exits non-zero otherwise, which is what the CI smoke step checks.

use crate::report::Report;
use rqs_check::explore::{dfs, random_walks, Bounds, ExploreOutcome};
use rqs_check::model::{builtin_model, Model};
use rqs_check::WalkOpts;

struct Row {
    model: String,
    mode: String,
    outcome: ExploreOutcome,
}

fn run_dfs(model: &str, bounds: Bounds, mode: String) -> Row {
    let m: Box<dyn Model> = builtin_model(model).expect("known model");
    Row {
        model: model.to_string(),
        mode,
        outcome: dfs(m.as_ref(), &bounds, true),
    }
}

/// Total violations found by the report's explorations (the binary's
/// exit status).
pub fn violation_count(report: &Report) -> usize {
    let idx = report
        .headers
        .iter()
        .position(|h| h == "violations")
        .expect("violations column");
    report
        .rows
        .iter()
        .map(|r| r[idx].parse::<usize>().unwrap_or(0))
        .sum()
}

/// The E17 report.
pub fn report(seed: u64, quick: bool) -> Report {
    let (depth, branch, walks) = if quick { (6, 3, 40) } else { (8, 3, 200) };
    let mut rows = vec![
        run_dfs(
            "storage-byz4-w2r",
            Bounds::delivery(depth, branch),
            format!("dfs d={depth} b={branch}"),
        ),
        run_dfs(
            "storage-crash5-seq",
            Bounds::delivery(4, 2),
            "dfs d=4 b=2 (fast path)".into(),
        ),
        run_dfs(
            "storage-crash5-w2r",
            Bounds::delivery(4, 2)
                .with_drops(2)
                .with_crashes(1)
                .with_crash_candidates(vec![0]),
            "dfs d=4 b=2 +2 drops +1 crash".into(),
        ),
        run_dfs(
            "consensus-byz4-contention",
            Bounds::delivery(4, 2),
            "dfs d=4 b=2".into(),
        ),
    ];
    {
        let m = builtin_model("storage-crash5-w2r").expect("known model");
        rows.push(Row {
            model: "storage-crash5-w2r".to_string(),
            mode: format!("walk n={walks} seed={seed}"),
            outcome: random_walks(
                m.as_ref(),
                &Bounds::delivery(0, 1),
                walks,
                seed,
                WalkOpts::default(),
            ),
        });
    }

    let mut report = Report::new("E17 (model checking): schedule exploration over World");
    report
        .note("Bounded DFS over delivery choices (stateless, state-hash dedup) and a")
        .note("seeded random walk; the safety claims hold over every explored schedule,")
        .note("so `violations` must be 0 in every row. `exhausted` marks a complete")
        .note("enumeration of the bounded space (walks sample, so they never exhaust).")
        .headers([
            "model",
            "mode",
            "runs",
            "choice points",
            "unique states",
            "max depth",
            "exhausted",
            "violations",
        ]);
    for row in &rows {
        let s = row.outcome.stats;
        report.row([
            row.model.clone(),
            row.mode.clone(),
            s.runs.to_string(),
            s.choice_points.to_string(),
            s.unique_states.to_string(),
            s.max_depth.to_string(),
            if s.exhausted { "yes" } else { "no" }.to_string(),
            row.outcome.violations.len().to_string(),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_zero_violations() {
        let r = report(42, true);
        assert_eq!(violation_count(&r), 0);
        assert_eq!(r.rows.len(), 5);
        // DFS rows of the bounded models exhaust their spaces.
        assert_eq!(
            r.cell("exhausted", |row| row[1].starts_with("dfs d=6")),
            Some("yes")
        );
    }

    /// E17 to the last digit: a change to `World`'s pending-set order, the
    /// scheduler's views or `digest_with` moves these counts.
    #[test]
    fn quick_report_is_pinned() {
        let r = report(crate::cli::DEFAULT_SEED, true);
        let counts: Vec<&[String]> = r.rows.iter().map(|row| &row[2..6]).collect();
        assert_eq!(
            counts,
            [
                ["141", "4328", "70", "40"],
                ["11", "440", "10", "40"],
                ["258", "8752", "86", "53"],
                ["16", "3988", "15", "256"],
                ["40", "2373", "2292", "73"],
            ],
            "runs, choice points, unique states, max depth"
        );
    }
}
