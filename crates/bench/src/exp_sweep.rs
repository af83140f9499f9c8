//! **E8 (Examples 5–6)** — the closed-form feasibility inequalities of
//! threshold refined quorum systems, validated against full property
//! verification:
//!
//! - Property 1 ⇔ `n > 2t + k`
//! - Property 2 ⇔ `n > t + 2k + 2q`
//! - Property 3 ⇔ `n > t + r + k + min(k, q)`
//!
//! The sweep builds every parameter combination, runs
//! [`Rqs::verify`](rqs_core::Rqs::verify), and reports any disagreement
//! (there must be none), plus the minimal-`n` table
//! `n = t + k + max(t, k+2q, r+min(k,q)) + 1`.

use crate::report::Report;
use rqs_core::threshold::ThresholdConfig;

/// Result of the exhaustive sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepResult {
    /// Combinations checked.
    pub checked: usize,
    /// Combinations where the closed form and verification agree.
    pub agreements: usize,
    /// Disagreeing combinations (must be empty).
    pub mismatches: Vec<String>,
}

/// Sweeps all `(n, t, k, q, r)` with `n ≤ max_n`.
pub fn sweep(max_n: usize) -> SweepResult {
    let mut res = SweepResult::default();
    for n in 3..=max_n {
        for t in 1..n {
            for k in 0..=t {
                for q in 0..=t {
                    for r in q..=t {
                        let cfg = ThresholdConfig::new(n, t, k).with_class1(q).with_class2(r);
                        let verified = cfg
                            .build_unchecked()
                            .expect("structurally valid")
                            .verify()
                            .is_ok();
                        res.checked += 1;
                        if verified == cfg.is_feasible() {
                            res.agreements += 1;
                        } else {
                            res.mismatches.push(format!(
                                "{cfg}: closed-form={} verify={}",
                                cfg.is_feasible(),
                                verified
                            ));
                        }
                    }
                }
            }
        }
    }
    res
}

/// Builds the E8 report.
pub fn report(max_n: usize) -> Report {
    let res = sweep(max_n);
    let mut r = Report::new("E8 (Examples 5-6): threshold feasibility inequalities");
    r.note(format!(
        "Exhaustive sweep over n ≤ {max_n}: {} combinations, {} agree, {} mismatch.",
        res.checked,
        res.agreements,
        res.mismatches.len()
    ));
    r.note("Minimal universe sizes n(t, r, q, k) = t + k + max(t, k+2q, r+min(k,q)) + 1:");
    r.headers(["t", "r", "q", "k", "minimal n", "spot-check verify"]);
    for (t, r_, q, k) in [
        (1usize, 1usize, 0usize, 0usize),
        (2, 2, 1, 0), // the §1.2 system → n = 5
        (1, 1, 0, 1), // byzantine_fast(1) → n = 4
        (2, 2, 0, 2), // byzantine_fast(2) → n = 7
        (2, 1, 0, 1), // the graded E4/E6 system → n = 7… check
        (3, 3, 0, 3),
        (3, 2, 1, 1),
        (4, 2, 2, 0),
    ] {
        let n = ThresholdConfig::minimal_n(t, r_, q, k);
        let ok = if n <= 14 {
            ThresholdConfig::new(n, t, k)
                .with_class1(q)
                .with_class2(r_)
                .build()
                .is_ok()
        } else {
            true
        };
        r.row([
            t.to_string(),
            r_.to_string(),
            q.to_string(),
            k.to_string(),
            n.to_string(),
            ok.to_string(),
        ]);
    }
    for m in &res.mismatches {
        r.note(format!("MISMATCH: {m}"));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_no_mismatches() {
        let res = sweep(8);
        assert!(res.checked > 200);
        assert!(
            res.mismatches.is_empty(),
            "closed form must match verification: {:?}",
            res.mismatches
        );
        assert_eq!(res.agreements, res.checked);
    }

    #[test]
    fn known_minimal_sizes() {
        assert_eq!(ThresholdConfig::minimal_n(2, 2, 1, 0), 5);
        assert_eq!(ThresholdConfig::minimal_n(1, 1, 0, 1), 4);
        assert_eq!(ThresholdConfig::minimal_n(2, 2, 0, 2), 7);
    }

    #[test]
    fn report_renders() {
        let r = report(6);
        assert!(r.to_string().contains("minimal n"));
        assert!(!r.commentary.iter().any(|l| l.contains("MISMATCH")));
    }
}
