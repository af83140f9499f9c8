//! Integration tests asserting every figure/headline reproduction holds
//! end-to-end (the experiment index of DESIGN.md / EXPERIMENTS.md).

use bench::{exp_fig1, exp_fig16, exp_fig4, exp_fig8, exp_latency, exp_sweep};

#[test]
fn e1_figure1_naive_violates_rqs_safe() {
    let naive = exp_fig1::run_naive();
    assert!(
        naive.violated,
        "Figure 1: naive fast storage must violate atomicity"
    );
    assert_eq!(naive.rd1_rounds, 1);
    let rqs = exp_fig1::run_rqs();
    assert!(!rqs.violated, "the §1.2 refined variant must stay atomic");
}

#[test]
fn e2_figure3_verifies() {
    let rqs = bench::exp_fig3::figure3();
    assert!(rqs.verify().is_ok());
}

#[test]
fn e3_figure4_property3_chain() {
    let out = exp_fig4::run_chain();
    assert_eq!(out.ex1_write_rounds, 1);
    assert_eq!(out.ex3_read.0, 2);
    assert!(out.ex4_returns_written);
    assert!(out.ex6_returns_bottom);
}

#[test]
fn e4_storage_rounds_1_2_3() {
    use rqs::QuorumClass;
    for (f, class, w) in [
        (0usize, QuorumClass::Class1, 1usize),
        (1, QuorumClass::Class2, 2),
        (2, QuorumClass::Class3, 3),
    ] {
        let row = exp_latency::measure_storage(exp_latency::graded_storage_rqs(), f);
        assert_eq!(row.class, Some(class));
        assert_eq!(row.write_rounds, w, "write rounds at {f} crashes");
    }
    // Degraded reads grade 1/2/3 too.
    for (f, r) in [(0usize, 1usize), (1, 2), (2, 3)] {
        let row = exp_latency::measure_degraded_read(exp_latency::graded_storage_rqs(), f);
        assert_eq!(row.read_rounds, r, "read rounds at {f} crashes");
    }
}

#[test]
fn e5_theorem3_counterexample() {
    let bad = exp_fig8::run_invalid();
    assert_eq!(bad.rd1.0, 1);
    assert!(bad.violated, "Theorem 3: the invalid config must violate");
    let good = exp_fig8::run_valid();
    assert!(!good.violated, "the valid config must not violate");
}

#[test]
fn e6_consensus_delays_2_3_4() {
    use rqs::ThresholdConfig;
    let graded = || {
        ThresholdConfig::new(7, 2, 1)
            .with_class1(0)
            .with_class2(1)
            .build()
            .unwrap()
    };
    for (f, d) in [(0usize, 2u64), (1, 3), (2, 4)] {
        let row = exp_latency::measure_consensus(graded(), f);
        assert_eq!(row.delays, d, "delays at {f} crashes");
    }
}

#[test]
fn e7_theorem6_counterexample() {
    let bad = exp_fig16::run_invalid();
    assert!(bad.acks_validated);
    assert_eq!(bad.chosen, Some(1));
    assert!(bad.violated);
    let good = exp_fig16::run_valid();
    assert!(!good.violated);
}

#[test]
fn e8_feasibility_sweep_clean() {
    let res = exp_sweep::sweep(7);
    assert!(res.mismatches.is_empty(), "{:?}", res.mismatches);
}

#[test]
fn e9_view_change_recovers() {
    for crashes in 0..=2 {
        let (_, learned) = exp_latency::measure_view_change(crashes);
        assert!(learned, "must learn with {crashes} crashed leaders");
    }
}

#[test]
fn all_reports_render() {
    let reports = bench::all_reports();
    assert!(reports.len() >= 11);
    let mut printed = String::new();
    for r in reports {
        let text = r.to_string();
        assert!(text.contains("=="), "report must render: {text}");
        printed.push_str(&format!("{text}\n"));
    }
    // `exp_all --quick` prints exactly these reports, one per `println!`:
    // the committed golden pins every figure reproduction byte for byte.
    let golden = include_str!("exp_all_quick.txt");
    if printed != golden {
        let (got, want): (Vec<&str>, Vec<&str>) =
            (printed.lines().collect(), golden.lines().collect());
        let mut diff = String::new();
        for i in 0..got.len().max(want.len()) {
            let (g, w) = (got.get(i), want.get(i));
            if g != w {
                diff.push_str(&format!(
                    "line {}:\n- {}\n+ {}\n",
                    i + 1,
                    w.unwrap_or(&"<none>"),
                    g.unwrap_or(&"<none>")
                ));
            }
        }
        panic!("exp_all --quick output differs from tests/exp_all_quick.txt (- golden, + now):\n{diff}");
    }
}
