//! Every workload's code path once at a tiny scale: no frame may fail,
//! and the metrics printed must be exactly those `BENCHMARK.json` names,
//! with the same units, so a renamed or dropped metric fails here first.

use grtx_perfbench::check::Counters;
use grtx_perfbench::lineup::{check_frame, Lineup};
use grtx_perfbench::{run, Config, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        scale: Scale::TINY,
        ..Config::new(workload, 7, 0.0, trace)
    }
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section` list.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let from = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        entry[from..][..entry[from..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_runs_with(section: &str, trace: bool) {
    let mut declared = declared(section);
    declared.sort();
    assert!(!declared.is_empty());
    for workload in Workload::ALL {
        let report = run(&tiny(workload, trace));
        let name = workload.name();
        assert!(report.correct(), "{name}: {:?}", report.tally.problems);
        assert_eq!(report.tally.failed, 0, "{name}: failed_frac must be 0");
        if trace {
            assert_eq!(report.metrics.get("failed_frac"), Some(0.0));
        }
        let mut printed: Vec<(String, String)> = report
            .metrics
            .list
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        printed.sort();
        assert_eq!(
            printed, declared,
            "{name}: printed metrics differ from BENCHMARK.json"
        );
        assert!(report.metrics.list.iter().all(|m| m.value.is_finite()));
        assert!(report.json_line().starts_with("{\"correct\": true"));
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    assert_runs_with("end_to_end", false);
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    assert_runs_with("per_layer", true);
}

#[test]
fn drifted_counters_fail_the_frame() {
    let lineup = Lineup::new(Lineup::scene(Scale::TINY.divisor, 8, 3), 8);
    let reports = lineup.render(1);
    let mut pins: Vec<Counters> = reports
        .iter()
        .map(|r| Counters::of(r.as_ref().unwrap()))
        .collect();
    assert!(check_frame(&reports, Some(&pins), &mut None).is_empty());
    pins[2].cycles += 1;
    let problems = check_frame(&reports, Some(&pins), &mut None);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].starts_with("grtx_hw"));
}
