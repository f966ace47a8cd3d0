//! Self-tests of the benchmark: seeded inputs, self-time arithmetic,
//! metric naming, and the committed manifest.

use cca_perfbench::cli::{self, Command};
use cca_perfbench::host::forbidden_knobs;
use cca_perfbench::inputs;
use cca_perfbench::metrics::{self, Tally, END_TO_END, PER_LAYER, WORKLOADS};
use cca_perfbench::stats::{median, percentile};
use cca_perfbench::timers::{self, TimerNode, FLAME_TIMERS, SHOCK_TIMERS};
use cca_perfbench::trace::{chrome_trace_json, Recorder};
use cca_serve::{fleet_request_stream, JobKey};
use std::collections::BTreeSet;

/// Every input a seed generates, in comparable form.
fn all_inputs(seed: u64) -> (Vec<String>, Vec<Vec<JobKey>>) {
    let cfg = inputs::samr_config();
    let apps = [
        format!("{:?}", inputs::flame_configs(seed)),
        format!("{:?}", inputs::shock_configs(seed)),
        format!("{:?}", inputs::kill_plans(seed, &cfg)),
    ];
    let keys = inputs::fleet_configs(seed)
        .iter()
        .take(2)
        .map(|c| fleet_request_stream(c).iter().map(|j| j.key()).collect())
        .collect();
    (apps.to_vec(), keys)
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let a = all_inputs(7);
    assert_eq!(a, all_inputs(7));
    let b = all_inputs(8);
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_ne!(x, y);
    }
    for (x, y) in a.1.iter().zip(&b.1) {
        assert_ne!(x, y);
    }
}

#[test]
fn seeded_inputs_stay_in_their_ranges() {
    for seed in 0..50 {
        for c in inputs::flame_configs(seed) {
            assert!((1380.0..1420.0).contains(&c.t_hot));
        }
        for c in inputs::shock_configs(seed) {
            assert!((1.45..1.55).contains(&c.mach));
            assert!((28.0..32.0).contains(&c.angle_deg));
        }
        let cfg = inputs::samr_config();
        for p in inputs::kill_plans(seed, &cfg) {
            assert!(p.rank < cfg.ranks);
            assert!((20..40).contains(&p.step), "kill step {}", p.step);
        }
        for c in inputs::fleet_configs(seed) {
            assert_eq!(c.jobs, 2400);
        }
    }
}

const TREE: &[TimerNode] = &[
    TimerNode {
        name: "root",
        layer: "apps",
        parent: None,
        parallel: false,
    },
    TimerNode {
        name: "a",
        layer: "solvers",
        parent: Some("root"),
        parallel: false,
    },
    TimerNode {
        name: "a1",
        layer: "hydro",
        parent: Some("a"),
        parallel: false,
    },
    TimerNode {
        name: "a2",
        layer: "mesh",
        parent: Some("a"),
        parallel: false,
    },
    TimerNode {
        name: "b",
        layer: "mesh",
        parent: Some("root"),
        parallel: false,
    },
    TimerNode {
        name: "never",
        layer: "chem",
        parent: Some("root"),
        parallel: false,
    },
];

fn totals(name: &str) -> f64 {
    match name {
        "root" => 10.0,
        "a" => 7.0,
        "a1" => 4.0,
        "a2" => 1.5,
        "b" => 2.0,
        _ => 0.0,
    }
}

#[test]
fn self_time_is_total_minus_children() {
    let s = timers::self_times(TREE, totals);
    assert_eq!(s["root"], 1.0);
    assert_eq!(s["a"], 1.5);
    assert_eq!(s["a1"], 4.0);
    assert_eq!(s["a2"], 1.5);
    assert_eq!(s["b"], 2.0);
    assert_eq!(s["never"], 0.0);
    assert!((timers::unattributed_frac(TREE, totals) - 0.1).abs() < 1e-12);
}

#[test]
fn parallel_timers_count_the_busiest_worker() {
    let tree = [
        TimerNode {
            name: "advance",
            layer: "solvers",
            parent: None,
            parallel: false,
        },
        TimerNode {
            name: "rhs",
            layer: "components",
            parent: Some("advance"),
            parallel: true,
        },
    ];
    // 1 s of serial runs plus parallel runs that kept two workers busy
    // for 3 s and 2 s.
    let raw = |name: &str| match name {
        "advance" => 6.0,
        "rhs" => 6.0,
        "rhs[w0]" => 3.0,
        "rhs[w1]" => 2.0,
        _ => 0.0,
    };
    let wall = timers::wall_clock(&tree, 2, raw);
    assert_eq!(wall("rhs"), 4.0);
    assert_eq!(wall("advance"), 6.0);
    assert_eq!(timers::self_times(&tree, &wall)["advance"], 2.0);
    // At one worker the executor runs inline: raw totals are wall time.
    assert_eq!(timers::wall_clock(&tree, 1, raw)("rhs"), 6.0);
}

#[test]
fn children_busier_than_their_parent_clamp_at_zero() {
    let busy = |name: &str| if name == "a1" { 9.0 } else { totals(name) };
    assert_eq!(timers::self_times(TREE, busy)["a"], 0.0);
}

#[test]
fn app_timer_trees_have_one_root_and_known_parents() {
    for tree in [FLAME_TIMERS, SHOCK_TIMERS] {
        assert_eq!(tree.iter().filter(|n| n.parent.is_none()).count(), 1);
        for n in tree {
            if let Some(p) = n.parent {
                assert!(
                    tree.iter().any(|m| m.name == p),
                    "{} has unknown parent {p}",
                    n.name
                );
            }
        }
    }
}

/// The naming rule: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "bad name {name}");
        assert!(seen.insert(name), "duplicate name {name}");
    }
    assert!(!valid_name("_lead"));
    assert!(!valid_name("a b"));
    assert!(!valid_name(""));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
    assert_eq!(committed, metrics::manifest_json());
}

#[test]
fn result_line_lists_exactly_the_expected_metrics() {
    for trace in [false, true] {
        let names = metrics::expected_names(trace);
        let ms: Vec<_> = names
            .iter()
            .map(|&name| metrics::Metric {
                name,
                value: 1.5,
                samples: 1,
            })
            .collect();
        let mut tally = Tally::default();
        tally.op(None);
        let line = metrics::result_line(true, &tally, &ms);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for name in &names {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": ")));
        }
        assert_eq!(line.matches("\"value\"").count(), names.len());
    }
}

#[test]
fn tally_counts_failures() {
    let mut t = Tally::default();
    t.op(None);
    t.op(Some("broken".into()));
    assert_eq!((t.attempted, t.failed), (2, 1));
    assert_eq!(t.failures, vec!["broken".to_string()]);
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.99), 5.0);
    assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
}

#[test]
fn cli_parses_the_driver_form_and_rejects_bad_input() {
    let parse = |s: &str| cli::parse(s.split_whitespace().map(String::from));
    match parse("--workload fleet --seed 9 --seconds 30 --trace 1") {
        Ok(Command::Run(a)) => {
            assert_eq!(
                (a.workload.as_str(), a.seed, a.seconds, a.trace),
                ("fleet", 9, 30.0, true)
            )
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(parse("--manifest"), Ok(Command::Manifest));
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload flame --trace 2").is_err());
    assert!(parse("--workload flame --seconds 0").is_err());
    assert!(parse("--seed 1").is_err());
}

#[test]
fn kernel_knobs_in_the_environment_are_refused() {
    assert!(forbidden_knobs(|_| None).is_empty());
    let set = forbidden_knobs(|k| (k == "CCA_TILE_ROWS").then(|| "16".to_string()));
    assert_eq!(set, vec!["CCA_TILE_ROWS"]);
}

#[test]
fn traced_spans_export_as_chrome_trace_events() {
    let mut rec = Recorder::new(false);
    rec.time("apps", "untraced", || ());
    rec.set_enabled(true);
    rec.set_iteration(3);
    let (v, secs) = rec.time("serve", "fleet.\"step\"", || 42);
    assert_eq!(v, 42);
    assert!(secs >= 0.0);
    assert_eq!(rec.spans().len(), 1);
    let json = chrome_trace_json(rec.spans(), &[("seed", "7".into())]);
    assert!(json.contains("\"name\":\"fleet.\\\"step\\\"\",\"cat\":\"serve\",\"ph\":\"X\""));
    assert!(json.contains("\"tid\":3"));
    assert!(json.contains("\"otherData\":{\"seed\":\"7\"}"));
}
