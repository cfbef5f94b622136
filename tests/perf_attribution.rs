//! `sia report` end to end: the attribution a metrics file yields must be
//! an *accounting identity* with the `CycleReport` the machine returned
//! and with the live counters the same run recorded — bit-exact, never an
//! estimate. This is the acceptance test for the `sia-perf` subsystem.
//!
//! Behind the `telemetry` feature so `--no-default-features` still passes.

#![cfg(feature = "telemetry")]

use sia_accel::{compile_for, SiaConfig, SiaMachine};
use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_perf::attribution::attribute;
use sia_perf::{EventLog, RooflineModel};
use sia_snn::{convert, ConvertOptions};
use sia_telemetry::{json::Json, Snapshot};
use sia_tensor::{matmul, Conv2dGeom, Tensor};
use std::sync::Mutex;

/// The JSONL sink and the counter registry are process-global; serialise
/// every test that records around them.
fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn det_weights(n: usize, seed: usize) -> Tensor {
    Tensor::from_vec(
        vec![n],
        (0..n)
            .map(|i| (((i * 37 + seed * 11) % 19) as f32 - 9.0) * 0.04)
            .collect(),
    )
}

/// Small conv→conv→pool→head network — cheap to simulate, but with both a
/// streamed conv layer and an MMIO-bound head so every counter is nonzero.
fn spec() -> NetworkSpec {
    let g1 = Conv2dGeom {
        in_channels: 2,
        out_channels: 6,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let g2 = Conv2dGeom {
        in_channels: 6,
        out_channels: 8,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    NetworkSpec {
        name: "perf-e2e".into(),
        input: (2, 8, 8),
        items: vec![
            SpecItem::Conv(ConvSpec {
                geom: g1,
                weights: det_weights(6 * 2 * 9, 1).reshape(vec![6, 2, 3, 3]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.8,
                }),
            }),
            SpecItem::Conv(ConvSpec {
                geom: g2,
                weights: det_weights(8 * 6 * 9, 2).reshape(vec![8, 6, 3, 3]),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.6,
                }),
            }),
            SpecItem::MaxPool2x2,
            SpecItem::GlobalAvgPool,
            SpecItem::Linear(LinearSpec {
                in_features: 8,
                out_features: 10,
                weights: det_weights(80, 3).reshape(vec![10, 8]),
                bias: vec![0.02; 10],
            }),
        ],
    }
}

fn image(seed: usize) -> Tensor {
    Tensor::from_vec(
        vec![2, 8, 8],
        (0..128)
            .map(|i| ((i * 17 + seed * 5) % 31) as f32 / 31.0)
            .collect(),
    )
}

/// Runs `images` inferences with the JSONL sink installed and closes the
/// stream the way the CLI does: a final `telemetry.counters` event holding
/// this run's counter deltas. Returns the raw JSONL, the parsed log and
/// the machine's own reports.
fn record_run(images: usize, timesteps: usize) -> (String, EventLog, Vec<sia_accel::CycleReport>) {
    let net = convert(&spec(), &ConvertOptions::default());
    let cfg = SiaConfig::pynq_z2();
    let program = compile_for(&net, &cfg, timesteps).unwrap();
    let before = sia_telemetry::global_snapshot();
    sia_telemetry::install_jsonl(None).unwrap();
    // constructed under the sink: the machine announces its configuration
    // (the `accel.config` event `sia report` derives the roofline from)
    let mut machine = SiaMachine::new(program, cfg);
    let reports: Vec<_> = (0..images)
        .map(|i| machine.run(&image(i), timesteps).report)
        .collect();
    // Counters are process-cumulative (other tests in this binary may have
    // run already), so emit the *delta* — exactly this run's recording.
    let after = sia_telemetry::global_snapshot();
    let delta = Snapshot {
        counters: after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .collect(),
        ..Snapshot::default()
    };
    sia_telemetry::emit_counters(&delta);
    let bytes = sia_telemetry::uninstall_jsonl();
    let text = String::from_utf8(bytes).expect("sink produced non-UTF8");
    let log = EventLog::parse_str(&text).unwrap();
    (text, log, reports)
}

#[test]
fn attribution_is_bit_exact_with_the_cycle_reports() {
    let _guard = sink_lock();
    let (_, log, reports) = record_run(3, 4);
    let att = attribute(&log).unwrap();

    // Column totals equal the machine's own reports, summed — exactly.
    let sum = |f: &dyn Fn(&sia_accel::CycleReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert_eq!(att.total_cycles(), sum(&|r| r.total_cycles()));
    assert_eq!(att.total_ops(), sum(&|r| r.total_ops()));
    assert_eq!(att.total_nominal_ops(), sum(&|r| r.total_nominal_ops()));
    assert_eq!(
        att.events,
        sum(&|r| r.layers.len() as u64),
        "one accel.layer event per executed layer"
    );

    // Per layer too: attribution folds the events by name; every report
    // lists each layer once per image, so fold the reports the same way.
    for l in &att.layers {
        let layers = || {
            reports
                .iter()
                .flat_map(|r| &r.layers)
                .filter(|rl| rl.name == l.name)
        };
        assert_eq!(l.occurrences as usize, layers().count(), "{}", l.name);
        let fold = |f: &dyn Fn(&sia_accel::LayerCycles) -> u64| layers().map(f).sum::<u64>();
        assert_eq!(l.total_cycles, fold(&|rl| rl.total_cycles()), "{}", l.name);
        assert_eq!(
            l.compute_cycles,
            fold(&|rl| rl.compute_cycles),
            "{}",
            l.name
        );
        assert_eq!(
            l.transfer_cycles,
            fold(&|rl| rl.transfer_cycles),
            "{}",
            l.name
        );
        assert_eq!(
            l.overhead_cycles,
            fold(&|rl| rl.overhead_cycles),
            "{}",
            l.name
        );
        assert_eq!(l.ops, fold(&|rl| rl.ops), "{}", l.name);
        assert_eq!(l.nominal_ops, fold(&|rl| rl.nominal_ops), "{}", l.name);
        assert_eq!(l.spikes, fold(&|rl| rl.spikes), "{}", l.name);
    }
}

#[test]
fn reconciliation_holds_against_the_runs_own_counters() {
    let _guard = sink_lock();
    let (_, log, _) = record_run(2, 4);
    let att = attribute(&log).unwrap();
    let counters = log.counters();
    assert!(!counters.is_empty(), "run must close with a counters event");
    let checks = att.reconcile(&counters);
    assert_eq!(checks.len(), 9);
    for c in &checks {
        assert!(
            c.ok(),
            "{}: events sum to {} but the counter says {:?}",
            c.counter,
            c.event_sum,
            c.counter_value
        );
    }
}

#[test]
fn roofline_from_the_config_event_matches_the_builtin_model() {
    let _guard = sink_lock();
    let (_, log, _) = record_run(1, 2);
    let ev = log
        .last_of_kind("accel.config")
        .expect("machine must announce its configuration");
    let from_event = RooflineModel::from_config_event(ev).unwrap();
    assert_eq!(from_event, RooflineModel::pynq_z2());
}

#[test]
fn a_log_truncated_mid_write_still_attributes_the_complete_lines() {
    let _guard = sink_lock();
    let (text, log, _) = record_run(1, 2);
    assert!(log.events.len() > 2);
    // Cut the file mid-line, as a killed process would leave it. The
    // closing counters event is hundreds of bytes, so a 20-byte cut
    // damages exactly that one line.
    let cut = &text.trim_end()[..text.trim_end().len() - 20];
    let truncated = EventLog::parse_str(cut).unwrap();
    assert_eq!(truncated.malformed_lines, 1);
    assert_eq!(truncated.events.len(), log.events.len() - 1);
    assert!(attribute(&truncated).is_ok());
}

#[test]
fn gemm_flop_counter_is_the_executed_work() {
    let _guard = sink_lock();
    // 4×6 · 6×5 with 8 zeros in A: the blocked kernel executes every
    // product, zeros included, so the counter is 2·m·k·n to the flop.
    let (m, k, n) = (4usize, 6, 5);
    let a = Tensor::from_vec(
        vec![m, k],
        (0..m * k)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 * 0.25 })
            .collect(),
    );
    let zeros = a.data().iter().filter(|v| **v == 0.0).count() as u64;
    assert_eq!(zeros, 8);
    let b = Tensor::from_vec(vec![k, n], (0..k * n).map(|i| i as f32 * 0.5).collect());
    let before = sia_telemetry::global_snapshot();
    let _c = matmul(&a, &b);
    let after = sia_telemetry::global_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("tensor.matmul.flops_nominal"), 2 * (m * k * n) as u64);
}

#[test]
fn counters_event_round_trips_through_the_event_log() {
    let _guard = sink_lock();
    sia_telemetry::install_jsonl(None).unwrap();
    let snap = Snapshot {
        counters: [("accel.ops".to_string(), 7u64), ("x.y".to_string(), 9)]
            .into_iter()
            .collect(),
        ..Snapshot::default()
    };
    sia_telemetry::emit_counters(&snap);
    let bytes = sia_telemetry::uninstall_jsonl();
    let log = EventLog::parse_str(&String::from_utf8(bytes).unwrap()).unwrap();
    let c = log.counters();
    assert_eq!(c.get("accel.ops"), Some(&7));
    assert_eq!(c.get("x.y"), Some(&9));
    // the event also self-describes as an event, with a timestamp
    let ev = log.last_of_kind("telemetry.counters").unwrap();
    assert!(ev.get("ts_us").and_then(Json::as_u64).is_some());
}
