//! `sia report` — the one reader of a `--metrics` JSONL file. It loads the
//! file through [`sia_perf::EventLog`], so a missing, empty or unparseable
//! file becomes a diagnostic and a nonzero exit, never a panic, and a file
//! truncated mid-write reports its complete lines with a note. It prints
//! the sections the file has: event-kind counts, the training curve
//! (`train.epoch`), per-stage spike sparsity (`snn.stage`, which every
//! backend emits) and the per-layer attribution of `accel.layer` events,
//! reconciled exactly against the run's own counters.

use crate::args::Args;
use sia_perf::attribution::{attribute, Attribution, LayerAttribution, ReconCheck};
use sia_perf::html::{render_report, FlameSpan};
use sia_perf::{EventLog, RooflineModel};
use sia_telemetry::json::{parse, Json};
use std::collections::BTreeMap;

/// Summarises a metrics file:
///
/// ```text
/// sia report metrics.jsonl [--html report.html] [--trace spans.json]
/// ```
///
/// Prints the event-kind counts, then the training curve and the
/// spiking-stage sparsity table when the file has those events. With
/// `accel.layer` events it prints the per-layer table, the roofline
/// classification and the reconciliation checks, and fails (exit 1) when
/// any accounting identity is violated; without them it notes that
/// attribution was skipped. `--html` additionally writes a self-contained
/// single-file dashboard (sortable tables + flamegraph when `--trace`
/// supplies the Chrome-trace spans of the same run) and requires layer
/// events.
pub fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: sia report <metrics.jsonl> [--html report.html] [--trace spans.json]")?;
    let log = EventLog::load(path)?;
    print_event_kinds(path, &log);
    print_training_curve(&log);
    print_stage_sparsity(&log);
    let att = match attribute(&log) {
        Ok(att) => att,
        Err(why) if !args.options.contains_key("html") => {
            println!("\nattribution skipped: {why}");
            return Ok(());
        }
        Err(why) => return Err(why),
    };
    let (roof, roof_src) = match log
        .last_of_kind("accel.config")
        .and_then(RooflineModel::from_config_event)
    {
        Some(model) => (model, "from the run's accel.config event"),
        None => (
            RooflineModel::pynq_z2(),
            "assumed PYNQ-Z2 prototype (no accel.config event in this file)",
        ),
    };
    println!(
        "\naccelerator layers: {} accel.layer events over {} layers",
        att.events,
        att.layers.len()
    );
    println!(
        "roofline: peak {:.1} GOPS, stream {:.0} MB/s, driver {:.1}k words/s, \
         ridge {:.0} ops/byte  [{roof_src}]",
        roof.peak_ops_per_sec / 1e9,
        roof.stream_bytes_per_sec / 1e6,
        roof.mmio_words_per_sec / 1e3,
        roof.ridge_intensity()
    );
    println!();
    print_layer_table(&att, &roof);

    // The accounting identity: every column sum must equal the live
    // counter the same run recorded. A missing counters event (a run cut
    // short, or a file from an older build) is reported, not invented.
    let counters = log.counters();
    println!();
    if counters.is_empty() {
        println!(
            "reconciliation: skipped — no `telemetry.counters` event in this file \
             (run was cut short, or recorded by an older build)"
        );
    } else {
        let checks = att.reconcile(&counters);
        print_recon_table(&checks);
        let failed = checks.iter().filter(|c| !c.ok()).count();
        if failed > 0 {
            return Err(format!(
                "{failed} reconciliation identit{} failed — the metrics file and the \
                 run's counters disagree (corrupt file or instrumentation drift)",
                if failed == 1 { "y" } else { "ies" }
            ));
        }
        println!(
            "all {} identities hold — attribution is exact, not estimated",
            checks.len()
        );
    }

    if let Some(out) = args.options.get("html") {
        let spans = match args.options.get("trace") {
            Some(trace_path) => load_spans(trace_path)?,
            None => Vec::new(),
        };
        let checks = if counters.is_empty() {
            Vec::new()
        } else {
            att.reconcile(&counters)
        };
        let title = format!("sia report — {path}");
        let doc = render_report(&title, &att, &roof, &checks, &spans);
        std::fs::write(out, doc).map_err(|e| format!("writing {out}: {e}"))?;
        println!("html report written to {out} (self-contained, open in any browser)");
    }
    Ok(())
}

fn u64_of(ev: &Json, key: &str) -> u64 {
    ev.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn print_event_kinds(path: &str, log: &EventLog) {
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for kind in log.events.iter().filter_map(|ev| ev.get("ev")?.as_str()) {
        *kinds.entry(kind).or_insert(0) += 1;
    }
    println!("{path}: {} event kinds", kinds.len());
    for (kind, n) in &kinds {
        println!("  {kind:<24} {n:>8}");
    }
    if let Some(note) = log.skipped_note() {
        println!("  ({note})");
    }
}

fn print_training_curve(log: &EventLog) {
    let epochs = log.of_kind("train.epoch");
    if epochs.is_empty() {
        return;
    }
    let f64_of = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!("\ntraining curve");
    println!(
        "  {:>5} {:>9} {:>10} {:>9} {:>9}",
        "epoch", "loss", "train_acc", "test_acc", "lr"
    );
    for e in epochs {
        println!(
            "  {:>5} {:>9.4} {:>10.3} {:>9.3} {:>9.5}",
            u64_of(e, "epoch"),
            f64_of(e, "loss"),
            f64_of(e, "train_acc"),
            f64_of(e, "test_acc"),
            f64_of(e, "lr"),
        );
    }
}

/// Per spiking stage, summed over runs in first-appearance order: spikes,
/// spike slots (neurons × timesteps), taps processed and taps skipped.
fn print_stage_sparsity(log: &EventLog) {
    let mut order: Vec<&str> = Vec::new();
    let mut stages: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for ev in log.of_kind("snn.stage") {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("?");
        let entry = stages.entry(name).or_insert_with(|| {
            order.push(name);
            [0; 4]
        });
        entry[0] += u64_of(ev, "spikes");
        entry[1] += u64_of(ev, "neurons") * u64_of(ev, "timesteps");
        entry[2] += u64_of(ev, "taps_processed");
        entry[3] += u64_of(ev, "taps_skipped");
    }
    if order.is_empty() {
        return;
    }
    println!("\nspiking-stage sparsity (summed over runs)");
    println!(
        "  {:<22} {:>12} {:>9} {:>14} {:>12} {:>7}",
        "stage", "spikes", "density", "taps processed", "taps skipped", "skip%"
    );
    for name in order {
        let [spikes, slots, processed, skipped] = stages[name];
        let density = spikes as f64 / slots.max(1) as f64;
        let skip_pct = 100.0 * skipped as f64 / (processed + skipped).max(1) as f64;
        println!(
            "  {name:<22} {spikes:>12} {density:>9.4} {processed:>14} {skipped:>12} {skip_pct:>6.1}%"
        );
    }
}

fn print_layer_table(att: &Attribution, roof: &RooflineModel) {
    println!(
        "{:<22} {:>5} {:>12} {:>12} {:>12} {:>10} {:>9} {:>7} {:>13} {:>13} {:>8} {:>8} {:>12} {:>9}",
        "layer",
        "runs",
        "total cy",
        "compute cy",
        "transfer cy",
        "spikes",
        "ms",
        "GOPS",
        "eff ops",
        "nominal ops",
        "eff/nom",
        "density",
        "axi stall cy",
        "bound"
    );
    for l in &att.layers {
        println!(
            "{:<22} {:>5} {:>12} {:>12} {:>12} {:>10} {:>9.4} {:>7.2} {:>13} {:>13} {:>8.3} {:>8.4} {:>12} {:>9}",
            l.name,
            l.occurrences,
            l.total_cycles,
            l.compute_cycles,
            l.transfer_cycles,
            l.spikes,
            l.ms(roof.clock_hz),
            l.effective_gops(roof.clock_hz),
            l.ops,
            l.nominal_ops,
            l.event_efficiency(),
            l.spike_density(),
            l.axi_stall_cycles(),
            roof.classify(l).label()
        );
    }
    let total_cycles = att.total_cycles();
    let total_ms = if roof.clock_hz == 0 {
        0.0
    } else {
        total_cycles as f64 / roof.clock_hz as f64 * 1e3
    };
    let total_gops = if total_cycles == 0 || roof.clock_hz == 0 {
        0.0
    } else {
        att.total_ops() as f64 / (total_cycles as f64 / roof.clock_hz as f64) / 1e9
    };
    let sum = |f: fn(&LayerAttribution) -> u64| att.layers.iter().map(f).sum::<u64>();
    println!(
        "{:<22} {:>5} {:>12} {:>12} {:>12} {:>10} {:>9.4} {:>7.2} {:>13} {:>13}",
        "TOTAL",
        att.events,
        total_cycles,
        sum(|l| l.compute_cycles),
        sum(|l| l.transfer_cycles),
        sum(|l| l.spikes),
        total_ms,
        total_gops,
        att.total_ops(),
        att.total_nominal_ops()
    );
}

fn print_recon_table(checks: &[ReconCheck]) {
    println!("reconciliation (event sums vs live counters)");
    for c in checks {
        match c.counter_value {
            Some(v) if c.ok() => {
                println!("  {:<24} {:>14} == {:<14} ok", c.counter, c.event_sum, v);
            }
            Some(v) => {
                println!(
                    "  {:<24} {:>14} != {:<14} MISMATCH",
                    c.counter, c.event_sum, v
                );
            }
            None => {
                println!(
                    "  {:<24} {:>14}    (counter missing) FAIL",
                    c.counter, c.event_sum
                );
            }
        }
    }
}

/// Loads the spans of a Chrome trace document (what `--trace out.json`
/// writes) for the HTML flamegraph.
fn load_spans(path: &str) -> Result<Vec<FlameSpan>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace file `{path}`: {e}"))?;
    let doc =
        parse(text.trim()).map_err(|e| format!("trace file `{path}` is not valid JSON: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("traceEvents") else {
        return Err(format!(
            "trace file `{path}` is not a Chrome trace document (no `traceEvents` array)"
        ));
    };
    Ok(items
        .iter()
        .filter_map(|ev| {
            let u = |k: &str| ev.get(k).and_then(Json::as_u64);
            Some(FlameSpan {
                // `cat` carries the full dotted span path; `name` is only
                // the leaf segment
                name: ev
                    .get("cat")
                    .or_else(|| ev.get("name"))
                    .and_then(Json::as_str)?
                    .to_string(),
                ts_us: u("ts")?,
                dur_us: u("dur")?,
                tid: u("tid")?,
            })
        })
        .collect())
}
