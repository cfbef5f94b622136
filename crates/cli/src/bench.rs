//! `sia bench` — the unified benchmark registry.
//!
//! Every bench family (`gemm`, `conv`, `eval`) shares one methodology and
//! one JSON schema ([`sia_perf::bench`]): discard `warmup` calls, time
//! `iters` calls individually, keep the **min** as the comparison point
//! (the least-noise estimate on a time-shared host) and carry median +
//! MAD so `--check-baseline` can widen its threshold on cases that were
//! already noisy when the baseline was recorded, instead of one global
//! fudge factor.
//!
//! ```text
//! sia bench gemm --smoke --update-baseline      # record results/baselines/gemm-smoke.json
//! sia bench gemm --smoke --check-baseline       # fail (exit 1) on a regression
//! ```

use crate::args::Args;
use crate::{data_for, err};
use sia_perf::bench::{
    check_against_baseline, summarize_ns, BenchCase, BenchReport, HostInfo, Provenance, Threshold,
};
use std::hint::black_box;
use std::time::Instant;

/// The bench registry: `sia bench <name>` dispatches through this table.
type BenchFn = fn(&Args, bool, usize) -> Result<BenchReport, String>;

const BENCHES: &[(&str, BenchFn)] = &[
    ("conv", bench_conv),
    ("gemm", bench_gemm),
    ("eval", bench_eval),
    ("serve", bench_serve),
];

/// Runs one bench family, writes its JSON, and optionally records or
/// checks the committed baseline (`--update-baseline` / `--check-baseline`,
/// stored under `--baseline-dir`, default `results/baselines/`).
pub fn cmd_bench(args: &Args) -> Result<(), String> {
    let which = args
        .positional
        .first()
        .map_or("conv", String::as_str)
        .to_string();
    let smoke = args.switch("smoke");
    // one worker per core unless `--threads` says otherwise, as `sia serve`
    let threads = sia_tensor::pool::resolve_threads(args.usize_or("threads", 0).map_err(err)?);
    let Some(&(_, run)) = BENCHES.iter().find(|(name, _)| *name == which) else {
        let names: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown bench '{which}' ({})", names.join("|")));
    };
    let report = run(args, smoke, threads)?;
    let doc = report.to_json();
    let default_out = format!("BENCH_{which}.json");
    let out_path = args.str_or("out", &default_out);
    std::fs::write(&out_path, &doc).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "results written to {out_path} (host: {} logical / {} physical cpus)",
        report.host.logical_cpus, report.host.physical_cpus
    );
    if !smoke {
        let mirror = format!("results/bench_{which}.json");
        if std::fs::create_dir_all("results").is_ok() && std::fs::write(&mirror, &doc).is_ok() {
            println!("results mirrored to {mirror}");
        }
    }
    let dir = args.str_or("baseline-dir", "results/baselines");
    let baseline_path = format!("{dir}/{which}{}.json", if smoke { "-smoke" } else { "" });
    if args.switch("update-baseline") {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
        std::fs::write(&baseline_path, &doc)
            .map_err(|e| format!("writing {baseline_path}: {e}"))?;
        println!("baseline updated: {baseline_path}");
    }
    if args.switch("check-baseline") {
        let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
            format!(
                "cannot read baseline `{baseline_path}`: {e}\n(record one with \
                 `sia bench {which}{} --update-baseline`)",
                if smoke { " --smoke" } else { "" }
            )
        })?;
        let baseline = BenchReport::from_json(&text)
            .map_err(|e| format!("baseline `{baseline_path}`: {e}"))?;
        let threshold = Threshold {
            rel_slack: args.f64_or("rel-slack", 25.0).map_err(err)? / 100.0,
            mad_k: args.f64_or("mad-k", 4.0).map_err(err)?,
        };
        let mut outcome = check_against_baseline(&report, &baseline, threshold);
        // `--allow-missing`: a mode that structurally cannot produce every
        // baseline case (e.g. `bench serve --url` cannot host the second
        // early-exit server, so the `c{n}@margin` cases never run) may opt
        // out of the missing-coverage failure; timed cases still gate.
        if args.switch("allow-missing") && !outcome.missing.is_empty() {
            println!(
                "note: {} baseline case(s) not produced in this mode: {}",
                outcome.missing.len(),
                outcome.missing.join(", ")
            );
            outcome.missing.clear();
        }
        print!("{}", outcome.render());
        if !outcome.passed() {
            return Err(format!(
                "bench `{which}` regressed against {baseline_path} (see the diff above; \
                 re-record with --update-baseline if the change is intentional)"
            ));
        }
        println!(
            "baseline check passed ({} case(s) within threshold)",
            outcome.diffs.len()
        );
    }
    Ok(())
}

/// Discards `warmup` calls, then times `iters` calls individually.
fn sample<R>(warmup: u32, iters: u32, mut f: impl FnMut() -> R) -> Vec<u64> {
    for _ in 0..warmup {
        let _ = black_box(f());
    }
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            let _ = black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Benchmarks the blocked, register-tiled GEMM against the naive reference
/// across the conv-as-GEMM layer shapes of the paper's two networks
/// (im2col maps a conv to `M = out_ch`, `K = in_ch·k²`, `N = out_h·out_w`),
/// asserting bit-exactness of all three flows on every shape first. The
/// regression-tracked number (`min_ns`) is the production kernel: the
/// blocked GEMM on the `--threads` column.
fn bench_gemm(_args: &Args, smoke: bool, threads: usize) -> Result<BenchReport, String> {
    use sia_tensor::{
        matmul, matmul_a_bt, matmul_a_bt_reference, matmul_at_b, matmul_at_b_reference,
        matmul_reference, pool, set_kernel, Kernel, Tensor,
    };

    // (name, M, K, N): im2col GEMM shapes from Table I — ResNet-18 and
    // VGG-11 at base width 64, 32×32 input — plus the FC head.
    let full: &[(&'static str, usize, usize, usize)] = &[
        ("resnet18.stem 3->64@32", 64, 27, 1024),
        ("resnet18.s1.conv 64->64@32", 64, 576, 1024),
        ("resnet18.s2.down 64->128@16", 128, 576, 256),
        ("resnet18.s2.conv 128->128@16", 128, 1152, 256),
        ("resnet18.s3.conv 256->256@8", 256, 2304, 64),
        ("resnet18.s4.conv 512->512@4", 512, 4608, 16),
        ("vgg11.conv2 64->128@16", 128, 576, 256),
        ("vgg11.conv4 256->256@8", 256, 2304, 64),
        ("vgg11.conv6 512->512@4", 512, 4608, 16),
        ("head.fc 512->10 (batch 32)", 32, 512, 10),
    ];
    let small: &[(&'static str, usize, usize, usize)] = &[
        ("smoke.conv 16->16@8", 16, 144, 64),
        ("smoke.fc 64->10 (batch 8)", 8, 64, 10),
    ];
    let shapes = if smoke { small } else { full };
    let warmup = 1u32;
    // Deterministic data with exact zeros (the kernels' skip path).
    let fill = |count: usize, seed: u64| -> Vec<f32> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r.is_multiple_of(5) {
                    0.0
                } else {
                    (r % 2001) as f32 / 1000.0 - 1.0
                }
            })
            .collect()
    };
    let assert_bits = |name: &str, flow: &str, a: &Tensor, b: &Tensor| {
        if a.data().len() != b.data().len()
            || a.data()
                .iter()
                .zip(b.data())
                .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            return Err(format!(
                "blocked {flow} diverges bitwise from the reference on '{name}'"
            ));
        }
        Ok(())
    };
    let prev_threads = pool::threads();
    set_kernel(Kernel::Blocked);
    let mut cases = Vec::new();
    let host = HostInfo::detect();
    println!(
        "blocked vs reference GEMM, {threads}-thread column, host {} logical / {} physical cpus{}",
        host.logical_cpus,
        host.physical_cpus,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<30} {:>14} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "shape (MxKxN)", "", "ref ns", "blk@1 ns", "blk@N ns", "x@1", "x@N"
    );
    for &(name, m, k, n) in shapes {
        let a = Tensor::from_vec(vec![m, k], fill(m * k, 0x5EED ^ (m * k) as u64));
        let b = Tensor::from_vec(vec![k, n], fill(k * n, 0xB0B ^ (k * n) as u64));
        // --- bit-exactness gates, all three flows, before any timing ---
        pool::set_threads(threads.max(2));
        assert_bits(name, "matmul", &matmul(&a, &b), &matmul_reference(&a, &b))?;
        let at = Tensor::from_vec(vec![k, m], fill(k * m, 0xA7 ^ (k * m) as u64));
        assert_bits(
            name,
            "matmul_at_b",
            &matmul_at_b(&at, &b),
            &matmul_at_b_reference(&at, &b),
        )?;
        let bt = Tensor::from_vec(vec![n, k], fill(n * k, 0xB7 ^ (n * k) as u64));
        assert_bits(
            name,
            "matmul_a_bt",
            &matmul_a_bt(&a, &bt),
            &matmul_a_bt_reference(&a, &bt),
        )?;
        // --- timing ---
        let flops = 2.0 * (m * k * n) as f64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let iters = if smoke {
            7u32
        } else {
            ((1.2e9 / flops) as u32).clamp(5, 400)
        };
        let ref_samples = sample(warmup, iters, || matmul_reference(&a, &b));
        pool::set_threads(1);
        let one_samples = sample(warmup, iters, || matmul(&a, &b));
        pool::set_threads(threads);
        let mt_samples = sample(warmup, iters, || matmul(&a, &b));
        let (ref_min, _, _) = summarize_ns(&ref_samples);
        let (one_min, _, _) = summarize_ns(&one_samples);
        let (mt_min, mt_median, mt_mad) = summarize_ns(&mt_samples);
        println!(
            "{name:<30} {:>14} {ref_min:>12} {one_min:>12} {mt_min:>12} \
             {:>7.2}x {:>7.2}x",
            format!("{m}x{k}x{n}"),
            ref_min as f64 / one_min.max(1) as f64,
            ref_min as f64 / mt_min.max(1) as f64
        );
        cases.push(BenchCase {
            name: name.to_string(),
            iters: u64::from(iters),
            warmup: u64::from(warmup),
            min_ns: mt_min,
            median_ns: mt_median,
            mad_ns: mt_mad,
            metrics: vec![
                ("m".to_string(), m as f64),
                ("k".to_string(), k as f64),
                ("n".to_string(), n as f64),
                ("ref_min_ns".to_string(), ref_min as f64),
                ("blocked_1t_min_ns".to_string(), one_min as f64),
                (
                    "speedup_1t".to_string(),
                    ref_min as f64 / one_min.max(1) as f64,
                ),
                (
                    "speedup_mt".to_string(),
                    ref_min as f64 / mt_min.max(1) as f64,
                ),
                (
                    "gflops_blocked_mt".to_string(),
                    flops / mt_min.max(1) as f64,
                ),
            ],
        });
    }
    pool::set_threads(prev_threads);
    Ok(BenchReport {
        bench: "gemm".to_string(),
        host,
        provenance: Provenance::detect(),
        threads,
        cases,
    })
}

/// Distinct spike planes per `bench conv` case, timed in rotation.
const CONV_PLANES: usize = 8;

/// Micro-benchmarks the spiking conv kernels: the word-parallel
/// event-driven scatter and the register-tiled dense kernel (the two
/// production paths) against the byte-wise reference
/// ([`sia_snn::conv_psums_int`], the one integer oracle), asserting
/// bit-exactness of every kernel on every plane before timing anything.
///
/// Two case families share one timing loop, and every case's `min_ns`
/// tracks the kernel [`sia_snn::KernelPolicy::Auto`] picks (recorded as
/// `sparse_selected`), the policy every engine runs by default:
///
/// * `dNNN` — a density ladder on a synthetic square layer (32 channels at
///   16×16; 8 at 8×8 in smoke mode). Non-smoke runs add a fine density
///   grid around `Auto`'s scatter↔dense crossover (marked `fine: 1`);
///   smoke keeps the fixed ladder so the committed `conv-smoke` baseline
///   stays comparable run to run.
/// * `<cin>to<cout>k<K>s<S>_<HW>_dNNN` — the deployed ResNet's conv
///   geometries (every stage and both downsample forms) at 0 % (the
///   per-call floor) and 10 % density, plus a short ladder on the 8→8
///   @16² stage, the one whose layers weigh both kernels.
///
/// Each case holds [`CONV_PLANES`] distinct random planes with exactly the
/// same number of set spikes, and round `r` times plane `r mod`
/// [`CONV_PLANES`], so no kernel is timed on one plane whose branches the
/// predictor has learnt. Timing is **interleaved**: every round times each
/// (case, kernel) pair once, so no kernel enjoys a privately warmed cache;
/// the slower byte reference runs fewer rounds.
fn bench_conv(_args: &Args, smoke: bool, _threads: usize) -> Result<BenchReport, String> {
    use sia_fixed::{QuantScale, Q8_8};
    use sia_snn::network::{ConvInput, NeuronMode, SnnConv};
    use sia_snn::{
        conv_psums_int, conv_psums_int_plane, conv_psums_int_scatter, conv_psums_int_tiled,
        ConvScratch, CostModel, KernelPolicy, SpikePlane,
    };
    use sia_tensor::Conv2dGeom;

    let conv_of = |cin: usize, cout: usize, hw: usize, kernel: usize, stride: usize| {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel,
            stride,
            padding: kernel / 2,
        };
        SnnConv {
            geom,
            weights: (0..geom.weight_count())
                .map(|i| (((i * 31) % 255) as i32 - 127) as i8)
                .collect(),
            q_w: QuantScale::new(7),
            input: ConvInput::Spikes { value: 1.0 },
            g: vec![Q8_8::ONE; cout],
            h: vec![0; cout],
            theta: 128,
            nu: 1.0 / 128.0,
            gf: vec![1.0; cout],
            hf: vec![0.0; cout],
            step: 1.0,
            levels: 8,
            mode: NeuronMode::If,
        }
    };

    // Representative mid-network residual-stage geometry (scaled down in
    // smoke mode, where only the equivalence asserts matter) first, then
    // the deployed ResNet's geometries: `(cin, cout, hw, kernel, stride)`
    // with each one's densities (percent). Smoke's 9 rounds time each of
    // the 8 planes once after the warm-up round.
    let (ch, hw, iters, ref_iters) = if smoke {
        (8, 8, 9u32, 9u32)
    } else {
        (32, 16, 200, 20)
    };
    // Every geometry also runs a silent (0 %) plane: the per-call floor.
    let deployed = [
        ((8, 8, 16, 3, 1), &[0u32, 2, 5, 10, 20][..]),
        ((8, 16, 16, 3, 2), &[0, 10]),
        ((8, 16, 16, 1, 2), &[0, 10]),
        ((16, 16, 8, 3, 1), &[0, 10]),
        ((32, 32, 4, 3, 1), &[0, 10]),
        ((64, 64, 2, 3, 1), &[0, 10]),
    ];
    let mut convs = vec![conv_of(ch, ch, hw, 3, 1)];
    convs.extend(
        deployed
            .iter()
            .map(|&((cin, cout, hw, k, s), _)| conv_of(cin, cout, hw, k, s)),
    );
    let crossover = CostModel::DEFAULT.crossover_density(&convs[0].geom);

    // Fixed density ladder, plus (full mode only) a fine grid around the
    // crossover so BENCH_conv.json pins down where the policy flips. Smoke
    // keeps the fixed list: baseline checks fail on missing cases.
    let base = [1u32, 5, 10, 25, 50, 100];
    let mut densities: Vec<(u32, bool)> = base.iter().map(|&p| (p, false)).collect();
    if !smoke {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cross_pct = (crossover * 100.0).round().clamp(1.0, 99.0) as u32;
        for off in [-4i64, -2, -1, 0, 1, 2, 4] {
            let p = i64::from(cross_pct) + off;
            if (1..=99).contains(&p) {
                let p = u32::try_from(p).expect("in range");
                if !densities.iter().any(|&(q, _)| q == p) {
                    densities.push((p, true));
                }
            }
        }
        densities.sort_unstable();
    }

    struct Case {
        name: String,
        /// Index into `convs`, which is also the conv's layer slot.
        conv: usize,
        fine: bool,
        /// `CONV_PLANES` spike planes, each as bytes and packed.
        planes: Vec<(Vec<u8>, SpikePlane)>,
        /// Set spikes in every one of the planes.
        spikes: u64,
    }
    let make_case = |conv: usize, pct: u32, fine: bool, name: String| {
        let g = convs[conv].geom;
        let n = g.in_channels * g.in_h * g.in_w;
        let spikes = n * pct as usize / 100;
        let mut state = (u64::from(pct) << 17 | conv as u64) << 8 | 1;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let planes = (0..CONV_PLANES)
            .map(|_| {
                // A partial Fisher–Yates shuffle picks exactly `spikes`
                // distinct neurons.
                let mut order: Vec<usize> = (0..n).collect();
                let mut bytes = vec![0u8; n];
                for i in 0..spikes {
                    order.swap(i, i + next(n - i));
                    bytes[order[i]] = 1;
                }
                let mut plane = SpikePlane::default();
                plane.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &bytes);
                (bytes, plane)
            })
            .collect();
        Case {
            name,
            conv,
            fine,
            planes,
            spikes: spikes as u64,
        }
    };
    let mut cases_in: Vec<Case> = densities
        .iter()
        .map(|&(pct, fine)| make_case(0, pct, fine, format!("d{pct:03}")))
        .collect();
    for (i, &((cin, cout, hw, k, s), pcts)) in deployed.iter().enumerate() {
        for &pct in pcts {
            let name = format!("{cin}to{cout}k{k}s{s}_{hw}_d{pct:03}");
            cases_in.push(make_case(i + 1, pct, false, name));
        }
    }

    // Bit-exactness gate: never time a kernel that disagrees with the
    // byte-wise reference, on any plane it will be timed on.
    let mut scr = ConvScratch::new();
    for c in &cases_in {
        let conv = &convs[c.conv];
        for (p, (bytes, plane)) in c.planes.iter().enumerate() {
            let reference = conv_psums_int(conv, bytes);
            let checks: [(&str, Vec<i16>); 3] = [
                (
                    "scatter",
                    conv_psums_int_scatter(conv, plane, &mut scr, c.conv).to_vec(),
                ),
                (
                    "tiled",
                    conv_psums_int_tiled(conv, plane, &mut scr, c.conv).to_vec(),
                ),
                (
                    "auto",
                    conv_psums_int_plane(conv, plane, KernelPolicy::Auto, &mut scr, c.conv)
                        .to_vec(),
                ),
            ];
            for (kernel, got) in checks {
                if got != reference {
                    return Err(format!(
                        "{kernel} kernel diverges from the byte reference in case {} plane {p}",
                        c.name
                    ));
                }
            }
        }
    }

    println!(
        "conv {ch}x{hw}x{hw} k3 s1 p1 and the deployed geometries, {iters} iters/kernel over \
         {CONV_PLANES} planes/case, crossover {:.1}%{}",
        crossover * 100.0,
        if smoke { " (smoke)" } else { "" }
    );

    // Interleaved timing: round-robin across every (case, kernel) pair.
    let ncases = cases_in.len();
    let mut scatter_s: Vec<Vec<u64>> = vec![Vec::with_capacity(iters as usize); ncases];
    let mut tiled_s: Vec<Vec<u64>> = vec![Vec::with_capacity(iters as usize); ncases];
    let mut byte_min = vec![u64::MAX; ncases];
    let time_ns = |f: &mut dyn FnMut()| -> u64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    };
    for round in 0..iters {
        for (i, c) in cases_in.iter().enumerate() {
            let conv = &convs[c.conv];
            let (bytes, plane) = &c.planes[round as usize % CONV_PLANES];
            scatter_s[i].push(time_ns(&mut || {
                black_box(conv_psums_int_scatter(conv, black_box(plane), &mut scr, c.conv).len());
            }));
            tiled_s[i].push(time_ns(&mut || {
                black_box(conv_psums_int_tiled(conv, black_box(plane), &mut scr, c.conv).len());
            }));
            if round < ref_iters {
                byte_min[i] = byte_min[i].min(time_ns(&mut || {
                    black_box(conv_psums_int(conv, black_box(bytes)).len());
                }));
            }
        }
        // Round 0 is the warmup for every pair: drop its samples.
        if round == 0 {
            for i in 0..ncases {
                scatter_s[i].clear();
                tiled_s[i].clear();
            }
        }
    }

    println!(
        "{:<22} {:>9} {:>7} {:>10} {:>10} {:>10} {:>11} {:>8}",
        "case", "density", "kernel", "prod ns", "scatter", "tiled", "byte ref", "x byte"
    );
    let mut cases = Vec::new();
    for (i, c) in cases_in.iter().enumerate() {
        let (scatter_min, scatter_median, scatter_mad) = summarize_ns(&scatter_s[i]);
        let (tiled_min, tiled_median, tiled_mad) = summarize_ns(&tiled_s[i]);
        let g = convs[c.conv].geom;
        let density = c.spikes as f64 / (g.in_channels * g.in_h * g.in_w) as f64;
        let sparse_selected = c.spikes < KernelPolicy::Auto.scatter_limit(&g);
        let (prod_min, prod_median, prod_mad, kernel) = if sparse_selected {
            (scatter_min, scatter_median, scatter_mad, "scatter")
        } else {
            (tiled_min, tiled_median, tiled_mad, "tiled")
        };
        let speedup_vs_byte = byte_min[i] as f64 / prod_min.max(1) as f64;
        println!(
            "{:<22} {:>8.1}% {kernel:>7} {prod_min:>10} {scatter_min:>10} {tiled_min:>10} {:>11} {:>7.1}x",
            c.name,
            100.0 * density,
            byte_min[i],
            speedup_vs_byte,
        );
        let mut metrics = vec![
            ("measured_density".to_string(), density),
            ("fine".to_string(), f64::from(u8::from(c.fine))),
        ];
        if c.conv == 0 {
            metrics.push(("crossover_density".to_string(), crossover));
        }
        metrics.extend([
            (
                "sparse_selected".to_string(),
                f64::from(u8::from(sparse_selected)),
            ),
            ("scatter_min_ns".to_string(), scatter_min as f64),
            ("tiled_min_ns".to_string(), tiled_min as f64),
            ("byte_min_ns".to_string(), byte_min[i] as f64),
            ("speedup_vs_byte".to_string(), speedup_vs_byte),
        ]);
        cases.push(BenchCase {
            name: c.name.clone(),
            iters: u64::from(iters - 1),
            warmup: 1,
            min_ns: prod_min,
            median_ns: prod_median,
            mad_ns: prod_mad,
            metrics,
        });
    }
    Ok(BenchReport {
        bench: "conv".to_string(),
        host: HostInfo::detect(),
        provenance: Provenance::detect(),
        threads: 1,
        cases,
    })
}

/// The model artifact the serving-path benches run: `--model <path>` loads
/// a real deployment image; otherwise an untrained quantized network is
/// written to image bytes and loaded back through the **same**
/// parse-hash-verify pipeline (`sia_serve::load_bytes`) serving uses, so
/// the bench measures the artifact path, not an in-memory shortcut.
fn untrained_image_bytes(args: &Args) -> Result<Vec<u8>, String> {
    use sia_accel::{write_image, SiaConfig};
    use sia_nn::resnet::ResNet;
    use sia_nn::Model;
    use sia_snn::{convert, ConvertOptions};

    let size = args
        .usize_or("size", if args.switch("smoke") { 8 } else { 16 })
        .map_err(err)?;
    let mut model: Box<dyn Model> = Box::new(ResNet::resnet18(4, size, 10, 0xC11));
    model.visit_activations(&mut |a| a.make_quantized(8));
    let net = convert(&model.to_spec(), &ConvertOptions::default());
    Ok(write_image(&net, &SiaConfig::pynq_z2()))
}

fn bench_model(args: &Args, timesteps: usize) -> Result<sia_serve::LoadedModel, String> {
    if let Some(path) = args.options.get("model") {
        if path == "true" {
            return Err("--model needs a model.sia path".to_string());
        }
        return sia_serve::load_file(path, timesteps);
    }
    let bytes = untrained_image_bytes(args)?;
    sia_serve::load_bytes(&bytes, "resnet18-w4-untrained (in-memory)", timesteps)
}

/// End-to-end inference throughput through the [`sia_snn::BatchEvaluator`] on all
/// three engine backends. The model rides the shared deployment-image
/// pipeline ([`bench_model`]): an untrained quantized network by default
/// (execution cost does not depend on trained weights), or `--model
/// <path>` for a real artifact.
fn bench_eval(args: &Args, smoke: bool, threads: usize) -> Result<BenchReport, String> {
    use sia_serve::Backend;
    use sia_snn::{BatchEvaluator, EvalConfig, EvalEncoding, ExitPolicy};

    // The full run uses the deployment timestep budget (T=8) so the
    // `int-exit` speedup is measured against the same fixed-T baseline the
    // accuracy numbers quote; smoke keeps T=2 for CI latency.
    let (images, timesteps, iters, warmup) = if smoke {
        (6usize, 2usize, 3u32, 1u32)
    } else {
        (24, 8, 4, 1)
    };
    let model = bench_model(args, timesteps)?;
    let size = model.network.input.1;
    let data = data_for(size);
    let set = data.test.take(images);
    let evaluator = BatchEvaluator::new(EvalConfig {
        timesteps,
        burn_in: 0,
        threads,
        encoding: EvalEncoding::Dense,
        exit: ExitPolicy::Fixed,
    });
    println!(
        "eval bench: {} (hash {}), {images} images, T={timesteps}, {threads} thread(s){}",
        model.source,
        model.hash_hex(),
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<10} {:>6} {:>14} {:>16} {:>10}",
        "backend", "iters", "min ms/pass", "median ms/pass", "img/s"
    );
    let policy = crate::calibrate::resolve_policy(args)?;
    // Adaptive early-exit case: the int backend under a logit-margin policy,
    // tracked against the fixed int pass (`speedup_vs_fixed`).
    let exit_eval = BatchEvaluator::new(EvalConfig {
        timesteps,
        burn_in: 0,
        threads,
        encoding: EvalEncoding::Dense,
        exit: ExitPolicy::Margin {
            threshold: 0.5,
            window: 1,
        },
    });
    let runs = [
        ("float", &evaluator, Backend::Float),
        ("int", &evaluator, Backend::Int),
        ("accel", &evaluator, Backend::Accel),
        ("int-exit", &exit_eval, Backend::Int),
    ];
    // Timing is interleaved, as in `bench conv`: every round runs one pass
    // of each case, so a shift in host speed lands on all four alike. The
    // first `warmup` rounds are discarded; int-exit's first pass records
    // its executed-timestep statistics.
    let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(iters as usize); runs.len()];
    let mut exit_stats = (0.0f32, 0.0f32);
    for round in 0..warmup + iters {
        for (i, &(name, ev, backend)) in runs.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = crate::evaluate_backend(ev, backend, &model, timesteps, policy, &set)?;
            let ns = t0.elapsed().as_nanos() as u64;
            if round >= warmup {
                samples[i].push(ns);
            }
            if round == 0 && name == "int-exit" {
                exit_stats = (outcome.avg_t(), outcome.exit_rate());
            }
        }
    }
    let mut cases = Vec::new();
    let mut int_fixed_min = 0u64;
    for ((name, ..), samples) in runs.iter().zip(&samples) {
        let (min, median, mad) = summarize_ns(samples);
        let images_per_s = images as f64 / (min.max(1) as f64 / 1e9);
        let mut metrics = vec![("images_per_s".to_string(), images_per_s)];
        let mut note = String::new();
        if *name == "int" {
            int_fixed_min = min;
        } else if *name == "int-exit" {
            let (avg_t, exit_rate) = exit_stats;
            note = format!("  (avg T {avg_t:.2}, exit {:.0}%)", exit_rate * 100.0);
            metrics.extend([
                ("avg_t".to_string(), f64::from(avg_t)),
                ("exit_rate".to_string(), f64::from(exit_rate)),
                (
                    "speedup_vs_fixed".to_string(),
                    int_fixed_min as f64 / min.max(1) as f64,
                ),
            ]);
        }
        println!(
            "{name:<10} {iters:>6} {:>14.2} {:>16.2} {images_per_s:>10.1}{note}",
            min as f64 / 1e6,
            median as f64 / 1e6,
        );
        cases.push(BenchCase {
            name: (*name).to_string(),
            iters: u64::from(iters),
            warmup: u64::from(warmup),
            min_ns: min,
            median_ns: median,
            mad_ns: mad,
            metrics,
        });
    }
    Ok(BenchReport {
        bench: "eval".to_string(),
        host: HostInfo::detect(),
        provenance: Provenance::detect(),
        threads,
        cases,
    })
}

/// Nearest-rank quantile over a sorted sample vector, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let idx = (((sorted_ns.len() - 1) as f64) * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Whether one `/predict` response (`got`, parsed) carries exactly the
/// local reference prediction `want`: one prediction, the same class, and
/// logits equal bit for bit.
fn served_bits_match(got: &[sia_serve::Prediction], want: &sia_serve::Prediction) -> bool {
    got.len() == 1
        && got[0].class == want.class
        && got[0].logits.len() == want.logits.len()
        && got[0]
            .logits
            .iter()
            .zip(&want.logits)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A self-hosted serve-bench instance: server handle, its accept-loop
/// thread, the loaded model, and the base URL clients dial.
type HostedServer = (
    std::sync::Arc<sia_serve::Server>,
    std::thread::JoinHandle<Result<(), String>>,
    std::sync::Arc<sia_serve::LoadedModel>,
    String,
);

/// The `/predict` load generator: sweeps client concurrency against a
/// `sia serve` instance and reports per-request latency quantiles and
/// throughput per level.
///
/// Self-hosts an ephemeral server by default (same artifact pipeline as
/// `bench eval`); `--url host:port` drives an already-running `sia serve`
/// instead (the CI smoke gate's mode), with `--shutdown` POSTing
/// `/shutdown` when done. Before any timing, a determinism gate checks
/// served predictions bit-for-bit against a local single-threaded serving
/// unit on the same model — skipped (with a notice) only when `--url` is
/// given without `--model`, since there is no local artifact to compare.
///
/// In hosted mode with the default fixed-T policy, the whole sweep runs a
/// second time against a server with a margin early-exit policy
/// (`c{n}@margin` cases) so `BENCH_serve.json` records the p50/p95/p99
/// latency deltas early exit buys.
fn bench_serve(args: &Args, smoke: bool, threads: usize) -> Result<BenchReport, String> {
    use sia_serve::{
        images_json, parse_predictions, Backend, Client, LoadedModel, ModelRegistry, ServeConfig,
        Server, ServingUnit,
    };
    use sia_telemetry::json::{self, Json};
    use std::sync::Arc;

    let per_client = args
        .usize_or("requests", if smoke { 6 } else { 32 })
        .map_err(err)?;
    let levels: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let timesteps = args
        .usize_or("timesteps", if smoke { 2 } else { 4 })
        .map_err(err)?;
    let exit = crate::calibrate::resolve_exit_policy(args)?;
    let kernel_policy = crate::calibrate::resolve_policy(args)?;

    // One measurement pass against a live server at `addr`: /healthz probe,
    // request corpus, bitwise determinism gate (the local reference runs
    // `gate_exit` — it must mirror the server's policy to match bits), and
    // the concurrency sweep. `suffix` tags the case names; `baseline`
    // attaches p50/p95/p99 latency deltas against the same-concurrency
    // fixed-policy case.
    let measure = |addr: &str,
                   local_model: Option<&Arc<LoadedModel>>,
                   gate_exit: sia_snn::ExitPolicy,
                   suffix: &str,
                   baseline: Option<&[BenchCase]>|
     -> Result<Vec<BenchCase>, String> {
        // --- interrogate the server ---
        let mut probe = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let (status, body) = probe
            .get("/healthz")
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if status != 200 {
            return Err(format!(
                "/healthz returned {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        let health = std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(s).map_err(|e| format!("bad /healthz body: {e}")))?;
        let served_hash = health
            .get("model")
            .and_then(Json::as_str)
            .ok_or("/healthz missing model hash")?
            .to_string();
        let served_backend: Backend = health
            .get("backend")
            .and_then(Json::as_str)
            .ok_or("/healthz missing backend")?
            .parse()?;
        let served_timesteps = health
            .get("timesteps")
            .and_then(Json::as_u64)
            .ok_or("/healthz missing timesteps")? as usize;
        let served_burn_in = health.get("burn_in").and_then(Json::as_u64).unwrap_or(0) as usize;
        let dims = match health.get("input") {
            Some(Json::Arr(v)) if v.len() == 3 => {
                let mut it = v.iter().map(|x| x.as_u64().unwrap_or(0) as usize);
                (
                    it.next().unwrap_or(0),
                    it.next().unwrap_or(0),
                    it.next().unwrap_or(0),
                )
            }
            _ => return Err("/healthz missing input dims".to_string()),
        };
        println!(
            "serve bench: {addr} model {served_hash} backend {served_backend} \
             T={served_timesteps} input {}x{}x{}{}{}",
            dims.0,
            dims.1,
            dims.2,
            if gate_exit.is_adaptive() {
                format!(" early-exit {}", gate_exit.kind())
            } else {
                String::new()
            },
            if smoke { " (smoke)" } else { "" }
        );

        // --- request corpus: real dataset images at the served size ---
        let data = data_for(dims.1);
        let set = data.test.take(if smoke { 4 } else { 16 });
        let images: Vec<sia_tensor::Tensor> =
            (0..set.len()).map(|i| set.get(i).0.clone()).collect();
        let bodies: Arc<Vec<Vec<u8>>> = Arc::new(
            images
                .iter()
                .map(|img| images_json(std::slice::from_ref(img)).into_bytes())
                .collect(),
        );

        // --- determinism gate: served bits == local single-thread bits ---
        let expected = if let Some(model) = local_model {
            if model.hash_hex() != served_hash {
                return Err(format!(
                    "served model {served_hash} is not the local artifact {} — \
                     refusing to compare predictions across different models",
                    model.hash_hex()
                ));
            }
            let gate = ServingUnit::start(
                Arc::clone(model),
                ServeConfig {
                    backend: served_backend,
                    threads: 1,
                    timesteps: served_timesteps,
                    burn_in: served_burn_in,
                    queue_capacity: 1,
                    kernel_policy: sia_snn::KernelPolicy::Auto,
                    exit: gate_exit,
                },
            )?;
            let expected = gate
                .predict(images.clone())
                .map_err(|e| format!("local reference predict: {e}"))?;
            gate.shutdown();
            for (i, body) in bodies.iter().enumerate() {
                let (status, resp) = probe
                    .post("/predict", body)
                    .map_err(|e| format!("POST /predict: {e}"))?;
                if status != 200 {
                    return Err(format!(
                        "/predict returned {status}: {}",
                        String::from_utf8_lossy(&resp)
                    ));
                }
                if !served_bits_match(&parse_predictions(&resp)?, &expected[i]) {
                    return Err(format!(
                        "determinism gate failed: served prediction for image {i} \
                         diverges bitwise from the local single-thread reference"
                    ));
                }
            }
            println!(
                "determinism gate: {} served predictions bit-identical to the \
                 local single-thread reference",
                bodies.len()
            );
            Some(Arc::new(expected))
        } else {
            println!(
                "determinism gate skipped: --url without --model leaves no \
                 local artifact to compare against"
            );
            None
        };

        // --- concurrency sweep ---
        println!(
            "{:<8} {:>9} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "clients", "requests", "min ms", "p50 ms", "p95 ms", "p99 ms", "img/s"
        );
        let mut cases = Vec::new();
        for &concurrency in &levels {
            let t0 = Instant::now();
            let mut handles = Vec::new();
            for worker in 0..concurrency {
                let addr = addr.to_string();
                let bodies = Arc::clone(&bodies);
                let expected = expected.clone();
                handles.push(std::thread::spawn(move || -> Result<Vec<u64>, String> {
                    // concurrency-allow: load-generator client threads
                    let mut client = Client::connect(&addr)
                        .map_err(|e| format!("client {worker}: connecting {addr}: {e}"))?;
                    let mut samples = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let idx = (worker + i) % bodies.len();
                        let t = Instant::now();
                        let (status, resp) = client
                            .post("/predict", &bodies[idx])
                            .map_err(|e| format!("client {worker}: POST /predict: {e}"))?;
                        samples.push(t.elapsed().as_nanos() as u64);
                        if status != 200 {
                            return Err(format!(
                                "client {worker}: /predict returned {status}: {}",
                                String::from_utf8_lossy(&resp)
                            ));
                        }
                        if let Some(expected) = &expected {
                            let got = parse_predictions(&resp)
                                .map_err(|e| format!("client {worker}: {e}"))?;
                            if !served_bits_match(&got, &expected[idx]) {
                                return Err(format!(
                                    "client {worker}: served prediction for image {idx} \
                                     diverged under {concurrency} concurrent clients"
                                ));
                            }
                        }
                    }
                    Ok(samples)
                }));
            }
            let mut samples = Vec::new();
            for handle in handles {
                samples.extend(
                    handle
                        .join()
                        .map_err(|_| "load client panicked".to_string())??,
                );
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let (min, median, mad) = summarize_ns(&samples);
            let (p50, p95, p99) = (
                quantile_us(&sorted, 0.50),
                quantile_us(&sorted, 0.95),
                quantile_us(&sorted, 0.99),
            );
            let images_per_s = samples.len() as f64 / wall_s.max(1e-9);
            println!(
                "{concurrency:<8} {:>9} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>10.1}",
                samples.len(),
                min as f64 / 1e6,
                p50 / 1e3,
                p95 / 1e3,
                p99 / 1e3,
                images_per_s
            );
            let mut metrics = vec![
                ("concurrency".to_string(), concurrency as f64),
                ("p50_us".to_string(), p50),
                ("p95_us".to_string(), p95),
                ("p99_us".to_string(), p99),
                ("images_per_s".to_string(), images_per_s),
            ];
            if let Some(baseline) = baseline {
                let fixed_name = format!("c{concurrency}");
                let base_metric = |key: &str| -> Option<f64> {
                    baseline
                        .iter()
                        .find(|c| c.name == fixed_name)?
                        .metrics
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|&(_, v)| v)
                };
                for (delta_key, key, val) in [
                    ("p50_delta_us", "p50_us", p50),
                    ("p95_delta_us", "p95_us", p95),
                    ("p99_delta_us", "p99_us", p99),
                ] {
                    if let Some(base) = base_metric(key) {
                        metrics.push((delta_key.to_string(), val - base));
                    }
                }
            }
            cases.push(BenchCase {
                name: format!("c{concurrency}{suffix}"),
                iters: samples.len() as u64,
                warmup: 0,
                min_ns: min,
                median_ns: median,
                mad_ns: mad,
                metrics,
            });
        }
        Ok(cases)
    };

    // --- remote mode: one pass against the given server ---
    if let Some(url) = args.options.get("url").cloned() {
        if url == "true" {
            return Err("--url needs a host:port".to_string());
        }
        let local_model = if args.options.contains_key("model") {
            Some(Arc::new(bench_model(args, timesteps)?))
        } else {
            None
        };
        // The gate replays whatever exit flags were passed; they must match
        // the remote server's policy for the bitwise comparison to hold.
        let cases = measure(&url, local_model.as_ref(), exit, "", None)?;
        if args.switch("shutdown") {
            let mut client =
                Client::connect(&url).map_err(|e| format!("connecting {url} for shutdown: {e}"))?;
            client
                .post("/shutdown", b"{}")
                .map_err(|e| format!("POST /shutdown: {e}"))?;
        }
        return Ok(BenchReport {
            bench: "serve".to_string(),
            host: HostInfo::detect(),
            provenance: Provenance::detect(),
            threads,
            cases,
        });
    }

    // --- hosted mode ---
    let backend: Backend = args.str_or("backend", "int").parse()?;
    let burn_in = args.usize_or("burn-in", 0).map_err(err)?;
    let queue_capacity = args.usize_or("queue", 256).map_err(err)?;
    let host_one = |exit: sia_snn::ExitPolicy| -> Result<HostedServer, String> {
        let config = ServeConfig {
            backend,
            threads,
            timesteps,
            burn_in,
            queue_capacity,
            kernel_policy,
            exit,
        };
        let registry = Arc::new(ModelRegistry::new(timesteps));
        let model = if let Some(path) = args.options.get("model") {
            if path == "true" {
                return Err("--model needs a model.sia path".to_string());
            }
            registry.load(path)?
        } else {
            // self-hosting needs a file the registry can key: write the
            // untrained image to a temp path and load it back
            let tmp =
                std::env::temp_dir().join(format!("sia-bench-serve-{}.sia", std::process::id()));
            let bytes = untrained_image_bytes(args)?;
            std::fs::write(&tmp, &bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            let loaded = registry.load(tmp.to_str().ok_or("temp path is not UTF-8")?)?;
            let _ = std::fs::remove_file(&tmp);
            loaded
        };
        let server = Server::bind("127.0.0.1", 0, registry, Arc::clone(&model), config)?;
        let addr = format!("127.0.0.1:{}", server.port());
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run()) // concurrency-allow: load-generator host thread
        };
        Ok((server, thread, model, addr))
    };
    let stop = |server: Arc<Server>,
                thread: std::thread::JoinHandle<Result<(), String>>|
     -> Result<(), String> {
        server.request_shutdown();
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    };

    let (server, thread, model, addr) = host_one(exit)?;
    let fixed_cases = match measure(&addr, Some(&model), exit, "", None) {
        Ok(cases) => {
            stop(server, thread)?;
            cases
        }
        Err(e) => {
            let _ = stop(server, thread);
            return Err(e);
        }
    };
    // Second pass with a margin early-exit policy (only when the primary
    // pass was fixed-T): same model, same corpus, latency deltas recorded
    // against the matching `c{n}` case.
    let adaptive = if exit.is_adaptive() {
        Vec::new()
    } else {
        let margin = sia_snn::ExitPolicy::Margin {
            threshold: 0.5,
            window: 1,
        };
        let (server, thread, model, addr) = host_one(margin)?;
        match measure(&addr, Some(&model), margin, "@margin", Some(&fixed_cases)) {
            Ok(cases) => {
                stop(server, thread)?;
                cases
            }
            Err(e) => {
                let _ = stop(server, thread);
                return Err(e);
            }
        }
    };
    let mut cases = fixed_cases;
    cases.extend(adaptive);
    Ok(BenchReport {
        bench: "serve".to_string(),
        host: HostInfo::detect(),
        provenance: Provenance::detect(),
        threads,
        cases,
    })
}
