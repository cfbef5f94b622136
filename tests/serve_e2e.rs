//! End-to-end serving determinism: predictions answered by `sia serve`'s
//! HTTP front end must be **bit-identical** to offline `sia eval` on the
//! same model, backend and timesteps — for any pool thread count and any
//! interleaving of concurrent clients. This is the executable form of the
//! serving layer's core contract: the request path reuses the exact
//! engine-pool pipeline (per-image independent runs, index-order
//! reduction) that batch evaluation uses.

use sia_accel::{compile_for, write_image, SiaConfig, SiaEngineFactory};
use sia_dataset::LabelledSet;
use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
use sia_serve::{
    images_json, parse_predictions, Backend, Client, ModelRegistry, Prediction, ServeConfig, Server,
};
use sia_snn::{
    convert, BatchEvaluator, ConvertOptions, EvalConfig, EvalEncoding, FloatEngineFactory,
    IntEngineFactory,
};
use sia_tensor::{Conv2dGeom, Tensor};
use std::sync::Arc;

const TIMESTEPS: usize = 4;
const BURN_IN: usize = 1;

/// A tiny verified deployment image: conv → global-avg-pool → linear head.
fn tiny_image_bytes() -> Vec<u8> {
    let geom = Conv2dGeom {
        in_channels: 3,
        out_channels: 4,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let spec = NetworkSpec {
        name: "serve-e2e".into(),
        input: (3, 8, 8),
        items: vec![
            SpecItem::Conv(ConvSpec {
                geom,
                weights: Tensor::from_vec(
                    vec![4, 3, 3, 3],
                    (0..108).map(|i| ((i % 7) as f32 - 3.0) * 0.05).collect(),
                ),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 1.0,
                }),
            }),
            SpecItem::GlobalAvgPool,
            SpecItem::Linear(LinearSpec {
                in_features: 4,
                out_features: 10,
                weights: Tensor::from_vec(
                    vec![10, 4],
                    (0..40).map(|i| ((i % 5) as f32 - 2.0) * 0.2).collect(),
                ),
                bias: vec![0.0; 10],
            }),
        ],
    };
    let net = convert(&spec, &ConvertOptions::default());
    write_image(&net, &SiaConfig::pynq_z2())
}

/// Deterministic pseudo-random images in `[0, 1)` at the model's shape.
fn test_images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let mut state = 0xE2E_u64 ^ ((i as u64) << 20) | 1;
            let data: Vec<f32> = (0..3 * 8 * 8)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 1000) as f32 / 1000.0
                })
                .collect();
            Tensor::from_vec(vec![3, 8, 8], data)
        })
        .collect()
}

fn assert_bits_eq(a: &[Prediction], b: &[Prediction], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.class, y.class, "{context}: class diverges on image {i}");
        let xb: Vec<u32> = x.logits.iter().map(|l| l.to_bits()).collect();
        let yb: Vec<u32> = y.logits.iter().map(|l| l.to_bits()).collect();
        assert_eq!(xb, yb, "{context}: logit bits diverge on image {i}");
    }
}

/// Boots a server on an ephemeral port, drives it with `clients`
/// concurrent keep-alive connections (each posting every image, staggered
/// so batch windows interleave differently per client), asserts all
/// clients saw bit-identical answers, shuts down cleanly, and returns the
/// predictions in image order.
fn serve_and_predict(
    path: &str,
    backend: Backend,
    threads: usize,
    images: &[Tensor],
    clients: usize,
) -> Vec<Prediction> {
    let registry = Arc::new(ModelRegistry::new(TIMESTEPS));
    let model = registry.load(path).expect("model loads");
    let server = Server::bind(
        "127.0.0.1",
        0,
        registry,
        model,
        ServeConfig {
            backend,
            threads,
            timesteps: TIMESTEPS,
            burn_in: BURN_IN,
            queue_capacity: 64,
            kernel_policy: sia_snn::KernelPolicy::Auto,
            exit: sia_snn::ExitPolicy::Fixed,
        },
    )
    .expect("server binds");
    let addr = format!("127.0.0.1:{}", server.port());
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let images = images.to_vec();
            std::thread::spawn(move || -> Vec<Prediction> {
                let mut client = Client::connect(&addr).expect("client connects");
                let mut slots: Vec<Option<Prediction>> = vec![None; images.len()];
                for i in 0..images.len() {
                    let idx = (i + c) % images.len();
                    let body = images_json(std::slice::from_ref(&images[idx]));
                    let (status, resp) = client
                        .post("/predict", body.as_bytes())
                        .expect("predict round-trips");
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
                    let mut got = parse_predictions(&resp).expect("response parses");
                    assert_eq!(got.len(), 1);
                    slots[idx] = Some(got.remove(0));
                }
                slots
                    .into_iter()
                    .map(|s| s.expect("every image answered"))
                    .collect()
            })
        })
        .collect();
    let mut per_client: Vec<Vec<Prediction>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    server.request_shutdown();
    run.join().expect("server thread").expect("server run");
    let first = per_client.remove(0);
    for (c, other) in per_client.iter().enumerate() {
        assert_bits_eq(
            &first,
            other,
            &format!("{backend} x{threads}: client 0 vs client {}", c + 1),
        );
    }
    first
}

/// Offline `sia eval` on the same model/backend (single-threaded — the
/// determinism baseline).
fn offline_classes(path: &str, backend: Backend, images: &[Tensor]) -> Vec<usize> {
    let model = sia_serve::load_file(path, TIMESTEPS).expect("model loads");
    let set = LabelledSet::new(images.to_vec(), vec![0; images.len()]);
    let evaluator = BatchEvaluator::new(EvalConfig {
        timesteps: TIMESTEPS,
        burn_in: BURN_IN,
        threads: 1,
        encoding: EvalEncoding::Dense,
        exit: sia_snn::ExitPolicy::Fixed,
    });
    let outcome = match backend {
        Backend::Float => {
            evaluator.evaluate(FloatEngineFactory::new(Arc::clone(&model.network)), &set)
        }
        Backend::Int => evaluator.evaluate(IntEngineFactory::new(Arc::clone(&model.network)), &set),
        Backend::Accel => {
            let program = compile_for(&model.network, &model.config, TIMESTEPS).expect("compiles");
            evaluator.evaluate(SiaEngineFactory::new(program, model.config.clone()), &set)
        }
    };
    outcome.predictions
}

#[test]
fn served_predictions_match_offline_eval_bit_for_bit_on_every_backend() {
    let dir = std::env::temp_dir().join("sia_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.sia");
    std::fs::write(&path, tiny_image_bytes()).unwrap();
    let path = path.to_str().unwrap();
    let images = test_images(6);

    for backend in [Backend::Float, Backend::Int, Backend::Accel] {
        let single = serve_and_predict(path, backend, 1, &images, 2);
        let pooled = serve_and_predict(path, backend, 4, &images, 3);
        assert_bits_eq(
            &single,
            &pooled,
            &format!("{backend}: threads 1 vs threads 4"),
        );
        let offline = offline_classes(path, backend, &images);
        let served: Vec<usize> = single.iter().map(|p| p.class).collect();
        assert_eq!(
            offline, served,
            "{backend}: served classes diverge from offline eval"
        );
    }
}
