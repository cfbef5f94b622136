//! A live `sia serve` survives a hostile `/predict` body. 300 000 nested
//! arrays once overflowed the connection thread's stack, which aborts the
//! whole process; the server must refuse the body with a 4xx, then answer
//! a valid request with the bits a local serving unit computes.

use sia_accel::{write_image, SiaConfig};
use sia_nn::resnet::ResNet;
use sia_nn::Model;
use sia_serve::{
    images_json, parse_predictions, Backend, Client, ModelRegistry, ServeConfig, Server,
    ServingUnit,
};
use sia_snn::{convert, ConvertOptions, ExitPolicy, KernelPolicy};
use sia_tensor::Tensor;
use std::sync::Arc;

/// A tiny deployment image: an untrained ResNet-18 of width 2 at 8×8.
fn tiny_image_bytes() -> Vec<u8> {
    let mut m = ResNet::resnet18(2, 8, 10, 1);
    m.visit_activations(&mut |a| a.make_quantized(8));
    let net = convert(&m.to_spec(), &ConvertOptions::default());
    write_image(&net, &SiaConfig::pynq_z2())
}

#[test]
fn live_server_refuses_a_deeply_nested_body_and_keeps_serving() {
    let path = std::env::temp_dir().join("sia_serve_nested_body.sia");
    std::fs::write(&path, tiny_image_bytes()).unwrap();
    let config = ServeConfig {
        backend: Backend::Int,
        threads: 1,
        timesteps: 4,
        burn_in: 0,
        queue_capacity: 8,
        kernel_policy: KernelPolicy::Auto,
        exit: ExitPolicy::Fixed,
    };
    let registry = Arc::new(ModelRegistry::new(config.timesteps));
    let model = registry.load(path.to_str().unwrap()).expect("model loads");
    let server =
        Server::bind("127.0.0.1", 0, registry, Arc::clone(&model), config).expect("server binds");
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let addr = format!("127.0.0.1:{}", server.port());
    let post = |body: &[u8]| {
        Client::connect(&addr)
            .expect("client connects")
            .post("/predict", body)
            .expect("the server answers")
    };

    let nested = format!(
        "{{\"image\":{}{}}}",
        "[".repeat(300_000),
        "]".repeat(300_000)
    );
    let (status, body) = post(nested.as_bytes());
    let text = String::from_utf8_lossy(&body);
    assert!(
        (400..500).contains(&status),
        "nested body got {status}: {text}"
    );

    let image = Tensor::from_vec(
        vec![3, 8, 8],
        (0..192).map(|i| (i % 11) as f32 / 11.0).collect(),
    );
    let (status, body) = post(images_json(std::slice::from_ref(&image)).as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let served = parse_predictions(&body).expect("response parses");
    let local = ServingUnit::start(model, config)
        .expect("local unit starts")
        .predict(vec![image])
        .expect("local unit predicts");
    assert_eq!((served.len(), local.len()), (1, 1));
    assert_eq!(served[0].class, local[0].class);
    let bits = |logits: &[f32]| logits.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served[0].logits), bits(&local[0].logits));

    server.request_shutdown();
    run.join().expect("server thread").expect("server run");
}
