//! The internal-schema substrate in isolation: the tuple codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dme_storage::{decode_tuple, encode_tuple};
use dme_value::{tuple, Tuple};

fn sample_tuple(i: i64) -> Tuple {
    tuple![
        format!("employee-{i:06}"),
        i,
        format!("machine-{:04}", i % 97)
    ]
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let t = sample_tuple(123456);
    let encoded = encode_tuple(&t);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| encode_tuple(black_box(&t))));
    group.bench_function("decode", |b| {
        b.iter(|| decode_tuple(black_box(&encoded)).expect("decodes"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_codec
}
criterion_main!(benches);
