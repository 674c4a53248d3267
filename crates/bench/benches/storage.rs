//! The internal-schema substrate in isolation: codec, slotted pages
//! and heap files.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dme_storage::{decode_tuple, encode_tuple, HeapFile, Page};
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

fn bench_page(c: &mut Criterion) {
    let mut group = c.benchmark_group("page");
    let record = encode_tuple(&sample_tuple(1));
    group.bench_function("fill_page", |b| {
        b.iter(|| {
            let mut p = Page::new();
            while p.insert(&record).is_ok() {}
            p
        })
    });
    group.bench_function("compact_half_dead", |b| {
        b.iter_batched(
            || {
                let mut p = Page::new();
                let mut slots = Vec::new();
                while let Ok(s) = p.insert(&record) {
                    slots.push(s);
                }
                for s in slots.iter().step_by(2) {
                    p.delete(*s).expect("live");
                }
                p
            },
            |mut p| {
                p.compact();
                p
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    for n in [100usize, 1000, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("heap_insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut h = HeapFile::new();
                for i in 0..n {
                    h.insert(&encode_tuple(&sample_tuple(i as i64)))
                        .expect("fits");
                }
                h
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_codec, bench_page, bench_heap
}
criterion_main!(benches);
