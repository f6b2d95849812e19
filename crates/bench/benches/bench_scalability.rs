//! E10 — runtime scaling of the three greedy algorithms to large `n`.

use std::hint::black_box;

use busytime_bench::{config, print_table};
use busytime_core::algo::{CliqueScheduler, FirstFit, NextFitProper, Scheduler};
use busytime_instances::clique::random_clique;
use busytime_instances::proper::random_proper;
use busytime_instances::random::{uniform, LengthDist};
use busytime_instances::{Family, GeneratorSpec};
use busytime_lab::{experiments, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Job counts of the sparse-horizon curves (10k to 160k).
const SPARSE_SIZES: [usize; 3] = [10_000, 40_000, 160_000];

fn bench(c: &mut Criterion) {
    print_table(&experiments::systems::e10_scalability(Scale::Quick));

    let sizes = [1_000usize, 10_000, 50_000];

    let mut group = c.benchmark_group("scalability/first_fit");
    for &n in &sizes {
        let inst = uniform(n, n as i64 / 2, LengthDist::Uniform(4, 100), 4, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| FirstFit::paper().schedule(black_box(inst)).unwrap())
        });
    }
    group.finish();

    // the `uniform` generator spec keeps the horizon at n, so each machine's
    // profile grows to thousands of steps; the group above scales the
    // horizon with n and keeps steps per machine constant, so it cannot
    // see a per-step cost in the profile. `scripts/slope_gate.py` fits the
    // log-log slope of this group's minimum timings.
    let mut group = c.benchmark_group("scalability/first_fit_sparse");
    for &n in &SPARSE_SIZES {
        let inst = GeneratorSpec {
            n,
            ..GeneratorSpec::new(Family::Uniform)
        }
        .generate();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| FirstFit::paper().schedule(black_box(inst)).unwrap())
        });
    }
    group.finish();

    // accounting for a finished schedule: `cost` plus `validate` of
    // FirstFit's schedule on the `bounded` spec, whose machines each hold
    // thousands of busy pieces over the 2n horizon. `scripts/slope_gate.py`
    // gates this group's slope too.
    let mut group = c.benchmark_group("scalability/schedule_accounting");
    for &n in &SPARSE_SIZES {
        let inst = GeneratorSpec {
            n,
            ..GeneratorSpec::new(Family::Bounded)
        }
        .generate();
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let sched = black_box(&sched);
                (sched.cost(inst), sched.validate(inst))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scalability/greedy_proper");
    for &n in &sizes {
        let inst = random_proper(n, 3, 40, 10, 4, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| NextFitProper::new().schedule(black_box(inst)).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scalability/clique");
    for &n in &sizes {
        let inst = random_clique(n, 1_000_000, 500_000, 4, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| CliqueScheduler::new().schedule(black_box(inst)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
