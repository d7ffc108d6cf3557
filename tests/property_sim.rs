//! Property-style tests over the transfer simulation core and the
//! class-file substrate: invariants that must hold for *any* input, not
//! just the six benchmarks. Cases are generated from a seeded in-repo
//! RNG, so failures reproduce exactly.

use nonstrict::classfile::{ClassFileBuilder, Constant, MethodData};
use nonstrict::netsim::{
    ClassUnits, InterleavedEngine, Link, ParallelEngine, StrictEngine, TransferEngine,
};
use nonstrict::workloads::rng::StdRng;
use nonstrict_netsim::schedule::ParallelSchedule;

const CASES: u64 = 64;

/// Arbitrary class units: 1–5 classes, up to 8 methods each.
fn arb_units(rng: &mut StdRng) -> Vec<ClassUnits> {
    let classes = rng.gen_range(1usize..6);
    (0..classes)
        .map(|_| {
            let methods = (0..rng.gen_range(1usize..8))
                .map(|_| rng.gen_range(1u64..500))
                .collect();
            ClassUnits {
                prelude: rng.gen_range(1u64..2000),
                methods,
                trailing: rng.gen_range(0u64..200),
            }
        })
        .collect()
}

/// The fluid parallel engine is work-conserving: with at least one
/// stream always eligible, all bytes finish exactly when a single
/// full-bandwidth stream would finish them.
#[test]
fn parallel_engine_is_work_conserving() {
    let mut rng = StdRng::seed_from_u64(0x9a11e7);
    for _ in 0..CASES {
        let units = arb_units(&mut rng);
        let limit = rng.gen_range(1usize..6);
        let cpb = rng.gen_range(1u64..2000);
        let link = Link {
            cycles_per_byte: cpb,
            name: "prop",
        };
        let schedule = ParallelSchedule {
            class_order: (0..units.len()).collect(),
            thresholds: vec![0; units.len()],
        };
        let total: u64 = units.iter().map(ClassUnits::total).sum();
        let mut engine = ParallelEngine::new(link, &units, &schedule, limit);
        assert_eq!(engine.finish_time(), link.cycles_for(total));
    }
}

/// Arrivals are monotone within every class stream and never later
/// than the all-done time, for arbitrary thresholds.
#[test]
fn parallel_arrivals_are_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xa221fe);
    for _ in 0..CASES {
        let units = arb_units(&mut rng);
        let limit = rng.gen_range(1usize..5);
        let cpb = rng.gen_range(1u64..500);
        let seed = rng.gen_range(0u64..1000);
        let link = Link {
            cycles_per_byte: cpb,
            name: "prop",
        };
        let schedule = ParallelSchedule {
            class_order: (0..units.len()).collect(),
            // simple deterministic pseudo-thresholds bounded by capacity
            thresholds: {
                let mut caps = Vec::new();
                let mut acc = 0u64;
                for u in &units {
                    caps.push(if acc == 0 { 0 } else { (seed * 7919) % acc });
                    acc += u.total();
                }
                caps
            },
        };
        let mut engine = ParallelEngine::new(link, &units, &schedule, limit);
        let finish = engine.finish_time();
        for (c, u) in units.iter().enumerate() {
            let mut last = 0;
            for i in 0..u.unit_count() {
                let t = engine.unit_ready(c, i, 0);
                assert!(t >= last, "class {c} unit {i}: {t} < {last}");
                assert!(t <= finish);
                last = t;
            }
        }
    }
}

/// A demand fetch can only improve (or not change) a unit's arrival
/// versus waiting for the schedule.
#[test]
fn demand_fetch_never_delays_the_requested_class() {
    let mut rng = StdRng::seed_from_u64(0xdefe7c);
    let mut checked = 0;
    while checked < CASES {
        let units = arb_units(&mut rng);
        let cpb = rng.gen_range(1u64..500);
        if units.len() < 2 {
            continue;
        }
        checked += 1;
        let link = Link {
            cycles_per_byte: cpb,
            name: "prop",
        };
        let last = units.len() - 1;
        // Threshold forces `last` to start only after everything else.
        let cap: u64 = units[..last].iter().map(ClassUnits::total).sum();
        let schedule = ParallelSchedule {
            class_order: (0..units.len()).collect(),
            thresholds: (0..units.len())
                .map(|i| if i == last { cap } else { 0 })
                .collect(),
        };
        let mut scheduled = ParallelEngine::new(link, &units, &schedule, 4);
        let mut demanded = ParallelEngine::new(link, &units, &schedule, 4);
        // never ask for it: simulate everything, then read the arrival
        let f = scheduled.finish_time();
        let t_wait = scheduled.unit_ready(last, 0, f);
        // ask for it at time zero (misprediction correction)
        let t_demand = demanded.unit_ready(last, 0, 0);
        assert!(
            t_demand <= t_wait,
            "demand {t_demand} vs scheduled {t_wait}"
        );
    }
}

/// Interleaved arrival deltas equal the unit sizes times the link
/// cost: the single stream is exact.
#[test]
fn interleaved_stream_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x1e4e6);
    let app = nonstrict::workloads::hanoi::build();
    let order = nonstrict::reorder::static_first_use(&app.program);
    let r = nonstrict::reorder::restructure(&app, &order);
    let units = nonstrict::netsim::class_units(&app, &r, None, 2);
    for _ in 0..CASES {
        let cpb = rng.gen_range(1u64..1000);
        let link = Link {
            cycles_per_byte: cpb,
            name: "prop",
        };
        let mut e = InterleavedEngine::new(&app, &r, &units, &order, link);
        let total: u64 = units.iter().map(ClassUnits::total).sum();
        assert_eq!(e.finish_time(), link.cycles_for(total));
        // the entry method arrives after exactly prelude + first unit
        let c = app.program.entry().class.0 as usize;
        assert_eq!(
            e.unit_ready(c, 1, 0),
            link.cycles_for(units[c].prelude + units[c].methods[0])
        );
    }
}

/// Strict transfer completes classes at exact cumulative boundaries
/// in the given order.
#[test]
fn strict_engine_matches_prefix_sums() {
    let mut rng = StdRng::seed_from_u64(0x57fe1c7);
    for _ in 0..CASES {
        let units = arb_units(&mut rng);
        let cpb = rng.gen_range(1u64..1000);
        let link = Link {
            cycles_per_byte: cpb,
            name: "prop",
        };
        let order: Vec<usize> = (0..units.len()).collect();
        let engine = StrictEngine::new(link, &units, &order);
        let mut acc = 0u64;
        for (c, u) in units.iter().enumerate() {
            acc += u.total();
            assert_eq!(engine.class_ready(c), link.cycles_for(acc));
        }
    }
}

/// Class-file byte conservation: for any synthetic class, the
/// serialized length equals the size model, and the global/method
/// split covers the file exactly.
#[test]
fn classfile_sizes_are_exact() {
    let mut rng = StdRng::seed_from_u64(0xc1a55);
    for case in 0..CASES {
        let name_count = rng.gen_range(1usize..10);
        let names: Vec<String> = (0..name_count)
            .map(|i| {
                let len = rng.gen_range(1usize..13);
                (0..len)
                    .map(|j| {
                        char::from(
                            b'a' + ((rng.gen_range(0u32..26) + i as u32 + j as u32) % 26) as u8,
                        )
                    })
                    .collect()
            })
            .collect();
        let code_lens: Vec<usize> = (0..rng.gen_range(1usize..10))
            .map(|_| rng.gen_range(1usize..200))
            .collect();
        let strings: Vec<String> = (0..rng.gen_range(0usize..6))
            .map(|_| {
                let len = rng.gen_range(0usize..41);
                (0..len)
                    .map(|_| char::from(rng.gen_range(0x20u32..0x7f) as u8))
                    .collect()
            })
            .collect();
        let ints: Vec<i32> = (0..rng.gen_range(0usize..6))
            .map(|_| rng.gen_range(i32::MIN..i32::MAX))
            .collect();

        let mut b = ClassFileBuilder::new("prop/T");
        for s in &strings {
            b.pool_mut().string(s).unwrap();
        }
        for v in &ints {
            b.pool_mut().intern(Constant::Integer(*v)).unwrap();
        }
        for (i, name) in names.iter().enumerate() {
            let len = code_lens[i % code_lens.len()];
            let mut code = vec![0x00u8; len];
            *code.last_mut().unwrap() = 0xB1; // return
            let mut md = MethodData::new(format!("{name}{i}"), "()V", code);
            md.line_numbers(vec![(0, 1), (1, 2)]);
            b.add_method(md).unwrap();
        }
        let class = b.build().unwrap();
        assert_eq!(
            class.to_bytes().len() as u32,
            class.total_size(),
            "case {case}"
        );
        let methods: u32 = class.methods.iter().map(|m| m.wire_size()).sum();
        assert_eq!(
            class.global_data_size() + methods,
            class.total_size(),
            "case {case}"
        );
    }
}
