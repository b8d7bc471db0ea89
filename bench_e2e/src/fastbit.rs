//! `fastbit`: the paper's bitmap-index application (Table 1). A closed
//! loop with one client runs seeded range queries against an
//! equality-encoded index; every 32nd query pushes a value predicate
//! down into PIM (`run_query_filtered`), which is the only traffic
//! through the µ-program compiler and the per-channel `execute_batch`.
//! Each pushdown leaves rows behind that later split/absorb passes walk,
//! so its cost grows through a run; at every 8th query the process grew
//! to 1 GB and the tail latency moved by a fifth from run to run.

use crate::metrics::{ms, proc_status_mb, Completions, Metrics};
use crate::speed::SpeedProbe;
use crate::trace::Tracer;
use crate::{Plan, Run};
use pinatubo_apps::database::{BitmapIndex, Query, TableSpec, ValueColumn};
use pinatubo_core::rng::SimRng;
use pinatubo_runtime::{MappingPolicy, PimSystem, RuntimeError};
use std::time::Instant;

/// Queries per second of `--seconds`: the run is a fixed amount of work
/// (so modeled totals and memory repeat exactly for a seed) sized to
/// take about that long on a 2-core host at the first measurement.
const QUERIES_PER_SECOND: f64 = 4096.0;
const PUSHDOWN_EVERY: usize = 32;
const PUSHDOWN_MIN_VALUE: u64 = 2600;
const VALUE_WIDTH_BITS: u32 = 12;
/// A reference count costs milliseconds, so only one query in this many
/// is checked, alternating between plain and pushdown queries.
const CHECK_EVERY: usize = 64;
const SETUP_REPEATS: usize = 7;
/// Queries between two host-speed probe readings.
const PROBE_EVERY: usize = 64;

struct Fixture {
    sys: PimSystem,
    index: BitmapIndex,
    column: ValueColumn,
}

fn spec(plan: &Plan) -> TableSpec {
    let base = TableSpec::star_like();
    TableSpec {
        rows: if plan.smoke { 1 << 14 } else { base.rows },
        seed: plan.seed ^ base.seed,
        ..base
    }
}

fn build(spec: TableSpec) -> Result<(Fixture, f64), RuntimeError> {
    let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
    let t = Instant::now();
    let index = BitmapIndex::build(spec, &mut sys)?;
    let values = ValueColumn::synthetic_values(spec.rows, VALUE_WIDTH_BITS, spec.seed ^ 0xC0);
    let column = ValueColumn::build(values, VALUE_WIDTH_BITS, &mut sys)?;
    let build_s = t.elapsed().as_secs_f64();
    Ok((Fixture { sys, index, column }, build_s))
}

fn is_pushdown(i: usize) -> bool {
    i % PUSHDOWN_EVERY == PUSHDOWN_EVERY - 1
}

/// One query in every [`CHECK_EVERY`], alternately a plain one and a
/// pushdown one.
fn is_checked(i: usize) -> bool {
    let offset = if (i / CHECK_EVERY) % 2 == 0 {
        0
    } else {
        PUSHDOWN_EVERY - 1
    };
    i % CHECK_EVERY == offset
}

pub fn run(plan: &Plan, tracer: &mut Tracer) -> Result<Run, String> {
    let spec = spec(plan);
    let queries_n = if plan.smoke {
        2 * CHECK_EVERY
    } else {
        (plan.seconds * QUERIES_PER_SECOND).ceil() as usize
    };

    let mut probe = SpeedProbe::new();
    let (mut setup_s, mut setup_raw_s, mut build_s) = (vec![], vec![], vec![]);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let (built, raw_s, ref_s) = probe.timed(|| build(spec));
        let (f, b) = built.map_err(|e| format!("index build failed: {e}"))?;
        setup_s.push(ref_s);
        setup_raw_s.push(raw_s);
        build_s.push(b * ref_s / raw_s);
        fixture = Some(f);
    }
    let Fixture {
        mut sys,
        index,
        column,
    } = fixture.expect("at least one setup");
    let rss_after_setup_mb = proc_status_mb("VmRSS");

    let mut rng = SimRng::seed_from_u64(plan.seed ^ 0x0FA5_7B17);
    let queries: Vec<Query> = (0..queries_n)
        .map(|_| Query::random(&spec, &mut rng))
        .collect();

    let stats_before = *sys.stats();
    let trace_before = sys.trace().len();
    let free_before = sys.allocator().free_rows();
    let mut counts = Vec::with_capacity(queries_n);
    let mut completions = Completions::default();
    let mut failed = 0u64;

    let start = Instant::now();
    probe.start(start);
    tracer.begin("bench", 0);
    for (i, q) in queries.iter().enumerate() {
        if i % PROBE_EVERY == 0 {
            tracer.span("bench.probe", 0, || probe.sample());
        }
        let t = Instant::now();
        let outcome = if is_pushdown(i) {
            tracer.span("apps.database.run_query_filtered", i as u64, || {
                index.run_query_filtered(q, &column, PUSHDOWN_MIN_VALUE, &mut sys)
            })
        } else {
            tracer.span("apps.database.run_query", i as u64, || {
                index.run_query(q, &mut sys)
            })
        };
        completions.push(ms(t.elapsed()), start.elapsed().as_secs_f64());
        match outcome {
            Ok(o) => counts.push(Some(o.count)),
            Err(_) => {
                failed += 1;
                counts.push(None);
            }
        }
    }
    tracer.end();
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = proc_status_mb("VmHWM");
    let rss_after_measure_mb = proc_status_mb("VmRSS");
    let modeled = *sys.stats() - stats_before;

    // Correctness, outside the timed phase: the scalar reference over
    // the table's ground-truth columns.
    let t = Instant::now();
    let mut checked = 0u64;
    for (i, q) in queries.iter().enumerate().filter(|&(i, _)| is_checked(i)) {
        let Some(got) = counts[i] else { continue };
        let want = if is_pushdown(i) {
            index.count_reference_filtered(q, &column, PUSHDOWN_MIN_VALUE)
        } else {
            index.count_reference(q)
        };
        checked += 1;
        if got != want {
            failed += 1;
            eprintln!("fastbit: query {i} counted {got}, reference {want}");
        }
    }
    let verify_s = t.elapsed().as_secs_f64();

    let mut layers = Metrics::default();
    layers.push(
        "runtime.system.trace_len",
        (sys.trace().len() - trace_before) as f64,
        "count",
    );
    layers.push(
        "runtime.allocator.free_rows_delta",
        sys.allocator().free_rows() as f64 - free_before as f64,
        "count",
    );
    layers.push("bench.checked_queries", checked as f64, "count");

    Ok(Run {
        setup_s,
        setup_raw_s,
        build_s,
        rss_after_setup_mb,
        completions,
        readings: probe.readings().to_vec(),
        open_loop: false,
        attempted: queries_n as u64,
        failed,
        wall_s,
        idle_s: 0.0,
        peak_rss_mb,
        rss_after_measure_mb,
        modeled,
        verify_s,
        layers,
        host: vec![
            ("loop", "\"closed, 1 client\"".into()),
            ("queries", queries_n.to_string()),
            ("pushdown_every", PUSHDOWN_EVERY.to_string()),
            ("table_rows", spec.rows.to_string()),
            ("setup_repeats", SETUP_REPEATS.to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_alternate_between_plain_and_pushdown() {
        let checked: Vec<usize> = (0..4 * CHECK_EVERY).filter(|&i| is_checked(i)).collect();
        assert_eq!(checked.len(), 4);
        let kinds: Vec<bool> = checked.iter().map(|&i| is_pushdown(i)).collect();
        assert_eq!(kinds, [false, true, false, true]);
    }

    #[test]
    fn smoke_run_passes_its_correctness_gate() {
        let plan = Plan {
            seed: 3,
            seconds: 1.0,
            smoke: true,
        };
        let run = run(&plan, &mut Tracer::new(false)).expect("smoke run");
        assert_eq!(run.failed, 0);
        assert_eq!(run.completions.len(), 2 * CHECK_EVERY);
        assert!(run.layers.get("bench.checked_queries").unwrap().value >= 2.0);
        assert!(run.modeled.time_ns > 0.0);
    }
}
