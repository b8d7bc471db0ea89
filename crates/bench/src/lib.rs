//! Shared harness code for the figure-regeneration and bench binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see `EXPERIMENTS.md` for the paper-vs-measured record):
//!
//! | binary | paper figure |
//! |--------|--------------|
//! | `fig5_margins` | Fig. 5/6 — SA reference placement and margins |
//! | `fig9`  | Fig. 9 — OR throughput vs vector length and fan-in |
//! | `fig10` | Fig. 10 — bitwise speedup over SIMD |
//! | `fig11` | Fig. 11 — bitwise energy saving over SIMD |
//! | `fig12` | Fig. 12 — overall application speedup & energy |
//! | `fig13` | Fig. 13 — area overhead and breakdown |
//!
//! `ablation_*` binaries cover the design choices `DESIGN.md` flags.
//!
//! Five `bench_*` binaries commit their results, each through
//! [`report::finish`]; `--smoke` runs the small shapes with every check
//! and writes nothing:
//!
//! | binary | measures | file |
//! |--------|----------|------|
//! | `bench_parallel` | persistent session vs serial execution | `BENCH_parallel.json` |
//! | `bench_schedule` | command-interleaved makespan and bus-hold overlap, lookahead vs greedy | `BENCH_schedule.json` |
//! | `bench_bitserial` | fused vs unfused µ-programs, PIM vs SIMD | `BENCH_bitserial.json` |
//! | `bench_serve` | multi-tenant serving vs serial replay | `BENCH_serve.json` |
//! | `bench_fault` | packed vs per-cell fault path, no protection vs SEC-DED | `BENCH_fault.json` |
//!
//! `fault_sweep` prints the functional-vs-analytic sense-error sweep and
//! asserts the pinned recovery-ladder scenario.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod parity;
pub mod protection;
pub mod report;

use pinatubo_apps::AppRun;
use pinatubo_baselines::{
    AcPimExecutor, BitwiseExecutor, ExecReport, PinatuboExecutor, SdramExecutor, SimdCpu,
};
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::MemConfig;
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimBitVec, PimSystem};

/// The system the scheduling benches measure on: PCM with
/// channel-rotated placement.
#[must_use]
pub fn rotated_sys() -> PimSystem {
    PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

/// Stores a deterministic `bits`-bit pattern, varied by `salt`, into `v`.
///
/// # Panics
///
/// Panics if the store fails.
pub fn store_pattern(s: &mut PimSystem, v: &PimBitVec, bits: u64, salt: u64) {
    let pattern: Vec<bool> = (0..bits)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt)) & 4 != 0)
        .collect();
    s.store(v, &pattern).expect("store");
}

/// `count` independent `k`-operand OR/AND/XOR requests over `bits`-bit
/// vectors. Under [`rotated_sys`] every request sits on one channel and
/// consecutive requests rotate over all of them, so the batch is
/// maximally shardable.
///
/// # Panics
///
/// Panics if the groups do not fit in memory.
pub fn uniform_batch(s: &mut PimSystem, count: usize, k: usize, bits: u64) -> Vec<BatchRequest> {
    let ops = [BitwiseOp::Or, BitwiseOp::And, BitwiseOp::Xor];
    (0..count)
        .map(|g| {
            let group = s.alloc_group(k + 1, bits).expect("allocation fits");
            for (j, v) in group[..k].iter().enumerate() {
                store_pattern(s, v, bits, g as u64 * 31 + j as u64);
            }
            BatchRequest {
                op: ops[g % ops.len()],
                operands: group[..k].to_vec(),
                dst: group[k].clone(),
            }
        })
        .collect()
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries — gmean of
/// speedups is only defined for positive ratios.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing is undefined");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Every executor's bitwise-trace cost for one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkEval {
    /// Benchmark name (figure x-axis label).
    pub name: String,
    /// Figure group ("Vector" / "Graph" / "Fastbit").
    pub group: String,
    /// The run being priced.
    pub run: AppRun,
    /// SIMD on PCM (the baseline for AC-PIM and Pinatubo).
    pub simd_pcm: ExecReport,
    /// SIMD on DRAM (the baseline for S-DRAM).
    pub simd_dram: ExecReport,
    /// S-DRAM in-DRAM computation.
    pub sdram: ExecReport,
    /// AC-PIM accelerator-in-memory.
    pub acpim: ExecReport,
    /// Pinatubo limited to 2-row operations.
    pub pinatubo_2: ExecReport,
    /// Pinatubo with full multi-row operation.
    pub pinatubo_128: ExecReport,
}

impl BenchmarkEval {
    /// Prices `run` on every executor (the Fig. 10/11 matrix).
    #[must_use]
    pub fn evaluate(group: &str, run: AppRun) -> Self {
        let footprint = Some(run.footprint_bytes);

        let mut simd_pcm = SimdCpu::with_pcm();
        simd_pcm.set_workload_footprint(footprint);
        let mut simd_dram = SimdCpu::with_dram();
        simd_dram.set_workload_footprint(footprint);
        let mut sdram = SdramExecutor::new();
        sdram.set_workload_footprint(footprint);
        let mut acpim = AcPimExecutor::new();
        let mut pin2 = PinatuboExecutor::two_row();
        let mut pin128 = PinatuboExecutor::multi_row();

        BenchmarkEval {
            name: run.name.clone(),
            group: group.to_owned(),
            simd_pcm: simd_pcm.execute_trace(&run.trace),
            simd_dram: simd_dram.execute_trace(&run.trace),
            sdram: sdram.execute_trace(&run.trace),
            acpim: acpim.execute_trace(&run.trace),
            pinatubo_2: pin2.execute_trace(&run.trace),
            pinatubo_128: pin128.execute_trace(&run.trace),
            run,
        }
    }

    /// Bitwise speedups over the matched SIMD baseline, in figure order
    /// (S-DRAM, AC-PIM, Pinatubo-2, Pinatubo-128). S-DRAM is normalized to
    /// SIMD-on-DRAM, the rest to SIMD-on-PCM, exactly as §6.1 specifies.
    ///
    /// A benchmark whose trace is empty has nothing to compare; its ratios
    /// report as 1.0 rather than 0/0.
    #[must_use]
    pub fn speedups(&self) -> [f64; 4] {
        [
            ratio(self.simd_dram.time_ns, self.sdram.time_ns),
            ratio(self.simd_pcm.time_ns, self.acpim.time_ns),
            ratio(self.simd_pcm.time_ns, self.pinatubo_2.time_ns),
            ratio(self.simd_pcm.time_ns, self.pinatubo_128.time_ns),
        ]
    }

    /// Bitwise energy savings over the matched SIMD baseline, same order.
    #[must_use]
    pub fn energy_savings(&self) -> [f64; 4] {
        [
            ratio(self.simd_dram.energy_pj, self.sdram.energy_pj),
            ratio(self.simd_pcm.energy_pj, self.acpim.energy_pj),
            ratio(self.simd_pcm.energy_pj, self.pinatubo_2.energy_pj),
            ratio(self.simd_pcm.energy_pj, self.pinatubo_128.energy_pj),
        ]
    }

    /// The scalar (non-bitwise) application cost, common to all executors.
    #[must_use]
    pub fn scalar(&self) -> ExecReport {
        let mut cpu = SimdCpu::with_pcm();
        cpu.set_workload_footprint(Some(self.run.footprint_bytes));
        cpu.scalar_report(self.run.scalar_instructions, self.run.scalar_bytes)
    }

    /// Overall application speedup and energy saving vs the SIMD/PCM
    /// baseline for one executor's bitwise report (the Fig. 12 math):
    /// total = scalar + bitwise, both normalized to SIMD.
    #[must_use]
    pub fn overall(&self, bitwise: ExecReport) -> (f64, f64) {
        let scalar = self.scalar();
        let base_time = scalar.time_ns + self.simd_pcm.time_ns;
        let base_energy = scalar.energy_pj + self.simd_pcm.energy_pj;
        (
            base_time / (scalar.time_ns + bitwise.time_ns),
            base_energy / (scalar.energy_pj + bitwise.energy_pj),
        )
    }

    /// Overall speedup/energy for the ideal executor (free bitwise ops).
    #[must_use]
    pub fn overall_ideal(&self) -> (f64, f64) {
        self.overall(ExecReport::zero())
    }
}

impl BenchmarkEval {
    /// Figure row label, `group/name`.
    #[must_use]
    pub fn display(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }
}

/// Runs and prices every Table 1 benchmark (the expensive step shared by
/// Fig. 10/11/12), one worker thread per benchmark. Each worker owns its
/// own simulators and seeded RNG state, so the output is deterministic
/// and identical to [`evaluate_benchmarks_serial`].
#[must_use]
pub fn evaluate_table1() -> Vec<BenchmarkEval> {
    evaluate_benchmarks(pinatubo_apps::Benchmark::table1())
}

/// Applies `f` to every item on its own scoped worker thread, returning
/// results in input order regardless of completion order. The fan-out
/// pattern behind [`evaluate_benchmarks`], generalized so the sweep and
/// ablation binaries share it: workloads are pure functions of their
/// config point, so results are bit-identical to a serial map.
///
/// # Panics
///
/// Propagates a worker's panic (a failing config point is a bug, not an
/// input error).
pub fn parallel_map<T, R>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, item) in results.iter_mut().zip(items) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(item));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled its slot"))
        .collect()
}

/// Prices `benchmarks` in parallel with scoped threads, one worker per
/// config point. Results come back in input order regardless of which
/// worker finishes first.
///
/// # Panics
///
/// Propagates a worker's panic (a failing benchmark is a bug, not an
/// input error).
#[must_use]
pub fn evaluate_benchmarks(benchmarks: Vec<pinatubo_apps::Benchmark>) -> Vec<BenchmarkEval> {
    parallel_map(benchmarks, |b| BenchmarkEval::evaluate(b.group(), b.run()))
}

/// The serial reference for [`evaluate_benchmarks`] (tests assert the two
/// agree bit for bit; the parallel path is the one the binaries use).
#[must_use]
pub fn evaluate_benchmarks_serial(benchmarks: Vec<pinatubo_apps::Benchmark>) -> Vec<BenchmarkEval> {
    benchmarks
        .into_iter()
        .map(|b| BenchmarkEval::evaluate(b.group(), b.run()))
        .collect()
}

/// Formats the Fig. 10 speedup table from precomputed evaluations.
#[must_use]
pub fn fig10_table(evals: &[BenchmarkEval]) -> String {
    comparison_table(
        "Fig. 10 — bitwise speedup normalized to SIMD",
        evals,
        BenchmarkEval::speedups,
    )
}

/// Formats the Fig. 11 energy-saving table from precomputed evaluations.
#[must_use]
pub fn fig11_table(evals: &[BenchmarkEval]) -> String {
    comparison_table(
        "Fig. 11 — bitwise energy saving normalized to SIMD",
        evals,
        BenchmarkEval::energy_savings,
    )
}

fn comparison_table(
    title: &str,
    evals: &[BenchmarkEval],
    metric: impl Fn(&BenchmarkEval) -> [f64; 4],
) -> String {
    let columns = ["S-DRAM", "AC-PIM", "Pinatubo-2", "Pinatubo-128"];
    let mut rows = Vec::new();
    let mut per_executor: [Vec<f64>; 4] = Default::default();
    for eval in evals {
        let values = metric(eval);
        for (bucket, &v) in per_executor.iter_mut().zip(&values) {
            bucket.push(v);
        }
        rows.push((eval.display(), values.to_vec()));
    }
    rows.push((
        "Gmean".to_owned(),
        per_executor.iter().map(|v| geomean(v)).collect(),
    ));
    format_table(title, &columns, &rows)
}

/// Formats both Fig. 12 tables (overall speedup, overall energy saving)
/// from precomputed evaluations; vector rows are skipped (Fig. 12 covers
/// the real applications only).
#[must_use]
pub fn fig12_tables(evals: &[BenchmarkEval]) -> String {
    let columns = ["S-DRAM", "AC-PIM", "Pin-2", "Pin-128", "Ideal"];
    let apps: Vec<&BenchmarkEval> = evals.iter().filter(|e| e.group != "Vector").collect();
    let mut speed_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut speed_cols: [Vec<f64>; 5] = Default::default();
    let mut energy_cols: [Vec<f64>; 5] = Default::default();

    for eval in &apps {
        let reports = [eval.sdram, eval.acpim, eval.pinatubo_2, eval.pinatubo_128];
        let mut speeds: Vec<f64> = reports.iter().map(|r| eval.overall(*r).0).collect();
        let mut energies: Vec<f64> = reports.iter().map(|r| eval.overall(*r).1).collect();
        let (ideal_speed, ideal_energy) = eval.overall_ideal();
        speeds.push(ideal_speed);
        energies.push(ideal_energy);
        for (bucket, &v) in speed_cols.iter_mut().zip(&speeds) {
            bucket.push(v);
        }
        for (bucket, &v) in energy_cols.iter_mut().zip(&energies) {
            bucket.push(v);
        }
        speed_rows.push((eval.display(), speeds));
        energy_rows.push((eval.display(), energies));
    }
    speed_rows.push((
        "Gmean".to_owned(),
        speed_cols.iter().map(|v| geomean(v)).collect(),
    ));
    energy_rows.push((
        "Gmean".to_owned(),
        energy_cols.iter().map(|v| geomean(v)).collect(),
    ));

    format!(
        "{}\n{}",
        format_table(
            "Fig. 12 (left) — overall speedup normalized to SIMD",
            &columns,
            &speed_rows,
        ),
        format_table(
            "Fig. 12 (right) — overall energy saving normalized to SIMD",
            &columns,
            &energy_rows,
        )
    )
}

/// `a / b`, defined as 1.0 when both sides are zero (empty traces).
fn ratio(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        1.0
    } else {
        a / b
    }
}

/// Formats a figure table: header + rows of `name | values…`.
#[must_use]
pub fn format_table(title: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:<16}", "benchmark");
    for c in columns {
        let _ = write!(out, "{c:>14}");
    }
    let _ = writeln!(out);
    for (name, values) in rows {
        let _ = write!(out, "{name:<16}");
        for v in values {
            let _ = write!(out, "{:>14}", format_value(*v));
        }
        let _ = writeln!(out);
    }
    out
}

/// Human-scaled number formatting for table cells.
#[must_use]
pub fn format_value(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{v:.3e}")
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinatubo_apps::VectorWorkload;

    #[test]
    fn geomean_of_constants_is_the_constant() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn geomean_of_nothing_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn evaluation_orders_executors_correctly() {
        // A small multi-row workload: the paper's orderings must hold.
        // (On short-vector workloads S-DRAM and Pinatubo-2 may dip below
        // the SIMD line — full-row granularity and chained write-backs —
        // so the assertions here are orderings, not absolute floors.)
        let run = VectorWorkload::parse("14-12-7s").expect("parses").run();
        let eval = BenchmarkEval::evaluate("Vector", run);
        let [_sdram, acpim, pin2, pin128] = eval.speedups();
        assert!(pin128 > pin2, "multi-row must beat 2-row");
        assert!(pin128 > acpim, "Pinatubo must beat AC-PIM");
        assert!(pin128 > 1.0, "multi-row Pinatubo beats SIMD");
        let savings = eval.energy_savings();
        assert!(savings.iter().all(|&s| s > 1.0), "every PIM saves energy");
    }

    #[test]
    fn overall_is_bounded_by_ideal() {
        let run = VectorWorkload::parse("14-12-7s").expect("parses").run();
        let eval = BenchmarkEval::evaluate("Vector", run);
        let (ideal_speed, ideal_energy) = eval.overall_ideal();
        let (pin_speed, pin_energy) = eval.overall(eval.pinatubo_128);
        assert!(pin_speed <= ideal_speed);
        assert!(pin_energy <= ideal_energy);
        assert!(pin_speed > 1.0);
    }

    #[test]
    fn parallel_evaluation_matches_serial_exactly() {
        // The scoped-thread fan-out must be a pure reordering of work:
        // same benchmarks in, bit-identical tables out.
        let make = || -> Vec<pinatubo_apps::Benchmark> {
            ["12-10-5s", "13-11-6s", "14-12-7s"]
                .iter()
                .map(|spec| {
                    let w = VectorWorkload::parse(spec).expect("parses");
                    pinatubo_apps::Benchmark {
                        name: w.to_string(),
                        kind: pinatubo_apps::BenchmarkKind::Vector(w),
                    }
                })
                .collect()
        };
        let serial = evaluate_benchmarks_serial(make());
        let parallel = evaluate_benchmarks(make());
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(fig10_table(&serial), fig10_table(&parallel));
        assert_eq!(fig11_table(&serial), fig11_table(&parallel));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name, "input order is preserved");
        }
    }

    #[test]
    fn table_formatting_is_stable() {
        let table = format_table("Demo", &["a", "b"], &[("x".to_owned(), vec![1.5, 20000.0])]);
        assert!(table.contains("# Demo"));
        assert!(table.contains("1.50"));
        assert!(table.contains("2.000e4"));
    }
}
