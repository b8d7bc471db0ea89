//! `bench_e2e`: the end-to-end benchmark of the Pinatubo stack, with
//! per-layer numbers measured from outside the program.
//!
//! ```console
//! $ cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload once in this process and
//! prints, as its last line, one JSON object with the end-to-end metrics
//! (or, traced, the per-layer ones). Without it, it re-executes itself
//! once per workload so each starts in a fresh process, and writes
//! `results.json`; with `--trace` it also makes a traced run of each and
//! reports the tracing overhead. Outputs go to `$CARGO_TARGET_DIR/bench_e2e`
//! (default `target/bench_e2e`). Any failed, refused or wrong request
//! makes the exit code nonzero.
//!
//! Two clocks are kept apart: host time (what the simulator and server
//! cost to run) and modeled ns/pJ (what the Pinatubo hardware would
//! take, from `MemStats`). Host times are reported at a reference host
//! speed measured beside the work (see [`speed`]); the wall-clock
//! figures are reported next to them as `raw.*`. The model is not
//! validated against hardware, so no error figure is given.

mod fastbit;
mod metrics;
mod serve;
mod speed;
mod trace;

use metrics::{json_num, json_object, json_value, median, proc_status_mb, Completions, Metrics};
use pinatubo_mem::MemStats;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Pinned default seed, so a published number can be re-run exactly.
const DEFAULT_SEED: u64 = 2016;

/// What a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Run length; each workload turns it into a fixed amount of work.
    pub seconds: f64,
    /// Tiny sizes, for tests.
    pub smoke: bool,
}

/// What a workload measured.
#[derive(Debug)]
pub struct Run {
    /// Each repeated set-up, at the reference host speed.
    pub setup_s: Vec<f64>,
    /// The same in wall-clock time.
    pub setup_raw_s: Vec<f64>,
    /// The layer call inside each set-up that builds the inputs, at the
    /// reference host speed.
    pub build_s: Vec<f64>,
    pub rss_after_setup_mb: f64,
    pub completions: Completions,
    /// Host-speed probe readings taken during the measured phase.
    pub readings: Vec<speed::Reading>,
    /// Whether arrivals, not the host, set the throughput.
    pub open_loop: bool,
    pub attempted: u64,
    /// Errors, refusals and wrong results.
    pub failed: u64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Part of it the generator slept waiting for due times.
    pub idle_s: f64,
    pub peak_rss_mb: f64,
    pub rss_after_measure_mb: f64,
    /// `MemStats` delta over the measured phase.
    pub modeled: MemStats,
    pub verify_s: f64,
    /// Workload-specific per-layer counters.
    pub layers: Metrics,
    /// Workload shape for the host record, as JSON values.
    pub host: Vec<(&'static str, String)>,
}

type RunFn = fn(&Plan, &mut Tracer) -> Result<Run, String>;

/// Name, entry point, default seconds, and why the workload is here.
const WORKLOADS: [(&str, RunFn, f64); 3] = [
    ("fastbit", fastbit::run, 8.0),
    ("serve_open", serve::run_open_loop, 12.0),
    ("serve_faulty", serve::run_faulty_loop, 10.0),
];

/// End-to-end metrics the result line carries untraced, with their
/// units, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("modeled_time_ms", "ms"),
    ("modeled_energy_mj", "mJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics the result line carries traced, with their units,
/// as listed in `BENCHMARK.json`. A layer a workload does not call reads
/// 0 there.
const PER_LAYER: [(&str, &str); 70] = [
    ("latency_p99_ms", "ms"),
    ("bench.self_frac", "frac"),
    ("bench.idle.self_frac", "frac"),
    ("bench.probe.self_frac", "frac"),
    ("apps.database.run_query.calls", "count"),
    ("apps.database.run_query.self_frac", "frac"),
    ("apps.database.run_query_filtered.calls", "count"),
    ("apps.database.run_query_filtered.self_frac", "frac"),
    ("serve.server.submit.calls", "count"),
    ("serve.server.submit.self_frac", "frac"),
    ("serve.server.advance.calls", "count"),
    ("serve.server.advance.self_frac", "frac"),
    ("serve.server.finish.self_frac", "frac"),
    ("serve.server.report.rounds", "count"),
    ("serve.server.report.admission_rejections", "count"),
    ("serve.server.report.max_wait_rounds", "count"),
    ("serve.server.report.queue_high_water", "count"),
    ("serve.server.ops_per_s", "1/s"),
    ("serve.server.busy_frac", "frac"),
    ("setup.build_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.rounds_with_backlog", "count"),
    ("host.busy_s", "s"),
    ("host.busy_ref_s", "s"),
    ("host.speed_factor", "frac"),
    ("host.probe_readings", "count"),
    ("host.rss_after_setup_mb", "MB"),
    ("host.rss_growth_kb_per_request", "kB"),
    ("runtime.system.trace_len", "count"),
    ("runtime.allocator.free_rows_delta", "count"),
    ("mem.controller.events.activates", "count"),
    ("mem.controller.events.multi_activates", "count"),
    ("mem.controller.events.rows_activated", "count"),
    ("mem.controller.events.sense_passes", "count"),
    ("mem.controller.events.row_writes", "count"),
    ("mem.controller.events.bus_bits", "count"),
    ("mem.controller.events.mode_sets", "count"),
    ("mem.controller.events.row_buffer_hits", "count"),
    ("mem.controller.row_pages_copied", "count"),
    ("mem.controller.time.activate_frac", "frac"),
    ("mem.controller.time.sense_frac", "frac"),
    ("mem.controller.time.write_frac", "frac"),
    ("mem.controller.time.gdl_frac", "frac"),
    ("mem.controller.time.bus_frac", "frac"),
    ("mem.controller.time.mrs_frac", "frac"),
    ("mem.controller.time.ecc_frac", "frac"),
    ("mem.controller.time.stall_frac", "frac"),
    ("mem.controller.time.precharge_frac", "frac"),
    ("mem.controller.energy.activate_frac", "frac"),
    ("mem.controller.energy.sense_frac", "frac"),
    ("mem.controller.energy.write_frac", "frac"),
    ("mem.controller.energy.bus_frac", "frac"),
    ("mem.controller.energy.gdl_frac", "frac"),
    ("mem.controller.energy.logic_frac", "frac"),
    ("mem.controller.energy.ecc_frac", "frac"),
    ("nvm.fault.injected_bit_errors", "count"),
    ("nvm.fault.injected_write_faults", "count"),
    ("nvm.fault.physical_senses", "count"),
    ("nvm.fault.physical_writes", "count"),
    ("mem.secded.ecc_corrected_bits", "count"),
    ("mem.secded.ecc_detected_double", "count"),
    ("mem.secded.sense_retries", "count"),
    ("mem.secded.write_retries", "count"),
    ("mem.secded.fan_in_splits", "count"),
    ("mem.secded.rmw_fallbacks", "count"),
    ("mem.secded.uncorrectable_errors", "count"),
    ("mem.secded.silent_wrong_bits", "count"),
    ("mem.secded.first_try_sense_frac", "frac"),
    ("failed_frac", "frac"),
    ("host.nproc", "count"),
];

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut pending: Option<String> = None;
    loop {
        let Some(arg) = pending.take().or_else(|| args.next()) else {
            return Ok(out);
        };
        match arg.as_str() {
            "--workload" => {
                let w = args.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.iter().any(|(name, ..)| *name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                let s = args.next().ok_or("--seed needs a number")?;
                out.seed = Some(s.parse().map_err(|_| format!("bad seed {s:?}"))?);
            }
            "--seconds" => {
                let s = args.next().ok_or("--seconds needs a number")?;
                let v: f64 = s.parse().map_err(|_| format!("bad seconds {s:?}"))?;
                if !(v > 0.0 && v <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.seconds = Some(v);
            }
            "--trace" => {
                out.trace = true;
                match args.next() {
                    Some(v) if v == "0" => out.trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
}

fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("bench_e2e")
}

/// Where a run of `workload` writes its metrics and host record.
fn record_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced" } else { "" };
    out_dir().join(format!("{workload}{suffix}.json"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether this is the first run of this build of the binary for
/// `workload` (its file caches and the allocator start cold); leaves a
/// marker so later runs read warm.
fn cold_start(workload: &str, traced: bool) -> bool {
    let stamp = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let marker = out_dir().join(format!(".ran-{workload}-{traced}-{stamp}"));
    let cold = !marker.exists();
    let _ = std::fs::write(marker, b"");
    cold
}

/// Every metric of one run: end to end first, then per layer.
/// `rows` are the traced per-layer rows (none when tracing is off).
fn all_metrics(run: &Run, rows: &[trace::LayerRow]) -> (Metrics, Metrics) {
    let raw = run.completions.summary();
    let at_ref = run
        .completions
        .at_reference_speed(&run.readings, !run.open_loop)
        .summary();
    let probe_us: Vec<f64> = run.readings.iter().map(|r| r.us).collect();
    let speed = if probe_us.is_empty() {
        1.0
    } else {
        speed::REFERENCE_US / median(&probe_us)
    };

    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&run.setup_s), "s");
    e2e.push("throughput_rps", at_ref.throughput_rps, "1/s");
    e2e.push("latency_p50_ms", at_ref.p50_ms, "ms");
    e2e.push("latency_p90_ms", at_ref.p90_ms, "ms");
    e2e.push("modeled_time_ms", run.modeled.time_ns / 1e6, "ms");
    e2e.push(
        "modeled_energy_mj",
        run.modeled.energy.total_pj() / 1e9,
        "mJ",
    );
    e2e.push("peak_rss_mb", run.peak_rss_mb, "MB");
    e2e.push(
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        "frac",
    );
    e2e.push(
        "silent_wrong_bits",
        run.modeled.reliability.silent_wrong_bits as f64,
        "bits",
    );
    e2e.push("latency_samples", run.completions.len() as f64, "count");
    e2e.push("raw.setup_s", median(&run.setup_raw_s), "s");
    e2e.push("raw.throughput_rps", raw.throughput_rps, "1/s");
    e2e.push("raw.latency_p50_ms", raw.p50_ms, "ms");
    e2e.push("raw.latency_p90_ms", raw.p90_ms, "ms");
    e2e.push("raw.latency_p99_ms", raw.p99_ms, "ms");

    let mut layers = trace::layer_metrics(rows, run.wall_s);
    // Too noisy on a shared host to gate on: a diagnostic here.
    layers.push("latency_p99_ms", at_ref.p99_ms, "ms");
    layers.push("setup.build_s", median(&run.build_s), "s");
    layers.push("bench.verify_s", run.verify_s, "s");
    layers.push("host.busy_s", run.wall_s - run.idle_s, "s");
    layers.push("host.busy_ref_s", (run.wall_s - run.idle_s) * speed, "s");
    layers.push("host.speed_factor", speed, "frac");
    layers.push("host.probe_readings", probe_us.len() as f64, "count");
    layers.push("host.rss_after_setup_mb", run.rss_after_setup_mb, "MB");
    layers.push(
        "host.rss_growth_kb_per_request",
        (run.rss_after_measure_mb - run.rss_after_setup_mb) * 1024.0 / run.attempted.max(1) as f64,
        "kB",
    );
    layers.push("host.nproc", nproc() as f64, "count");
    metrics::memory_layers(&mut layers, &run.modeled);
    for x in run.layers.iter() {
        layers.push(x.name.clone(), x.value, x.unit);
    }
    let failed = e2e.get("failed_frac").expect("pushed above");
    layers.push("failed_frac", failed.value, failed.unit);
    (e2e, layers)
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(", "))
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}");
    for x in m.iter() {
        println!("  {:<48} {:>16} {}", x.name, json_num(x.value), x.unit);
    }
}

fn run_child(args: &Args, workload: &str) -> ExitCode {
    let (name, run_fn, default_seconds) = *WORKLOADS
        .iter()
        .find(|(n, ..)| *n == workload)
        .expect("validated by parse_args");
    let plan = Plan {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(default_seconds),
        smoke: args.smoke,
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench_e2e: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let cold = cold_start(name, args.trace);
    let mut tracer = Tracer::new(args.trace);
    let run = match run_fn(&plan, &mut tracer) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bench_e2e: {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = tracer.layers();
    let (e2e, layers) = all_metrics(&run, &rows);

    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "# bench_e2e {name} ({mode}) seed={} seconds={} smoke={} nproc={} cold_start={cold}",
        plan.seed,
        plan.seconds,
        plan.smoke,
        nproc()
    );
    print_metrics(
        "end to end (host times at reference speed, raw.* wall clock; modeled = simulated PCM):",
        &e2e,
    );
    print_metrics("per layer:", &layers);
    if args.trace {
        println!("{}", trace::layer_table(&rows, run.wall_s));
        let path = dir.join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&path, tracer.chrome_json()) {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let mut host: Vec<String> = vec![
        format!("\"workload\": \"{name}\""),
        format!("\"traced\": {}", args.trace),
        format!("\"seed\": {}", plan.seed),
        format!("\"seconds\": {}", json_num(plan.seconds)),
        format!("\"smoke\": {}", plan.smoke),
        format!("\"nproc\": {}", nproc()),
        format!("\"cold_start\": {cold}"),
        format!("\"attempted\": {}", run.attempted),
        format!("\"failed\": {}", run.failed),
        format!("\"measured_wall_s\": {}", json_num(run.wall_s)),
        format!("\"setup_samples_s\": {}", json_list(&run.setup_s)),
        format!("\"setup_raw_samples_s\": {}", json_list(&run.setup_raw_s)),
        format!(
            "\"vm_hwm_at_exit_mb\": {}",
            json_num(proc_status_mb("VmHWM"))
        ),
    ];
    host.extend(run.host.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    let record = format!(
        "{{\"host\": {{{}}},\n\"end_to_end\": {},\n\"per_layer\": {}}}\n",
        host.join(", "),
        json_object(e2e.iter()),
        json_object(layers.iter())
    );
    let path = record_path(name, args.trace);
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("bench_e2e: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let (source, listed): (&Metrics, &[(&str, &str)]) = if args.trace {
        (&layers, &PER_LAYER)
    } else {
        (&e2e, &END_TO_END)
    };
    let mut line = Metrics::default();
    for &(n, unit) in listed {
        let value = source.get(n).map_or(0.0, |m| {
            debug_assert_eq!(m.unit, unit, "{n} is listed with another unit");
            m.value
        });
        line.push(n, value, unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_object(line.iter())
    );
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process, then writes `results.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut entries = Vec::new();
    for (name, _, default_seconds) in WORKLOADS {
        let mut records = Vec::new();
        for &traced in modes {
            let record = record_path(name, traced);
            // A failed child must not leave an earlier run's record behind.
            let _ = std::fs::remove_file(&record);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed.to_string()]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.stdin(Stdio::null()).status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("bench_e2e: {name} exited with {s}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("bench_e2e: cannot start {name}: {e}");
                    ok = false;
                }
            }
            let text = std::fs::read_to_string(&record).unwrap_or_else(|_| "null\n".into());
            records.push(text);
        }
        let mut entry = format!(
            "\"{name}\": {{\"seconds\": {}, \"untraced\": {}",
            json_num(args.seconds.unwrap_or(default_seconds)),
            records[0].trim_end()
        );
        if let [untraced, traced] = &records[..] {
            let busy = |t: &str| json_value(t, "host.busy_ref_s");
            if let (Some(u), Some(t)) = (busy(untraced), busy(traced)) {
                let overhead = t / u - 1.0;
                println!("# {name}: bench.tracing_overhead_frac = {overhead:.4} (busy {t:.3} s traced vs {u:.3} s untraced)");
                entry.push_str(&format!(
                    ", \"bench.tracing_overhead_frac\": {}",
                    json_num(overhead)
                ));
            }
            entry.push_str(&format!(", \"traced\": {}", traced.trim_end()));
        }
        entry.push('}');
        entries.push(entry);
    }
    let results = format!(
        "{{\"host\": {{\"nproc\": {}, \"seed\": {seed}, \"smoke\": {}, \"traced\": {}}},\n\"workloads\": {{\n{}\n}}}}\n",
        nproc(),
        args.smoke,
        args.trace,
        entries.join(",\n")
    );
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::write(&path, results) {
        eprintln!("bench_e2e: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!(
                "usage: bench_e2e [--workload fastbit|serve_open|serve_faulty] [--seed S] \
                 [--seconds N] [--trace [0|1]] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_child(&args, w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_trace_forms_parse() {
        let a = parse(&[
            "--workload",
            "fastbit",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fastbit"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(9), Some(10.0), true));
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
        let bare = parse(&["--trace", "--smoke"]).unwrap();
        assert!(bare.trace && bare.smoke);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    /// Every listed metric is measured on every workload, except those
    /// of a layer the workload never calls.
    #[test]
    fn every_workload_measures_every_listed_metric() {
        let plan = Plan {
            seed: 5,
            seconds: 1.0,
            smoke: true,
        };
        let layer_may_be_unused = |n: &str| {
            n.starts_with("apps.")
                || n.starts_with("serve.")
                || n.starts_with("bench.idle")
                || n == "bench.rounds_with_backlog"
        };
        for (name, run_fn, _) in WORKLOADS {
            let mut tracer = Tracer::new(true);
            let run = run_fn(&plan, &mut tracer).expect("smoke run");
            let (e2e, layers) = all_metrics(&run, &tracer.layers());
            for (n, unit) in END_TO_END {
                assert_eq!(e2e.get(n).map(|m| m.unit), Some(unit), "{name}: {n}");
            }
            for (n, unit) in PER_LAYER {
                match layers.get(n) {
                    Some(m) => assert_eq!(m.unit, unit, "{name}: {n}"),
                    None => assert!(layer_may_be_unused(n), "{name} does not measure {n}"),
                }
            }
        }
    }

    /// Every metric of the result lines is listed in `BENCHMARK.json`,
    /// under the right key and with the same unit, and nothing else is.
    #[test]
    fn result_lines_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside bench_e2e");
        let (e2e_part, layer_part) = spec.split_once("\"per_layer\"").expect("per_layer key");
        let listed = |part: &str, (name, unit): (&str, &str)| {
            part.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for m in END_TO_END {
            assert!(listed(e2e_part, m), "{m:?} missing from end_to_end");
        }
        for m in PER_LAYER {
            assert!(listed(layer_part, m), "{m:?} missing from per_layer");
        }
        for (name, ..) in WORKLOADS {
            assert!(spec.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
        }
        let names = spec.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
