//! The benchmark command.
//!
//! ```console
//! $ cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!       --workload serve_model --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable account (stream size, transcript digests,
//! exact counts, per-graph model error) and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and the metrics: the
//! end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero when any output check fails.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use lognic_e2e_bench::check;
use lognic_e2e_bench::gen::{self, Graph, Workload};
use lognic_e2e_bench::report::{self, median, metric, quantile, Metric};
use lognic_e2e_bench::{phase, probe};
use lognic_service::{RequestKind, ServeConfig, Service};

/// `Service::new` constructions per `setup_s` block.
const SETUP_REPS: usize = 25;
/// Probe-bracketed blocks behind `setup_s`.
const SETUP_BLOCKS: usize = 24;
/// Sampled `estimate` answers checked against a direct evaluation.
const ESTIMATE_SAMPLE: usize = 32;
/// Sampled `simulate` requests re-run under the sanitizer.
const SANITIZE_SAMPLE: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {value} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lognic-e2e-bench --workload <serve_model|sim_des|fleet_rack> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set (`VmHWM`) of this process so far, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Median wall time of `reps` calls to `f`, s.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `Service::new` time: the median over blocks of the block's median
/// construction time, each scaled by the host-speed probe run right
/// before and after it. Returns `(raw, scaled)`, s.
fn setup_time(config: &ServeConfig) -> (f64, f64) {
    let probe = probe::HostProbe::new();
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_BLOCKS {
        let before = probe.time();
        let t = median_secs(SETUP_REPS, || Service::new(config.clone()));
        let after = probe.time();
        raw.push(t);
        scaled.push(t / probe::slowdown(&[before, after]));
    }
    (median(&raw), median(&scaled))
}

/// Model-vs-DES error over the `sim_des` stream at `seed`, printing
/// the per-graph medians so outliers stay visible next to the median.
fn model_error(
    graphs: &[Graph],
    lines: &[String],
    responses: &[String],
) -> Result<(f64, f64), String> {
    let acc = check::accuracy(graphs, lines, responses)?;
    let mut per_graph: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for a in &acc {
        let e = per_graph.entry(a.graph.as_str()).or_default();
        e.0.push(a.tput_err_pct);
        e.1.push(a.lat_err_pct);
    }
    println!("model vs DES error by graph (median over its simulate requests):");
    for (g, (t, l)) in &per_graph {
        println!(
            "  {g:<14} throughput {:>8.3} %   latency {:>8.3} %",
            median(t),
            median(l)
        );
    }
    let t: Vec<f64> = acc.iter().map(|a| a.tput_err_pct).collect();
    let l: Vec<f64> = acc.iter().map(|a| a.lat_err_pct).collect();
    let (t, l) = (median(&t), median(&l));
    println!(
        "  median over {} requests: throughput {t:.3} %, latency {l:.3} %",
        acc.len()
    );
    Ok((t, l))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let graphs = gen::catalog();
    let stream = gen::generate(w, args.seed, &graphs);
    let config = &stream.config;
    let lines = &stream.lines;
    println!(
        "workload {} seed {}: {} requests per pass, high_water {}, drain_per_request {}",
        w.name(),
        args.seed,
        lines.len(),
        config.high_water,
        config.drain_per_request
    );

    // Set-up: the service builds every registry scenario.
    let (setup_raw_s, setup_s) = setup_time(config);

    // Reference transcript and the checks on it.
    let mut failures = Vec::new();
    let reference = phase::pass(config, lines);
    // Peak memory after one pass: the service has then built every
    // scenario and answered every request once. Read before the timed
    // loop, so the benchmark's own sample buffers and the allocator's
    // drift over thousands of replayed requests stay out of it.
    let rss = peak_rss_mb()?;
    let digest_a = check::digest(&reference);
    if let Err(e) = check::check_responses(lines, &reference) {
        failures.push(e);
    }
    let sample = check::sample(lines, RequestKind::Estimate, ESTIMATE_SAMPLE, args.seed);
    if let Err(e) = check::check_estimates(&graphs, lines, &reference, &sample) {
        failures.push(e);
    }
    let sanitized = check::sample(lines, RequestKind::Simulate, SANITIZE_SAMPLE, args.seed);
    if let Err(e) = check::check_sanitized(&graphs, lines, &sanitized, config) {
        failures.push(e);
    }
    println!(
        "checked: {} responses, {} estimates against the estimator, {} simulate requests sanitized",
        reference.len(),
        sample.len(),
        sanitized.len()
    );

    // Model accuracy comes from the sim_des stream at this seed; the
    // other workloads answer that stream untimed, here.
    let (tput_err, lat_err) = if w == Workload::SimDes {
        model_error(&graphs, lines, &reference)?
    } else {
        let des = gen::generate(Workload::SimDes, args.seed, &graphs);
        let responses = phase::pass(&des.config, &des.lines);
        if let Err(e) = check::check_responses(&des.lines, &responses) {
            failures.push(e);
        }
        model_error(&graphs, &des.lines, &responses)?
    };

    let mut metrics: Vec<Metric> = Vec::new();
    let (attempted, failed, digest_b, mismatched);
    if args.trace {
        let untraced = phase::untraced(config, lines, &reference, args.seconds / 2.0);
        let registry_build_us = 1e6 * median_secs(SETUP_REPS, gen::catalog);
        let traced = phase::traced(config, &graphs, lines, &reference, args.seconds / 2.0)?;
        metrics = report::layer_metrics(&traced, &untraced, registry_build_us);
        let c = &traced.counts;
        println!(
            "exact counts per pass: analyze.calls {} model.evaluate_calls {} model.sweep_points {} \
             sim.events {} fleet.rounds {} fleet.events {} fleet.forwarded {}",
            c.analyze_calls,
            c.evaluate_calls,
            c.sweep_points,
            c.sim_events,
            c.fleet_rounds,
            c.fleet_events,
            c.fleet_forwarded
        );
        println!(
            "traced phase: {} requests, {} spans",
            traced.summary.requests,
            traced.spans.len()
        );
        write_spans(w, args.seed, &traced.spans)?;
        attempted = untraced.requests + traced.summary.requests;
        failed = untraced.failed + traced.summary.failed;
        mismatched = untraced.mismatched + traced.summary.mismatched;
        digest_b = traced.summary.first_pass_digest;
    } else {
        let timed = phase::untraced(config, lines, &reference, args.seconds);
        let n = timed.latencies_us.len();
        println!(
            "timed phase: {} requests in {:.3} s; p90 has {} samples beyond it; error_rate {}",
            timed.requests,
            timed.wall_s,
            n - (0.9 * n as f64).ceil() as usize,
            timed.failed as f64 / timed.requests as f64
        );
        // Timings are scaled to the reference host: a run on a host
        // `slow` times slower than the reference reads what it would
        // have read there. The raw figures are printed alongside.
        let slow = probe::slowdown(&timed.probe_s);
        let raw_rps = timed.req_per_s();
        let (raw_p50, raw_p90) = (
            quantile(&timed.latencies_us, 0.5),
            quantile(&timed.latencies_us, 0.9),
        );
        println!(
            "raw host figures: slowdown {slow:.4} (probe median {:.1} us), setup {:.2} us, \
             {raw_rps:.1} req/s, p50 {raw_p50:.2} us, p90 {raw_p90:.2} us",
            1e6 * probe::NOMINAL_S * slow,
            1e6 * setup_raw_s
        );
        metrics.extend([
            metric("setup_s", setup_s, "s"),
            metric("req_per_s", raw_rps * slow, "req/s"),
            metric("latency_p50_us", raw_p50 / slow, "us"),
            metric("latency_p90_us", raw_p90 / slow, "us"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("model_tput_err_pct", tput_err, "%"),
            metric("model_lat_err_pct", lat_err, "%"),
        ]);
        attempted = timed.requests;
        failed = timed.failed;
        mismatched = timed.mismatched;
        digest_b = timed.first_pass_digest;
    }
    println!("response digest: reference {digest_a:016x}, replay {digest_b:016x}");
    if digest_a != digest_b {
        failures.push("two passes of the same stream produced different transcripts".into());
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} replayed responses differ from the reference"
        ));
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty();
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(correct)
}

/// Writes the traced phase's spans as tab-separated lines under
/// `.bench_out/` in the working directory.
fn write_spans(w: Workload, seed: u64, spans: &[phase::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name()));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
