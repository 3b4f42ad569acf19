//! The repository benchmark: one layered ladder from the compiled kernel to
//! a served job.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lattice-520|jobs-48> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up all three sections (several times, reporting the
//! median set-up time), then runs them one after another, each alone: the
//! workload's own section for `--seconds`, the others for a fixed quota so
//! every metric is measured on every workload. The serve section always
//! runs its quota: its latencies follow where the host places the two
//! vCPUs, so they are per-layer figures and no workload is built on them.
//! End-to-end times and rates are reported at the pace of reference pieces
//! interleaved with the timed work (see `reference.rs`).
//! The last line of stdout is the JSON result; with `--trace 0` it carries
//! the end-to-end metrics, with `--trace 1` the per-layer ones. See
//! `perfbench/README.md`.

mod jobs;
mod lattice;
mod plan;
mod reference;
mod report;
mod run;
mod serve;
mod stats;
mod trace;

use plan::{Plan, Workload};
use run::Run;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest accepted `--seconds`: the run must end within three minutes.
const MAX_SECONDS: f64 = 60.0;
/// Cold results re-run on `ca` alone after the serve loop.
const COLD_CHECKS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && (0.0..=MAX_SECONDS).contains(&seconds)) {
        return Err(format!(
            "--seconds must be within 0..={MAX_SECONDS}, not {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch state (checkpoints, journals, the server's state dir) stays
    // inside the working directory and is removed at the end.
    let base = PathBuf::from(".perfbench");
    let root = base.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: creating {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let run = bench(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    report(&args, &base, run);
    ExitCode::SUCCESS
}

/// Set up, run the three sections, and check outputs.
///
/// The sections run one after another and each runs alone: serve first,
/// and its server is stopped before the engine jobs and the lattice arms
/// run. A section that is not the workload's own runs its fixed quota
/// (enough samples for every figure it reports).
fn bench(args: &Args, root: &Path) -> Run {
    let plan = Plan::new(args.seed);
    let mut run = Run::new(args.trace, Instant::now());

    let mut setup_s = Vec::new();
    let mut big: Option<lattice::Big> = None;
    let mut server: Option<serve::Server> = None;
    for k in 0..SETUPS {
        if let Some(s) = server.take() {
            s.stop();
        }
        let t0 = Instant::now();
        let b = run
            .tracer
            .span("ca", "warm_up", k as u64, || lattice::setup(&plan));
        let s = run.tracer.span("serve", "start_and_warm", k as u64, || {
            serve::setup(&root.join(format!("serve-{k}")), &plan)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &big {
            run.op(prev.warm.lattice == b.warm.lattice, || {
                "set-up is not a pure function of the seed".to_owned()
            });
        }
        big = Some(b);
        server = run.op_result(s);
    }
    let setup_wall = stats::median(&setup_s);
    let big = big.expect("at least one set-up");

    let budget = |w: Workload| {
        if args.workload == w {
            Duration::from_secs_f64(args.seconds)
        } else {
            Duration::ZERO
        }
    };
    let t0 = Instant::now();
    let (hot, cold) = server
        .map(|s| serve::section(&mut run, &plan, s))
        .unwrap_or_default();
    let t1 = Instant::now();
    let finals = jobs::section(
        &mut run,
        &plan,
        &root.join("jobs"),
        budget(Workload::Jobs48),
    );
    let t2 = Instant::now();
    lattice::section(&mut run, &big, budget(Workload::Lattice520));
    run.note(format!(
        "wall clock: set-ups {:.1} s, serve {:.1} s, jobs {:.1} s, lattice {:.1} s",
        setup_s.iter().sum::<f64>(),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64()
    ));

    // Serve results against the other paths, outside every timed region:
    // hot results against the engine job of the same seed, the first colds
    // against `Ndca::run_steps`.
    let model = psr_model::library::zgb::zgb_ziff(plan::ZGB_Y, plan::ZGB_K);
    let num_states = model.species().len();
    let histogram = |l: &psr_lattice::Lattice| -> Vec<u64> {
        l.histogram(num_states).iter().map(|&c| c as u64).collect()
    };
    for (seed, counts) in &hot {
        let ok = finals.get(seed).is_some_and(|l| histogram(l) == *counts);
        run.op(ok, || {
            format!("served hot seed {seed} differs from its engine job")
        });
    }
    for (seed, counts) in cold.iter().take(COLD_CHECKS) {
        let (lattice, _) = jobs::run_raw(&model, *seed);
        run.op(histogram(&lattice) == *counts, || {
            format!("served cold seed {seed} differs from Ndca::run_steps")
        });
    }

    if !run.refs.is_empty() {
        let ref_ms = stats::median(&run.refs);
        run.set("host.ref_ms", ref_ms);
        // The run's median reference time stands for the host's pace
        // during set-up: two reference runs bracketing each set-up were
        // too few to be steady (one preempted run skews the pair).
        run.set("setup_s", reference::scale_time(setup_wall, ref_ms, 1.0));
        run.note(format!("setup_s: wall clock {setup_wall}"));
        run.note(format!(
            "times and rates are at the reference pace ({} ms per reference piece); this run's median piece {ref_ms:.3} ms over {} samples",
            reference::REF_MS,
            run.refs.len()
        ));
    }
    if let Some(mb) = run::peak_rss_mb() {
        run.set("peak_rss_mb", mb);
    }
    run
}

/// Print the notes, every metric with its unit, and the result line.
fn report(args: &Args, base: &Path, mut run: Run) {
    let ok = (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64;
    run.set("ok_frac", ok);
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    if args.trace {
        for (layer, ms) in run.tracer.self_ms() {
            if report::LAYERS.contains(&layer) {
                run.set(&format!("{layer}.self_ms"), ms);
            }
        }
        let spans = run.tracer.spans().len();
        run.set(
            "trace.overhead_ms",
            spans as f64 * trace::span_cost_ns() / 1e6,
        );
        run.note(format!("trace: {spans} spans"));
        let path = base.join(format!("trace-{}.jsonl", args.workload.name()));
        if let Err(e) = run.tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for p in &run.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &run.notes {
        println!("  {n}");
    }
    println!(
        "  failed_frac = {failed_frac} ({} of {})",
        run.failed, run.attempted
    );
    // Every figure the run measured, the other mode's included; the result
    // line below carries only this mode's.
    for traced in [false, true] {
        for (name, unit) in report::expected(traced) {
            match run.metrics.get(&name) {
                Some(v) => println!("  {name} = {v} {unit}"),
                None if traced == args.trace => println!("  {name} = (missing)"),
                None => {}
            }
        }
    }
    let (line, missing) = report::result_line(args.trace, run.attempted, run.failed, &run.metrics);
    for m in missing {
        eprintln!("perfbench: metric {m} was not measured");
    }
    println!("{line}");
}
