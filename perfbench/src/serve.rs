//! Serve section: a closed loop of two pooled clients against an
//! in-process `psr-serve` with its default two workers.
//!
//! Each client submits its next spec only after the previous one's result
//! arrived, waiting on a cold job the way `psr-serve wait` does (a status
//! poll every 50 ms). Half the submissions repeat a hot set of four specs
//! (cache reads); half are unique-seed colds of the `jobs-48` class (queue
//! journal, engine checkpoints, cache put) — the mix of the repository's
//! serve load test. Every result's final observable line is checked; hot
//! results against the engine jobs of the same seed.

use crate::plan::{job_body, Plan, Submit, CLIENTS, JOB_SIDE, JOB_STEPS};
use crate::run::Run;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use psr_serve::client::Pool;
use psr_serve::json;
use psr_serve::server::{start, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A submission that takes longer than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(20);
/// Status poll interval while a cold job runs: the interval of the
/// repository's own client, `psr-serve wait`.
const POLL: Duration = Duration::from_millis(50);
/// Timed colds and timed hits the loop collects at the least: a tail needs
/// eleven samples, and these put it at p58 or higher.
const MIN_TIMED: usize = 24;
/// The loop stops this long after it started, whatever the sample counts.
const RUN_LIMIT: Duration = Duration::from_secs(20);

/// A running server with its hot set in the cache.
pub struct Server {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Server {
    /// Drain, stop and remove the state dir.
    pub fn stop(self) {
        self.handle.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: start the server in `dir` and compute the hot set once, so hot
/// submissions measure the cache path.
///
/// # Errors
///
/// Start-up I/O errors and failed warm-up jobs.
pub fn setup(dir: &Path, plan: &Plan) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: dir.to_owned(),
        ..ServerConfig::default()
    };
    let handle =
        start(cfg, Arc::new(AtomicBool::new(false))).map_err(|e| format!("serve start: {e}"))?;
    let server = Server {
        addr: handle.addr.to_string(),
        handle,
        dir: dir.to_owned(),
    };
    match warm_hot_set(&server.addr, plan) {
        Ok(()) => Ok(server),
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

/// Compute the hot set one spec at a time: two jobs at once run at a pace
/// set by where the host places the vCPUs (see [`report`]), which would
/// make the set-up time follow it.
fn warm_hot_set(addr: &str, plan: &Plan) -> Result<(), String> {
    let pool = Pool::new(addr, TIMEOUT);
    for &seed in &plan.hot_seeds {
        let r = pool.post(
            "/v1/jobs",
            &[("x-tenant", "warm")],
            job_body(seed).as_bytes(),
        )?;
        if r.status != 202 && r.status != 200 {
            return Err(format!("warm-up submit: {} {}", r.status, r.text()));
        }
        wait_done(&pool, field_u64(&r.text(), "id")?)?;
    }
    Ok(())
}

fn field_u64(text: &str, key: &str) -> Result<u64, String> {
    json::parse(text.trim())
        .ok()
        .and_then(|v| v.get(key).and_then(json::Value::as_u64))
        .ok_or_else(|| format!("response lacks {key}: {text}"))
}

/// What polling a job to completion saw.
struct Waited {
    /// Status requests made.
    polls: u64,
    /// When a poll first saw the job past `pending`.
    started: Instant,
}

fn wait_done(pool: &Pool, id: u64) -> Result<Waited, String> {
    let deadline = Instant::now() + TIMEOUT;
    let mut polls = 0;
    let mut started = None;
    loop {
        let r = pool.get(&format!("/v1/jobs/{id}"))?;
        polls += 1;
        if r.status != 200 {
            return Err(format!("status of job {id}: {} {}", r.status, r.text()));
        }
        let text = r.text();
        let status = json::parse(text.trim()).ok().and_then(|v| {
            v.get("status")
                .and_then(json::Value::as_str)
                .map(String::from)
        });
        if status.as_deref() != Some("pending") {
            started.get_or_insert_with(Instant::now);
        }
        match status.as_deref() {
            Some("done") => {
                return Ok(Waited {
                    polls,
                    started: started.expect("set when done was seen"),
                })
            }
            Some("failed") => return Err(format!("job {id} failed: {text}")),
            _ if Instant::now() > deadline => return Err(format!("job {id} timed out")),
            _ => std::thread::sleep(POLL),
        }
    }
}

/// Species counts of the final observable line, after checking it closes
/// the canonical job.
fn final_counts(body: &[u8]) -> Result<Vec<u64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "result is not UTF-8".to_owned())?;
    let last = text
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .ok_or("empty result")?;
    let v = json::parse(last).map_err(|e| format!("final line: {e}"))?;
    let step = v.get("step").and_then(json::Value::as_u64);
    if step != Some(JOB_STEPS) {
        return Err(format!("final line is at step {step:?}, not {JOB_STEPS}"));
    }
    let counts: Vec<u64> = match v.get("counts") {
        Some(json::Value::Arr(a)) => a.iter().filter_map(json::Value::as_u64).collect(),
        _ => return Err("final line lacks counts".to_owned()),
    };
    let sites = u64::from(JOB_SIDE) * u64::from(JOB_SIDE);
    if counts.iter().sum::<u64>() != sites {
        return Err(format!("final counts {counts:?} do not sum to {sites}"));
    }
    if counts.contains(&sites) {
        return Err(format!("final lattice is absorbed: counts {counts:?}"));
    }
    Ok(counts)
}

/// One finished submission.
struct Sample {
    submit: Submit,
    hit: bool,
    /// Counts towards the latency figures.
    timed: bool,
    e2e_us: f64,
    ack_us: f64,
    result_us: f64,
    /// Cold only: submit until a status poll first saw the job running.
    wait_us: f64,
    polls: u64,
    counts: Vec<u64>,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    errors: Vec<String>,
    shed_429: u64,
}

/// Submit → (poll) → result, over one pooled connection.
fn submit_one(
    pool: &Pool,
    tracer: &mut Tracer,
    body: &str,
    submit: Submit,
    log: &mut ClientLog,
    req: u64,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let (resp, ack_us) = loop {
        let open = tracer.begin("serve", "post", req);
        let a0 = Instant::now();
        let r = pool.post("/v1/jobs", &[("x-tenant", "bench")], body.as_bytes());
        let ack_us = a0.elapsed().as_secs_f64() * 1e6;
        tracer.end(open);
        let r = r?;
        if r.status == 429 {
            // A retried 429 is one more attempt, not a failure.
            log.shed_429 += 1;
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        if r.status != 200 && r.status != 202 {
            return Err(format!("submit: {} {}", r.status, r.text()));
        }
        break (r, ack_us);
    };
    let text = resp.text();
    let id = field_u64(&text, "id")?;
    let hit = json::parse(text.trim())
        .ok()
        .and_then(|v| v.get("cached").and_then(json::Value::as_bool))
        == Some(true);
    let (mut polls, mut wait_us) = (0, 0.0);
    if !hit {
        let open = tracer.begin("serve", "poll", req);
        let waited = wait_done(pool, id);
        tracer.end(open);
        let waited = waited?;
        polls = waited.polls;
        wait_us = (waited.started - t0).as_secs_f64() * 1e6;
    }
    let open = tracer.begin("serve", "result", req);
    let r0 = Instant::now();
    let result = pool.get(&format!("/v1/jobs/{id}/result"));
    let result_us = r0.elapsed().as_secs_f64() * 1e6;
    tracer.end(open);
    let result = result?;
    if result.status != 200 || result.body.is_empty() {
        return Err(format!("result of job {id}: {}", result.status));
    }
    let e2e_us = t0.elapsed().as_secs_f64() * 1e6;
    if t0.elapsed() > TIMEOUT {
        return Err(format!("job {id} took longer than {TIMEOUT:?}"));
    }
    Ok(Sample {
        submit,
        hit,
        timed: true,
        e2e_us,
        ack_us,
        result_us,
        wait_us,
        polls,
        counts: final_counts(&result.body)?,
    })
}

/// (seed, final species counts) of served results.
pub type Served = Vec<(u64, Vec<u64>)>;

/// Run the closed loop until at least [`MIN_TIMED`] colds and as many hits
/// were timed (each client finishes the request it is in), report, stop
/// the server, and return the served results: hot ones (to check against
/// the engine jobs) and cold ones.
pub fn section(run: &mut Run, plan: &Plan, server: Server) -> (Served, Served) {
    let hard_stop = Instant::now() + RUN_LIMIT;
    let colds = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let pools: Vec<Pool> = (0..CLIENTS)
        .map(|_| Pool::new(&server.addr, TIMEOUT))
        .collect();
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(c, pool)| {
                let mut tracer = run.tracer.fork();
                let (colds, hits) = (&colds, &hits);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    for i in 0.. {
                        let now = Instant::now();
                        let enough = colds.load(Ordering::Relaxed) >= MIN_TIMED
                            && hits.load(Ordering::Relaxed) >= MIN_TIMED;
                        if now >= hard_stop || enough {
                            break;
                        }
                        let submit = plan.submission(c, i);
                        let body = match submit {
                            Submit::Hot(h) => job_body(plan.hot_seeds[h]),
                            Submit::Cold(seed) => job_body(seed),
                        };
                        let req = ((c as u64) << 32) | i;
                        let open = tracer.begin("serve", "request", req);
                        let out = submit_one(pool, &mut tracer, &body, submit, &mut log, req);
                        tracer.end(open);
                        match out {
                            Ok(mut sample) => {
                                // A client's first request wakes an idle
                                // loop; for a hit that costs as much as the
                                // hit itself, so it is checked but not timed.
                                sample.timed = i > 0 || !sample.hit;
                                if sample.timed {
                                    let n = if sample.hit { hits } else { colds };
                                    n.fetch_add(1, Ordering::Relaxed);
                                }
                                log.samples.push(sample);
                            }
                            Err(e) => log.errors.push(format!("client {c} request {i}: {e}")),
                        }
                    }
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut shed_429 = 0;
    for (log, tracer) in logs {
        run.tracer.absorb(tracer);
        // A retried 429 is one more attempt, not a failure.
        for _ in 0..log.shed_429 {
            run.op(true, String::new);
        }
        shed_429 += log.shed_429;
        for e in log.errors {
            run.op(false, || e);
        }
        for _ in &log.samples {
            run.op(true, String::new);
        }
        samples.extend(log.samples);
    }
    report(run, &samples, shed_429, &pools[0]);
    drop(pools);
    server.stop();
    let mut hot = Served::new();
    let mut cold = Served::new();
    for s in samples {
        match s.submit {
            Submit::Hot(h) => hot.push((plan.hot_seeds[h], s.counts)),
            Submit::Cold(seed) => cold.push((seed, s.counts)),
        }
    }
    (hot, cold)
}

/// Client-side figures from `samples`, then the server's own from
/// `/metrics`, read after the loop.
///
/// The cold figures are wall clock, not scaled to the reference pace: the
/// colds run on the server's threads, so a reference run on a client
/// thread shares the two vCPUs with them and reads contention, and a few
/// reference runs around the loop are too few to stand for its pace (both
/// made the colds' spread over ten runs two to four times wider).
fn report(run: &mut Run, samples: &[Sample], shed_429: u64, pool: &Pool) {
    let cold: Vec<&Sample> = samples.iter().filter(|s| s.timed && !s.hit).collect();
    let hit: Vec<&Sample> = samples.iter().filter(|s| s.timed && s.hit).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|s| s.e2e_us / 1e3).collect();
    let hit_us: Vec<f64> = hit.iter().map(|s| s.e2e_us).collect();
    if let (Some(ct), Some(ht)) = (tail(&cold_ms), tail(&hit_us)) {
        // Cold latencies follow where the host places the two vCPUs that
        // run both workers' jobs at once (the same code's median ranged
        // over 255–655 ms between runs), which no single-thread reference
        // tracks, so they are per-layer figures too.
        run.set("serve.cold_p50_ms", median(&cold_ms));
        run.set("serve.cold_tail_ms", ct.value);
        // Hit latencies move with the host's wake-up latency (the
        // median by up to 1.6×, the tail by 2-5× between runs), so they
        // are per-layer figures rather than bounded ones.
        run.set("serve.hit_p50_us", median(&hit_us));
        run.set("serve.hit_tail_us", ht.value);
        run.note(format!(
            "serve: serve.cold_tail_ms is p{:.1} of {} colds; serve.hit_tail_us is p{:.1} of {} hits",
            ct.percentile, ct.samples, ht.percentile, ht.samples
        ));
    }
    run.note(format!(
        "serve: {} colds, {} hits, {} retried 429s over {CLIENTS} pooled clients",
        cold.len(),
        hit.len(),
        shed_429
    ));

    // Server-side figures, read after the loop.
    let metrics = pool.get("/metrics").and_then(|r| {
        if r.status == 200 {
            Ok(r.body)
        } else {
            Err(format!("/metrics: {}", r.status))
        }
    });
    let metrics = run.op_result(metrics);
    if run.traced() && !cold.is_empty() && !hit.is_empty() {
        let body = metrics.unwrap_or_default();
        let text = String::from_utf8_lossy(&body);
        // `h.serve.cold_us count=N p50=X ...`: X is the upper edge of a
        // power-of-two bucket, so this is a factor-of-two estimate.
        let compute_ms = text
            .lines()
            .find(|l| l.starts_with("h.serve.cold_us "))
            .and_then(|l| l.split_whitespace().find_map(|f| f.strip_prefix("p50=")))
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(f64::NAN, |us| us / 1e3);
        let acks: Vec<f64> = cold.iter().map(|s| s.ack_us).collect();
        let results: Vec<f64> = hit.iter().map(|s| s.result_us).collect();
        let polls: u64 = cold.iter().map(|s| s.polls).sum();
        run.set("serve.ack_us", median(&acks));
        run.set("serve.cold_compute_ms", compute_ms);
        let waits: Vec<f64> = cold.iter().map(|s| s.wait_us / 1e3).collect();
        run.set("serve.queue_wait_ms", median(&waits));
        run.set("serve.polls_per_cold", polls as f64 / cold.len() as f64);
        run.set("serve.result_us", median(&results));
        let hits = samples.iter().filter(|s| s.hit).count();
        run.set("serve.hit_ratio", hits as f64 / samples.len() as f64);
        run.set("serve.shed_429", shed_429 as f64);
        run.set("serve.metrics_bytes", body.len() as f64);
    }
}
