//! The three workloads: set-up, the untraced end-to-end run and the
//! traced depth ladder (`core` direct → `serve` in process → `net` over
//! TCP).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eigenmaps::core::{Deployment, MapEnsemble, ThermalMap};
use eigenmaps::net::{Client, DoorHandle, NetServer};
use eigenmaps::serve::{DeploymentRegistry, Server, TrackerSession};

use crate::drive::{self, BulkRequest, Call, Run, Score, Target};
use crate::inputs::{
    self, digest, reference_digests, DesignPhases, Dirs, Frames, Workload, DEPLOYMENT, SHARDS,
};
use crate::spans::{self, Recorder, Span};
use crate::stats::{block_percentile, median, percentile, quartiles, Schedule, MIN_TAIL_SAMPLES};
use crate::{host, Error, Metric, Report};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Open-loop rate of both TCP workloads: one request per millisecond.
const INTERVAL: Duration = Duration::from_millis(1);
/// Tracker sessions of `sessions_durable` and their filter gain.
const SESSIONS: usize = 256;
const GAIN: f64 = 0.5;
/// Checkpoint cadence of the `sessions_durable` snapshot store. Each
/// checkpoint writes the sessions stepped since the last one, so at 1000
/// steps/s over 256 sessions a cadence under ~250 ms writes a file per
/// step: ~1000 fsync-ed files/s, which degraded a shared virtual disk
/// within a few runs. At 5 s each session is written once per checkpoint.
const CADENCE: Duration = Duration::from_secs(5);
/// Frames per `bulk_bigmap` request (the default `max_batch_frames`), the
/// distinct requests the two clients cycle through, and the clients.
const BULK_FRAMES: usize = 256;
const BULK_POOL: usize = 32;
const BULK_CLIENTS: usize = 2;
/// A window during which the hypervisor ran other guests for more than
/// this share of the vCPU time ("steal") is measured again, up to
/// `WINDOWS` windows in all, and the least disturbed one is reported.
/// On a 2-vCPU VM, tcp_single_frame runs with 11-16 % steal read a p99
/// of 7.6-8.3 ms; runs under 3 % read 3.9-4.2 ms.
const MAX_STEAL: f64 = 0.05;
const WINDOWS: usize = 2;
/// Explicit checkpoints timed in the traced run of `sessions_durable`.
const CHECKPOINT_SAMPLES: usize = 10;

/// The serving stack of one set-up.
pub struct Stack {
    server: Arc<Server>,
    door: Option<(DoorHandle, JoinHandle<()>)>,
    client: Option<Client>,
    addr: Option<SocketAddr>,
    store: Option<PathBuf>,
}

impl Stack {
    fn boot(
        workload: Workload,
        registry: Arc<DeploymentRegistry>,
        store: &Path,
    ) -> Result<Stack, Error> {
        let server = Arc::new(Server::new(registry, SHARDS));
        let mut stack = Stack {
            server,
            door: None,
            client: None,
            addr: None,
            store: None,
        };
        if workload == Workload::SessionsDurable {
            // A fresh directory: nothing to hydrate, and every checkpoint
            // is written by this set-up.
            let _ = std::fs::remove_dir_all(store);
            stack.store = Some(store.to_path_buf());
            stack.server.hydrate(store, CADENCE)?;
        }
        if workload != Workload::BulkBigmap {
            let door = NetServer::bind("127.0.0.1:0", Arc::clone(&stack.server))?;
            let addr = door.local_addr();
            let handle = door.handle();
            let thread = std::thread::Builder::new()
                .name("e2ebench-door".into())
                .spawn(move || door.run())?;
            stack.door = Some((handle, thread));
            stack.addr = Some(addr);
            stack.client = Some(Client::connect(addr)?);
        }
        Ok(stack)
    }

    /// One single-frame request through the workload's front end.
    fn warm_up(&mut self, frame: &[f64]) -> Result<ThermalMap, Error> {
        let maps = match &mut self.client {
            Some(client) => client.submit_batch(DEPLOYMENT, vec![frame.to_vec()])?.maps,
            None => self.server.serve(DEPLOYMENT, vec![frame.to_vec()])?,
        };
        maps.into_iter()
            .next()
            .ok_or_else(|| Error("warm-up reply carried no map".into()))
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("TCP workloads have a client")
    }

    fn open_sessions(&mut self) -> Result<Vec<u64>, Error> {
        (0..SESSIONS)
            .map(|_| Ok(self.client().open_session(DEPLOYMENT, GAIN)?.session))
            .collect()
    }

    fn close_sessions(&mut self, ids: &[u64]) -> Result<(), Error> {
        for &id in ids {
            self.client().close_session(id)?;
        }
        Ok(())
    }

    fn shutdown(mut self) {
        drop(self.client.take());
        if let Some((handle, thread)) = self.door.take() {
            handle.shutdown();
            let _ = thread.join();
        }
        drop(self.server);
        if let Some(dir) = &self.store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Where `sessions_durable` keeps its snapshot store: on the checkout's
/// disk, so fsync is real.
fn store_dir(dirs: &Dirs) -> PathBuf {
    dirs.work.join(format!("store-{}", std::process::id()))
}

/// One timed set-up: from the cached ensemble to the first correct reply.
pub struct Setup {
    stack: Stack,
    reference: Deployment,
    phases: DesignPhases,
    boot: Duration,
    total: Duration,
}

fn set_up(
    workload: Workload,
    ensemble: &MapEnsemble,
    test: &[ThermalMap],
    store: &Path,
) -> Result<Setup, Error> {
    let t0 = Instant::now();
    let (registry, artifact, phases) = inputs::design(ensemble, workload.grid())?;
    let frame = registry.latest(DEPLOYMENT)?.sensors().sample(&test[0]);
    let t1 = Instant::now();
    let mut stack = Stack::boot(workload, registry, store)?;
    let t2 = Instant::now();
    let map = stack.warm_up(&frame)?;
    let total = t0.elapsed();
    // Checking the answer is the benchmark's work, not the program's.
    let reference = Deployment::from_bytes(&artifact)?;
    let expected = reference.reconstruct_batch(&[frame])?;
    if digest(map.as_slice()) != digest(expected[0].as_slice()) {
        return Err(Error("warm-up reply differs from the reference map".into()));
    }
    Ok(Setup {
        stack,
        reference,
        phases,
        boot: t2 - t1,
        total,
    })
}

/// Replays each session's exact step sequence on fresh trackers and
/// returns the digest of every step's map, in request order.
fn replay_sessions(reference: &Deployment, frames: &Frames) -> Result<Vec<u64>, Error> {
    let mut trackers = (0..SESSIONS)
        .map(|_| reference.tracker(GAIN))
        .collect::<Result<Vec<_>, _>>()?;
    frames
        .readings
        .iter()
        .enumerate()
        .map(|(i, r)| Ok(digest(trackers[i % SESSIONS].step(r)?.as_slice())))
        .collect()
}

/// The workload's seeded request stream. `tcp_single_frame` is one
/// monitor's frames in time order, a `bulk_bigmap` request one frame from
/// each of 256 chips, and `sessions_durable` one monitor per session.
fn stream(
    workload: Workload,
    reference: &Deployment,
    test: &[ThermalMap],
    count: usize,
    seed: u64,
) -> Frames {
    let monitors = match workload {
        Workload::TcpSingleFrame => 1,
        Workload::BulkBigmap => BULK_FRAMES,
        Workload::SessionsDurable => SESSIONS,
    };
    Frames::generate(reference.sensors(), test, count, monitors, seed)
}

fn bulk_pool(
    reference: &Deployment,
    test: &[ThermalMap],
    seed: u64,
) -> Result<Vec<BulkRequest>, Error> {
    let frames = stream(
        Workload::BulkBigmap,
        reference,
        test,
        BULK_POOL * BULK_FRAMES,
        seed,
    );
    let digests = reference_digests(reference, &frames.readings)?;
    Ok((0..BULK_POOL)
        .map(|p| {
            let span = p * BULK_FRAMES..(p + 1) * BULK_FRAMES;
            BulkRequest {
                frames: frames.readings[span.clone()].to_vec(),
                truth: frames.truth[span.clone()].to_vec(),
                digests: digests[span].to_vec(),
            }
        })
        .collect())
}

fn open_loop_schedule() -> Schedule {
    Schedule {
        // A short lead so the first request is not already late.
        start: Instant::now() + Duration::from_millis(20),
        interval: INTERVAL,
    }
}

fn open_loop_count(seconds: Duration) -> usize {
    (seconds.as_secs_f64() / INTERVAL.as_secs_f64())
        .round()
        .max(1.0) as usize
}

/// The workload's measured window at its end-to-end depth.
fn measure(
    workload: Workload,
    stack: &mut Stack,
    reference: &Deployment,
    test: &[ThermalMap],
    seed: u64,
    seconds: Duration,
    trace: Option<Instant>,
) -> Result<(Run, Score), Error> {
    let limit = workload.latency_limit();
    match workload {
        Workload::TcpSingleFrame => {
            let frames = stream(workload, reference, test, open_loop_count(seconds), seed);
            let expected = reference_digests(reference, &frames.readings)?;
            let stream = stack.client().stream().try_clone()?;
            let run = drive::pipelined(
                &stream,
                Call::Batch,
                &frames,
                test,
                open_loop_schedule(),
                trace,
            )?;
            let score = drive::score(&run.replies, Some(&expected), limit);
            Ok((run, score))
        }
        Workload::SessionsDurable => {
            let ids = stack.open_sessions()?;
            let frames = stream(workload, reference, test, open_loop_count(seconds), seed);
            let stream = stack.client().stream().try_clone()?;
            let run = drive::pipelined(
                &stream,
                Call::Step(&ids),
                &frames,
                test,
                open_loop_schedule(),
                trace,
            )?;
            stack.close_sessions(&ids)?;
            let expected = replay_sessions(reference, &frames)?;
            let score = drive::score(&run.replies, Some(&expected), limit);
            Ok((run, score))
        }
        Workload::BulkBigmap => {
            let pool = bulk_pool(reference, test, seed)?;
            let run = drive::closed_loop(&stack.server, &pool, test, BULK_CLIENTS, seconds, trace);
            let score = drive::score(&run.replies, None, limit);
            Ok((run, score))
        }
    }
}

/// The lowest per-block `p`-th percentile (see [`block_percentile`]), or
/// — when the sample cannot fill one block — the highest percentile it
/// supports, with a note saying so.
fn tail(samples: &[f64], p: f64) -> (f64, String) {
    let n = samples.len();
    match block_percentile(samples, p) {
        Ok((v, blocks)) => (
            v,
            format!(
                "n={n}, lowest of {} block p{p}s [{}]",
                blocks.len(),
                shown(&blocks)
            ),
        ),
        Err(refused) => {
            let highest = 100.0 * (1.0 - MIN_TAIL_SAMPLES as f64 / n.max(1) as f64);
            let v = percentile(samples, highest.floor()).unwrap_or(0.0);
            (
                v,
                format!("n={n}: {refused}; reporting p{}", highest.floor()),
            )
        }
    }
}

/// CPU ms per 1000 correct maps of each [`drive::CPU_BLOCK`]-request block
/// of an open-loop run (empty for the closed loop).
fn cpu_blocks(run: &Run) -> Vec<f64> {
    run.cpu_marks
        .windows(2)
        .filter_map(|w| {
            let ((i0, c0), (i1, c1)) = (w[0], w[1]);
            let maps = run.replies[i0..i1].iter().filter(|r| r.ok).count();
            (maps > 0).then(|| (c1 - c0) / (maps as f64 / 1e3))
        })
        .collect()
}

fn shown(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The untraced run: every end-to-end metric.
///
/// The window is measured on the first set-up's stack, so every run serves
/// from the same process state (one design behind it); a window disturbed
/// by the host is measured again (see [`MAX_STEAL`]). The other
/// `SETUP_REPS - 1` set-ups follow and only time `setup_s`. A bitwise
/// mismatch in any window fails the run.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    dirs: &Dirs,
) -> Result<Report, Error> {
    let (ensemble, test) = inputs::load(dirs, workload.grid())?;
    let Setup {
        mut stack,
        reference,
        total,
        ..
    } = set_up(workload, &ensemble, &test, &store_dir(dirs))?;
    let mut setups = vec![total.as_secs_f64()];
    let vcpu_ms = seconds.as_secs_f64() * 1e3 * host::nproc() as f64;
    let mut kept: Option<(f64, Run, Score, f64)> = None;
    let (mut steal_shares, mut mismatches) = (Vec::new(), 0);
    for _ in 0..WINDOWS {
        let (cpu0, steal0) = (host::cpu_ms(), host::steal_ms());
        let measured = measure(workload, &mut stack, &reference, &test, seed, seconds, None);
        let (cpu_ms, steal) = (host::cpu_ms() - cpu0, host::steal_ms() - steal0);
        let (run, score) = match measured {
            Ok(measured) => measured,
            Err(e) => {
                stack.shutdown();
                return Err(e);
            }
        };
        mismatches += score.mismatches;
        let share = steal / vcpu_ms;
        steal_shares.push(share);
        if kept.as_ref().is_none_or(|(best, ..)| share < *best) {
            kept = Some((share, run, score, cpu_ms));
        }
        if share <= MAX_STEAL {
            break;
        }
    }
    let (_, run, score, cpu_ms) = kept.expect("at least one window");
    let checkpoints = stack.server.metrics().wire.checkpoints;
    let peak_rss = host::peak_rss_mb();
    stack.shutdown();
    for _ in 1..SETUP_REPS {
        let setup = set_up(workload, &ensemble, &test, &store_dir(dirs))?;
        setups.push(setup.total.as_secs_f64());
        setup.stack.shutdown();
    }

    let lat = &score.tally.latencies_us;
    let (p99, p99_note) = tail(lat, 99.0);
    let (q1, q3) = quartiles(lat);
    let blocks = cpu_blocks(&run);
    let cpu = if blocks.len() >= 2 {
        Metric::new("cpu_ms_per_kmap", "ms/kmap", median(&blocks)).note(format!(
            "median of {} 1000-request blocks [{}]",
            blocks.len(),
            shown(&blocks)
        ))
    } else {
        Metric::new(
            "cpu_ms_per_kmap",
            "ms/kmap",
            cpu_ms / (score.maps_ok as f64 / 1e3).max(1e-9),
        )
        .note(format!("{cpu_ms:.0} ms CPU over the window"))
    };
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups)).note(format!("median of set-ups {setups:?}")),
        Metric::new("lat_p50_us", "us", p50(lat))
            .note(format!("n={}, q1={q1:.1} q3={q3:.1}", lat.len())),
        Metric::new("lat_p99_us", "us", p99).note(p99_note),
        Metric::new("maps_per_s", "maps/s", score.maps_per_s()).note(format!(
            "{} maps in {:.3} s",
            score.maps_ok,
            score.window.as_secs_f64()
        )),
        Metric::new("failed_ratio", "ratio", score.tally.failed_ratio()).note(format!(
            "(failed + 1) / (attempted + 1); raw {}/{} = {}",
            score.tally.failed,
            score.tally.attempted,
            score.tally.failed_share()
        )),
        Metric::new(
            "deadline_hit_ratio",
            "ratio",
            score.tally.deadline_hit_ratio(),
        )
        .note(format!(
            "{} of {} within {:?}",
            score.tally.hits,
            score.tally.attempted,
            workload.latency_limit()
        )),
        Metric::new("map_rmse_c", "degC", score.rmse())
            .note(format!("{} cells checked", score.checked_cells)),
        cpu,
        Metric::new("peak_rss_mb", "MB", peak_rss).note("VmHWM after the window".into()),
    ];
    let shares: Vec<String> = steal_shares
        .iter()
        .map(|s| format!("{:.1} %", s * 1e2))
        .collect();
    Ok(Report {
        correct: mismatches == 0,
        attempted: score.tally.attempted,
        failed: score.tally.failed,
        metrics,
        spans: Vec::new(),
        notes: vec![
            format!("bitwise mismatches, all windows: {mismatches}"),
            format!("checkpoints committed: {checkpoints}"),
            format!(
                "host steal per window: [{}]; the least disturbed window is reported",
                shares.join(", ")
            ),
        ],
    })
}

/// The per-layer metrics with the end-to-end metric and workload each
/// should move. The traced run reports every one of them on every
/// workload; a layer a workload does not reach reads 0 with a note.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    (
        "bench.gen_lag_p99_us",
        "us",
        "validity of lat_* on open-loop workloads",
    ),
    ("bench.sent", "count", "sanity"),
    ("bench.ok", "count", "sanity"),
    ("bench.failed", "count", "failed_ratio, all"),
    (
        "bench.trace_overhead_us",
        "us",
        "none: traced minus untraced p50 at the top depth",
    ),
    (
        "net.encode_us",
        "us",
        "lat_p50_us on tcp_single_frame, sessions_durable",
    ),
    (
        "net.decode_us",
        "us",
        "lat_p50_us on tcp_single_frame, sessions_durable",
    ),
    ("net.req_bytes", "bytes", "lat_p50_us on TCP workloads"),
    ("net.resp_bytes", "bytes", "lat_p50_us on TCP workloads"),
    (
        "net.door_self_us",
        "us",
        "lat_p50_us, cpu_ms_per_kmap on tcp_single_frame, sessions_durable; not bulk_bigmap",
    ),
    ("net.frames_in", "count", "sanity against bench.sent"),
    ("net.frames_out", "count", "sanity against bench.ok"),
    ("serve.call_p50_us", "us", "lat_* on all"),
    ("serve.call_p99_us", "us", "lat_* on all"),
    (
        "serve.queue_wait_p50_us",
        "us",
        "lat_p50_us on tcp_single_frame (coalescing)",
    ),
    ("serve.execute_p50_us", "us", "lat_p50_us on all"),
    (
        "serve.batch_requests_mean",
        "requests",
        "maps_per_s on bulk_bigmap, lat_p50_us on tcp_single_frame",
    ),
    (
        "serve.shard_frames_min_over_max",
        "ratio",
        "maps_per_s on bulk_bigmap, lat_p50_us on tcp_single_frame",
    ),
    (
        "serve.checkpoint_ms",
        "ms",
        "cpu_ms_per_kmap, deadline_hit_ratio on sessions_durable only",
    ),
    (
        "serve.checkpoints",
        "count",
        "cpu_ms_per_kmap on sessions_durable only",
    ),
    ("serve.shed", "count", "failed_ratio"),
    ("serve.degraded", "count", "failed_ratio, map_rmse_c"),
    ("serve.errors", "count", "failed_ratio"),
    (
        "core.solve_us",
        "us",
        "small share of lat_p50_us everywhere",
    ),
    (
        "core.synth_us_per_map",
        "us",
        "maps_per_s on bulk_bigmap; not tcp_single_frame",
    ),
    (
        "core.kernel_gflops",
        "GFLOP/s",
        "maps_per_s on bulk_bigmap; not tcp_single_frame",
    ),
    (
        "core.batch_maps_per_s",
        "maps/s",
        "maps_per_s on bulk_bigmap",
    ),
    ("core.step_us", "us", "lat_p50_us on sessions_durable"),
    ("core.basis_fit_s", "s", "setup_s"),
    ("core.allocate_s", "s", "setup_s, dominant on bulk_bigmap"),
    ("core.emdeploy_load_ms", "ms", "setup_s"),
];

/// Collects per-layer values by name; [`Traced::into_metrics`] emits them
/// in [`LAYER_METRICS`] order and fails if one was never set.
#[derive(Default)]
struct Traced {
    values: Vec<(&'static str, f64, String)>,
}

impl Traced {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.push((name, value, note.into()));
    }

    fn into_metrics(self) -> Result<Vec<Metric>, Error> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, moves)| {
                let (_, value, note) = self
                    .values
                    .iter()
                    .rev()
                    .find(|(n, _, _)| *n == name)
                    .ok_or_else(|| Error(format!("traced run did not measure {name}")))?;
                Ok(Metric::new(name, unit, *value).note(format!("{note}; moves: {moves}")))
            })
            .collect()
    }
}

/// The core depth: the stream's frames straight through the library, one
/// span around the solve and one around the synthesis of each frame.
fn core_depth(
    workload: Workload,
    reference: &Deployment,
    frames: &Frames,
    expected: &[u64],
    epoch: Instant,
    budget: Duration,
    out: &mut Traced,
) -> Result<(Vec<Span>, u64), Error> {
    let mut rec = Recorder::new(Some(epoch));
    let mut mismatches = 0u64;
    for (i, readings) in frames.readings.iter().enumerate() {
        let req = i as u64 + 1;
        let t0 = Instant::now();
        let alpha = rec.time("core.solve", Some("core.frame"), req, || {
            reference.coefficients(readings)
        })?;
        let map = rec.time("core.synth", Some("core.frame"), req, || {
            reference.reconstructor().map_from_coefficients(&alpha)
        })?;
        rec.record("core.frame", None, req, t0, Instant::now());
        mismatches += u64::from(digest(map.as_slice()) != expected[i]);
    }
    let sessions = if workload == Workload::SessionsDurable {
        SESSIONS
    } else {
        1
    };
    let mut trackers = (0..sessions)
        .map(|_| reference.tracker(GAIN))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, readings) in frames.readings.iter().enumerate() {
        rec.time("core.step", None, i as u64 + 1, || {
            trackers[i % sessions].step(readings)
        })?;
    }
    let spans = rec.into_spans();
    let med = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        median(&v)
    };
    let synth_us = med("core.synth");
    let (n, k) = (reference.rows() * reference.cols(), reference.k());
    out.set(
        "core.solve_us",
        med("core.solve"),
        format!("median of {}", frames.len()),
    );
    out.set("core.synth_us_per_map", synth_us, format!("N={n} K={k}"));
    out.set(
        "core.kernel_gflops",
        2.0 * (n * k) as f64 / (synth_us * 1e3),
        format!("2*N*K = {} flop per map (computed)", 2 * n * k),
    );
    out.set(
        "core.step_us",
        med("core.step"),
        format!("{sessions} tracker(s)"),
    );

    let chunk = if workload == Workload::BulkBigmap {
        BULK_FRAMES
    } else {
        256
    };
    let t0 = Instant::now();
    let mut maps = 0usize;
    'outer: loop {
        for c in frames.readings.chunks(chunk) {
            maps += std::hint::black_box(reference.reconstruct_batch(c)?).len();
            if t0.elapsed() >= budget {
                break 'outer;
            }
        }
    }
    out.set(
        "core.batch_maps_per_s",
        maps as f64 / t0.elapsed().as_secs_f64(),
        format!("single thread, {chunk}-frame batches"),
    );
    Ok((spans, mismatches))
}

/// Times `DurabilityHub::checkpoint_now` with every session holding new
/// state: each attempt steps all sessions first, and attempts that collapse
/// into the store's own cadence checkpoint are discarded. Returns the
/// committed durations (ms) and the attempts made.
fn time_checkpoints(
    server: &Server,
    sessions: &[TrackerSession],
    frames: &Frames,
) -> Result<(Vec<f64>, usize), Error> {
    let hub = server
        .durability()
        .ok_or_else(|| Error("no durability hub attached".into()))?;
    let mut ms = Vec::with_capacity(CHECKPOINT_SAMPLES);
    let mut attempts = 0;
    while ms.len() < CHECKPOINT_SAMPLES && attempts < 10 * CHECKPOINT_SAMPLES {
        attempts += 1;
        let tickets = sessions
            .iter()
            .zip(&frames.readings)
            .map(|(session, readings)| session.submit_step(readings))
            .collect::<Result<Vec<_>, _>>()?;
        for ticket in tickets {
            ticket.wait()?;
        }
        let t0 = Instant::now();
        if hub.checkpoint_now()?.committed {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((ms, attempts))
}

/// The traced run: the depth ladder with benchmark-side spans.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    dirs: &Dirs,
) -> Result<Report, Error> {
    let epoch = Instant::now();
    let limit = workload.latency_limit();
    let (ensemble, test) = inputs::load(dirs, workload.grid())?;
    let Setup {
        mut stack,
        reference,
        phases,
        boot,
        total,
    } = set_up(workload, &ensemble, &test, &store_dir(dirs))?;
    let mut out = Traced::default();
    let mut notes = vec![format!(
        "setup {:.3} s: fit {:.3} s, allocate {:.3} s, emdeploy {:.2} ms, boot {:.2} ms",
        total.as_secs_f64(),
        phases.fit.as_secs_f64(),
        phases.allocate.as_secs_f64(),
        phases.emdeploy.as_secs_f64() * 1e3,
        boot.as_secs_f64() * 1e3
    )];
    out.set(
        "core.basis_fit_s",
        phases.fit.as_secs_f64(),
        "EigenBasis::fit",
    );
    out.set(
        "core.allocate_s",
        phases.allocate.as_secs_f64(),
        "Pipeline::fitted_basis(..).design()",
    );
    out.set(
        "core.emdeploy_load_ms",
        phases.emdeploy.as_secs_f64() * 1e3,
        "to_bytes + publish_bytes",
    );

    // Each depth gets a quarter of the run: serve, net untraced, net traced
    // (bulk_bigmap: serve untraced, serve traced), plus the core depth.
    let part = seconds / 4;
    let mut spans = Vec::new();
    let mut mismatches = 0u64;

    let core_frames = match workload {
        Workload::BulkBigmap => BULK_POOL * BULK_FRAMES,
        _ => open_loop_count(part),
    };
    let frames = stream(workload, &reference, &test, core_frames, seed);
    let expected = reference_digests(&reference, &frames.readings)?;
    let (core_spans, core_bad) = core_depth(
        workload,
        &reference,
        &frames,
        &expected,
        epoch,
        part / 2,
        &mut out,
    )?;
    spans.extend(core_spans);
    mismatches += core_bad;

    // serve depth: the open loop in process. bulk_bigmap's end-to-end
    // depth is already in process, so its top depth below serves as both.
    let mut serve_p50 = None;
    if workload != Workload::BulkBigmap {
        let frames = stream(workload, &reference, &test, open_loop_count(part), seed);
        let (run, expected) = if workload == Workload::SessionsDurable {
            let sessions = (0..SESSIONS)
                .map(|_| stack.server.open_session(DEPLOYMENT, GAIN))
                .collect::<Result<Vec<TrackerSession>, _>>()?;
            let run = drive::in_process(
                Target::Step(&sessions),
                &frames,
                &test,
                open_loop_schedule(),
                Some(epoch),
            );
            let (ms, attempts) = time_checkpoints(&stack.server, &sessions, &frames)?;
            out.set(
                "serve.checkpoint_ms",
                if ms.is_empty() { 0.0 } else { median(&ms) },
                format!(
                    "median of {} committed checkpoint_now of {attempts} attempts, {SESSIONS} sessions open",
                    ms.len()
                ),
            );
            drop(sessions);
            (run, replay_sessions(&reference, &frames)?)
        } else {
            let run = drive::in_process(
                Target::Batch(&stack.server),
                &frames,
                &test,
                open_loop_schedule(),
                Some(epoch),
            );
            (run, reference_digests(&reference, &frames.readings)?)
        };
        let score = drive::score(&run.replies, Some(&expected), limit);
        mismatches += score.mismatches;
        let lat = &score.tally.latencies_us;
        serve_p50 = Some(p50(lat));
        out.set(
            "serve.call_p50_us",
            p50(lat),
            format!("open loop from due time, n={}", lat.len()),
        );
        let (p99, note) = tail(lat, 99.0);
        out.set("serve.call_p99_us", p99, note);
        spans.extend(run.spans);
    }

    // top depth, untraced then traced
    let top_secs = if serve_p50.is_some() { part } else { part * 2 };
    let (_, untraced) = measure(
        workload, &mut stack, &reference, &test, seed, top_secs, None,
    )?;
    let (run, score) = measure(
        workload,
        &mut stack,
        &reference,
        &test,
        seed,
        top_secs,
        Some(epoch),
    )?;
    mismatches += untraced.mismatches + score.mismatches;
    let untraced_p50 = p50(&untraced.tally.latencies_us);
    if serve_p50.is_none() {
        let lat = &score.tally.latencies_us;
        out.set(
            "serve.call_p50_us",
            p50(lat),
            format!("closed loop, n={}", lat.len()),
        );
        let (p99, note) = tail(lat, 99.0);
        out.set("serve.call_p99_us", p99, note);
    }
    if workload != Workload::SessionsDurable {
        out.set(
            "serve.checkpoint_ms",
            0.0,
            "no snapshot store on this workload",
        );
    }

    let snapshot = stack.server.metrics();
    let tenant = snapshot
        .tenants
        .get(DEPLOYMENT)
        .cloned()
        .ok_or_else(|| Error("no tenant metrics for the deployment".into()))?;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    out.set(
        "serve.queue_wait_p50_us",
        us(tenant.queue_wait.quantile(0.5)),
        "TenantSnapshot::queue_wait, bucket bound",
    );
    out.set(
        "serve.execute_p50_us",
        us(tenant.execute.quantile(0.5)),
        "TenantSnapshot::execute, bucket bound",
    );
    out.set(
        "serve.batch_requests_mean",
        tenant.mean_batch_requests(),
        format!("{} batches", tenant.batches),
    );
    let (lo, hi) = snapshot
        .shard_frames
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    out.set(
        "serve.shard_frames_min_over_max",
        if hi == 0 { 0.0 } else { lo as f64 / hi as f64 },
        format!("shard frames {:?}", snapshot.shard_frames),
    );
    out.set(
        "serve.checkpoints",
        snapshot.wire.checkpoints as f64,
        "wire.checkpoints, whole run",
    );
    out.set("serve.shed", snapshot.shed as f64, "whole run");
    out.set("serve.degraded", snapshot.degraded as f64, "whole run");
    out.set("serve.errors", snapshot.errors as f64, "whole run");

    let traced_p50 = p50(&score.tally.latencies_us);
    let lag_us: Vec<f64> = run.lags.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let (lag_p99, lag_note) = tail(&lag_us, 99.0);
    out.set("bench.gen_lag_p99_us", lag_p99, lag_note);
    out.set(
        "bench.sent",
        score.tally.attempted as f64,
        "top depth, traced",
    );
    out.set("bench.ok", score.tally.ok() as f64, "top depth, traced");
    out.set(
        "bench.failed",
        score.tally.failed as f64,
        "top depth, traced",
    );
    out.set(
        "bench.trace_overhead_us",
        traced_p50 - untraced_p50,
        format!("p50 traced {traced_p50:.1} us - untraced {untraced_p50:.1} us"),
    );

    if let (Some(addr), Some(serve_p50)) = (stack.addr, serve_p50) {
        let n = score.tally.attempted.max(1) as f64;
        let med = |name: &str| {
            let v: Vec<f64> = run
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / 1e3)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        out.set("net.encode_us", med("net.encode"), "Request::encode");
        out.set(
            "net.decode_us",
            med("net.decode"),
            "Response::decode + WireMap::into_map",
        );
        out.set(
            "net.req_bytes",
            run.req_bytes as f64 / n,
            "mean encoded request frame",
        );
        out.set(
            "net.resp_bytes",
            run.resp_bytes as f64 / n,
            "mean encoded reply frame",
        );
        out.set(
            "net.door_self_us",
            untraced_p50 - serve_p50,
            format!("p50 TCP {untraced_p50:.1} us - p50 in process {serve_p50:.1} us"),
        );
        let wire = Client::connect(addr)?.metrics()?.wire;
        out.set(
            "net.frames_in",
            wire.frames_in as f64,
            "Client::metrics, whole run",
        );
        out.set(
            "net.frames_out",
            wire.frames_out as f64,
            "Client::metrics, whole run",
        );
    } else {
        let skipped = "skipped: a 256-frame 96x96 reply exceeds the 16 MiB EMWIRE1 frame bound";
        for name in [
            "net.encode_us",
            "net.decode_us",
            "net.req_bytes",
            "net.resp_bytes",
            "net.door_self_us",
            "net.frames_in",
            "net.frames_out",
        ] {
            out.set(name, 0.0, skipped);
        }
    }
    spans.extend(run.spans);
    stack.shutdown();

    for st in spans::self_times(&spans) {
        notes.push(format!(
            "span {:<14} n={:<6} p50 {:>10.2} us  self p50 {:>10.2} us",
            st.name, st.count, st.p50_us, st.self_p50_us
        ));
    }
    notes.push(format!("bitwise mismatches: {mismatches}"));
    Ok(Report {
        correct: mismatches == 0,
        attempted: score.tally.attempted,
        failed: score.tally.failed,
        metrics: out.into_metrics()?,
        spans,
        notes,
    })
}
