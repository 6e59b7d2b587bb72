//! Load generators: the pipelined open loop over one `EMWIRE1`
//! connection, the same open loop in process, and the closed loop of
//! `bulk_bigmap`. Each uses at most two threads.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use eigenmaps::core::ThermalMap;
use eigenmaps::net::{FrameBuffer, Request, Response, MAX_FRAME_BYTES};
use eigenmaps::serve::{ServeRequest, Server, StepTicket, Ticket, TrackerSession};

use crate::inputs::{digest, sq_err, Frames, DEPLOYMENT};
use crate::spans::{Recorder, Span};
use crate::stats::{Outcome, Schedule, Tally};
use crate::{host, Error};

/// How long the reader keeps waiting for replies after the last request
/// was due.
const GRACE: Duration = Duration::from_secs(10);

/// What one request produced, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// When the request was due (open loop) or submitted (closed loop).
    pub start: Instant,
    /// When its answer was decoded; `None` if it never came.
    pub done: Option<Instant>,
    /// Answered with full-fidelity maps of the right shape (not an error,
    /// shed, refused or degraded reply).
    pub ok: bool,
    /// A checked map differed from the reference.
    pub mismatch: bool,
    /// Digest of the single map of an open-loop reply.
    pub digest: u64,
    /// Maps in the reply.
    pub maps: u64,
    /// Squared error against ground truth over `checked_cells` cells.
    pub sq_err: f64,
    pub checked_cells: u64,
}

impl Reply {
    fn pending(start: Instant) -> Reply {
        Reply {
            start,
            done: None,
            ok: false,
            mismatch: false,
            digest: 0,
            maps: 0,
            sq_err: 0.0,
            checked_cells: 0,
        }
    }

    /// Records a served single map, scored against its ground truth.
    fn single(&mut self, done: Instant, map: &ThermalMap, truth: &ThermalMap) {
        self.done = Some(done);
        if map.rows() != truth.rows() || map.cols() != truth.cols() {
            self.mismatch = true;
            return;
        }
        self.ok = true;
        self.maps = 1;
        self.digest = digest(map.as_slice());
        self.sq_err = sq_err(map.as_slice(), truth);
        self.checked_cells = map.len() as u64;
    }
}

/// Everything a generator measured.
#[derive(Debug)]
pub struct Run {
    pub replies: Vec<Reply>,
    /// Open loop: how late each request was sent. Closed loop: the client's
    /// turnaround between a reply and its next submit.
    pub lags: Vec<Duration>,
    pub spans: Vec<Span>,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// Open loop: `(request index, process CPU ms)` when every
    /// [`CPU_BLOCK`]-th request was due, and once after the last.
    pub cpu_marks: Vec<(usize, f64)>,
}

/// Requests per CPU-time block of the open loop.
pub const CPU_BLOCK: usize = 1000;

/// The end-to-end view of a [`Run`].
#[derive(Debug, Clone, Default)]
pub struct Score {
    pub tally: Tally,
    pub mismatches: u64,
    pub maps_ok: u64,
    /// From the first due/submit to the last answer.
    pub window: Duration,
    pub sq_err: f64,
    pub checked_cells: u64,
}

impl Score {
    pub fn rmse(&self) -> f64 {
        (self.sq_err / self.checked_cells.max(1) as f64).sqrt()
    }

    pub fn maps_per_s(&self) -> f64 {
        self.maps_ok as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Scores replies: open-loop digests are compared against `reference`
/// here; a mismatch counts as a failure and is also reported on its own,
/// because it makes the run incorrect.
pub fn score(replies: &[Reply], reference: Option<&[u64]>, limit: Duration) -> Score {
    let mut s = Score::default();
    let Some(first) = replies.iter().map(|r| r.start).min() else {
        return s;
    };
    let mut last = first;
    for (i, r) in replies.iter().enumerate() {
        let mismatch = r.mismatch || (r.ok && reference.is_some_and(|d| d[i] != r.digest));
        s.mismatches += u64::from(mismatch);
        let outcome = match r.done {
            Some(done) if r.ok && !mismatch => {
                last = last.max(done);
                s.maps_ok += r.maps;
                s.sq_err += r.sq_err;
                s.checked_cells += r.checked_cells;
                Outcome::Ok(done.saturating_duration_since(r.start))
            }
            _ => Outcome::Failed,
        };
        s.tally.record(outcome, limit);
    }
    s.window = last - first;
    s
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Which request the pipelined generator sends.
#[derive(Debug, Clone, Copy)]
pub enum Call<'a> {
    /// Single-frame `SubmitBatch`.
    Batch,
    /// `StepSession`, round-robin over these session ids.
    Step(&'a [u64]),
}

/// Open loop over one pipelined connection: a pacing thread encodes and
/// writes request `i` when it is due; a reader thread decodes replies as
/// they arrive. Replies are matched to requests by correlation id.
pub fn pipelined(
    stream: &TcpStream,
    call: Call<'_>,
    frames: &Frames,
    test: &[ThermalMap],
    schedule: Schedule,
    trace: Option<Instant>,
) -> Result<Run, Error> {
    let n = frames.len();
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let (paced, read) = std::thread::scope(|scope| {
        let pacer = scope.spawn(move || -> Result<_, Error> {
            let mut rec = Recorder::new(trace);
            let mut lags = Vec::with_capacity(n);
            let mut bytes = 0u64;
            let mut cpu_marks = Vec::with_capacity(n / CPU_BLOCK + 2);
            for (i, readings) in frames.readings.iter().enumerate() {
                sleep_until(schedule.due(i));
                if i % CPU_BLOCK == 0 {
                    cpu_marks.push((i, host::cpu_ms()));
                }
                let request = match call {
                    Call::Batch => Request::SubmitBatch {
                        deployment: DEPLOYMENT.to_string(),
                        frames: vec![readings.clone()],
                    },
                    Call::Step(sessions) => Request::StepSession {
                        session: sessions[i % sessions.len()],
                        readings: readings.clone(),
                    },
                };
                let id = i as u64 + 1;
                let frame = rec.time("net.encode", Some("net.call"), id, || request.encode(id))?;
                bytes += frame.len() as u64;
                let sent = Instant::now();
                lags.push(schedule.lag(i, sent));
                writer.write_all(&frame)?;
            }
            cpu_marks.push((n, host::cpu_ms()));
            Ok((lags, rec.into_spans(), bytes, cpu_marks))
        });
        let reader = scope.spawn(move || -> Result<_, Error> {
            let read = read_replies(&mut reader, frames, test, schedule, trace);
            if read.is_err() {
                // Unblock a pacer stuck writing to a peer nobody reads.
                let _ = reader.shutdown(std::net::Shutdown::Both);
            }
            read
        });

        (
            pacer.join().expect("pacer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let (lags, mut spans, req_bytes, cpu_marks) = paced?;
    let (replies, read_spans, resp_bytes) = read?;
    spans.extend(read_spans);
    Ok(Run {
        replies,
        lags,
        spans,
        req_bytes,
        resp_bytes,
        cpu_marks,
    })
}

/// The reader half of [`pipelined`]: decodes replies until every request
/// is answered or the grace period after the last due time has passed.
fn read_replies(
    reader: &mut TcpStream,
    frames: &Frames,
    test: &[ThermalMap],
    schedule: Schedule,
    trace: Option<Instant>,
) -> Result<(Vec<Reply>, Vec<Span>, u64), Error> {
    let n = frames.len();
    let mut rec = Recorder::new(trace);
    let mut replies: Vec<Reply> = (0..n).map(|i| Reply::pending(schedule.due(i))).collect();
    let mut frames_buf = FrameBuffer::new(MAX_FRAME_BYTES);
    let mut chunk = vec![0u8; 64 * 1024];
    let give_up = schedule.due(n) + GRACE;
    let (mut answered, mut bytes) = (0usize, 0u64);
    while answered < n && Instant::now() < give_up {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => frames_buf.extend(&chunk[..k]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
        while let Some(record) = frames_buf.next_record() {
            let record = record?;
            bytes += record.len() as u64 + 4;
            let t0 = Instant::now();
            let (id, response) = Response::decode(&record).map_err(|f| f.error)?;
            let map = match response {
                Response::Batch {
                    mut maps,
                    degraded: false,
                    ..
                } if maps.len() == 1 => maps.pop().map(|m| m.into_map()).transpose()?,
                Response::Step {
                    map,
                    degraded: false,
                } => Some(map.into_map()?),
                _ => None,
            };
            let done = Instant::now();
            let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
                return Err(Error(format!("reply with unknown correlation id {id}")));
            };
            let reply = &mut replies[i];
            if reply.done.is_some() {
                return Err(Error(format!("second reply for request {id}")));
            }
            reply.done = Some(done);
            answered += 1;
            rec.record("net.decode", Some("net.call"), id, t0, done);
            rec.record("net.call", None, id, reply.start, done);
            if let Some(map) = map {
                reply.single(done, &map, &test[frames.truth[i]]);
            }
        }
    }
    Ok((replies, rec.into_spans(), bytes))
}

/// An in-process ticket of either kind.
enum Pending {
    Batch(Ticket),
    Step(StepTicket),
}

impl Pending {
    /// Parks the calling thread until the answer is ready, then takes it.
    /// Returns the maps, or `None` for an error or degraded answer.
    fn wait(self) -> Option<Vec<ThermalMap>> {
        let me = std::thread::current();
        match self {
            Pending::Batch(mut t) => {
                t.on_ready(move || me.unpark());
                while !t.is_ready() {
                    std::thread::park();
                }
                let degraded = t.is_degraded();
                t.try_wait()?.ok().filter(|_| !degraded)
            }
            Pending::Step(mut t) => {
                t.on_ready(move || me.unpark());
                while !t.is_ready() {
                    std::thread::park();
                }
                let degraded = t.is_degraded();
                t.try_wait()?.ok().filter(|_| !degraded).map(|m| vec![m])
            }
        }
    }
}

/// Which in-process call the open loop makes.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// `Server::try_submit` with one frame.
    Batch(&'a Server),
    /// `TrackerSession::submit_step`, round-robin over the sessions.
    Step(&'a [TrackerSession]),
}

/// The open loop of [`pipelined`] at in-process depth: a pacing thread
/// submits request `i` when due, a waiter thread takes answers in order.
pub fn in_process(
    target: Target<'_>,
    frames: &Frames,
    test: &[ThermalMap],
    schedule: Schedule,
    trace: Option<Instant>,
) -> Run {
    let n = frames.len();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<Pending>)>();
    let (paced, waited) = std::thread::scope(|scope| {
        let pacer = scope.spawn(move || {
            let mut rec = Recorder::new(trace);
            let mut lags = Vec::with_capacity(n);
            for (i, readings) in frames.readings.iter().enumerate() {
                sleep_until(schedule.due(i));
                let sent = Instant::now();
                lags.push(schedule.lag(i, sent));
                let pending = match target {
                    Target::Batch(server) => server
                        .try_submit(ServeRequest::new(DEPLOYMENT, vec![readings.clone()]))
                        .ok()
                        .map(Pending::Batch),
                    Target::Step(sessions) => sessions[i % sessions.len()]
                        .submit_step(readings)
                        .ok()
                        .map(Pending::Step),
                };
                rec.record(
                    "serve.submit",
                    Some("serve.call"),
                    i as u64 + 1,
                    sent,
                    Instant::now(),
                );
                if tx.send((i, sent, pending)).is_err() {
                    break;
                }
            }
            (lags, rec.into_spans())
        });
        let waiter = scope.spawn(move || {
            let mut rec = Recorder::new(trace);
            let mut replies: Vec<Reply> = (0..n).map(|i| Reply::pending(schedule.due(i))).collect();
            for (i, sent, pending) in rx {
                let maps = pending.and_then(Pending::wait);
                let done = Instant::now();
                let reply = &mut replies[i];
                reply.done = Some(done);
                rec.record("serve.call", None, i as u64 + 1, sent, done);
                if let Some([map]) = maps.as_deref() {
                    reply.single(done, map, &test[frames.truth[i]]);
                }
            }
            (replies, rec.into_spans())
        });
        (
            pacer.join().expect("pacer thread panicked"),
            waiter.join().expect("waiter thread panicked"),
        )
    });
    let (lags, mut spans) = paced;
    let (replies, wait_spans) = waited;
    spans.extend(wait_spans);
    Run {
        replies,
        lags,
        spans,
        req_bytes: 0,
        resp_bytes: 0,
        cpu_marks: Vec::new(),
    }
}

/// One request of the closed loop: its frames, each frame's ground-truth
/// map index and reference digest.
#[derive(Debug, Clone)]
pub struct BulkRequest {
    pub frames: Vec<Vec<f64>>,
    pub truth: Vec<usize>,
    pub digests: Vec<u64>,
}

/// Every `CHECK_STRIDE`-th frame of a bulk reply is checked bitwise and
/// scored against ground truth — a fixed, deterministic subsample that
/// keeps checking well below the cost of serving.
pub const CHECK_STRIDE: usize = 32;

/// Closed loop: `clients` threads each keep one `Server::submit` →
/// `Ticket` wait outstanding until `seconds` have passed. Client `c`
/// sends pool requests `c, c + clients, c + 2 * clients, …` (mod pool).
pub fn closed_loop(
    server: &Server,
    pool: &[BulkRequest],
    test: &[ThermalMap],
    clients: usize,
    seconds: Duration,
    trace: Option<Instant>,
) -> Run {
    let end = Instant::now() + seconds;
    let results: Vec<(Vec<Reply>, Vec<Duration>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(trace);
                    let (mut replies, mut lags) = (Vec::new(), Vec::new());
                    let mut prev_done: Option<Instant> = None;
                    let mut i = c;
                    while Instant::now() < end {
                        let request = &pool[i % pool.len()];
                        let id = i as u64 + 1;
                        i += clients;
                        let start = Instant::now();
                        if let Some(prev) = prev_done {
                            lags.push(start - prev);
                        }
                        let maps = server
                            .submit(ServeRequest::new(DEPLOYMENT, request.frames.clone()))
                            .ok()
                            .and_then(|t| Pending::Batch(t).wait());
                        let done = Instant::now();
                        prev_done = Some(done);
                        rec.record("serve.call", None, id, start, done);
                        let mut reply = Reply::pending(start);
                        reply.done = Some(done);
                        if let Some(maps) = maps.filter(|m| m.len() == request.frames.len()) {
                            reply.ok = true;
                            reply.maps = maps.len() as u64;
                            for f in (0..maps.len()).step_by(CHECK_STRIDE) {
                                let cells = maps[f].as_slice();
                                reply.mismatch |= digest(cells) != request.digests[f];
                                reply.sq_err += sq_err(cells, &test[request.truth[f]]);
                                reply.checked_cells += cells.len() as u64;
                            }
                        }
                        replies.push(reply);
                    }
                    (replies, lags, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = Run {
        replies: Vec::new(),
        lags: Vec::new(),
        spans: Vec::new(),
        req_bytes: 0,
        resp_bytes: 0,
        cpu_marks: Vec::new(),
    };
    for (replies, lags, spans) in results {
        run.replies.extend(replies);
        run.lags.extend(lags);
        run.spans.extend(spans);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            interval: Duration::from_millis(1),
        };
        let ms = |t: u64| start + Duration::from_millis(t);
        // Request 5 is due at +5 ms; the generator stalled and sent it at
        // +9 ms and the answer came at +10 ms: the client waited 5 ms, not 1.
        assert_eq!(schedule.lag(5, ms(9)), Duration::from_millis(4));
        let mut replies: Vec<Reply> = (0..6).map(|i| Reply::pending(schedule.due(i))).collect();
        for (i, r) in replies.iter_mut().enumerate() {
            let truth = ThermalMap::from_fn(2, 2, |_, _| 1.0);
            r.single(ms(if i == 5 { 10 } else { i as u64 }), &truth, &truth);
        }
        let score = score(&replies, None, Duration::from_millis(4));
        assert_eq!(score.tally.latencies_us[5], 5000.0);
        assert_eq!(score.tally.latencies_us[0], 0.0);
        // Late past the limit: a miss, though the map was correct.
        assert_eq!((score.tally.hits, score.tally.failed), (5, 0));
    }

    #[test]
    fn mismatches_and_missing_replies_are_failures() {
        let start = Instant::now();
        let map = ThermalMap::from_fn(2, 2, |r, c| (r + c) as f64);
        let mut replies: Vec<Reply> = (0..3).map(|_| Reply::pending(start)).collect();
        replies[0].single(start, &map, &map);
        replies[1].single(start, &map, &map);
        let good = digest(map.as_slice());
        let score = score(
            &replies,
            Some(&[good, good ^ 1, good]),
            Duration::from_secs(1),
        );
        assert_eq!(score.mismatches, 1);
        assert_eq!((score.tally.attempted, score.tally.failed), (3, 2));
        assert_eq!(score.tally.deadline_hit_ratio(), 1.0 / 3.0);
        assert_eq!(score.maps_ok, 1);
    }
}
