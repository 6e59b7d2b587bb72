//! End-to-end loopback tests for the `EMWIRE1` TCP edge: bitwise parity
//! with the in-process path, durable sessions across a server restart,
//! hostile-bytes robustness, mid-flight disconnects, and the wire
//! metrics surface.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eigenmaps_core::prelude::*;
use eigenmaps_net::prelude::*;
use eigenmaps_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two tenants with distinct bases (a cross-tenant mixup would change
/// answers), plus per-tenant request frames and raw artifact bytes.
struct Fleet {
    registry: Arc<DeploymentRegistry>,
    names: [&'static str; 2],
    deployments: [Arc<Deployment>; 2],
    frames: [Vec<Vec<f64>>; 2],
    artifacts: [Vec<u8>; 2],
}

fn fleet() -> Fleet {
    let names = ["sku-a", "sku-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    let mut deployments = Vec::new();
    let mut frames = Vec::new();
    let mut artifacts = Vec::new();
    for (idx, name) in names.iter().enumerate() {
        let maps: Vec<ThermalMap> = (0..48)
            .map(|t| {
                let a = (t as f64 / (4.0 + idx as f64)).sin();
                let b = (t as f64 / 3.3).cos();
                ThermalMap::from_fn(8, 7, |r, c| 48.0 + a * (r + idx * c) as f64 - b * c as f64)
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 + idx })
            .sensors(5 + idx)
            .design()
            .unwrap();
        registry.publish(name, deployment.clone());
        let tenant_frames: Vec<Vec<f64>> = (0..16)
            .map(|t| {
                let mut readings = deployment.sensors().sample(&ens.map(t));
                for (i, x) in readings.iter_mut().enumerate() {
                    *x += ((t * 17 + i * 5) as f64 * 0.41).sin() * 0.05;
                }
                readings
            })
            .collect();
        artifacts.push(deployment.to_bytes());
        deployments.push(Arc::new(deployment));
        frames.push(tenant_frames);
    }
    Fleet {
        registry,
        names,
        deployments: [Arc::clone(&deployments[0]), Arc::clone(&deployments[1])],
        frames: [frames.remove(0), frames.remove(0)],
        artifacts: [artifacts.remove(0), artifacts.remove(0)],
    }
}

/// Binds a door for `server` and runs its loop on a helper thread.
fn spawn_door(server: Arc<Server>) -> (SocketAddr, DoorHandle, JoinHandle<()>) {
    spawn_door_with(server, NetConfig::default())
}

fn spawn_door_with(
    server: Arc<Server>,
    config: NetConfig,
) -> (SocketAddr, DoorHandle, JoinHandle<()>) {
    let door = NetServer::bind_with("127.0.0.1:0", server, config).expect("bind loopback");
    let addr = door.local_addr();
    let handle = door.handle();
    let join = std::thread::spawn(move || door.run());
    (addr, handle, join)
}

fn assert_bitwise(got: &ThermalMap, want: &ThermalMap, context: &str) {
    assert_eq!(got.rows(), want.rows(), "{context}: rows");
    assert_eq!(got.cols(), want.cols(), "{context}: cols");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: cell {i} differs ({g} vs {w})"
        );
    }
}

#[test]
fn batch_over_tcp_is_bitwise_identical_to_in_process() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    let mut client = Client::connect(addr).expect("connect");
    for tenant in 0..2 {
        let truth = fleet.deployments[tenant]
            .reconstruct_batch(&fleet.frames[tenant])
            .unwrap();
        let in_process = {
            let mut ticket = None;
            let t = server
                .try_submit(ServeRequest::new(
                    fleet.names[tenant],
                    fleet.frames[tenant].clone(),
                ))
                .unwrap();
            ticket.replace(t);
            ticket.take().unwrap().wait().unwrap()
        };
        let reply = client
            .submit_batch(fleet.names[tenant], fleet.frames[tenant].clone())
            .expect("batch over TCP");
        assert_eq!(reply.version, 1);
        assert!(!reply.degraded, "no brownout: full fidelity");
        let over_wire = reply.maps;
        assert_eq!(over_wire.len(), truth.len());
        for (i, map) in over_wire.iter().enumerate() {
            assert_bitwise(map, &truth[i], "wire vs sequential truth");
            assert_bitwise(map, &in_process[i], "wire vs in-process server");
        }
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn publish_and_catalog_travel_the_wire() {
    let fleet = fleet();
    // Fresh empty registry: everything arrives over the socket.
    let registry = Arc::new(DeploymentRegistry::new());
    let server = Arc::new(Server::new(Arc::clone(&registry), 1));
    let (addr, handle, join) = spawn_door(server);

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.catalog().unwrap().is_empty());
    let v = client
        .publish(fleet.names[0], fleet.artifacts[0].clone())
        .expect("publish over TCP");
    assert_eq!(v, 1);
    let v2 = client
        .publish(fleet.names[0], fleet.artifacts[0].clone())
        .unwrap();
    assert_eq!(v2, 2);
    let catalog = client.catalog().unwrap();
    assert_eq!(catalog, vec![(fleet.names[0].to_string(), vec![1, 2])]);

    // Garbage artifact bytes are a typed, non-retryable refusal.
    let err = client.publish("junk", vec![0xAB; 40]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::BadRequest),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert!(!err.is_retryable());

    // And the batch served against the published artifact matches the
    // local reconstruction bit for bit.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap()
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-publish batch");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn session_survives_snapshot_server_restart_and_resume_over_the_wire() {
    let fleet = fleet();
    let gain = 0.8;
    // Inline reference tracker: the bitwise ground truth for every step.
    let mut reference = TrackerSession::open(&fleet.registry, fleet.names[0], gain).unwrap();

    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");

    let info = client.open_session(fleet.names[0], gain).expect("open");
    assert_eq!(info.version, 1);
    assert_eq!(info.frames, 0);
    for readings in &fleet.frames[0][..8] {
        let want = reference.step(readings).unwrap();
        let got = client.step(info.session, readings.clone()).expect("step");
        assert_bitwise(&got, &want, "pre-restart step");
    }
    let snapshot = client.snapshot(info.session).expect("snapshot");
    client.close_session(info.session).expect("close");
    handle.shutdown();
    join.join().unwrap();

    // "Restart": a brand-new registry and server process, republished
    // from the same artifact bytes, behind a brand-new door.
    let registry = Arc::new(DeploymentRegistry::new());
    registry
        .publish_bytes(fleet.names[0], &fleet.artifacts[0])
        .unwrap();
    let server = Arc::new(Server::new(Arc::clone(&registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("reconnect");

    let resumed = client.resume(snapshot).expect("resume over TCP");
    assert_eq!(resumed.frames, 8, "resumed session remembers its frames");
    for readings in &fleet.frames[0][8..] {
        let want = reference.step(readings).unwrap();
        let got = client
            .step(resumed.session, readings.clone())
            .expect("step");
        assert_bitwise(&got, &want, "post-restart step");
    }
    client.close_session(resumed.session).unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn non_finite_readings_are_bad_requests_and_the_connection_keeps_serving() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");
    let expect_bad_request = |err: NetError| match &err {
        NetError::Server { status, message } => {
            assert_eq!(*status, WireStatus::BadRequest);
            assert!(message.contains("sensor 1"), "got: {message}");
            assert!(!err.is_retryable());
        }
        other => panic!("expected a server error, got {other:?}"),
    };

    // A batch carrying one NaN among clean frames is refused as a whole...
    let mut poisoned = fleet.frames[0].clone();
    poisoned[3][1] = f64::NAN;
    expect_bad_request(
        client
            .submit_batch(fleet.names[0], poisoned)
            .expect_err("NaN reading must be refused"),
    );
    // ...and the next request on the same connection is served bitwise.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("clean batch after a refusal")
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "batch after refusal");
    }

    // A session step with an infinite reading is refused without touching
    // the session: the stream continues bitwise-equal to a reference that
    // never saw it.
    let mut reference = TrackerSession::open(&fleet.registry, fleet.names[0], 0.6).unwrap();
    let info = client.open_session(fleet.names[0], 0.6).expect("open");
    for (t, readings) in fleet.frames[0][..6].iter().enumerate() {
        if t == 3 {
            let mut bad = readings.clone();
            bad[1] = f64::INFINITY;
            expect_bad_request(client.step(info.session, bad).expect_err("inf refused"));
        }
        let want = reference.step(readings).unwrap();
        let got = client.step(info.session, readings.clone()).expect("step");
        assert_bitwise(&got, &want, "step after refusal");
    }
    client.close_session(info.session).unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn corrupt_and_oversized_frames_reject_without_tearing_down_the_connection() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let config = NetConfig {
        max_frame_bytes: 64 * 1024,
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    // Raw socket: speak the protocol by hand so we can lie on purpose.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let read_reply = |raw: &mut TcpStream, frames: &mut FrameBuffer| -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(outcome) = frames.next_record() {
                let record = outcome.expect("reply frames are well-formed");
                return Response::decode(&record).expect("reply decodes");
            }
            let n = raw.read(&mut chunk).expect("read reply");
            assert_ne!(n, 0, "door must not close the connection");
            frames.extend(&chunk[..n]);
        }
    };

    // 1. A corrupt frame: valid length, flipped payload bit.
    let mut frame = Request::Catalog.encode(11).expect("encodes");
    frame[9] ^= 0x10;
    raw.write_all(&frame).unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 0, "corrupt ids are untrusted");
    match reply {
        Response::Error { status, .. } => assert_eq!(status, WireStatus::BadFrame),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // 2. An oversized frame: length prefix over the 64 KiB bound, body
    //    streamed in chunks.
    let len: u32 = 256 * 1024;
    raw.write_all(&len.to_le_bytes()).unwrap();
    for _ in 0..64 {
        raw.write_all(&[0x5A; 4096]).unwrap();
    }
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 0);
    match reply {
        Response::Error { status, message } => {
            assert_eq!(status, WireStatus::BadFrame);
            assert!(message.contains("oversized"), "got: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // 3. A malformed body with a valid envelope: the id survives.
    let bogus = Response::Closed.encode(23).expect("encodes"); // wrong-direction kind
    raw.write_all(&bogus).unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 23, "checksummed ids are echoed");
    assert!(matches!(reply, Response::Error { .. }));

    // 4. The same connection still serves real traffic afterwards.
    raw.write_all(&Request::Catalog.encode(99).expect("encodes"))
        .unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 99);
    match reply {
        Response::Catalog { entries } => assert_eq!(entries.len(), 2),
        other => panic!("expected the catalog, got {other:?}"),
    }

    // The wire gauges saw each rejection class.
    let snap = server.metrics();
    assert!(snap.wire.errors_corrupt >= 1);
    assert!(snap.wire.errors_oversized >= 1);
    assert!(snap.wire.errors_unknown_kind >= 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn disconnect_with_inflight_responses_never_wedges_the_batcher() {
    let fleet = fleet();
    // A long flush delay so the abandoning client can vanish while its
    // responses are still in flight.
    let policy = BatchPolicy {
        max_batch_frames: 64,
        max_batch_requests: 8,
        max_delay: Duration::from_millis(20),
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    for round in 0..6 {
        let mut doomed = TcpStream::connect(addr).expect("connect");
        // Several submissions, replies never read; kill the socket while
        // the batcher still owes the responses.
        for i in 0..4u64 {
            let request = Request::SubmitBatch {
                deployment: fleet.names[round % 2].to_string(),
                frames: fleet.frames[round % 2].clone(),
            };
            doomed
                .write_all(&request.encode(i + 1).expect("encodes"))
                .unwrap();
        }
        doomed.flush().unwrap();
        drop(doomed);
    }

    // A well-behaved client still gets bitwise-correct answers — the
    // batcher survived every abandoned responder.
    let mut client = Client::connect(addr).expect("connect");
    for tenant in 0..2 {
        let truth = fleet.deployments[tenant]
            .reconstruct_batch(&fleet.frames[tenant])
            .unwrap();
        let maps = client
            .submit_batch(fleet.names[tenant], fleet.frames[tenant].clone())
            .expect("post-churn batch")
            .maps;
        for (i, map) in maps.iter().enumerate() {
            assert_bitwise(map, &truth[i], "post-churn");
        }
    }

    // Abandoned connections are reaped: only the live client remains
    // (poll briefly — teardown happens on the loop's next pass).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let open = server.metrics().wire.connections_open;
        if open == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected 1 open connection, still {open}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn half_closed_client_still_gets_every_reply() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    // Send three requests, then shut down the write side: the peer is
    // done talking but still reading.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for id in 1..=3u64 {
        let request = Request::SubmitBatch {
            deployment: fleet.names[0].to_string(),
            frames: vec![fleet.frames[0][id as usize].clone()],
        };
        raw.write_all(&request.encode(id).expect("encodes"))
            .unwrap();
    }
    raw.shutdown(std::net::Shutdown::Write).unwrap();

    // Every reply arrives, then the door closes its side.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let mut chunk = [0u8; 4096];
    loop {
        let n = raw.read(&mut chunk).expect("read until the door closes");
        if n == 0 {
            break;
        }
        frames.extend(&chunk[..n]);
    }
    let mut replied = Vec::new();
    while let Some(record) = frames.next_record() {
        let (id, reply) = Response::decode(&record.expect("well-formed")).expect("decodes");
        match reply {
            Response::Batch { maps, .. } => {
                let map = maps
                    .into_iter()
                    .next()
                    .expect("one map")
                    .into_map()
                    .unwrap();
                assert_bitwise(&map, &truth[id as usize], "half-close");
            }
            other => panic!("expected a batch reply, got {other:?}"),
        }
        replied.push(id);
    }
    replied.sort_unstable();
    assert_eq!(replied, vec![1, 2, 3], "replies owed to a half-closed peer");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_snapshot_travels_the_wire() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(server);

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap();
    let metrics = client.metrics().expect("metrics over TCP");
    assert_eq!(metrics.requests, 1);
    assert_eq!(metrics.frames, fleet.frames[0].len() as u64);
    assert_eq!(metrics.wire.connections_open, 1);
    assert!(metrics.wire.max_connections_open >= 1);
    // The metrics request itself was frame 2 in; its reply is not yet
    // counted in what it reports, so only lower-bound the counters.
    assert!(metrics.wire.frames_in >= 2);
    assert!(metrics.wire.frames_out >= 1);
    assert!(metrics.wire.bytes_in > 0);
    assert!(metrics.wire.bytes_out > 0);
    assert_eq!(metrics.wire.errors_total(), 0);

    handle.shutdown();
    join.join().unwrap();
}

/// Tentpole acceptance: a trace fetched over TCP shows every lifecycle
/// stage of a batch request — admitted, enqueued, coalesced, shard
/// dispatch, kernel completion, response — with monotone timestamps,
/// plus the session-step lifecycle and the slow-request exemplars.
#[test]
fn flight_recorder_trace_travels_the_wire_with_full_lifecycle() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    let mut client = Client::connect(addr).expect("connect");
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("batch")
        .maps;
    assert_eq!(maps.len(), fleet.frames[0].len());
    let info = client.open_session(fleet.names[1], 0.7).expect("open");
    client
        .step(info.session, fleet.frames[1][0].clone())
        .expect("step");

    let trace = client.trace().expect("trace over TCP");
    assert!(trace.written >= 1, "the ring saw events");
    assert_eq!(trace.dropped, 0, "a near-empty ring drops nothing");

    // Ring events arrive oldest-first; per trace id that is emission
    // order, i.e. lifecycle order.
    let mut per_trace: std::collections::HashMap<u64, Vec<&WireTraceEvent>> =
        std::collections::HashMap::new();
    for event in &trace.events {
        per_trace.entry(event.trace).or_default().push(event);
    }

    // The batch request (the only trace with a Coalesced stage, code 2):
    // every stage present, in order, timestamps monotone.
    let batch = per_trace
        .values()
        .find(|events| events.iter().any(|e| e.stage == 2))
        .expect("the batch trace is in the ring");
    assert_eq!(batch[0].tenant, fleet.names[0]);
    let stages: Vec<u8> = batch.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![0, 1, 2, 3, 4, 5],
        "admitted → enqueued → coalesced → dispatched → kernel-done → responded"
    );
    let coalesced = batch.iter().find(|e| e.stage == 2).unwrap();
    assert_eq!(coalesced.arg, 1, "one request in the coalesced batch");
    assert!(
        batch.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "timestamps are monotone within the trace"
    );

    // The session step: same lifecycle minus coalescing.
    let step = per_trace
        .values()
        .find(|events| events[0].tenant == fleet.names[1])
        .expect("the step trace is in the ring");
    let stages: Vec<u8> = step.iter().map(|e| e.stage).collect();
    assert_eq!(stages, vec![0, 1, 3, 4, 5]);
    assert!(step.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

    // Per-tenant exemplars: the completed batch request is the worst
    // (only) trace for its tenant, with the full six-stage timeline.
    let tenant = trace
        .tenants
        .iter()
        .find(|t| t.tenant == fleet.names[0])
        .expect("tenant entry for the batch tenant");
    let exemplar = tenant.exemplars.first().expect("slow-request exemplar");
    assert!(exemplar.total_ns > 0);
    assert_eq!(exemplar.stages.len(), 6);
    assert!(exemplar.stages.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

    // The extended metrics reply carries the raw histograms and the
    // (still-zero) per-reason reap counters.
    let metrics = client.metrics().expect("metrics over TCP");
    assert!(metrics.latency_buckets.count >= 1);
    assert_eq!(
        metrics.latency_buckets.buckets.iter().sum::<u64>(),
        metrics.latency_buckets.count,
        "bucket counts add up"
    );
    assert!(metrics.session_latency_buckets.count >= 1);
    assert_eq!(metrics.wire.reaped_idle, 0);
    assert_eq!(metrics.wire.reaped_slow_client, 0);
    assert_eq!(metrics.wire.reaped_drain, 0);

    // Shutting down with this client still connected is a drain reap,
    // metered under its own reason.
    handle.shutdown();
    join.join().unwrap();
    assert_eq!(server.metrics().wire.reaped_drain, 1);
    assert_eq!(server.metrics().wire.reaped_idle, 0);
}

#[test]
fn unknown_names_and_sessions_map_to_typed_statuses() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");

    let err = client.submit_batch("nope", vec![vec![0.0; 5]]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::UnknownDeployment),
        other => panic!("unexpected error: {other:?}"),
    }
    assert!(!err.is_retryable());

    let err = client.step(42, vec![0.0; 5]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::UnknownSession),
        other => panic!("unexpected error: {other:?}"),
    }
    let err = client.snapshot(42).unwrap_err();
    assert!(matches!(
        err,
        NetError::Server {
            status: WireStatus::UnknownSession,
            ..
        }
    ));

    // Wrong-shaped readings on a real session: a typed request error,
    // and the session stays usable.
    let info = client.open_session(fleet.names[0], 0.5).unwrap();
    let err = client.step(info.session, vec![1.0]).unwrap_err();
    assert!(matches!(err, NetError::Server { .. }));
    let got = client
        .step(info.session, fleet.frames[0][0].clone())
        .expect("session survives a bad step");
    assert_eq!(got.rows(), 8);

    handle.shutdown();
    join.join().unwrap();
}

/// Satellite: seeded malformed-bytes fuzzing against the live event
/// loop. Random garbage, random mutations of valid frames, random
/// split points — the door must answer real traffic afterwards and
/// never panic. `EIGENMAPS_STRESS=1` widens the sweep.
#[test]
fn malformed_byte_fuzzing_never_kills_the_event_loop() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let config = NetConfig {
        max_frame_bytes: 256 * 1024,
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    let seeds: u64 = if std::env::var("EIGENMAPS_STRESS").is_ok_and(|v| v == "1") {
        48
    } else {
        8
    };
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x57EED ^ seed);
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        for _ in 0..24 {
            let payload: Vec<u8> = match rng.gen_range(0..3u32) {
                // Pure garbage with a small bounded length prefix.
                0 => {
                    let len = rng.gen_range(0..512u64) as u32;
                    let mut bytes = len.to_le_bytes().to_vec();
                    bytes.extend((0..len).map(|_| rng.next_u64() as u8));
                    bytes
                }
                // A valid frame with random mutations.
                1 => {
                    let mut bytes = Request::SubmitBatch {
                        deployment: fleet.names[0].to_string(),
                        frames: fleet.frames[0][..2].to_vec(),
                    }
                    .encode(rng.next_u64())
                    .expect("encodes");
                    for _ in 0..rng.gen_range(1..6u32) {
                        let at = rng.gen_range(0..bytes.len() as u64) as usize;
                        bytes[at] ^= rng.next_u64() as u8;
                    }
                    bytes
                }
                // Raw noise, no framing discipline at all.
                _ => (0..rng.gen_range(1..256u64))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
            };
            // Random split points exercise partial-frame reassembly.
            let split = rng.gen_range(0..(payload.len() as u64 + 1)) as usize;
            if raw.write_all(&payload[..split]).is_err() {
                break;
            }
            if raw.write_all(&payload[split..]).is_err() {
                break;
            }
            // Drain whatever error replies came back so the door's write
            // buffer never becomes the bottleneck.
            let mut sink = [0u8; 8192];
            let _ = raw.read(&mut sink);
        }
        drop(raw);
    }

    // The loop is alive and correct: a fresh client round-trips a batch
    // bitwise.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let mut client = Client::connect(addr).expect("connect after fuzzing");
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("door survived the fuzz")
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-fuzz batch");
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Tentpole acceptance at the network edge: a shed request surfaces as a
/// retryable `DeadlineShed` status, a brownout batch arrives flagged
/// degraded and bitwise-equal to the truncated-basis reconstruction, and
/// the QoS counters travel in the metrics reply.
#[test]
fn shed_and_degraded_serving_surface_over_the_wire() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let mut client = Client::connect(addr).expect("connect");

    // Phase 1 — shedding. A zero deadline with budgets that never flush:
    // the scheduler's next tick sheds the queued request before any
    // batch forms.
    server
        .set_tenant_policy(
            fleet.names[0],
            Some(BatchPolicy {
                max_batch_frames: 4096,
                max_batch_requests: 1024,
                max_delay: Duration::from_secs(60),
                deadline: Some(Duration::ZERO),
                overrun: OverrunAction::Shed,
                ..BatchPolicy::default()
            }),
        )
        .unwrap();
    let err = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap_err();
    match &err {
        NetError::Server { status, message } => {
            assert_eq!(*status, WireStatus::DeadlineShed);
            assert!(message.contains("shed"), "got: {message}");
        }
        other => panic!("expected a shed server error, got {other:?}"),
    }
    assert!(err.is_retryable(), "shed requests invite a retry");

    // Phase 2 — brownout degraded serving. A Degrade tier plus a
    // watermark any pending frame crosses: the next batch is served from
    // the keep-1 truncated deployment and flagged.
    server
        .set_tenant_policy(
            fleet.names[0],
            Some(BatchPolicy {
                deadline: Some(Duration::from_secs(60)),
                overrun: OverrunAction::Degrade { keep_k: 1 },
                ..BatchPolicy::default()
            }),
        )
        .unwrap();
    server
        .set_brownout(Some(BrownoutPolicy {
            enter_above: 1,
            exit_below: 0,
        }))
        .unwrap();
    let reply = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("brownout serves, not sheds");
    assert!(reply.degraded, "brownout batches are flagged");
    let truncated = fleet.deployments[0]
        .truncated(1)
        .expect("keep-1 truncation")
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    for (i, map) in reply.maps.iter().enumerate() {
        assert_bitwise(map, &truncated[i], "wire vs truncated reconstruction");
    }

    // Phase 3 — the QoS ledger travels the wire.
    let metrics = client.metrics().expect("metrics over TCP");
    assert_eq!(metrics.shed, 1, "one request shed");
    assert_eq!(metrics.degraded, 1, "one request served degraded");
    assert_eq!(metrics.brownout, 1, "still in brownout at snapshot time");
    assert!(metrics.brownout_entries >= 1);
    assert_eq!(
        metrics.requests,
        metrics.errors + 1,
        "the shed ticket completed as a typed error; the degraded one served"
    );

    // Clearing the policy exits brownout: the next batch is exact again.
    server.set_brownout(None).unwrap();
    let reply = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("post-brownout batch");
    assert!(!reply.degraded, "brownout cleared: full fidelity");
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    for (i, map) in reply.maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-brownout exact batch");
    }

    handle.shutdown();
    join.join().unwrap();
}
