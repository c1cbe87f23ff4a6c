//! Socket-level mechanics over 127.0.0.1: handshake, version
//! negotiation, command flow, and the reconnect ladder. The full
//! cluster scenario (budget drop + dead node + ΔT compliance) lives in
//! the workspace-root `net_loopback` integration test.

use fvs_cluster::NodeSummary;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    encode, AgentConfig, CoordinatorConfig, CoordinatorServer, FrameReader, NodeAgent, WireMsg,
    CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::Telemetry;
use fvs_workloads::WorkloadSpec;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn cpu_bound_node(id: usize) -> fvs_cluster::ClusterNode {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(0.0, 1.0e18));
    }
    fvs_cluster::ClusterNode::new(id, b.build(), None)
}

/// How soon a woken coordinator must act: half its longest sleep
/// without a wake-up (the 500 ms read-deadline sweep).
const WOKEN_WITHIN: Duration = Duration::from_millis(250);

fn fast_agent() -> AgentConfig {
    AgentConfig::default_lan()
        .with_tick_s(0.01)
        .with_summary_every(2)
        .with_pace(Duration::from_millis(1))
        .with_backoff(Duration::from_millis(20), Duration::from_millis(100))
}

#[test]
fn agent_reports_and_receives_ceilings() {
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(0.02)
            .with_heartbeat_timeout_s(0.5)
            .with_initial_budget_w(f64::INFINITY),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let agent = NodeAgent::spawn(cpu_bound_node(0), addr, fast_agent()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let st = server.status();
        if st.nodes_reporting == 1 && st.rounds > 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let st = server.status();
    assert_eq!(st.nodes_reporting, 1, "agent never reported: {st:?}");
    assert_eq!(st.dead_nodes, 0);

    let report = agent.stop();
    assert!(report.summaries_sent > 0);
    assert!(
        report.ceilings_applied > 0,
        "no ceiling ever arrived: {report:?}"
    );
    assert!(!report.version_rejected);
    server.shutdown().unwrap();
}

#[test]
fn wrong_schema_version_is_refused_not_retried() {
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan().with_period_s(0.05),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let agent = NodeAgent::spawn(
        cpu_bound_node(0),
        addr,
        fast_agent().with_version(SCHEMA_VERSION + 1),
    )
    .unwrap();
    // The refusal is permanent, so the agent exits on its own.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !agent.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(agent.is_finished(), "refused agent should self-terminate");
    let report = agent.stop();
    assert!(report.version_rejected);
    assert_eq!(report.summaries_sent, 0);
    let st = server.shutdown().unwrap();
    assert_eq!(st.nodes_reporting, 0);
}

#[test]
fn agent_survives_a_coordinator_restart() {
    let config = CoordinatorConfig::default_lan()
        .with_period_s(0.02)
        .with_heartbeat_timeout_s(0.5);
    let server =
        CoordinatorServer::bind("127.0.0.1:0", 1, FvsstAlgorithm::p630(), config.clone()).unwrap();
    let addr = server.local_addr().to_string();
    let agent = NodeAgent::spawn(cpu_bound_node(0), addr.clone(), fast_agent()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.status().nodes_reporting < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.status().nodes_reporting, 1);
    // Kill the coordinator; the agent climbs its backoff ladder.
    drop(server);
    std::thread::sleep(Duration::from_millis(100));
    // Rebind the same port and wait for the agent to find us again.
    let server = CoordinatorServer::bind(&addr, 1, FvsstAlgorithm::p630(), config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.status().nodes_reporting < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.status().nodes_reporting,
        1,
        "agent never reconnected"
    );
    let report = agent.stop();
    assert!(report.reconnects >= 1, "ladder never climbed: {report:?}");
    server.shutdown().unwrap();
}

/// Read frames off a raw agent socket until one satisfies `want`, or
/// fail once `within` has passed.
fn await_frame(
    sock: &mut TcpStream,
    reader: &mut FrameReader,
    within: Duration,
    mut want: impl FnMut(&WireMsg) -> bool,
) -> WireMsg {
    let started = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(msg) = reader.next_frame().unwrap() {
            if want(&msg) {
                return msg;
            }
        }
        assert!(
            started.elapsed() < within,
            "no matching frame within {within:?}"
        );
        match sock.read(&mut buf) {
            Ok(0) => panic!("coordinator closed the connection"),
            Ok(n) => reader.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// With a 30 s period no round is due during the test, so every ceiling
/// and the shutdown itself must come from waking the event loop, not
/// from a timeout running out. The loop still wakes for its read-deadline
/// sweep, at most 500 ms apart, so each wait is bounded well below that:
/// a ceiling or a shutdown that waited for the sweep fails the test.
#[test]
fn budget_change_and_shutdown_wake_an_idle_coordinator() {
    let alg = FvsstAlgorithm::p630();
    let f_min = alg.freq_set.min();
    let procs = 4;
    let floor_w = procs as f64 * alg.power_table.power_interpolated(f_min) + 0.5;
    let telemetry = Telemetry::memory(256);
    let frames_parsed = telemetry
        .registry()
        .expect("memory telemetry has a registry")
        .scoped("net")
        .counter("frames_rx");
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        alg,
        CoordinatorConfig::default_lan()
            .with_period_s(30.0)
            .with_heartbeat_timeout_s(30.0)
            .with_telemetry(telemetry),
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut reader = FrameReader::new();
    let hello = WireMsg::Hello {
        node: 0,
        procs,
        version: SCHEMA_VERSION,
        last_epoch: 0,
        codecs: CODEC_ALL,
    };
    sock.write_all(&encode(&hello).unwrap()).unwrap();
    await_frame(&mut sock, &mut reader, Duration::from_secs(1), |m| {
        matches!(m, WireMsg::HelloAck { accepted: true, .. })
    });
    // CPU-bound processors: unconstrained, every one wants f_max.
    let summary = NodeSummary {
        node: 0,
        sent_at_s: 0.0,
        models: vec![Some(CpiModel::from_components(1.0, 0.0)); procs],
        idle: vec![false; procs],
        current: vec![FreqMhz(1000); procs],
        power_w: 140.0 * procs as f64,
    };
    sock.write_all(&encode(&WireMsg::Summary(summary)).unwrap())
        .unwrap();
    // The summary must be ingested before the budget change runs its
    // round: wait until the event loop has parsed the hello and it.
    let deadline = Instant::now() + Duration::from_secs(1);
    while frames_parsed.get() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(frames_parsed.get(), 2);

    // The floor budget fits only with every processor at f_min; a
    // loose one lets none of them sit there.
    let steps: [(f64, bool); 2] = [(floor_w, true), (f64::INFINITY, false)];
    for (budget, at_floor) in steps {
        server.set_budget(budget);
        let reply = await_frame(&mut sock, &mut reader, WOKEN_WITHIN, |m| match m {
            WireMsg::Ceiling(cmd) => cmd.freqs.iter().all(|f| (*f == f_min) == at_floor),
            _ => false,
        });
        let WireMsg::Ceiling(cmd) = reply else {
            unreachable!()
        };
        assert_eq!(cmd.freqs.len(), procs);
    }

    let stopping = Instant::now();
    server.shutdown().unwrap();
    let took = stopping.elapsed();
    assert!(took < WOKEN_WITHIN, "shutdown took {took:?}");
}
