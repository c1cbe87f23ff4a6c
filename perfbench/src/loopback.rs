//! `loopback-quiet` and `loopback-burst`: budget-reaction latency over
//! real sockets.
//!
//! A real `CoordinatorServer` listens on 127.0.0.1 with its default
//! 100 ms period. One benchmark thread drives two agent connections,
//! each a `ClusterNode` speaking hello / summary / ceiling over a
//! `Transport` at the agent's default cadence (10 ms ticks, a summary
//! every 10 ticks). The same thread alternates the budget between a
//! loose value and the f_min floor. Every processor's ceiling differs
//! between the two (all above f_min, or all at f_min), so each reply is
//! matched to its budget by content. One operation is one budget
//! change, timed until the nodes have applied the matching ceiling.
//!
//! In `loopback-burst`, node 1 first writes a backlog of summaries in
//! one burst: half the fleet agent's 1 MiB outbound cap. Node 0 is well
//! behaved, and the reaction is timed on node 0.

use crate::checks::{check_ceiling, check_round_trip};
use crate::report::{beyond, median, quantile, Metric, Outcome};
use crate::sys::{peak_rss_mb, thread_count, thread_cpu_ns, thread_named, SplitMix64};
use crate::trace::Recorder;
use fvs_cluster::ClusterNode;
use fvs_model::{FreqMhz, FrequencySet};
use fvs_net::{
    encode_with, ChaosStream, CoordinatorConfig, CoordinatorServer, FillStatus, Reactor, Transport,
    WireCodec, WireMsg, CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::{Counter, Telemetry, Tracer};
use fvs_workloads::WorkloadSpec;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 2;
const PROCS: usize = 4;
/// CPU-intensity classes of the agents' cores. The budget toggles far
/// faster than the 100 ms measurement window, so a window's counters mix
/// both ceilings; a core with a sizeable memory component then fits a
/// model that can want f_min even on the loose budget, and the two
/// replies would no longer differ on every processor. CPU-bound cores
/// keep wanting a high frequency whatever the window held.
const INTENSITIES: [f64; 2] = [80.0, 100.0];
/// The agent's default cadence.
const TICK: Duration = Duration::from_millis(10);
const SUMMARY_EVERY: u64 = 10;
/// The paper's ΔT: a reaction slower than this counts as failed.
const DELTA_T: Duration = Duration::from_secs(1);
/// Give up waiting for a matching ceiling after this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// The fleet agent's outbound cap (`MAX_QUEUED_BYTES` in
/// `fvs-net/src/fleet.rs`); a burst is half of it.
const AGENT_OUTBOUND_CAP: usize = 1 << 20;
/// Idle time between operations, drawn uniformly (in µs) from this range
/// so a budget change lands at a random phase of the coordinator's loop.
/// Behind a burst the write itself already randomizes the phase, and a
/// shorter dwell fits 1000+ reactions into one run.
const DWELL_MS: (u64, u64) = (2, 12);
const BURST_DWELL_MS: (u64, u64) = (0, 2);
/// Every `SAMPLE_EVERY`-th regular summary is also checked to decode
/// equal to what was encoded.
const SAMPLE_EVERY: u64 = 4;
/// Times the set-up is repeated (the median is reported).
const SETUPS: usize = 5;
/// Untimed reactions at the end of each set-up.
const WARMUP_OPS: u64 = 10;

/// Sizes and pacing of one loopback run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Write a backlog on node 1 before every budget change.
    pub burst: bool,
    /// Measured wall time.
    pub seconds: f64,
    /// Stop after this many timed reactions even if time remains.
    pub max_ops: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Config {
    /// The full-size workload.
    pub fn full(seed: u64, burst: bool, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            burst,
            seconds,
            max_ops: u64::MAX,
            trace,
        }
    }
}

/// Which budget a ceiling answers, read from its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Every processor at f_min.
    Floor,
    /// No processor at f_min.
    Loose,
}

fn classify(freqs: &[FreqMhz], f_min: FreqMhz) -> Option<Class> {
    if freqs.iter().all(|f| *f == f_min) {
        Some(Class::Floor)
    } else if freqs.iter().all(|f| *f != f_min) {
        Some(Class::Loose)
    } else {
        None
    }
}

struct Agent {
    node: ClusterNode,
    token: u64,
    /// A second handle on the agent's socket, for writing a burst as
    /// one buffer (the transport writes frame by frame).
    raw: TcpStream,
    acked: bool,
    ticks: u64,
    next_tick: Instant,
    /// When a ceiling of the awaited class was first decoded, and when
    /// it was applied, in the current operation.
    received_at: Option<Instant>,
    matched_at: Option<Instant>,
    summaries: u64,
}

/// Layer samples collected while an operation is traced.
#[derive(Default)]
struct Samples {
    fill_us: Vec<f64>,
    decode_ceiling_ns: Vec<f64>,
    apply_us: Vec<f64>,
    tick_us: Vec<f64>,
    summarize_us: Vec<f64>,
    decode_summary_ns: Vec<f64>,
    encode_ceiling_ns: Vec<f64>,
    burst_write_ms: Vec<f64>,
}

struct Session {
    server: CoordinatorServer,
    coordinator_tid: Option<String>,
    reactor: Reactor<usize>,
    agents: Vec<Agent>,
    freq_set: FrequencySet,
    loose_w: f64,
    floor_w: f64,
    awaiting: Option<Class>,
    /// Current operation id and the span the agent-side work of a
    /// traced operation hangs under (0 = not traced).
    op: u64,
    parent: u32,
    ceilings: u64,
    freqs_rx: u64,
    /// Frames written to the coordinator (hellos and summaries), and the
    /// coordinator's own count of frames it has parsed.
    frames_sent: u64,
    frames_parsed: Arc<Counter>,
    failures: Vec<String>,
    /// Set when the current operation saw an unmatched or undecodable
    /// ceiling.
    op_bad: bool,
    samples: Samples,
    burst_buf: Vec<u8>,
}

fn build_node(id: usize, rng: &mut SplitMix64) -> ClusterNode {
    let mut b = MachineBuilder::p630();
    for core in 0..PROCS {
        let c = INTENSITIES[rng.below(INTENSITIES.len() as u64) as usize];
        b = b.workload(core, WorkloadSpec::synthetic(c, 1.0e18));
    }
    ClusterNode::new(id, b.build(), None)
}

fn elapsed_ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

impl Session {
    /// Bind a coordinator, connect both agents, and complete the
    /// handshake.
    fn connect(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let alg = FvsstAlgorithm::p630();
        let freq_set = alg.freq_set.clone();
        let f_min = freq_set.min();
        let loose_w = (NODES * PROCS) as f64 * alg.power_table.power_interpolated(freq_set.max());
        // Half a watt above the floor: feasible only with every
        // processor at f_min.
        let floor_w = (NODES * PROCS) as f64 * alg.power_table.power_interpolated(f_min) + 0.5;
        // A metrics registry on the server exposes its `net.frames_rx`
        // counter: how many frames the event loop has parsed.
        let telemetry = Telemetry::memory(256);
        let server = CoordinatorServer::bind(
            "127.0.0.1:0",
            NODES,
            alg,
            CoordinatorConfig::default_lan()
                .with_initial_budget_w(loose_w)
                .with_telemetry(telemetry.clone())
                .with_tracer(tracer.clone()),
        )
        .map_err(|e| format!("coordinator bind failed: {e}"))?;
        let frames_parsed = telemetry
            .registry()
            .expect("memory telemetry has a registry")
            .scoped("net")
            .counter("frames_rx");
        let mut reactor = Reactor::new().map_err(|e| format!("reactor: {e}"))?;
        let mut rng = SplitMix64::new(seed);
        let mut agents = Vec::new();
        for id in 0..NODES {
            let node = build_node(id, &mut rng);
            let stream =
                TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            let raw = stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?;
            let mut transport = Transport::new(ChaosStream::passthrough(stream));
            let hello = WireMsg::Hello {
                node: id,
                procs: PROCS,
                version: SCHEMA_VERSION,
                last_epoch: 0,
                codecs: CODEC_ALL,
            };
            transport
                .send(&hello)
                .and_then(|_| transport.flush().map_err(Into::into))
                .map_err(|e| format!("hello: {e}"))?;
            let token = reactor
                .insert(transport, id)
                .map_err(|e| format!("register: {e}"))?;
            agents.push(Agent {
                node,
                token,
                raw,
                acked: false,
                ticks: 0,
                next_tick: Instant::now() + TICK,
                received_at: None,
                matched_at: None,
                summaries: 0,
            });
        }
        let mut s = Session {
            coordinator_tid: None,
            server,
            reactor,
            agents,
            freq_set,
            loose_w,
            floor_w,
            awaiting: None,
            op: 0,
            parent: 0,
            ceilings: 0,
            freqs_rx: 0,
            frames_sent: NODES as u64,
            frames_parsed,
            failures: Vec::new(),
            op_bad: false,
            samples: Samples::default(),
            burst_buf: Vec::with_capacity(AGENT_OUTBOUND_CAP / 2),
        };
        let mut rec = Recorder::new(false);
        if !s.pump(Instant::now() + Duration::from_secs(5), &mut rec, |s| {
            s.agents.iter().all(|a| a.acked)
        }) {
            return Err("handshake did not complete within 5 s".to_string());
        }
        // The coordinator thread names itself once running; it has
        // answered the hellos, so it is running now.
        s.coordinator_tid = thread_named("fvs-coordinator");
        Ok(s)
    }

    /// Whether the coordinator has parsed every frame sent to it.
    fn all_parsed(&self) -> bool {
        self.frames_parsed.get() >= self.frames_sent
    }

    fn coordinator_cpu_ns(&self) -> Option<u64> {
        self.coordinator_tid.as_deref().and_then(thread_cpu_ns)
    }

    /// Serve sockets and agent ticks until `done` holds (returns true)
    /// or `until` passes (returns false).
    fn pump(
        &mut self,
        until: Instant,
        rec: &mut Recorder,
        mut done: impl FnMut(&mut Session) -> bool,
    ) -> bool {
        loop {
            if done(self) {
                return true;
            }
            let now = Instant::now();
            if now >= until {
                return false;
            }
            let next_tick = self
                .agents
                .iter()
                .map(|a| a.next_tick)
                .min()
                .unwrap_or(until);
            if now >= next_tick {
                self.run_ticks(rec);
                continue;
            }
            if let Err(e) = self.reactor.poll(Some(next_tick.min(until) - now)) {
                self.failures.push(format!("agent poll failed: {e}"));
                return false;
            }
            let events = self.reactor.drain_events();
            for ev in &events {
                self.service(ev.token, ev.readable || ev.hangup, ev.writable, rec);
            }
            self.reactor.recycle_events(events);
        }
    }

    fn run_ticks(&mut self, rec: &mut Recorder) {
        let tracing = self.parent != 0;
        for i in 0..self.agents.len() {
            let now = Instant::now();
            if self.agents[i].next_tick > now {
                continue;
            }
            let a = &mut self.agents[i];
            a.node.tick(TICK.as_secs_f64());
            let ticked = Instant::now();
            a.ticks += 1;
            a.next_tick = (a.next_tick + TICK).max(ticked);
            if tracing {
                rec.span(self.op, self.parent, "node.tick", now, ticked);
                self.samples.tick_us.push(elapsed_ns(now, ticked) / 1e3);
            }
            if !a.acked || !a.ticks.is_multiple_of(SUMMARY_EVERY) {
                continue;
            }
            let t0 = Instant::now();
            let msg = WireMsg::Summary(a.node.summarize());
            let t1 = Instant::now();
            a.summaries += 1;
            let sample = a.summaries.is_multiple_of(SAMPLE_EVERY);
            let token = a.token;
            if tracing {
                rec.span(self.op, self.parent, "node.summarize", t0, t1);
                self.samples.summarize_us.push(elapsed_ns(t0, t1) / 1e3);
            }
            self.send(token, &msg);
            self.frames_sent += 1;
            if sample {
                // Same bytes the transport wrote: check they decode back.
                let frame = encode_with(&msg, WireCodec::Binary);
                let d0 = Instant::now();
                let checked = frame
                    .map_err(|e| e.to_string())
                    .and_then(|f| check_round_trip(&f, &msg));
                let d1 = Instant::now();
                if let Err(e) = checked {
                    self.failures.push(format!("summary of node {i}: {e}"));
                }
                if tracing {
                    self.samples.decode_summary_ns.push(elapsed_ns(d0, d1));
                }
            }
        }
    }

    fn send(&mut self, token: u64, msg: &WireMsg) {
        let Some((t, _)) = self.reactor.get_mut(token) else {
            self.failures.push("agent connection vanished".to_string());
            return;
        };
        if let Err(e) = t.send(msg).and_then(|_| t.flush().map_err(Into::into)) {
            self.failures.push(format!("agent send failed: {e}"));
        }
        let _ = self.reactor.update_interest(token);
    }

    fn service(&mut self, token: u64, readable: bool, writable: bool, rec: &mut Recorder) {
        let tracing = self.parent != 0;
        let Some((t, &mut idx)) = self.reactor.get_mut(token) else {
            return;
        };
        if writable {
            if let Err(e) = t.flush() {
                self.failures.push(format!("agent {idx} flush failed: {e}"));
            }
            let _ = self.reactor.update_interest(token);
        }
        if !readable {
            return;
        }
        let Some((t, _)) = self.reactor.get_mut(token) else {
            return;
        };
        let f0 = Instant::now();
        let filled = t.fill();
        let f1 = Instant::now();
        match filled {
            Ok(FillStatus::Progress) => {
                if tracing {
                    rec.span(self.op, self.parent, "transport.fill", f0, f1);
                    self.samples.fill_us.push(elapsed_ns(f0, f1) / 1e3);
                }
            }
            Ok(FillStatus::Idle) => return,
            Ok(FillStatus::Eof) => {
                self.failures
                    .push(format!("coordinator closed agent {idx}'s connection"));
                self.reactor.remove(token);
                return;
            }
            Err(e) => {
                self.failures.push(format!("agent {idx} read failed: {e}"));
                self.reactor.remove(token);
                return;
            }
        }
        loop {
            let Some((t, _)) = self.reactor.get_mut(token) else {
                return;
            };
            let d0 = Instant::now();
            let msg = t.next_msg();
            let d1 = Instant::now();
            match msg {
                Ok(None) => return,
                Ok(Some(WireMsg::HelloAck {
                    accepted, codec, ..
                })) => {
                    if !accepted {
                        self.failures
                            .push(format!("coordinator refused agent {idx}"));
                    }
                    t.set_codec(WireCodec::from_id(codec));
                    if WireCodec::from_id(codec) != WireCodec::Binary {
                        self.failures.push(format!(
                            "agent {idx} negotiated {}, not binary",
                            WireCodec::from_id(codec).name()
                        ));
                    }
                    self.agents[idx].acked = accepted;
                }
                Ok(Some(WireMsg::Ceiling(cmd))) => {
                    if tracing {
                        rec.span(self.op, self.parent, "wire.decode_ceiling", d0, d1);
                        self.samples.decode_ceiling_ns.push(elapsed_ns(d0, d1));
                    }
                    self.on_ceiling(idx, cmd, d1, rec);
                }
                Ok(Some(WireMsg::Heartbeat { .. })) => {}
                Ok(Some(other)) => self
                    .failures
                    .push(format!("agent {idx} received a {} frame", other.kind())),
                Err(e) => {
                    self.failures
                        .push(format!("agent {idx}: ceiling frame failed to decode: {e}"));
                    self.op_bad = true;
                    self.reactor.remove(token);
                    return;
                }
            }
        }
    }

    fn on_ceiling(
        &mut self,
        idx: usize,
        cmd: fvs_cluster::FrequencyCommand,
        decoded: Instant,
        rec: &mut Recorder,
    ) {
        let tracing = self.parent != 0;
        if cmd.node != idx {
            self.failures
                .push(format!("agent {idx} received node {}'s ceiling", cmd.node));
        }
        if let Err(e) = check_ceiling(&cmd, NODES, PROCS, &self.freq_set) {
            self.failures.push(e);
            self.op_bad = true;
            return;
        }
        let class = classify(&cmd.freqs, self.freq_set.min());
        if class.is_none() {
            self.failures.push(format!(
                "agent {idx}: ceiling {:?} matches neither budget",
                cmd.freqs
            ));
            self.op_bad = true;
        }
        let a0 = Instant::now();
        self.agents[idx].node.apply(&cmd.freqs);
        let a1 = Instant::now();
        if class.is_some() && class == self.awaiting && self.agents[idx].matched_at.is_none() {
            self.agents[idx].received_at = Some(decoded);
            self.agents[idx].matched_at = Some(a1);
        }
        self.ceilings += 1;
        self.freqs_rx += cmd.freqs.len() as u64;
        if tracing {
            rec.span(self.op, self.parent, "node.apply", a0, a1);
            self.samples.apply_us.push(elapsed_ns(a0, a1) / 1e3);
            // Re-encode the decoded command and check it decodes back.
            let msg = WireMsg::Ceiling(cmd);
            let e0 = Instant::now();
            let frame = encode_with(&msg, WireCodec::Binary);
            let e1 = Instant::now();
            self.samples.encode_ceiling_ns.push(elapsed_ns(e0, e1));
            if let Err(e) = frame
                .map_err(|e| e.to_string())
                .and_then(|f| check_round_trip(&f, &msg))
            {
                self.failures.push(e);
            }
        }
    }

    /// Write the burst on node 1 as one buffer of back-to-back binary
    /// summary frames, the way a peer flushing a batched backlog would.
    /// Returns how long the gate before it waited, and when the write
    /// started and ended.
    fn burst(&mut self, rec: &mut Recorder) -> Option<(Duration, Instant, Instant)> {
        let token = self.agents[1].token;
        let g0 = Instant::now();
        // The coordinator must have parsed everything sent so far, so
        // each reaction waits behind exactly one burst. Without this, a
        // round that answers after parsing only the first part of a
        // burst leaves the rest to pile up behind the next one, and the
        // O(n²) parse of the pile stalls the loop for seconds.
        if !self.pump(Instant::now() + REPLY_TIMEOUT, rec, |s| s.all_parsed()) {
            self.failures
                .push("the coordinator did not parse the previous burst within 2 s".to_string());
            return None;
        }
        // Frames the transport still holds must go first, or the burst
        // would land in the middle of one.
        if !self.pump(Instant::now() + REPLY_TIMEOUT, rec, |s| {
            s.reactor
                .get_mut(token)
                .map(|(t, _)| t.queued_bytes() == 0)
                .unwrap_or(true)
        }) {
            self.failures
                .push("node 1's queue did not drain before the burst".to_string());
            return None;
        }
        let gate = g0.elapsed();
        let msg = WireMsg::Summary(self.agents[1].node.summarize());
        let frame = match encode_with(&msg, WireCodec::Binary) {
            Ok(f) => f,
            Err(e) => {
                self.failures
                    .push(format!("burst summary failed to encode: {e}"));
                return None;
            }
        };
        let count = AGENT_OUTBOUND_CAP / 2 / frame.len();
        // One buffer for the whole run, so the benchmark's own
        // allocations stay out of the peak-RSS figure.
        self.burst_buf.clear();
        for _ in 0..count {
            self.burst_buf.extend_from_slice(&frame);
        }
        let burst = &self.burst_buf;
        let raw = &mut self.agents[1].raw;
        let t0 = Instant::now();
        // The socket is nonblocking for the reactor; block for the one
        // write so the kernel takes the burst as fast as the peer reads.
        let written = raw
            .set_nonblocking(false)
            .and_then(|_| raw.write_all(burst))
            .and_then(|_| raw.set_nonblocking(true));
        let t1 = Instant::now();
        if let Err(e) = written {
            self.failures.push(format!("burst write failed: {e}"));
            return None;
        }
        self.frames_sent += count as u64;
        Some((gate, t0, t1))
    }
}

impl Session {
    /// One operation: (burst,) budget change, wait for the matching
    /// ceilings, dwell. Returns how long the burst's gate waited (ms, 0
    /// without a burst) and, in ms from the budget change, when the
    /// timed node(s) had applied the matching ceiling and when the
    /// round's first matching ceiling was decoded at any node; `None`
    /// when no match arrived in time.
    fn react(
        &mut self,
        op: u64,
        burst: bool,
        traced: bool,
        rec: &mut Recorder,
        dwell: Duration,
    ) -> (f64, Option<(f64, f64)>) {
        let target = if op.is_multiple_of(2) {
            Class::Floor
        } else {
            Class::Loose
        };
        let budget = match target {
            Class::Floor => self.floor_w,
            Class::Loose => self.loose_w,
        };
        self.op = op;
        self.op_bad = false;
        let start = Instant::now();
        let root = if traced {
            rec.open(op, 0, "reaction", start)
        } else {
            0
        };
        self.parent = root;
        let mut gate_ms = 0.0;
        if burst {
            if let Some((gate, w0, w1)) = self.burst(rec) {
                gate_ms = gate.as_secs_f64() * 1e3;
                if traced {
                    rec.span(op, root, "burst.gate", start, start + gate);
                    rec.span(op, root, "burst.write", w0, w1);
                    self.samples.burst_write_ms.push(elapsed_ns(w0, w1) / 1e6);
                }
            }
        }
        for a in &mut self.agents {
            a.received_at = None;
            a.matched_at = None;
        }
        self.awaiting = Some(target);
        let t0 = Instant::now();
        self.server.set_budget(budget);
        let wait = if traced {
            rec.open(op, root, "reaction.wait", t0)
        } else {
            0
        };
        if traced {
            self.parent = wait;
        }
        // The timed nodes: both when quiet, node 0 behind a burst.
        let timed = if burst { 1 } else { NODES };
        let matched = self.pump(t0 + REPLY_TIMEOUT, rec, |s| {
            s.agents[..timed].iter().all(|a| a.matched_at.is_some())
        });
        let react_ms = self.agents[..timed]
            .iter()
            .filter_map(|a| a.matched_at)
            .max();
        let round_ms = self.agents.iter().filter_map(|a| a.received_at).min();
        let timing = match (matched, react_ms, round_ms) {
            (true, Some(r), Some(f)) => Some((elapsed_ns(t0, r) / 1e6, elapsed_ns(t0, f) / 1e6)),
            _ => None,
        };
        rec.close(wait, Instant::now());
        self.parent = root;
        // Untimed: the other node must match too before the next change.
        let all = self.pump(t0 + REPLY_TIMEOUT, rec, |s| {
            s.agents.iter().all(|a| a.matched_at.is_some())
        });
        if !all || !matched {
            self.failures.push(format!(
                "reaction {op}: no matching ceiling within {REPLY_TIMEOUT:?}"
            ));
        }
        self.awaiting = None;
        rec.close(root, Instant::now());
        self.parent = 0;
        self.idle(dwell, rec);
        (gate_ms, timing)
    }

    /// Serve sockets and ticks for `d`. The event loop's timeout is
    /// rounded up to whole milliseconds, so the last millisecond is
    /// slept instead: the next budget change then lands at the drawn
    /// time, not on a millisecond boundary counted from the previous
    /// reaction, which would tie its phase to the coordinator's 2 ms
    /// poll slice.
    fn idle(&mut self, d: Duration, rec: &mut Recorder) {
        let end = Instant::now() + d;
        self.pump(end - Duration::from_millis(1), rec, |_| false);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
    }

    /// Say goodbye on both connections and stop the coordinator; returns
    /// its deadline violations.
    fn close(mut self) -> Result<u64, String> {
        for token in self.reactor.tokens() {
            if let Some((mut t, idx)) = self.reactor.remove(token) {
                t.send_best_effort(&WireMsg::Bye { node: idx });
            }
        }
        let status = self
            .server
            .shutdown()
            .map_err(|e| format!("coordinator shutdown: {e}"))?;
        Ok(status.violations)
    }
}

/// Run `loopback-quiet` (`cfg.burst = false`) or `loopback-burst` and
/// fill `out`.
pub fn run(cfg: &Config, out: &mut Outcome, rec: &mut Recorder) {
    let tracer = if cfg.trace {
        Tracer::ring(1 << 16)
    } else {
        Tracer::disabled()
    };
    let tracer_epoch = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED_D1CE);
    let (lo, hi) = if cfg.burst { BURST_DWELL_MS } else { DWELL_MS };
    let mut dwell = move || Duration::from_micros(lo * 1000 + rng.below((hi - lo) * 1000 + 1));

    // Set-up: bind, connect, handshake, first ceilings, and a few
    // untimed reactions. Repeated; all but the last are torn down.
    let mut setup_s = Vec::new();
    let mut session = None;
    let mut off = Recorder::new(false);
    for k in 0..SETUPS {
        if let Some(s) = session.take() {
            match Session::close(s) {
                Ok(0) => {}
                Ok(v) => out.fail(format!("set-up {k}: coordinator counted {v} ΔT violations")),
                Err(e) => out.fail(e),
            }
        }
        let t0 = Instant::now();
        let mut s = match Session::connect(cfg.seed, &tracer) {
            Ok(s) => s,
            Err(e) => {
                out.fail(e);
                return;
            }
        };
        // First ceilings: once both nodes have sent a summary, poke the
        // budget (a change to the same value still starts a round)
        // until both hold a loose ceiling, rather than wait out the
        // period at a random phase.
        s.awaiting = Some(Class::Loose);
        if !s.pump(t0 + Duration::from_secs(5), &mut off, |s| {
            s.agents.iter().all(|a| a.summaries > 0)
        }) {
            out.fail("set-up: no first summaries within 5 s");
            return;
        }
        let mut first = false;
        while !first && t0.elapsed() < Duration::from_secs(5) {
            s.server.set_budget(s.loose_w);
            first = s.pump(Instant::now() + Duration::from_millis(5), &mut off, |s| {
                s.agents.iter().all(|a| a.matched_at.is_some())
            });
        }
        if !first {
            out.fail("set-up: no first ceiling within 5 s");
            return;
        }
        for w in 0..WARMUP_OPS {
            s.react(w, cfg.burst, false, &mut off, dwell());
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        for f in s.failures.drain(..) {
            out.fail(format!("set-up: {f}"));
        }
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up ran");
    s.samples = Samples::default();
    if s.coordinator_tid.is_none() {
        out.fail("the coordinator thread was not found in /proc");
    }

    let rounds0 = s.server.status().rounds;
    let (ceilings0, freqs0, frames0) = (s.ceilings, s.freqs_rx, s.frames_sent);
    let cpu0 = s.coordinator_cpu_ns();
    let mut react_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut traced_react = Vec::new();
    let mut untraced_react = Vec::new();
    let mut gate_ms = Vec::new();
    let mut threads = thread_count();
    let begin = Instant::now();
    let mut op = 0u64;
    while op < cfg.max_ops && (op == 0 || begin.elapsed().as_secs_f64() < cfg.seconds) {
        // Two-operation blocks (one drop, one raise) alternate between
        // traced and untraced in a traced run.
        let traced = cfg.trace && (op / 2) % 2 == 1;
        let before = s.failures.len();
        let (gate, r) = s.react(op + WARMUP_OPS, cfg.burst, traced, rec, dwell());
        // Behind a burst, the wait for the coordinator to parse the
        // previous one counts against ΔT too.
        let late = r.is_none_or(|(ms, _)| gate + ms > DELTA_T.as_secs_f64() * 1e3);
        gate_ms.push(gate);
        if late || s.op_bad || s.failures.len() > before {
            out.failed += 1;
        }
        if let Some((ms, first_ms)) = r {
            react_ms.push(ms);
            round_ms.push(first_ms);
            if traced {
                traced_react.push(ms);
            } else {
                untraced_react.push(ms);
            }
        }
        if op.is_multiple_of(64) {
            threads = threads.max(thread_count());
        }
        op += 1;
    }
    let measured_s = begin.elapsed().as_secs_f64();
    let cpu_ms = match (cpu0, s.coordinator_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
        _ => f64::NAN,
    };
    let rounds = s.server.status().rounds.saturating_sub(rounds0).max(1) as f64;
    let ceilings = (s.ceilings - ceilings0) as f64;
    let freqs = (s.freqs_rx - freqs0) as f64;
    // Every frame sent after set-up is a summary.
    let summaries = (s.frames_sent - frames0).max(1) as f64;
    // Every frame sent must have reached the coordinator and parsed.
    if !s.pump(Instant::now() + REPLY_TIMEOUT, &mut off, |s| s.all_parsed()) {
        out.fail(format!(
            "the coordinator parsed {} of {} frames sent",
            s.frames_parsed.get(),
            s.frames_sent
        ));
    }
    let samples = std::mem::take(&mut s.samples);
    for f in s.failures.drain(..) {
        out.fail(f);
    }
    match s.close() {
        Ok(0) => {}
        Ok(v) => out.fail(format!("coordinator counted {v} ΔT violations")),
        Err(e) => out.fail(e),
    }
    out.attempted = op;
    if (react_ms.len() as u64) < op {
        out.fail(format!(
            "{} of {op} reactions never matched",
            op - react_ms.len() as u64
        ));
    }
    react_ms.sort_by(f64::total_cmp);
    gate_ms.sort_by(f64::total_cmp);
    round_ms.sort_by(f64::total_cmp);
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads > nproc || NODES > nproc {
        out.fail(format!(
            "load used {threads} threads and {NODES} connections on {nproc} CPUs"
        ));
    }
    out.fact("reactions", op);
    out.fact("measured_s", measured_s);
    out.fact("react_ms_p99", quantile(&react_ms, 0.99));
    out.fact("react_samples_beyond_p99", beyond(&react_ms, 0.99));
    out.fact("coordinator_rounds", rounds);
    out.fact("threads", threads);
    out.fact("connections", NODES);
    if cfg.burst {
        out.fact("gate_wait_ms_p50", quantile(&gate_ms, 0.50));
        out.fact("gate_wait_ms_p99", quantile(&gate_ms, 0.99));
    }
    if beyond(&react_ms, 0.99) < 10 {
        eprintln!("perfbench: fewer than 10 reactions beyond p99; raise --seconds");
    }

    if cfg.trace {
        rec.adopt_program_spans(tracer_epoch, &tracer.records());
        let schedule_ms = rec
            .program_median_ns("cluster.round")
            .map_or(0.0, |ns| ns / 1e6);
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        out.metrics = vec![
            Metric::new(
                "wire.decode_summary_ns",
                med(&samples.decode_summary_ns),
                "ns",
            ),
            // Ingest and the schedule cache run inside the server, where
            // only the program's own spans reach; see NOTES.md.
            Metric::new("cluster.ingest_ns", 0.0, "ns"),
            Metric::new("cluster.schedule_ms", schedule_ms, "ms"),
            Metric::new(
                "wire.encode_ceiling_ns",
                med(&samples.encode_ceiling_ns),
                "ns",
            ),
            Metric::new("sched.cache_proc_hit_ratio", 0.0, "ratio"),
            Metric::new("sched.cache_proc_hits", 0.0, "count"),
            Metric::new("sched.cache_proc_lookups", 0.0, "count"),
            Metric::new("cluster.procs_per_round", freqs / rounds, "count"),
            Metric::new("cluster.commands_per_round", ceilings / rounds, "count"),
            Metric::new("node.tick_us", med(&samples.tick_us), "us"),
            Metric::new("node.summarize_us", med(&samples.summarize_us), "us"),
            Metric::new("node.apply_us", med(&samples.apply_us), "us"),
            Metric::new("net.coordinator.busy_ms_per_s", cpu_ms / measured_s, "ms/s"),
            Metric::new(
                "net.coordinator.busy_us_per_summary",
                cpu_ms * 1e3 / summaries,
                "us",
            ),
            Metric::new("transport.fill_us", med(&samples.fill_us), "us"),
            Metric::new(
                "wire.decode_ceiling_ns",
                med(&samples.decode_ceiling_ns),
                "ns",
            ),
            Metric::new("burst.write_ms", med(&samples.burst_write_ms), "ms"),
            Metric::new(
                "trace.overhead_pct",
                (med(&traced_react) / med(&untraced_react) - 1.0) * 100.0,
                "%",
            ),
        ];
    } else {
        out.metrics = vec![
            Metric::new("round_ms_p50", quantile(&round_ms, 0.50), "ms"),
            Metric::new("round_ms_p95", quantile(&round_ms, 0.95), "ms"),
            Metric::new("react_ms_p50", quantile(&react_ms, 0.50), "ms"),
            Metric::new("react_ms_p95", quantile(&react_ms, 0.95), "ms"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        ];
    }
}
