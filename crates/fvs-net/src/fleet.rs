//! The agent state machine, multiplexed: node agents on one reactor
//! thread.
//!
//! Every agent is a small state machine (connect-backoff → handshaking
//! → running) driving one [`ClusterNode`]: tick the machine, close the
//! measurement window every `summary_every` ticks, ship the summary
//! upstream over its [`Transport`], and apply whatever frequency
//! ceilings come back. [`AgentFleet`] runs any number of them on one
//! [`Reactor`], with a timer heap driving ticks, handshake deadlines
//! and reconnect backoff; a standalone
//! [`NodeAgent`](crate::agent::NodeAgent) is a fleet of one. Each tick
//! takes `pace` of wall time, or exactly `tick_s` in `timed` mode
//! (drift-free deadlines — what makes a soak against a live
//! coordinator honest).
//!
//! When the link drops, the agent reconnects through its
//! [`ReconnectLadder`] while the machine keeps running at its
//! last-commanded frequencies (exactly the mute-but-running scenario
//! the coordinator's conservative charging defends against).
//!
//! Epoch fencing: each agent remembers the highest coordinator epoch
//! it has ever acknowledged and refuses to serve a coordinator
//! presenting a lower one — whether at handshake (a refused hello, or
//! an ack carrying a stale epoch) or mid-connection (a stale
//! heartbeat). A fenced coordinator is retried through the ladder,
//! because the fence is about *which* coordinator is current, not a
//! permanent protocol mismatch; only a schema-version refusal is
//! terminal, and the fleet thread ends once every member has met one.
//!
//! Connects are staggered across a ramp window so 10k simultaneous SYNs
//! don't blow the accept backlog, and the ramp doubles as tick phase
//! stagger: agents connected at different times summarize at different
//! times, spreading uplink load across the period.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fvs_cluster::ClusterNode;

use crate::agent::{advertised_codecs, AgentConfig, ReconnectLadder};
use crate::chaos::{ChaosSide, ChaosStream};
use crate::error::FvsError;
use crate::reactor::Reactor;
use crate::transport::{FillStatus, Transport};
use crate::wire::{WireCodec, WireMsg};

/// How long a hello may wait for its ack before the connection is
/// abandoned.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);
/// Per-attempt connect timeout: a coordinator that can't even complete
/// the TCP handshake within this is treated as down.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Disconnect a connection whose outbound queue exceeds this — the
/// coordinator has stopped reading and the honest move is to reconnect
/// rather than buffer unboundedly.
const MAX_QUEUED_BYTES: usize = 1 << 20;
/// Cap on timers fired per loop iteration, so a backlog of due ticks
/// can never starve the poller.
const MAX_TIMERS_PER_ITER: usize = 1024;

/// Exit requests from the handle to the fleet thread.
const RUN: u8 = 0;
/// Orderly shutdown: running agents say `Bye`.
const STOP: u8 = 1;
/// Crash: the sockets just close, no goodbye.
const KILL: u8 = 2;

/// Live counters of running agents — a whole fleet, or the one agent
/// of a [`NodeAgent`](crate::agent::NodeAgent). Updated by the fleet
/// thread and readable from anywhere without joining it (the node
/// binary's `/healthz` reads these).
#[derive(Debug, Default)]
pub struct AgentStats {
    connected: AtomicU64,
    summaries_sent: AtomicU64,
    ceilings_applied: AtomicU64,
    reconnects: AtomicU64,
    epochs_fenced: AtomicU64,
    version_rejects: AtomicU64,
    connect_failures: AtomicU64,
    binary_conns: AtomicU64,
    json_conns: AtomicU64,
    /// Summed node power as f64 bits.
    power_bits: AtomicU64,
}

impl AgentStats {
    /// Agents currently past a successful handshake.
    pub fn connected(&self) -> u64 {
        self.connected.load(Ordering::SeqCst)
    }

    /// Summaries shipped upstream.
    pub fn summaries_sent(&self) -> u64 {
        self.summaries_sent.load(Ordering::SeqCst)
    }

    /// Ceiling commands applied to the machines.
    pub fn ceilings_applied(&self) -> u64 {
        self.ceilings_applied.load(Ordering::SeqCst)
    }

    /// Connections re-established after an agent's first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// Stale coordinators fenced (handshake or heartbeat epoch below
    /// the highest the agent has acknowledged).
    pub fn epochs_fenced(&self) -> u64 {
        self.epochs_fenced.load(Ordering::SeqCst)
    }

    /// Agents permanently refused over schema version.
    pub fn version_rejects(&self) -> u64 {
        self.version_rejects.load(Ordering::SeqCst)
    }

    /// Failed connect attempts (refused, timed out, unreachable).
    pub fn connect_failures(&self) -> u64 {
        self.connect_failures.load(Ordering::SeqCst)
    }

    /// Handshakes that negotiated the binary codec.
    pub fn binary_conns(&self) -> u64 {
        self.binary_conns.load(Ordering::SeqCst)
    }

    /// Handshakes that settled on JSON.
    pub fn json_conns(&self) -> u64 {
        self.json_conns.load(Ordering::SeqCst)
    }

    /// Summed power of the agents' nodes at their last summary window,
    /// or at exit once the fleet has stopped (W).
    pub fn power_w(&self) -> f64 {
        f64::from_bits(self.power_bits.load(Ordering::SeqCst))
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// Handle to a running fleet thread.
pub struct FleetHandle {
    exit: Arc<AtomicU8>,
    stats: Arc<AgentStats>,
    thread: JoinHandle<()>,
}

impl FleetHandle {
    /// The fleet's live counters.
    pub fn stats(&self) -> Arc<AgentStats> {
        Arc::clone(&self.stats)
    }

    /// Whether the fleet thread has already exited on its own: every
    /// member was refused for its schema version.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Orderly shutdown: connected agents say `Bye`, the thread joins,
    /// and the final counters are returned.
    pub fn stop(self) -> Arc<AgentStats> {
        self.exit(STOP)
    }

    /// Crash every agent: the sockets just close, no goodbye — from
    /// the coordinator's side this is indistinguishable from node
    /// failure, which is the point. Returns the final counters.
    pub fn kill(self) -> Arc<AgentStats> {
        self.exit(KILL)
    }

    fn exit(self, how: u8) -> Arc<AgentStats> {
        self.exit.store(how, Ordering::SeqCst);
        self.thread.join().expect("fleet thread panicked");
        self.stats
    }
}

enum Phase {
    /// Waiting for the connect timer (ramp stagger or backoff rung).
    Backoff,
    /// Hello sent; the timer is the handshake deadline.
    Handshaking,
    /// Ticking and shipping summaries; the timer is the next tick.
    Running,
    /// Version-refused: permanently out of the game.
    Refused,
}

struct Slot {
    node: ClusterNode,
    phase: Phase,
    /// Bumped on every phase change; stale heap entries are skipped.
    gen: u64,
    token: Option<u64>,
    ladder: ReconnectLadder,
    /// Highest coordinator epoch ever acknowledged: the fence.
    last_epoch: u64,
    ticks: u32,
    /// Dead-link detection: any ceiling or heartbeat feeds this;
    /// silence past `link_timeout` forces a reconnect.
    last_rx: Instant,
    ever_connected: bool,
    connect_seq: u64,
    /// When a hello still without its ack is abandoned.
    ack_deadline: Instant,
    /// Node power at the last summary window (W).
    power_w: f64,
}

/// Spawns and owns the one fleet thread. See the module docs.
pub struct AgentFleet;

impl AgentFleet {
    /// Launch agents for `nodes` against the coordinator at `addr`,
    /// staggering first connects across `ramp`.
    pub fn launch(
        nodes: Vec<ClusterNode>,
        addr: impl ToSocketAddrs,
        config: AgentConfig,
        ramp: Duration,
    ) -> Result<FleetHandle, FvsError> {
        config.validate()?;
        if nodes.is_empty() {
            return Err(FvsError::config("a fleet needs at least one node"));
        }
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| FvsError::config("fleet address resolved to nothing"))?;
        let exit = Arc::new(AtomicU8::new(RUN));
        let stats = Arc::new(AgentStats::default());
        let mut fleet = Fleet::new(nodes, addr, config, ramp, Arc::clone(&stats))?;
        let thread_exit = Arc::clone(&exit);
        let thread = std::thread::Builder::new()
            .name("fvs-fleet".into())
            .spawn(move || {
                if let Err(e) = fleet.run(&thread_exit) {
                    eprintln!("fvs-fleet: reactor failed: {e}");
                }
                fleet.finish(thread_exit.load(Ordering::SeqCst) == STOP);
            })
            .map_err(FvsError::Io)?;
        Ok(FleetHandle {
            exit,
            stats,
            thread,
        })
    }
}

/// The fleet thread's state: every agent's slot, the reactor holding
/// their connections, and the timer heap driving them.
struct Fleet {
    addr: SocketAddr,
    config: AgentConfig,
    /// Wall time per tick: `tick_s` in timed mode, `pace` otherwise.
    tick_wall: Duration,
    codecs: u8,
    /// Anchor of the chaos partition clock, shared by every connection.
    chaos_start: Instant,
    stats: Arc<AgentStats>,
    reactor: Reactor<usize>,
    /// (due, slot index, generation) — min-heap via `Reverse`.
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    slots: Vec<Slot>,
    /// Slots in [`Phase::Refused`]; the thread ends when all are.
    refused: usize,
    /// Sum of the slots' `power_w`.
    power_w: f64,
}

impl Fleet {
    fn new(
        nodes: Vec<ClusterNode>,
        addr: SocketAddr,
        config: AgentConfig,
        ramp: Duration,
        stats: Arc<AgentStats>,
    ) -> io::Result<Fleet> {
        let n = nodes.len();
        let start = Instant::now();
        let slots: Vec<Slot> = nodes
            .into_iter()
            .map(|node| {
                let id = node.id as u64;
                Slot {
                    node,
                    phase: Phase::Backoff,
                    gen: 0,
                    token: None,
                    ladder: ReconnectLadder::new(
                        config.backoff_base,
                        config.backoff_max,
                        config.jitter_seed ^ id.wrapping_mul(0x517C_C1B7_2722_0A95),
                    ),
                    last_epoch: 0,
                    ticks: 0,
                    last_rx: start,
                    ever_connected: false,
                    connect_seq: 0,
                    ack_deadline: start,
                    power_w: 0.0,
                }
            })
            .collect();
        let timers = (0..n)
            .map(|i| Reverse((start + ramp.mul_f64(i as f64 / n as f64), i, 0)))
            .collect();
        Ok(Fleet {
            addr,
            tick_wall: if config.timed {
                Duration::from_secs_f64(config.tick_s)
            } else {
                config.pace
            },
            codecs: advertised_codecs(config.codec),
            config,
            chaos_start: start,
            stats,
            reactor: Reactor::new()?,
            timers,
            slots,
            refused: 0,
            power_w: 0.0,
        })
    }

    fn run(&mut self, exit: &AtomicU8) -> io::Result<()> {
        while exit.load(Ordering::SeqCst) == RUN && self.refused < self.slots.len() {
            let fired = self.fire_timers();
            // Sleep until the next timer (or not at all, if timers are
            // backlogged) while watching for socket readiness.
            let timeout = if fired >= MAX_TIMERS_PER_ITER {
                Duration::ZERO
            } else {
                self.timers
                    .peek()
                    .map(|Reverse((when, _, _))| when.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_millis(50))
                    .min(Duration::from_millis(50))
            };
            self.reactor.poll(Some(timeout))?;
            let events = self.reactor.drain_events();
            for ev in &events {
                let Some((_, &mut idx)) = self.reactor.get_mut(ev.token) else {
                    continue; // removed earlier this batch
                };
                if ev.readable || ev.hangup {
                    self.read(idx);
                }
                if ev.writable {
                    if let Some((transport, _)) = self.reactor.get_mut(ev.token) {
                        if transport.flush().is_err() {
                            self.disconnect(idx);
                        } else {
                            let _ = self.reactor.update_interest(ev.token);
                        }
                    }
                }
            }
            self.reactor.recycle_events(events);
        }
        Ok(())
    }

    /// Fire due timers, at most [`MAX_TIMERS_PER_ITER`]; returns how
    /// many fired.
    fn fire_timers(&mut self) -> usize {
        let mut fired = 0usize;
        let now = Instant::now();
        while fired < MAX_TIMERS_PER_ITER {
            let Some(&Reverse((when, idx, gen))) = self.timers.peek() else {
                break;
            };
            if when > now {
                break;
            }
            self.timers.pop();
            if self.slots[idx].gen != gen {
                continue; // the slot changed phase since this was armed
            }
            fired += 1;
            match self.slots[idx].phase {
                Phase::Backoff => self.connect(idx),
                Phase::Handshaking => self.await_ack(idx),
                Phase::Running => self.tick(idx, when),
                Phase::Refused => {}
            }
        }
        fired
    }

    /// Leave the loop: on an orderly stop running agents say goodbye;
    /// either way the counters show everyone disconnected and the
    /// nodes' final power.
    fn finish(&mut self, bye: bool) {
        if bye {
            for slot in &self.slots {
                let (Phase::Running, Some(token)) = (&slot.phase, slot.token) else {
                    continue;
                };
                if let Some((transport, _)) = self.reactor.get_mut(token) {
                    transport.stream().set_nonblocking(false).ok();
                    transport.send_best_effort(&WireMsg::Bye { node: slot.node.id });
                }
            }
        }
        self.stats.connected.store(0, Ordering::SeqCst);
        let power_w: f64 = self.slots.iter().map(|s| s.node.power_w()).sum();
        self.stats
            .power_bits
            .store(power_w.to_bits(), Ordering::SeqCst);
    }

    /// Arm a slot's next timer under a fresh generation.
    fn arm(&mut self, idx: usize, at: Instant) {
        let slot = &mut self.slots[idx];
        slot.gen += 1;
        self.timers.push(Reverse((at, idx, slot.gen)));
    }

    /// Wait out the slot's next backoff rung before connecting again.
    fn back_off(&mut self, idx: usize) {
        let delay = self.slots[idx].ladder.next_delay();
        self.arm(idx, Instant::now() + delay);
    }

    fn connect(&mut self, idx: usize) {
        let Ok(raw) = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT) else {
            AgentStats::bump(&self.stats.connect_failures);
            return self.back_off(idx);
        };
        let slot = &mut self.slots[idx];
        slot.connect_seq += 1;
        let mut stream = ChaosStream::wrap(
            raw,
            &self.config.chaos,
            ChaosSide::Agent,
            slot.connect_seq,
            self.chaos_start,
            self.config.telemetry.clone(),
            None,
        );
        stream.set_node(slot.node.id);
        let _ = stream.set_nodelay(true);
        let mut transport = Transport::new(stream);
        let hello = WireMsg::Hello {
            node: slot.node.id,
            procs: slot.node.machine().num_cores(),
            version: self.config.version,
            last_epoch: slot.last_epoch,
            codecs: self.codecs,
        };
        // Socket is still blocking here, so hello + flush go out whole;
        // `Reactor::insert` flips it nonblocking.
        let inserted = match transport.send(&hello) {
            Ok(()) if transport.flush().is_ok() => self.reactor.insert(transport, idx).ok(),
            _ => None,
        };
        let Some(token) = inserted else {
            AgentStats::bump(&self.stats.connect_failures);
            return self.back_off(idx);
        };
        let slot = &mut self.slots[idx];
        slot.token = Some(token);
        slot.phase = Phase::Handshaking;
        slot.ack_deadline = Instant::now() + HANDSHAKE_DEADLINE;
        self.await_ack(idx);
    }

    /// While the hello awaits its ack: send it once a chaos delay
    /// releases it, and give up on the socket at the deadline.
    fn await_ack(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        let deadline = slot.ack_deadline;
        let pending = match slot.token {
            Some(token) if Instant::now() < deadline => {
                self.reactor.get_mut(token).and_then(|(transport, _)| {
                    let flushed = transport.flush().is_ok();
                    flushed.then(|| (token, transport.next_delay_due()))
                })
            }
            _ => None,
        };
        let Some((token, due)) = pending else {
            return self.disconnect(idx);
        };
        let _ = self.reactor.update_interest(token);
        self.arm(idx, due.map_or(deadline, |due| due.min(deadline)));
    }

    /// Close a slot's connection, if any.
    fn close(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if let Some(token) = slot.token.take() {
            self.reactor.remove(token);
        }
        if matches!(slot.phase, Phase::Running) {
            self.stats.connected.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Tear a slot's connection down and climb the backoff ladder.
    fn disconnect(&mut self, idx: usize) {
        self.close(idx);
        self.slots[idx].phase = Phase::Backoff;
        self.back_off(idx);
    }

    /// Refuse a stale coordinator and retry through the ladder — the
    /// current coordinator may come back on this address.
    fn fence(&mut self, idx: usize) {
        AgentStats::bump(&self.stats.epochs_fenced);
        self.disconnect(idx);
    }

    /// Park a version-refused slot permanently: retrying with the same
    /// schema can never succeed, so don't storm.
    fn refuse(&mut self, idx: usize) {
        self.close(idx);
        let slot = &mut self.slots[idx];
        slot.phase = Phase::Refused;
        slot.gen += 1; // orphan any armed timer
        self.refused += 1;
        AgentStats::bump(&self.stats.version_rejects);
    }

    /// One tick of a running agent: advance the machine, ship a summary
    /// when the window closes, enforce backpressure and the link
    /// timeout, re-arm the next tick.
    fn tick(&mut self, idx: usize, when: Instant) {
        let slot = &mut self.slots[idx];
        slot.node.tick(self.config.tick_s);
        slot.ticks += 1;
        let conn = match slot.token {
            Some(token) if slot.last_rx.elapsed() <= self.config.link_timeout => {
                self.reactor.get_mut(token).map(|(t, _)| (token, t))
            }
            _ => None,
        };
        let Some((token, transport)) = conn else {
            return self.disconnect(idx);
        };
        let mut ok = true;
        if slot.ticks.is_multiple_of(self.config.summary_every) {
            let summary = slot.node.summarize();
            self.power_w += summary.power_w - slot.power_w;
            slot.power_w = summary.power_w;
            self.stats
                .power_bits
                .store(self.power_w.to_bits(), Ordering::SeqCst);
            ok = transport.send(&WireMsg::Summary(summary)).is_ok();
            if ok {
                AgentStats::bump(&self.stats.summaries_sent);
            }
        }
        // The flush also moves chaos-delayed frames that came due.
        if !ok || transport.flush().is_err() || transport.queued_bytes() > MAX_QUEUED_BYTES {
            return self.disconnect(idx);
        }
        let _ = self.reactor.update_interest(token);
        // Drift-free cadence: schedule off the previous deadline, but
        // never pile further into the past than "now".
        let next = (when + self.tick_wall).max(Instant::now());
        self.arm(idx, next);
    }

    /// Drain everything readable on a slot's socket and dispatch by
    /// phase.
    fn read(&mut self, idx: usize) {
        let Some(token) = self.slots[idx].token else {
            return;
        };
        let Some((transport, _)) = self.reactor.get_mut(token) else {
            return;
        };
        if matches!(transport.fill(), Ok(FillStatus::Eof) | Err(_)) {
            return self.disconnect(idx);
        }
        loop {
            let Some((transport, _)) = self.reactor.get_mut(token) else {
                return;
            };
            let msg = match transport.next_msg() {
                Ok(Some(msg)) => msg,
                Ok(None) => return,
                // Desynchronised downlink: reconnect.
                Err(_) => return self.disconnect(idx),
            };
            let slot = &mut self.slots[idx];
            match msg {
                WireMsg::HelloAck {
                    accepted,
                    version,
                    epoch,
                    codec,
                } => {
                    if !matches!(slot.phase, Phase::Handshaking) {
                        continue;
                    }
                    if accepted && epoch >= slot.last_epoch {
                        // An unknown codec id from a newer peer
                        // degrades to JSON — the floor both sides
                        // always speak.
                        let chosen = WireCodec::from_id(codec);
                        transport.set_codec(chosen);
                        AgentStats::bump(match chosen {
                            WireCodec::Binary => &self.stats.binary_conns,
                            WireCodec::Json => &self.stats.json_conns,
                        });
                        if slot.ever_connected {
                            AgentStats::bump(&self.stats.reconnects);
                        }
                        AgentStats::bump(&self.stats.connected);
                        slot.ever_connected = true;
                        slot.last_epoch = epoch;
                        slot.last_rx = Instant::now();
                        slot.ladder.reset();
                        slot.phase = Phase::Running;
                        slot.ticks = 0;
                        self.arm(idx, Instant::now() + self.tick_wall);
                    } else if accepted
                        || (version == self.config.version && epoch < slot.last_epoch)
                    {
                        // An ack from below our epoch (an old-build
                        // coordinator, or a stale one that doesn't know
                        // to refuse us), or a refusal from a stale
                        // survivor speaking our schema.
                        return self.fence(idx);
                    } else {
                        return self.refuse(idx);
                    }
                }
                WireMsg::Ceiling(cmd)
                    if matches!(slot.phase, Phase::Running) && cmd.node == slot.node.id =>
                {
                    slot.last_rx = Instant::now();
                    let _apply = self.config.tracer.span("node.apply");
                    slot.node.apply(&cmd.freqs);
                    AgentStats::bump(&self.stats.ceilings_applied);
                }
                WireMsg::Heartbeat { epoch } => {
                    if epoch < slot.last_epoch {
                        // A stale coordinator is feeding this link.
                        return self.fence(idx);
                    }
                    slot.last_epoch = epoch;
                    slot.last_rx = Instant::now();
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{CoordinatorConfig, CoordinatorServer};
    use crate::wire::SCHEMA_VERSION;
    use fvs_sched::FvsstAlgorithm;
    use fvs_sim::MachineBuilder;
    use fvs_telemetry::Tracer;
    use fvs_workloads::WorkloadSpec;

    fn wait_until(deadline_s: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(deadline_s);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    fn server(n: usize) -> CoordinatorServer {
        CoordinatorServer::bind(
            "127.0.0.1:0",
            n,
            FvsstAlgorithm::p630(),
            CoordinatorConfig::default_lan().with_period_s(0.05),
        )
        .unwrap()
    }

    fn nodes(n: usize) -> Vec<ClusterNode> {
        (0..n)
            .map(|i| {
                let mut b = MachineBuilder::p630();
                for core in 0..4 {
                    b = b.workload(core, WorkloadSpec::synthetic(0.0, 1.0e18));
                }
                ClusterNode::new(i, b.build(), None)
            })
            .collect()
    }

    fn fast_agent() -> AgentConfig {
        AgentConfig::default_lan()
            .with_tick_s(0.02)
            .with_summary_every(2)
    }

    #[test]
    fn fleet_connects_reports_and_applies_ceilings() {
        let n = 8;
        let server = server(n);
        let fleet = AgentFleet::launch(
            nodes(n),
            server.local_addr(),
            fast_agent(),
            Duration::from_millis(100),
        )
        .unwrap();
        let stats = fleet.stats();
        assert!(
            wait_until(20, || stats.connected() == n as u64
                && stats.summaries_sent() > 2 * n as u64
                && stats.ceilings_applied() > 0),
            "fleet never converged: connected={} summaries={} ceilings={}",
            stats.connected(),
            stats.summaries_sent(),
            stats.ceilings_applied()
        );
        // Default preferences on both sides negotiate the binary path.
        assert_eq!(stats.binary_conns() + stats.json_conns(), n as u64);
        let final_stats = fleet.stop();
        let status = server.shutdown().unwrap();
        assert!(status.nodes_reporting > 0);
        assert_eq!(final_stats.version_rejects(), 0);
    }

    /// A schema-version refusal is permanent for every member, so a
    /// fleet refused across the board has nothing left to run.
    #[test]
    fn fleet_refused_for_its_schema_version_ends_its_thread() {
        let n = 3;
        let server = server(n);
        let fleet = AgentFleet::launch(
            nodes(n),
            server.local_addr(),
            fast_agent().with_version(SCHEMA_VERSION + 1),
            Duration::ZERO,
        )
        .unwrap();
        assert!(
            wait_until(10, || fleet.is_finished()),
            "refused fleet kept running: {:?}",
            fleet.stats()
        );
        let stats = fleet.stop();
        assert_eq!(stats.version_rejects(), n as u64);
        assert_eq!(stats.summaries_sent(), 0);
        server.shutdown().unwrap();
    }

    /// Every ceiling applied to a machine is traced as a `node.apply`
    /// span.
    #[test]
    fn applied_ceilings_record_node_apply_spans() {
        let n = 2;
        let server = server(n);
        let tracer = Tracer::ring(4096);
        let fleet = AgentFleet::launch(
            nodes(n),
            server.local_addr(),
            fast_agent().with_tracer(tracer.clone()),
            Duration::ZERO,
        )
        .unwrap();
        let stats = fleet.stats();
        assert!(
            wait_until(20, || stats.ceilings_applied() > 0),
            "no ceiling ever arrived: {stats:?}"
        );
        fleet.stop();
        server.shutdown().unwrap();
        assert!(
            tracer.records().iter().any(|r| r.name == "node.apply"),
            "no node.apply span among {} recorded",
            tracer.spans_recorded()
        );
    }
}
