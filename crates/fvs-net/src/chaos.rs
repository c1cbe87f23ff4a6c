//! Wire-level chaos injection: [`ChaosStream`] wraps a `TcpStream` and
//! enforces a [`WireFaultPlan`] on it.
//!
//! Faults are injected at *frame* granularity: [`Transport::send`]
//! asks `ChaosStream::decide_write_fault` about each encoded frame
//! before queueing it, so per-frame drop / delay / duplication /
//! corruption / reset rates apply cleanly and a partial nonblocking
//! write retried later never re-rolls the dice. Each endpoint wraps its
//! own socket, which covers both directions: the agent's writes are
//! the uplink, the coordinator's writes are the downlink. Scripted
//! partitions additionally blackhole the *read* path
//! ([`Transport::fill`] reads through `ChaosStream::read`), so a
//! one-way partition behaves like the real thing: an uplink-dead node
//! keeps receiving commands it can never acknowledge, a downlink-dead
//! node keeps reporting while ignoring every ceiling.
//!
//! The fault state is plain fields: each connection has exactly one
//! owner (its [`Transport`], driven by one reactor thread), so nothing
//! is shared or locked. Chaos-delayed frames wait in the transport's
//! own delay queue.
//!
//! Determinism: same plan + same seed + same frame sequence → the same
//! fault decisions, exactly like [`fvs_faults::FaultInjector`]. A quiet
//! plan builds no injection state at all — reads and writes forward
//! straight to the inner stream, byte-identically (the differential
//! test in this module proves it).
//!
//! [`Transport`]: crate::transport::Transport
//! [`Transport::send`]: crate::transport::Transport::send
//! [`Transport::fill`]: crate::transport::Transport::fill

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fvs_faults::WireFaultPlan;
use fvs_telemetry::{Counter, SchedEvent, Telemetry, WireFaultKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which endpoint of the connection this stream belongs to — decides
/// which partition direction applies to its reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSide {
    /// The node agent: writes are uplink, reads are downlink.
    Agent,
    /// The coordinator: writes are downlink, reads are uplink.
    Coordinator,
}

/// A wire-chaos configuration: the plan plus the base seed. Carried by
/// the agent and coordinator configs; quiet by default.
#[derive(Debug, Clone, Default)]
pub struct WireChaos {
    /// What to inject.
    pub plan: WireFaultPlan,
    /// Base RNG seed; each connection mixes in its own stream id so
    /// reconnects see fresh (but reproducible) fault sequences.
    pub seed: u64,
}

impl WireChaos {
    /// No chaos: streams built from this are pure passthroughs.
    pub fn none() -> Self {
        WireChaos::default()
    }

    /// Chaos with the given plan and seed.
    pub fn new(plan: WireFaultPlan, seed: u64) -> Self {
        WireChaos { plan, seed }
    }

    /// Whether the plan can never fire.
    pub fn is_quiet(&self) -> bool {
        self.plan.is_quiet()
    }
}

/// The node index before a hello names it.
const NODE_UNKNOWN: usize = usize::MAX;

/// Seed mixer, in the `FaultInjector` idiom (a fixed xor so seed 0 is
/// still a real stream).
const SEED_MIX: u64 = 0xC4A0_5BAD_F00D_5EED;

#[derive(Debug)]
struct ChaosCore {
    plan: WireFaultPlan,
    side: ChaosSide,
    /// Partition windows are measured from here.
    start: Instant,
    /// Node this connection belongs to (`NODE_UNKNOWN` pre-hello; the
    /// coordinator learns it from the hello and calls `set_node`).
    node: usize,
    rng: StdRng,
    injected: u64,
    telemetry: Telemetry,
    counter: Option<Arc<Counter>>,
}

impl ChaosCore {
    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Record one injected fault: the count, the optional
    /// `net.wire_faults_injected` counter, and a `wire_fault` journal
    /// event flagged `injected` (distinguishing it from organic
    /// corruption the frame decoder reports). `frame_len`/`codec` are
    /// the size and sniffed codec of the frame the fault hit (0 when
    /// no frame was in hand, e.g. a blackholed read).
    fn note(&mut self, kind: WireFaultKind, frame_len: u32, codec: u8) {
        self.injected += 1;
        if let Some(c) = &self.counter {
            c.inc();
        }
        if self.telemetry.enabled() {
            self.telemetry.emit(SchedEvent::WireFault {
                t_s: self.now_s(),
                node: if self.node == NODE_UNKNOWN {
                    u32::MAX
                } else {
                    self.node as u32
                },
                kind,
                injected: true,
                frame_len,
                codec,
            });
        }
    }

    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen::<f64>() < rate
    }

    /// Whether a scripted partition blackholes this stream's writes
    /// right now, and the event kind to report if so.
    fn write_partition(&self, now_s: f64) -> Option<WireFaultKind> {
        for p in &self.plan.partitions {
            if !p.active(self.node, now_s) {
                continue;
            }
            let (blocked, kind) = match self.side {
                ChaosSide::Agent => (p.direction.blocks_uplink(), WireFaultKind::PartitionUp),
                ChaosSide::Coordinator => {
                    (p.direction.blocks_downlink(), WireFaultKind::PartitionDown)
                }
            };
            if blocked {
                return Some(kind);
            }
        }
        None
    }

    /// Whether a scripted partition blackholes this stream's reads
    /// right now, and the event kind to report if so.
    fn read_partition(&self, now_s: f64) -> Option<WireFaultKind> {
        for p in &self.plan.partitions {
            if !p.active(self.node, now_s) {
                continue;
            }
            let (blocked, kind) = match self.side {
                ChaosSide::Agent => (p.direction.blocks_downlink(), WireFaultKind::PartitionDown),
                ChaosSide::Coordinator => (p.direction.blocks_uplink(), WireFaultKind::PartitionUp),
            };
            if blocked {
                return Some(kind);
            }
        }
        None
    }
}

/// Identify a written frame for fault telemetry: its total size and the
/// codec its magic claims (0 when the buffer is too short or foreign).
fn sniff_frame(buf: &[u8]) -> (u32, u8) {
    let len = u32::try_from(buf.len()).unwrap_or(u32::MAX);
    if buf.len() < 4 {
        return (len, 0);
    }
    let codec = if buf[..4] == crate::wire::MAGIC {
        crate::wire::WireCodec::Json.id()
    } else if buf[..4] == crate::wire::MAGIC_V2 {
        crate::wire::WireCodec::Binary.id()
    } else {
        0
    };
    (len, codec)
}

/// The fault a [`ChaosStream`] decided to apply to one outgoing frame;
/// the transport applies it at enqueue time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// Write the frame as-is.
    Deliver,
    /// Pretend success, send nothing (drop faults and active partition
    /// windows — the caller cannot tell the difference, as intended).
    Drop,
    /// Write these bytes instead (truncated or bit-flipped).
    Corrupt(Vec<u8>),
    /// Write the frame twice.
    Duplicate,
    /// Hold the frame back this long, then deliver it.
    Delay(Duration),
    /// The connection was reset (the socket is already shut down);
    /// surface `ConnectionReset` to the caller.
    Reset,
}

/// A `TcpStream` wrapper that injects [`WireFaultPlan`] faults.
///
/// Built from a quiet plan it holds no injection state: every read and
/// write forwards directly to the inner stream (byte-identical — the
/// acceptance differential test). Hand it to
/// [`Transport::new`](crate::transport::Transport::new), which owns it
/// for the life of the connection.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    core: Option<ChaosCore>,
}

impl ChaosStream {
    /// Wrap with no chaos at all (alias for a quiet plan).
    pub fn passthrough(inner: TcpStream) -> Self {
        ChaosStream { inner, core: None }
    }

    /// Wrap `inner` under `chaos`. `stream_id` disambiguates
    /// connections (reconnect attempts, accept sequence) so each gets
    /// its own reproducible fault stream; `start` anchors the partition
    /// clock (share one `Instant` across streams to script
    /// cluster-wide windows); injected faults are journaled through
    /// `telemetry` and counted on `counter` when given.
    pub fn wrap(
        inner: TcpStream,
        chaos: &WireChaos,
        side: ChaosSide,
        stream_id: u64,
        start: Instant,
        telemetry: Telemetry,
        counter: Option<Arc<Counter>>,
    ) -> Self {
        if chaos.is_quiet() {
            return ChaosStream::passthrough(inner);
        }
        let seed = chaos.seed ^ SEED_MIX ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ChaosStream {
            inner,
            core: Some(ChaosCore {
                plan: chaos.plan.clone(),
                side,
                start,
                node: NODE_UNKNOWN,
                rng: StdRng::seed_from_u64(seed),
                injected: 0,
                telemetry,
                counter,
            }),
        }
    }

    /// Name the node this connection belongs to (partitions target
    /// nodes by index; the coordinator learns it from the hello).
    pub fn set_node(&mut self, node: usize) {
        if let Some(core) = &mut self.core {
            core.node = node;
        }
    }

    /// Injected faults so far on this stream.
    pub fn injected(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.injected)
    }

    /// Passthrough to [`TcpStream::set_nonblocking`].
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.inner.set_nonblocking(on)
    }

    /// Passthrough to [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }

    /// Decide what fault (if any) hits one outgoing frame, checked in
    /// severity order: partition, reset, drop, corrupt, duplicate,
    /// delay — at most one class per frame. The fault is journaled
    /// here; the caller applies the decision. On [`WriteFault::Reset`]
    /// the socket has already been shut down.
    pub(crate) fn decide_write_fault(&mut self, frame: &[u8]) -> WriteFault {
        let Some(core) = &mut self.core else {
            return WriteFault::Deliver;
        };
        let (len, codec) = sniff_frame(frame);
        if let Some(kind) = core.write_partition(core.now_s()) {
            core.note(kind, len, codec);
            return WriteFault::Drop;
        }
        let plan = &core.plan;
        let rates = [
            (plan.reset_rate, WireFaultKind::Reset),
            (plan.drop_rate, WireFaultKind::Drop),
            (plan.corrupt_rate, WireFaultKind::Corrupt),
            (plan.duplicate_rate, WireFaultKind::Duplicate),
            (plan.delay_rate, WireFaultKind::Delay),
        ];
        let Some(kind) = rates
            .into_iter()
            .find_map(|(rate, kind)| core.fires(rate).then_some(kind))
        else {
            return WriteFault::Deliver;
        };
        core.note(kind, len, codec);
        match kind {
            WireFaultKind::Reset => {
                let _ = self.inner.shutdown(Shutdown::Both);
                WriteFault::Reset
            }
            WireFaultKind::Drop => WriteFault::Drop,
            WireFaultKind::Corrupt => {
                let mut bytes = frame.to_vec();
                if core.rng.gen::<f64>() < 0.5 && bytes.len() > 1 {
                    // Truncate: the tail never arrives.
                    let keep = core.rng.gen_range(1..bytes.len());
                    bytes.truncate(keep);
                } else if !bytes.is_empty() {
                    // Flip one bit somewhere in the frame.
                    let at = core.rng.gen_range(0..bytes.len());
                    let bit = core.rng.gen_range(0u32..8);
                    bytes[at] ^= 1 << bit;
                }
                WriteFault::Corrupt(bytes)
            }
            WireFaultKind::Duplicate => WriteFault::Duplicate,
            // Delay, the table's last entry.
            _ => WriteFault::Delay(Duration::from_secs_f64(core.plan.delay_s.max(0.0))),
        }
    }

    /// One raw `write` on the inner socket — no fault logic (the
    /// decision was taken at enqueue time), no `write_all` loop: the
    /// transport tracks partial-write offsets itself.
    pub(crate) fn write_raw(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    /// One `read` on the inner socket. While a scripted partition
    /// blackholes this direction, the bytes read are discarded and the
    /// call reports `WouldBlock`, as if nothing had arrived.
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            if let Some(core) = &mut self.core {
                if let Some(kind) = core.read_partition(core.now_s()) {
                    core.note(kind, 0, 0);
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "chaos partition blackholed the read",
                    ));
                }
            }
        }
        Ok(n)
    }
}

impl AsRawFd for ChaosStream {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FillStatus, Transport};
    use crate::wire::{encode_with, WireCodec, WireMsg};
    use std::net::TcpListener;

    /// A connected loopback pair; both ends carry a 5 s read timeout so
    /// a missing frame fails the test instead of hanging it.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        for s in [&client, &server] {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        (client, server)
    }

    fn chaos_transport(
        raw: TcpStream,
        chaos: &WireChaos,
        side: ChaosSide,
        start: Instant,
        telemetry: Telemetry,
    ) -> Transport {
        Transport::new(ChaosStream::wrap(
            raw, chaos, side, 0, start, telemetry, None,
        ))
    }

    fn send(tx: &mut Transport, msg: &WireMsg) {
        tx.send(msg).unwrap();
        tx.flush().unwrap();
    }

    fn frame(msg: &WireMsg) -> Vec<u8> {
        encode_with(msg, WireCodec::Json).unwrap()
    }

    fn read_exact(stream: &mut TcpStream, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        stream.read_exact(&mut out).unwrap();
        out
    }

    /// The acceptance differential: a `none`-plan `ChaosStream` is
    /// byte-identical to the bare stream, frame for frame.
    #[test]
    fn quiet_chaos_stream_is_byte_identical_to_bare() {
        let msgs: Vec<WireMsg> = (0u64..50)
            .map(|i| WireMsg::Heartbeat { epoch: i * i * 7 })
            .collect();
        let total: usize = msgs.iter().map(|m| frame(m).len()).sum();

        let (mut bare_tx, mut bare_rx) = pair();
        for m in &msgs {
            bare_tx.write_all(&frame(m)).unwrap();
        }
        let bare_bytes = read_exact(&mut bare_rx, total);

        let (chaos_tx, mut chaos_rx) = pair();
        let mut chaos_tx = chaos_transport(
            chaos_tx,
            &WireChaos::none(),
            ChaosSide::Agent,
            Instant::now(),
            Telemetry::disabled(),
        );
        for m in &msgs {
            send(&mut chaos_tx, m);
        }
        let chaos_bytes = read_exact(&mut chaos_rx, total);

        assert_eq!(bare_bytes, chaos_bytes);
        assert_eq!(chaos_tx.stream().injected(), 0);
    }

    /// Same plan + same seed + same frames → the same surviving byte
    /// stream and the same injected-fault count; a different seed gives
    /// a different fault stream.
    #[test]
    fn fault_stream_is_deterministic_in_the_seed() {
        let plan = WireFaultPlan {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            ..WireFaultPlan::none()
        };
        let run = |seed: u64| -> (Vec<u8>, u64) {
            let (tx, mut rx) = pair();
            let mut tx = chaos_transport(
                tx,
                &WireChaos::new(plan.clone(), seed),
                ChaosSide::Agent,
                Instant::now(),
                Telemetry::disabled(),
            );
            for i in 0u64..100 {
                send(&mut tx, &WireMsg::Heartbeat { epoch: i });
            }
            let injected = tx.stream().injected();
            drop(tx);
            let mut bytes = Vec::new();
            let _ = rx.read_to_end(&mut bytes);
            (bytes, injected)
        };
        let (a_bytes, a_injected) = run(42);
        let (b_bytes, b_injected) = run(42);
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(a_injected, b_injected);
        assert!(a_injected > 0, "rates this high must fire in 100 frames");
        let (c_bytes, _) = run(43);
        assert_ne!(a_bytes, c_bytes, "different seed, different stream");
    }

    /// An uplink partition window blackholes writes from the agent side
    /// while it is active and heals afterwards.
    #[test]
    fn uplink_partition_blackholes_agent_writes_then_heals() {
        let plan = WireFaultPlan::parse("partition_up=3@0:0.2").unwrap();
        let start = Instant::now();
        let (tx, mut rx) = pair();
        let mut tx = chaos_transport(
            tx,
            &WireChaos::new(plan, 1),
            ChaosSide::Agent,
            start,
            Telemetry::disabled(),
        );
        tx.set_node(3);
        // Inside the window: blackholed.
        send(&mut tx, &WireMsg::Heartbeat { epoch: 1 });
        assert!(tx.stream().injected() >= 1);
        while start.elapsed() < Duration::from_millis(250) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let back = WireMsg::Heartbeat { epoch: 2 };
        send(&mut tx, &back); // healed
        let expected = frame(&back);
        assert_eq!(read_exact(&mut rx, expected.len()), expected);
    }

    /// A downlink partition window blackholes the agent's reads —
    /// `fill` sees nothing, the fault is journaled — and heals
    /// afterwards.
    #[test]
    fn downlink_partition_blackholes_agent_reads_then_heals() {
        let telemetry = Telemetry::memory(64);
        let plan = WireFaultPlan::parse("partition_down=3@0:0.2").unwrap();
        let start = Instant::now();
        let (agent, mut coordinator) = pair();
        // `fill` reads until the socket runs dry: keep that wait short.
        agent
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut rx = chaos_transport(
            agent,
            &WireChaos::new(plan, 1),
            ChaosSide::Agent,
            start,
            telemetry.clone(),
        );
        rx.set_node(3);
        coordinator
            .write_all(&frame(&WireMsg::Heartbeat { epoch: 1 }))
            .unwrap();
        let blackholed = || {
            telemetry.events().iter().any(|e| {
                matches!(
                    e,
                    SchedEvent::WireFault {
                        node: 3,
                        kind: WireFaultKind::PartitionDown,
                        injected: true,
                        ..
                    }
                )
            })
        };
        while !blackholed() {
            assert!(
                start.elapsed() < Duration::from_millis(150),
                "read never blackholed"
            );
            assert_ne!(rx.fill().unwrap(), FillStatus::Eof);
        }
        assert_eq!(rx.next_msg().unwrap(), None, "blackholed bytes were parsed");
        while start.elapsed() < Duration::from_millis(250) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let back = WireMsg::Heartbeat { epoch: 2 };
        coordinator.write_all(&frame(&back)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            assert_ne!(rx.fill().unwrap(), FillStatus::Eof);
            if let Some(msg) = rx.next_msg().unwrap() {
                break msg;
            }
            assert!(Instant::now() < deadline, "healed link delivered nothing");
        };
        assert_eq!(got, back);
    }

    /// A delayed frame is held and delivered late, not lost.
    #[test]
    fn delayed_frames_arrive_late_not_never() {
        let plan = WireFaultPlan {
            delay_rate: 1.0,
            delay_s: 0.05,
            ..WireFaultPlan::none()
        };
        let (tx, mut rx) = pair();
        let mut tx = chaos_transport(
            tx,
            &WireChaos::new(plan, 5),
            ChaosSide::Agent,
            Instant::now(),
            Telemetry::disabled(),
        );
        let held = WireMsg::Heartbeat { epoch: 1 };
        send(&mut tx, &held);
        std::thread::sleep(Duration::from_millis(80));
        // The next flush delivers the due frame (the new one is itself
        // delayed in turn by the rate-1.0 plan).
        send(&mut tx, &WireMsg::Heartbeat { epoch: 2 });
        let expected = frame(&held);
        assert_eq!(read_exact(&mut rx, expected.len()), expected);
        assert_eq!(tx.stream().injected(), 2, "both sends hit the delay fault");
    }

    /// Injected faults are journaled as `wire_fault` events flagged
    /// `injected:true`.
    #[test]
    fn injected_faults_are_journaled() {
        let telemetry = Telemetry::memory(64);
        let plan = WireFaultPlan {
            drop_rate: 1.0,
            ..WireFaultPlan::none()
        };
        let (tx, _rx) = pair();
        let mut tx = chaos_transport(
            tx,
            &WireChaos::new(plan, 9),
            ChaosSide::Coordinator,
            Instant::now(),
            telemetry.clone(),
        );
        tx.set_node(2);
        send(&mut tx, &WireMsg::Heartbeat { epoch: 1 });
        let events = telemetry.events();
        assert!(events.iter().any(|e| matches!(
            e,
            SchedEvent::WireFault {
                node: 2,
                kind: WireFaultKind::Drop,
                injected: true,
                ..
            }
        )));
    }
}
