//! The unified transport: one connection's codec, chaos, framing and
//! queueing state behind a single API.
//!
//! For one connection, [`Transport`] owns:
//!
//! * **Codec seam** — frames go out under the negotiated [`WireCodec`]
//!   (handshake frames always JSON, see [`encode_with`]); incoming
//!   frames decode by magic, so both codecs are always readable.
//! * **Chaos as a layer** — the [`ChaosStream`] is owned here, so its
//!   fault state needs no sharing. Outgoing frames take their fault
//!   decision at enqueue time, which is what makes fault injection
//!   compose with nonblocking writes: a partial write retried later
//!   must not re-roll the dice, and a chaos-delayed frame waits in its
//!   own queue so it never blocks the frames behind it. Reads go
//!   through the chaos layer too, so partitions blackhole them.
//! * **Queueing** — writes never block. Bytes that don't fit the socket
//!   buffer wait in an outbound queue with a partial-write offset;
//!   [`Transport::flush`] drains what the socket will take.
//!
//! The same type serves both ends: the coordinator's reactor and the
//! agent fleet's reactor each drive thousands of these off readiness
//! events.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use crate::chaos::{ChaosStream, WriteFault};
use crate::error::FvsError;
use crate::wire::{encode_with, FrameFault, FrameReader, WireCodec, WireMsg};

/// What [`Transport::fill`] observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// Bytes arrived and were buffered; call [`Transport::next_msg`].
    Progress,
    /// Nothing available right now (`WouldBlock` / read timeout).
    Idle,
    /// The peer closed the connection (orderly EOF).
    Eof,
}

/// One connection's transport state. See the module docs.
#[derive(Debug)]
pub struct Transport {
    stream: ChaosStream,
    reader: FrameReader,
    codec: WireCodec,
    /// Complete frames (post-fault-decision) awaiting socket space.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    out_pos: usize,
    /// Total bytes across `outq` (backpressure accounting).
    queued: usize,
    /// Chaos-delayed frames and their due times, promoted into `outq`
    /// by [`Transport::flush`]. Kept separate so a held frame never
    /// blocks the frames behind it.
    delayed: Vec<(Instant, Vec<u8>)>,
    /// Frames successfully enqueued (i.e. sent, as far as the caller
    /// is concerned — chaos drops count, since the caller can't tell).
    frames_tx: u64,
    /// Total bytes [`Transport::fill`] has read off the socket.
    bytes_rx: u64,
}

impl Transport {
    /// Wrap a connection. The write codec starts as JSON — the only
    /// encoding legal before negotiation completes.
    pub fn new(stream: ChaosStream) -> Self {
        Transport {
            stream,
            reader: FrameReader::new(),
            codec: WireCodec::Json,
            outq: VecDeque::new(),
            out_pos: 0,
            queued: 0,
            delayed: Vec::new(),
            frames_tx: 0,
            bytes_rx: 0,
        }
    }

    /// The underlying chaos-wrapped socket (for socket options, the
    /// raw descriptor and the injected-fault count).
    pub fn stream(&self) -> &ChaosStream {
        &self.stream
    }

    /// Name the node this connection serves, for node-targeted chaos
    /// partitions and fault journaling (see [`ChaosStream::set_node`]).
    pub fn set_node(&mut self, node: usize) {
        self.stream.set_node(node);
    }

    /// Switch the write codec once negotiation picks one. Reads are
    /// unaffected — the frame magic decides per frame.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// The negotiated write codec.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Frames handed to [`Transport::send`] so far.
    pub fn frames_tx(&self) -> u64 {
        self.frames_tx
    }

    /// Total bytes read off the socket so far (metrics delta source).
    pub fn bytes_rx(&self) -> u64 {
        self.bytes_rx
    }

    /// Bytes sitting in the outbound queue (excluding delayed frames).
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether [`Transport::flush`] has socket work to do right now —
    /// the reactor's cue to poll for write readiness.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// When the earliest chaos-delayed frame comes due, if any — the
    /// cue to call [`Transport::flush`] again even without new sends.
    pub fn next_delay_due(&self) -> Option<Instant> {
        self.delayed.iter().map(|(due, _)| *due).min()
    }

    /// Encode `msg` under the negotiated codec, take the chaos fault
    /// decision, and queue the surviving bytes. Never blocks; call
    /// [`Transport::flush`] to move the queue onto the socket.
    ///
    /// An `Err` means the connection is unusable (encode failure or a
    /// chaos reset that already shut the socket down).
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), FvsError> {
        let frame = encode_with(msg, self.codec)?;
        self.frames_tx += 1;
        match self.stream.decide_write_fault(&frame) {
            WriteFault::Deliver => self.enqueue(frame),
            WriteFault::Drop => {}
            WriteFault::Corrupt(bytes) => self.enqueue(bytes),
            WriteFault::Duplicate => {
                self.enqueue(frame.clone());
                self.enqueue(frame);
            }
            WriteFault::Delay(hold) => self.delayed.push((Instant::now() + hold, frame)),
            WriteFault::Reset => {
                return Err(FvsError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos reset the connection",
                )))
            }
        }
        Ok(())
    }

    fn enqueue(&mut self, bytes: Vec<u8>) {
        self.queued += bytes.len();
        self.outq.push_back(bytes);
    }

    /// Promote due delayed frames, then write as much of the queue as
    /// the socket accepts. On a nonblocking socket this returns at
    /// `WouldBlock` with the remainder queued; on a blocking socket
    /// (before the reactor adopts it) it drains everything promoted.
    /// Errors mean the connection is dead.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.delayed.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= now {
                    let (_, frame) = self.delayed.remove(i);
                    self.enqueue(frame);
                } else {
                    i += 1;
                }
            }
        }
        while let Some(front) = self.outq.front() {
            match self.stream.write_raw(&front[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos == front.len() {
                        self.queued -= front.len();
                        self.out_pos = 0;
                        self.outq.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read whatever the socket has into the frame buffer. Loops until
    /// the socket runs dry (`WouldBlock` or a read timeout), the peer
    /// closes, or an error surfaces.
    pub fn fill(&mut self) -> io::Result<FillStatus> {
        let mut buf = [0u8; 4096];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut buf) {
                // EOF right after fresh bytes (peer wrote, then closed):
                // report the progress first so the caller parses what
                // arrived; the next call reports the EOF.
                Ok(0) if progressed => return Ok(FillStatus::Progress),
                Ok(0) => return Ok(FillStatus::Eof),
                Ok(n) => {
                    self.reader.feed(&buf[..n]);
                    self.bytes_rx += n as u64;
                    progressed = true;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(if progressed {
                        FillStatus::Progress
                    } else {
                        FillStatus::Idle
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Parse the next buffered frame; `Ok(None)` means more bytes are
    /// needed. On `Err`, [`Transport::last_fault`] (and its length and
    /// codec companions) classify the failure for telemetry.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, FvsError> {
        self.reader.next_frame()
    }

    /// Classification of the most recent [`Transport::next_msg`] error.
    pub fn last_fault(&self) -> Option<FrameFault> {
        self.reader.last_fault()
    }

    /// Observed length of the faulting frame (see
    /// [`FrameReader::last_fault_len`]).
    pub fn last_fault_len(&self) -> u32 {
        self.reader.last_fault_len()
    }

    /// Codec id of the faulting frame (see
    /// [`FrameReader::last_fault_codec`]).
    pub fn last_fault_codec(&self) -> u8 {
        self.reader.last_fault_codec()
    }

    /// Best-effort goodbye: send + flush, ignoring failures (the peer
    /// may already be gone).
    pub fn send_best_effort(&mut self, msg: &WireMsg) {
        let _ = self.send(msg);
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosSide, WireChaos};
    use crate::wire::SCHEMA_VERSION;
    use fvs_faults::WireFaultPlan;
    use fvs_telemetry::Telemetry;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn transport_pair(chaos: &WireChaos) -> (Transport, Transport) {
        let (a, b) = pair();
        b.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let tx = Transport::new(ChaosStream::wrap(
            a,
            chaos,
            ChaosSide::Agent,
            0,
            Instant::now(),
            Telemetry::disabled(),
            None,
        ));
        let rx = Transport::new(ChaosStream::passthrough(b));
        (tx, rx)
    }

    fn recv_one(rx: &mut Transport) -> WireMsg {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(msg) = rx.next_msg().unwrap() {
                return msg;
            }
            let _ = rx.fill().unwrap();
        }
        panic!("no frame within deadline");
    }

    #[test]
    fn frames_cross_in_both_codecs() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 1 });

        tx.set_codec(WireCodec::Binary);
        tx.send(&WireMsg::Heartbeat { epoch: 2 }).unwrap();
        tx.flush().unwrap();
        // The receiver never negotiated binary — the magic carries it.
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 2 });
    }

    #[test]
    fn nonblocking_sender_queues_past_a_full_socket() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        tx.stream().set_nonblocking(true).unwrap();
        // Stuff the socket until writes stop landing, then some more.
        let msg = WireMsg::Hello {
            node: 1,
            procs: 64,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: crate::wire::CODEC_ALL,
        };
        let mut sent = 0u64;
        while tx.queued_bytes() == 0 && sent < 200_000 {
            tx.send(&msg).unwrap();
            tx.flush().unwrap();
            sent += 1;
        }
        assert!(tx.queued_bytes() > 0, "loopback buffers are not infinite");
        for _ in 0..100 {
            tx.send(&msg).unwrap();
        }
        sent += 100;
        // Drain the receiver; the sender's queue must fully unwind.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0u64;
        while got < sent && Instant::now() < deadline {
            tx.flush().unwrap();
            let _ = rx.fill().unwrap();
            while let Some(m) = rx.next_msg().unwrap() {
                assert_eq!(m, msg);
                got += 1;
            }
        }
        assert_eq!(got, sent);
        assert_eq!(tx.queued_bytes(), 0);
    }

    /// A chaos-delayed frame must not block frames sent after it — the
    /// transport reorders (that's what a delay fault *means*), and the
    /// held frame arrives once due.
    #[test]
    fn delayed_frames_do_not_block_the_queue() {
        let chaos = WireChaos::new(
            WireFaultPlan {
                delay_rate: 1.0,
                delay_s: 0.08,
                ..WireFaultPlan::none()
            },
            11,
        );
        let (mut tx, mut rx) = transport_pair(&chaos);
        tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        tx.flush().unwrap();
        assert!(tx.next_delay_due().is_some());
        assert!(!tx.wants_write(), "held frame must not occupy the queue");
        std::thread::sleep(Duration::from_millis(120));
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 1 });
        assert!(tx.next_delay_due().is_none());
    }

    /// Chaos reset surfaces as a send error and the socket is dead.
    #[test]
    fn chaos_reset_surfaces_on_send() {
        let chaos = WireChaos::new(
            WireFaultPlan {
                reset_rate: 1.0,
                ..WireFaultPlan::none()
            },
            3,
        );
        let (mut tx, _rx) = transport_pair(&chaos);
        let err = tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap_err();
        assert!(matches!(err, FvsError::Io(_)), "{err}");
    }
}
