//! The readiness reactor: many connections, one thread.
//!
//! A [`Reactor`] owns a `netpoll` poller plus a slab of
//! [`Transport`]s, each paired with caller-supplied per-connection
//! state (the coordinator hangs handshake/deadline bookkeeping here;
//! the soak fleet hangs whole agent state machines). Tokens are slab
//! indices, so event dispatch is an array lookup — no hashing on the
//! hot path — and a freed slot's storage is reused by the next accept.
//!
//! The reactor registers every connection read-interested and toggles
//! write interest to follow [`Transport::wants_write`]: a connection
//! with an empty outbound queue never wakes the poller for writability
//! (level-triggered `EPOLLOUT` on an idle socket would busy-spin).
//!
//! Two extra descriptors of the coordinator register under reserved
//! tokens far above any slab index: its listener under
//! [`LISTENER_TOKEN`], and the read end of its waker under
//! [`WAKER_TOKEN`]. A thread that changes the budget or stops the
//! server writes a byte to the waker's other end, so the loop sleeps
//! until it has work instead of polling on a short timeout.

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

use netpoll::{Interest, PollEvent, Poller};

use crate::transport::Transport;

/// Token reserved for the accept listener (never a slab index).
pub const LISTENER_TOKEN: u64 = u64::MAX;

/// Token reserved for the coordinator's waker (never a slab index).
pub const WAKER_TOKEN: u64 = u64::MAX - 1;

struct Entry<T> {
    transport: Transport,
    data: T,
    /// Last interest registered with the poller, to skip no-op
    /// `modify` syscalls.
    writable: bool,
}

/// A slab of connections multiplexed onto one poller. See the module
/// docs.
pub struct Reactor<T> {
    poller: Poller,
    slots: Vec<Option<Entry<T>>>,
    free: Vec<usize>,
    events: Vec<PollEvent>,
    count: usize,
}

impl<T> Reactor<T> {
    /// An empty reactor.
    pub fn new() -> io::Result<Reactor<T>> {
        Ok(Reactor {
            poller: Poller::new()?,
            slots: Vec::new(),
            free: Vec::new(),
            events: Vec::new(),
            count: 0,
        })
    }

    /// Live connections.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the reactor holds no connections.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Register the accept listener under [`LISTENER_TOKEN`]. The
    /// listener must already be nonblocking.
    pub fn register_listener(&self, listener: &impl AsRawFd) -> io::Result<()> {
        self.register_fd(listener, LISTENER_TOKEN)
    }

    /// Register a descriptor the reactor does not own, read-interested,
    /// under a reserved `token` such as [`LISTENER_TOKEN`] or
    /// [`WAKER_TOKEN`]. The caller keeps it open while registered and
    /// drains it on its events.
    pub fn register_fd(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
        self.poller.register(fd.as_raw_fd(), token, Interest::READ)
    }

    /// Adopt a connection: switch it nonblocking, register it with the
    /// poller, and store it with its per-connection state. Returns the
    /// connection's token.
    pub fn insert(&mut self, transport: Transport, data: T) -> io::Result<u64> {
        transport.stream().set_nonblocking(true)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let token = slot as u64;
        let writable = transport.wants_write();
        let interest = if writable {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if let Err(e) = self
            .poller
            .register(transport.stream().as_raw_fd(), token, interest)
        {
            self.free.push(slot);
            return Err(e);
        }
        self.slots[slot] = Some(Entry {
            transport,
            data,
            writable,
        });
        self.count += 1;
        Ok(token)
    }

    /// Drop a connection, deregistering it from the poller. Returns
    /// its transport and state (the socket closes when the transport
    /// drops, unless the caller keeps it).
    pub fn remove(&mut self, token: u64) -> Option<(Transport, T)> {
        let slot = usize::try_from(token).ok()?;
        let entry = self.slots.get_mut(slot)?.take()?;
        let _ = self.poller.deregister(entry.transport.stream().as_raw_fd());
        self.free.push(slot);
        self.count -= 1;
        Some((entry.transport, entry.data))
    }

    /// Mutable access to one connection.
    pub fn get_mut(&mut self, token: u64) -> Option<(&mut Transport, &mut T)> {
        let slot = usize::try_from(token).ok()?;
        let entry = self.slots.get_mut(slot)?.as_mut()?;
        Some((&mut entry.transport, &mut entry.data))
    }

    /// Re-sync this connection's poller interest with its transport's
    /// queue state. Call after sends and flushes.
    pub fn update_interest(&mut self, token: u64) -> io::Result<()> {
        let slot = match usize::try_from(token) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let wants = entry.transport.wants_write();
        if wants == entry.writable {
            return Ok(());
        }
        let interest = if wants {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        self.poller
            .modify(entry.transport.stream().as_raw_fd(), token, interest)?;
        entry.writable = wants;
        Ok(())
    }

    /// Every live token (snapshot — safe to `remove` while iterating
    /// the result). Used for periodic sweeps, not the event path.
    pub fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Block until readiness or timeout; the events are left in an
    /// internal buffer (take them with [`Reactor::drain_events`]).
    pub fn poll(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let mut events = std::mem::take(&mut self.events);
        let n = self.poller.wait(&mut events, timeout)?;
        self.events = events;
        Ok(n)
    }

    /// Take the events from the last [`Reactor::poll`].
    pub fn drain_events(&mut self) -> Vec<PollEvent> {
        std::mem::take(&mut self.events)
    }

    /// Return an event buffer for reuse (avoids reallocating per poll).
    pub fn recycle_events(&mut self, mut events: Vec<PollEvent>) {
        events.clear();
        self.events = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosStream;
    use crate::wire::WireMsg;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn slab_reuses_slots_and_tracks_count() {
        let mut r: Reactor<u32> = Reactor::new().unwrap();
        let (a1, _k1) = pair();
        let (a2, _k2) = pair();
        let t1 = r
            .insert(Transport::new(ChaosStream::passthrough(a1)), 1)
            .unwrap();
        let t2 = r
            .insert(Transport::new(ChaosStream::passthrough(a2)), 2)
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_ne!(t1, t2);
        let (_, data) = r.remove(t1).unwrap();
        assert_eq!(data, 1);
        assert_eq!(r.len(), 1);
        let (a3, _k3) = pair();
        let t3 = r
            .insert(Transport::new(ChaosStream::passthrough(a3)), 3)
            .unwrap();
        assert_eq!(t3, t1, "freed slot is reused");
        assert_eq!(r.tokens().len(), 2);
        assert!(r.get_mut(t2).is_some());
        assert!(r.remove(999).is_none());
    }

    #[test]
    fn readable_event_carries_the_right_token() {
        let mut r: Reactor<()> = Reactor::new().unwrap();
        let (server, mut client) = pair();
        let token = r
            .insert(Transport::new(ChaosStream::passthrough(server)), ())
            .unwrap();

        use std::io::Write;
        let frame = crate::wire::encode(&WireMsg::Heartbeat { epoch: 5 }).unwrap();
        client.write_all(&frame).unwrap();

        let n = r.poll(Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        let events = r.drain_events();
        assert!(events.iter().any(|e| e.token == token && e.readable));

        let (transport, _) = r.get_mut(token).unwrap();
        assert!(matches!(
            transport.fill().unwrap(),
            crate::transport::FillStatus::Progress
        ));
        assert_eq!(
            transport.next_msg().unwrap(),
            Some(WireMsg::Heartbeat { epoch: 5 })
        );
        r.recycle_events(events);
    }

    #[test]
    fn write_interest_follows_the_queue() {
        let mut r: Reactor<()> = Reactor::new().unwrap();
        let (server, _client) = pair();
        let token = r
            .insert(Transport::new(ChaosStream::passthrough(server)), ())
            .unwrap();
        // Idle connection: no writable wakeups even though the socket
        // could accept bytes (write interest is off).
        let n = r.poll(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "idle connection must not wake the poller");

        // Queue a frame without flushing: interest flips on and the
        // poller reports writability.
        let (transport, _) = r.get_mut(token).unwrap();
        transport.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        assert!(transport.wants_write());
        r.update_interest(token).unwrap();
        let n = r.poll(Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        let events = r.drain_events();
        assert!(events.iter().any(|e| e.token == token && e.writable));

        // Flush; interest flips back off.
        let (transport, _) = r.get_mut(token).unwrap();
        transport.flush().unwrap();
        assert!(!transport.wants_write());
        r.update_interest(token).unwrap();
        r.recycle_events(events);
        let n = r.poll(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
    }
}
