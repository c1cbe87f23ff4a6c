//! The node agent: one machine's measurement daemon on a socket.
//!
//! A [`NodeAgent`] runs a [`ClusterNode`] (machine + local predictor —
//! the same per-core sampling path the multi-threaded daemon's
//! collectors feed) against the coordinator: tick the machine, close
//! the measurement window every `summary_every` ticks, ship the
//! summary upstream, and apply whatever frequency ceilings come back.
//! It is an [`AgentFleet`] of one, so a standalone agent and a fleet
//! member run the same state machine (see [`crate::fleet`] for the
//! handshake, epoch fencing and link-timeout rules).
//!
//! This module holds what every agent shares: its [`AgentConfig`],
//! and the [`ReconnectLadder`] it climbs when the link drops — a
//! seedable, equal-jitter exponential backoff: base, 2×, 4×, … up to a
//! ceiling, each rung drawn uniformly from [rung/2, rung] so a herd of
//! agents losing one coordinator does not reconnect in lockstep.

use crate::error::FvsError;
use crate::fleet::{AgentFleet, AgentStats, FleetHandle};
use crate::wire::{WireCodec, CODEC_ALL, CODEC_JSON_BIT, SCHEMA_VERSION};
use crate::WireChaos;
use fvs_cluster::ClusterNode;
use fvs_telemetry::{Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Seedable equal-jitter exponential backoff: rung `k` sleeps a
/// uniform draw from `[base·2ᵏ/2, base·2ᵏ]`, capped at `max`. Pure
/// state machine — the caller does the sleeping — so the jitter
/// distribution is unit-testable without a clock.
#[derive(Debug)]
pub struct ReconnectLadder {
    base: Duration,
    max: Duration,
    rung: Duration,
    rng: StdRng,
}

impl ReconnectLadder {
    /// A ladder climbing from `base` to `max`, jittered by `seed`.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        ReconnectLadder {
            base,
            max: max.max(base),
            rung: base,
            rng: StdRng::seed_from_u64(seed ^ 0xBACC_0FF5_EED5_0DA5),
        }
    }

    /// The next delay to sleep: equal-jitter on the current rung, then
    /// climb (doubling, capped at the ceiling).
    pub fn next_delay(&mut self) -> Duration {
        let jitter = 0.5 + 0.5 * self.rng.gen::<f64>();
        let delay = self.rung.mul_f64(jitter);
        self.rung = (self.rung * 2).min(self.max);
        delay
    }

    /// The rung the *next* `next_delay` will jitter around.
    pub fn rung(&self) -> Duration {
        self.rung
    }

    /// Back to the bottom rung (called on a successful handshake).
    pub fn reset(&mut self) {
        self.rung = self.base;
    }
}

/// Tunables of one node agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Simulated seconds each machine tick advances.
    pub tick_s: f64,
    /// Ticks per summary (the paper's `n`: window per report).
    pub summary_every: u32,
    /// Wall time per tick outside real-time mode (zero = free-running).
    pub pace: Duration,
    /// Real-time mode: each tick takes exactly `tick_s` of wall time
    /// (absolute deadlines, drift-free), so one simulated second takes
    /// one wall second — the honest way to soak a live coordinator on
    /// the paper's real `t = 10 ms` sampling cadence. Overrides `pace`.
    pub timed: bool,
    /// First reconnect delay of the backoff ladder.
    pub backoff_base: Duration,
    /// Ceiling of the backoff ladder.
    pub backoff_max: Duration,
    /// Seed for the ladder's jitter (mixed with the node id, so a
    /// fleet sharing one config still spreads out).
    pub jitter_seed: u64,
    /// Declare the link dead when nothing — ceiling, heartbeat,
    /// anything — arrives for this long, and reconnect. Heartbeats
    /// from the coordinator make this time-bounded even on rounds that
    /// command the node nothing.
    pub link_timeout: Duration,
    /// Schema version to announce (tests speak wrong versions on
    /// purpose; everything real uses [`SCHEMA_VERSION`]).
    pub version: u32,
    /// Preferred wire codec. JSON is always advertised (it is the
    /// handshake encoding and the floor every peer speaks); preferring
    /// [`WireCodec::Binary`] additionally advertises the `FVS2` fast
    /// path, which the coordinator picks when it too prefers binary.
    pub codec: WireCodec,
    /// Wire-chaos injection on this agent's socket (quiet = pure
    /// passthrough).
    pub chaos: WireChaos,
    /// Causal span tracer: `node.apply` spans, one per ceiling applied
    /// to the machine.
    pub tracer: Tracer,
    /// Event journal (wire-fault events injected by `chaos` land
    /// here).
    pub telemetry: Telemetry,
}

impl AgentConfig {
    /// Paper-flavoured defaults: 10 ms ticks, summary every 10 ticks,
    /// 2 ms pacing, 50 ms → 800 ms backoff ladder.
    pub fn default_lan() -> Self {
        AgentConfig {
            tick_s: 0.01,
            summary_every: 10,
            pace: Duration::from_millis(2),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(800),
            jitter_seed: 0,
            link_timeout: Duration::from_secs(3),
            timed: false,
            version: SCHEMA_VERSION,
            codec: WireCodec::Binary,
            chaos: WireChaos::none(),
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Enable or disable wall-clock real-time pacing (see
    /// [`AgentConfig::timed`]).
    pub fn with_timed(mut self, timed: bool) -> Self {
        self.timed = timed;
        self
    }

    /// Override the simulated tick length.
    pub fn with_tick_s(mut self, tick_s: f64) -> Self {
        self.tick_s = tick_s;
        self
    }

    /// Override the ticks-per-summary window.
    pub fn with_summary_every(mut self, ticks: u32) -> Self {
        self.summary_every = ticks.max(1);
        self
    }

    /// Override the wall-clock pacing.
    pub fn with_pace(mut self, pace: Duration) -> Self {
        self.pace = pace;
        self
    }

    /// Override the backoff ladder.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self
    }

    /// Seed the reconnect jitter.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Override the dead-link timeout.
    pub fn with_link_timeout(mut self, timeout: Duration) -> Self {
        self.link_timeout = timeout;
        self
    }

    /// Announce a different schema version (version-negotiation tests).
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Set the preferred wire codec (see [`AgentConfig::codec`]).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Inject wire chaos on this agent's socket.
    pub fn with_chaos(mut self, chaos: WireChaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attach a causal span tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach an event journal.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), FvsError> {
        if !(self.tick_s.is_finite() && self.tick_s > 0.0) {
            return Err(FvsError::config("tick_s must be finite and positive"));
        }
        if self.summary_every == 0 {
            return Err(FvsError::config("summary_every must be at least 1"));
        }
        if self.backoff_base > self.backoff_max {
            return Err(FvsError::config("backoff_base exceeds backoff_max"));
        }
        if self.link_timeout.is_zero() {
            return Err(FvsError::config("link_timeout must be positive"));
        }
        Ok(())
    }
}

/// An agent's final counters, returned when it stops or is killed.
#[derive(Debug, Clone)]
pub struct AgentReport {
    /// The node this agent drove.
    pub node: usize,
    /// Summaries shipped upstream.
    pub summaries_sent: u64,
    /// Ceiling commands applied to the machine.
    pub ceilings_applied: u64,
    /// Times the connection was (re-)established after the first.
    pub reconnects: u64,
    /// Stale coordinators refused (handshake or heartbeat epoch below
    /// the highest this agent has acknowledged).
    pub epochs_fenced: u64,
    /// The coordinator refused our schema version.
    pub version_rejected: bool,
    /// Node power when the agent stopped (W).
    pub final_power_w: f64,
}

impl AgentReport {
    fn new(node: usize, stats: &AgentStats) -> Self {
        AgentReport {
            node,
            summaries_sent: stats.summaries_sent(),
            ceilings_applied: stats.ceilings_applied(),
            reconnects: stats.reconnects(),
            epochs_fenced: stats.epochs_fenced(),
            version_rejected: stats.version_rejects() > 0,
            final_power_w: stats.power_w(),
        }
    }
}

/// Handle to a running node agent.
pub struct NodeAgentHandle {
    node: usize,
    fleet: FleetHandle,
}

impl NodeAgentHandle {
    /// Whether the agent has already exited on its own (version
    /// refusal is the one self-terminating path).
    pub fn is_finished(&self) -> bool {
        self.fleet.is_finished()
    }

    /// The agent's live counters (shareable; plain atomics).
    pub fn stats(&self) -> Arc<AgentStats> {
        self.fleet.stats()
    }

    /// Orderly shutdown: the agent says `Bye` and returns its report.
    pub fn stop(self) -> AgentReport {
        AgentReport::new(self.node, &self.fleet.stop())
    }

    /// Crash the agent: the socket just goes dead, no goodbye — from
    /// the coordinator's side this is indistinguishable from a node
    /// failure, which is the point.
    pub fn kill(self) -> AgentReport {
        AgentReport::new(self.node, &self.fleet.kill())
    }
}

/// Starts standalone node agents.
pub struct NodeAgent;

impl NodeAgent {
    /// Start an agent driving `node` against the coordinator at `addr`:
    /// an [`AgentFleet`] of one.
    pub fn spawn(
        node: ClusterNode,
        addr: impl Into<String>,
        config: AgentConfig,
    ) -> Result<NodeAgentHandle, FvsError> {
        let id = node.id;
        let fleet = AgentFleet::launch(vec![node], addr.into(), config, Duration::ZERO)?;
        Ok(NodeAgentHandle { node: id, fleet })
    }
}

/// The codec advertisement bitmask for a preference: JSON is always on
/// the table; preferring binary adds the `FVS2` bit.
pub(crate) fn advertised_codecs(prefer: WireCodec) -> u8 {
    match prefer {
        WireCodec::Json => CODEC_JSON_BIT,
        WireCodec::Binary => CODEC_ALL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_climbs_doubles_and_caps() {
        let mut ladder =
            ReconnectLadder::new(Duration::from_millis(50), Duration::from_millis(400), 7);
        let expected_rungs = [50u64, 100, 200, 400, 400, 400];
        for &rung_ms in &expected_rungs {
            let rung = Duration::from_millis(rung_ms);
            assert_eq!(ladder.rung(), rung);
            let d = ladder.next_delay();
            assert!(
                d >= rung / 2 && d <= rung,
                "delay {d:?} outside [{rung:?}/2, {rung:?}]"
            );
        }
        ladder.reset();
        assert_eq!(ladder.rung(), Duration::from_millis(50));
    }

    /// Satellite: the jitter actually spreads a fleet out. Across many
    /// seeds the first-rung delays must cover the [base/2, base] range
    /// instead of clustering — we check both ends of the range get
    /// hits and that not everyone draws the same delay.
    #[test]
    fn jitter_spreads_distinct_seeds_across_the_rung() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(1);
        let delays: Vec<Duration> = (0u64..64)
            .map(|seed| ReconnectLadder::new(base, max, seed).next_delay())
            .collect();
        for d in &delays {
            assert!(*d >= base / 2 && *d <= base);
        }
        let lower_half = delays.iter().filter(|d| **d < base * 3 / 4).count();
        let upper_half = delays.len() - lower_half;
        assert!(
            lower_half >= 10 && upper_half >= 10,
            "jitter is not spreading: {lower_half} low vs {upper_half} high"
        );
        let first = delays[0];
        assert!(
            delays.iter().any(|d| *d != first),
            "every seed drew the same delay"
        );
    }

    #[test]
    fn same_seed_same_jitter_sequence() {
        let mk = || {
            let mut l =
                ReconnectLadder::new(Duration::from_millis(80), Duration::from_millis(640), 42);
            (0..6).map(|_| l.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
