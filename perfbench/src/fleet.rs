//! `fleet-10k`: the coordinator's round at cluster scale, in process.
//!
//! Ten thousand seeded 4-way p630 nodes run against one
//! `GlobalCoordinator` on one thread, round by round. Every summary and
//! every ceiling passes through the binary codec. Per round:
//!
//! 1. node side (outside `round_ms`): every node ticks, summarizes, and
//!    encodes its summary frame;
//! 2. coordinator path (`round_ms`): decode N summaries, ingest them,
//!    schedule, encode the ceilings;
//! 3. node side: decode each ceiling and apply it. `react_ms` is, for a
//!    stride sample of nodes, the time from the start of step 2 until
//!    that node has applied its ceiling.
//!
//! Both, and the set-up time, are read on the host's wall clock, so
//! work the program fans out to other threads, and any wait for it,
//! counts. The coordinator path's CPU time on the calling thread is
//! reported beside them as a provenance fact.
//!
//! The budget binds in every timed round and steps between two binding
//! levels on a fixed schedule (7 rounds at 95 % of the fleet's desired
//! power, then 3 at 85 %), so pass 2 always runs and the p50 and p95
//! fall inside the two populations of rounds, not on their boundary.
//! Measured power must be at or under each step's budget by the step's
//! last round.

use crate::checks::{binary_payload, check_ceiling, check_round_trip};
use crate::report::{beyond, median, quantile, LatencyHist, Metric, Outcome};
use crate::sys::{peak_rss_mb, thread_cpu_now_ns, SplitMix64};
use crate::trace::Recorder;
use fvs_cluster::{ClusterNode, FrequencyCommand, GlobalCoordinator, NodeSummary};
use fvs_model::FrequencySet;
use fvs_net::{decode_payload_binary, encode_with, WireCodec, WireMsg};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::Tracer;
use fvs_workloads::WorkloadSpec;
use std::time::Instant;

/// Processors per p630 node.
const PROCS: usize = 4;
/// `fvsst-net-soak`'s heterogeneous CPU-intensity classes.
const INTENSITIES: [f64; 5] = [20.0, 40.0, 60.0, 80.0, 100.0];
/// Budget schedule: `HIGH_ROUNDS` rounds at `HIGH` × desired power,
/// then `LOW_ROUNDS` at `LOW` ×, repeating.
const HIGH: f64 = 0.95;
const LOW: f64 = 0.85;
const HIGH_ROUNDS: u64 = 7;
const LOW_ROUNDS: u64 = 3;
/// Rounds in one whole budget schedule.
const SCHEDULE_ROUNDS: u64 = HIGH_ROUNDS + LOW_ROUNDS;
/// The paper's ΔT (s): measured power must be back under the budget
/// within this much simulated time of a step, or by the step's last
/// round if that comes first.
const DELTA_T_S: f64 = 1.0;
/// Scheduling period in simulated time (the coordinator's default).
const PERIOD_S: f64 = 0.1;
/// Node ticks per scheduling round (each `PERIOD_S / TICKS_PER_ROUND`
/// long).
const TICKS_PER_ROUND: u32 = 5;
/// Times the set-up is repeated (the median is reported).
const SETUPS: usize = 5;
/// Every `REACT_STRIDE`-th node (rotating) is timed for `react_ms`.
const REACT_STRIDE: usize = 8;
/// Ceiling of the `react_ms` histogram; a round takes far less.
const REACT_MAX_MS: f64 = 1_000.0;
/// Every `SAMPLE_STRIDE`-th summary (rotating) is checked to decode equal
/// to what was encoded; every ceiling is checked.
const SAMPLE_STRIDE: usize = 101;

/// Sizes and pacing of one `fleet-10k` run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Measured wall time.
    pub seconds: f64,
    /// Stop after this many timed rounds even if time remains.
    pub max_rounds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Config {
    /// The full-size workload.
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            nodes: 10_000,
            seconds,
            max_rounds: u64::MAX,
            trace,
        }
    }
}

/// Budget of timed round `op` as a share of the fleet's desired power,
/// and whether `op` is the last round of its budget step.
fn budget_step(op: u64) -> (f64, bool) {
    let k = op % SCHEDULE_ROUNDS;
    if k < HIGH_ROUNDS {
        (HIGH, k == HIGH_ROUNDS - 1)
    } else {
        (LOW, k == SCHEDULE_ROUNDS - 1)
    }
}

/// The ΔT check, one budget step at a time: measured power must be at or
/// under the step's budget by the step's last round, or once ΔT has
/// passed since the step began, whichever comes first.
#[derive(Debug, Default)]
struct StepWatch {
    budget_w: f64,
    since_s: f64,
}

impl StepWatch {
    /// Observe the round ending at simulated time `t_s`.
    fn observe(
        &mut self,
        t_s: f64,
        budget_w: f64,
        measured_w: f64,
        last_of_step: bool,
    ) -> Result<(), String> {
        if budget_w != self.budget_w {
            self.budget_w = budget_w;
            self.since_s = t_s;
        }
        let into_step = t_s - self.since_s;
        if measured_w > budget_w && (last_of_step || into_step >= DELTA_T_S) {
            return Err(format!(
                "measured {measured_w:.0} W still over the {budget_w:.0} W budget \
                 {into_step:.1} s into the step"
            ));
        }
        Ok(())
    }
}

/// The fleet: an equal share of cores per intensity class, placed by a
/// seeded shuffle, so every seed schedules the same mix and only the
/// placement differs.
fn build_nodes(seed: u64, n: usize) -> Vec<ClusterNode> {
    let mut classes: Vec<f64> = (0..n * PROCS)
        .map(|i| INTENSITIES[i % INTENSITIES.len()])
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    classes
        .chunks(PROCS)
        .enumerate()
        .map(|(id, cores)| {
            let mut b = MachineBuilder::p630();
            for (core, c) in cores.iter().enumerate() {
                b = b.workload(core, WorkloadSpec::synthetic(*c, 1.0e18));
            }
            ClusterNode::new(id, b.build(), None)
        })
        .collect()
}

/// Phase boundaries of one round, all on the host clock.
struct Phases {
    start: Instant,
    ticked: Instant,
    summarized: Instant,
    encoded: Instant,
    coord_start: Instant,
    decoded: Instant,
    ingested: Instant,
    scheduled: Instant,
    coord_end: Instant,
    ceilings_decoded: Instant,
    end: Instant,
}

/// What one round measured.
struct RoundResult {
    phases: Phases,
    /// CPU time of the coordinator path on this thread (ns).
    coordinator_cpu_ns: u64,
    commands: usize,
    procs: usize,
    binds: bool,
    measured_w: f64,
}

struct Fleet {
    nodes: Vec<ClusterNode>,
    coord: GlobalCoordinator,
    freq_set: FrequencySet,
    sim_t: f64,
    frames: Vec<Vec<u8>>,
    sampled: Vec<(usize, WireMsg)>,
    summaries: Vec<NodeSummary>,
    ceilings: Vec<FrequencyCommand>,
    per_node: Vec<u8>,
}

impl Fleet {
    fn new(cfg: &Config, tracer: &Tracer) -> Self {
        let alg = FvsstAlgorithm::p630();
        let freq_set = alg.freq_set.clone();
        Fleet {
            nodes: build_nodes(cfg.seed, cfg.nodes),
            coord: GlobalCoordinator::new(alg, cfg.nodes).with_tracer(tracer.clone()),
            freq_set,
            sim_t: 0.0,
            frames: Vec::with_capacity(cfg.nodes),
            sampled: Vec::new(),
            summaries: Vec::with_capacity(cfg.nodes),
            ceilings: Vec::with_capacity(cfg.nodes),
            per_node: vec![0; cfg.nodes],
        }
    }

    /// One scheduling round under `budget_w`. Check failures go to
    /// `fail`; `react` receives the sampled per-node reaction times (ms).
    fn round(
        &mut self,
        op: u64,
        budget_w: f64,
        react: &mut LatencyHist,
        fail: &mut dyn FnMut(String),
    ) -> RoundResult {
        let n = self.nodes.len();
        let tick_s = PERIOD_S / f64::from(TICKS_PER_ROUND);
        let start = Instant::now();
        for node in &mut self.nodes {
            for _ in 0..TICKS_PER_ROUND {
                node.tick(tick_s);
            }
        }
        self.sim_t += PERIOD_S;
        let ticked = Instant::now();
        let msgs: Vec<WireMsg> = self
            .nodes
            .iter_mut()
            .map(|node| WireMsg::Summary(node.summarize()))
            .collect();
        let summarized = Instant::now();
        self.frames.clear();
        self.sampled.clear();
        let sample_at = op as usize % SAMPLE_STRIDE;
        for (k, msg) in msgs.into_iter().enumerate() {
            match encode_with(&msg, WireCodec::Binary) {
                Ok(frame) => self.frames.push(frame),
                Err(e) => {
                    fail(format!(
                        "round {op}: summary of node {k} failed to encode: {e}"
                    ));
                    continue;
                }
            }
            if k % SAMPLE_STRIDE == sample_at {
                self.sampled.push((self.frames.len() - 1, msg));
            }
        }
        let encoded = Instant::now();

        // --- the coordinator path: everything `round_ms` times ---
        let cpu0 = thread_cpu_now_ns();
        let coord_start = Instant::now();
        self.summaries.clear();
        for frame in &self.frames {
            match binary_payload(frame)
                .and_then(|p| decode_payload_binary(p).map_err(|e| e.to_string()))
            {
                Ok(WireMsg::Summary(s)) => self.summaries.push(s),
                Ok(other) => fail(format!(
                    "round {op}: summary frame decoded as {}",
                    other.kind()
                )),
                Err(e) => fail(format!("round {op}: summary frame failed to decode: {e}")),
            }
        }
        let decoded = Instant::now();
        let mut rejected = 0usize;
        for s in self.summaries.drain(..) {
            if !self.coord.ingest(s) {
                rejected += 1;
            }
        }
        let ingested = Instant::now();
        let commands = self.coord.schedule(budget_w, self.sim_t);
        let scheduled = Instant::now();
        let out: Vec<WireMsg> = commands.into_iter().map(WireMsg::Ceiling).collect();
        let out_frames: Vec<Vec<u8>> = out
            .iter()
            .filter_map(|m| encode_with(m, WireCodec::Binary).ok())
            .collect();
        let coord_end = Instant::now();
        let coordinator_cpu_ns = thread_cpu_now_ns().saturating_sub(cpu0);
        // --- end of the coordinator path ---

        if rejected > 0 {
            fail(format!(
                "round {op}: {rejected} summaries rejected at ingest"
            ));
        }
        if out_frames.len() != out.len() {
            fail(format!(
                "round {op}: {} ceilings failed to encode",
                out.len() - out_frames.len()
            ));
        }
        for (frame_idx, sent) in &self.sampled {
            if let Err(e) = check_round_trip(&self.frames[*frame_idx], sent) {
                fail(format!("round {op}: {e}"));
            }
        }

        // Node side: decode every ceiling, then apply in node order.
        self.ceilings.clear();
        for frame in &out_frames {
            match binary_payload(frame)
                .and_then(|p| decode_payload_binary(p).map_err(|e| e.to_string()))
            {
                Ok(WireMsg::Ceiling(c)) => self.ceilings.push(c),
                Ok(other) => fail(format!(
                    "round {op}: ceiling frame decoded as {}",
                    other.kind()
                )),
                Err(e) => fail(format!("round {op}: ceiling frame failed to decode: {e}")),
            }
        }
        let ceilings_decoded = Instant::now();
        for (got, sent) in self.ceilings.iter().zip(&out) {
            if !matches!(sent, WireMsg::Ceiling(c) if c == got) {
                fail(format!(
                    "round {op}: ceiling for node {} decoded to a different command",
                    got.node
                ));
            }
        }
        self.per_node.iter_mut().for_each(|c| *c = 0);
        let react_at = op as usize % REACT_STRIDE;
        let mut procs = 0;
        for cmd in &self.ceilings {
            if let Err(e) = check_ceiling(cmd, n, PROCS, &self.freq_set) {
                fail(format!("round {op}: {e}"));
                continue;
            }
            procs += cmd.freqs.len();
            self.per_node[cmd.node] = self.per_node[cmd.node].saturating_add(1);
            self.nodes[cmd.node].apply(&cmd.freqs);
            if cmd.node % REACT_STRIDE == react_at {
                react.record(ns(coord_start, Instant::now()) / 1e6);
            }
        }
        let end = Instant::now();
        if let Some(k) = self.per_node.iter().position(|c| *c != 1) {
            fail(format!(
                "round {op}: node {k} got {} ceilings (every live node gets exactly one)",
                self.per_node[k]
            ));
        }
        let cache = self.coord.schedule_cache();
        let binds = cache.desired_power_w() > budget_w && cache.decision().demotions > 0;
        let measured_w = self.nodes.iter().map(ClusterNode::power_w).sum();
        RoundResult {
            phases: Phases {
                start,
                ticked,
                summarized,
                encoded,
                coord_start,
                decoded,
                ingested,
                scheduled,
                coord_end,
                ceilings_decoded,
                end,
            },
            coordinator_cpu_ns,
            commands: out.len(),
            procs,
            binds,
            measured_w,
        }
    }
}

fn record_spans(rec: &mut Recorder, op: u64, p: &Phases) {
    let root = rec.open(op, 0, "fleet.round", p.start);
    rec.span(op, root, "node.tick", p.start, p.ticked);
    rec.span(op, root, "node.summarize", p.ticked, p.summarized);
    rec.span(op, root, "wire.encode_summary", p.summarized, p.encoded);
    let coord = rec.open(op, root, "coordinator", p.coord_start);
    rec.span(op, coord, "wire.decode_summary", p.coord_start, p.decoded);
    rec.span(op, coord, "cluster.ingest", p.decoded, p.ingested);
    rec.span(op, coord, "cluster.schedule", p.ingested, p.scheduled);
    rec.span(op, coord, "wire.encode_ceiling", p.scheduled, p.coord_end);
    rec.close(coord, p.coord_end);
    rec.span(
        op,
        root,
        "wire.decode_ceiling",
        p.coord_end,
        p.ceilings_decoded,
    );
    rec.span(op, root, "node.apply", p.ceilings_decoded, p.end);
    rec.close(root, p.end);
}

fn ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Run `fleet-10k` and fill `out`.
pub fn run(cfg: &Config, out: &mut Outcome, rec: &mut Recorder) {
    let tracer = if cfg.trace {
        Tracer::ring(1 << 14)
    } else {
        Tracer::disabled()
    };
    let tracer_epoch = Instant::now();

    // Set-up: build the fleet, then two warm-up rounds (the first, on an
    // unlimited budget, fills the schedule cache and measures the
    // fleet's desired power, which sets the two budget levels).
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let mut fleet = Fleet::new(cfg, &tracer);
        let mut sink = LatencyHist::new(REACT_MAX_MS);
        let mut warm_fail = Vec::new();
        fleet.round(0, f64::INFINITY, &mut sink, &mut |m| warm_fail.push(m));
        let desired_w = fleet.coord.schedule_cache().desired_power_w();
        fleet.round(1, HIGH * desired_w, &mut sink, &mut |m| {
            warm_fail.push(m)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        for m in warm_fail {
            out.fail(format!("warm-up: {m}"));
        }
        state = Some((fleet, desired_w));
    }
    let (mut fleet, desired_w) = state.expect("at least one set-up ran");
    let cache0 = fleet.coord.cache_stats();

    let mut round_ms = Vec::new();
    let mut round_cpu_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut react_ms = LatencyHist::new(REACT_MAX_MS);
    let mut layer: [Vec<f64>; 10] = Default::default();
    let mut cpu_ns = 0u64;
    let mut cpu_wall_ns = 0f64;
    let mut cpu_summaries = 0usize;
    let mut commands = 0usize;
    let mut procs = 0usize;
    let mut step_watch = StepWatch::default();
    let mut failures = Vec::new();
    let begin = Instant::now();
    let mut op = 0u64;
    while op < cfg.max_rounds && (op == 0 || begin.elapsed().as_secs_f64() < cfg.seconds) {
        let (share, last_of_step) = budget_step(op);
        let budget_w = desired_w * share;
        // Whole budget schedules alternate between traced and untraced,
        // so both see the same budget levels.
        let traced = cfg.trace && (op / SCHEDULE_ROUNDS) % 2 == 1;
        let mut round_failures = Vec::new();
        let mut fail = |m: String| round_failures.push(m);
        let r = fleet.round(op + 2, budget_w, &mut react_ms, &mut fail);
        let p = &r.phases;
        let coord_ms = ns(p.coord_start, p.coord_end) / 1e6;
        round_cpu_ms.push(r.coordinator_cpu_ns as f64 / 1e6);
        if !r.binds {
            round_failures.push(format!("round {op}: budget {budget_w:.0} W did not bind"));
        }
        if let Err(e) = step_watch.observe(fleet.sim_t, budget_w, r.measured_w, last_of_step) {
            round_failures.push(format!("round {op}: {e}"));
        }
        if !round_failures.is_empty() {
            out.failed += 1;
            failures.append(&mut round_failures);
        }
        if traced {
            let n = fleet.nodes.len() as f64;
            let cmds = r.commands.max(1) as f64;
            record_spans(rec, op, p);
            layer[0].push(ns(p.coord_start, p.decoded) / n);
            layer[1].push(ns(p.decoded, p.ingested) / n);
            layer[2].push(ns(p.ingested, p.scheduled) / 1e6);
            layer[3].push(ns(p.scheduled, p.coord_end) / cmds);
            layer[4].push(ns(p.start, p.ticked) / 1e3 / (n * f64::from(TICKS_PER_ROUND)));
            layer[5].push(ns(p.ticked, p.summarized) / 1e3 / n);
            layer[6].push(ns(p.ceilings_decoded, p.end) / 1e3 / n);
            layer[7].push(ns(p.coord_end, p.ceilings_decoded) / cmds);
            layer[8].push(coord_ms);
            cpu_ns += r.coordinator_cpu_ns;
            cpu_wall_ns += ns(p.start, p.end);
            cpu_summaries += fleet.nodes.len();
            round_ms.push(coord_ms);
        } else {
            untraced_ms.push(coord_ms);
            round_ms.push(coord_ms);
        }
        commands += r.commands;
        procs += r.procs;
        op += 1;
    }
    let measured_s = begin.elapsed().as_secs_f64();
    for f in failures {
        out.fail(f);
    }
    out.attempted = op;
    let cache = fleet.coord.cache_stats();
    let hits = cache.proc_hits - cache0.proc_hits;
    let lookups = hits + cache.proc_rebuilds - cache0.proc_rebuilds;

    round_ms.sort_by(f64::total_cmp);
    out.fact("rounds", op);
    out.fact("nodes", fleet.nodes.len());
    out.fact("ticks_per_round", TICKS_PER_ROUND);
    out.fact("measured_s", measured_s);
    out.fact("round_cpu_ms_p50", median(&round_cpu_ms));
    out.fact("round_samples_beyond_p95", beyond(&round_ms, 0.95));
    out.fact("react_samples", react_ms.len());
    out.fact("react_ms_p99", react_ms.quantile(0.99));
    out.fact("react_samples_beyond_p99", react_ms.beyond(0.99));
    out.fact("desired_power_w", desired_w);
    if beyond(&round_ms, 0.95) < 10 {
        eprintln!("perfbench: fewer than 10 rounds beyond p95; raise --seconds");
    }

    if cfg.trace {
        rec.adopt_program_spans(tracer_epoch, &tracer.records());
        let ops = op.max(1) as f64;
        let traced_ms = median(&layer[8]);
        let untraced = median(&untraced_ms);
        let rate = |v: usize| v as f64 / ops;
        out.metrics = vec![
            Metric::new("wire.decode_summary_ns", median(&layer[0]), "ns"),
            Metric::new("cluster.ingest_ns", median(&layer[1]), "ns"),
            Metric::new("cluster.schedule_ms", median(&layer[2]), "ms"),
            Metric::new("wire.encode_ceiling_ns", median(&layer[3]), "ns"),
            Metric::new(
                "sched.cache_proc_hit_ratio",
                if lookups > 0 {
                    hits as f64 / lookups as f64
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new("sched.cache_proc_hits", hits as f64, "count"),
            Metric::new("sched.cache_proc_lookups", lookups as f64, "count"),
            Metric::new("cluster.procs_per_round", rate(procs), "count"),
            Metric::new("cluster.commands_per_round", rate(commands), "count"),
            Metric::new("node.tick_us", median(&layer[4]), "us"),
            Metric::new("node.summarize_us", median(&layer[5]), "us"),
            Metric::new("node.apply_us", median(&layer[6]), "us"),
            Metric::new(
                "net.coordinator.busy_ms_per_s",
                if cpu_wall_ns > 0.0 {
                    cpu_ns as f64 / cpu_wall_ns * 1e3
                } else {
                    0.0
                },
                "ms/s",
            ),
            Metric::new(
                "net.coordinator.busy_us_per_summary",
                cpu_ns as f64 / 1e3 / cpu_summaries.max(1) as f64,
                "us",
            ),
            // No sockets and no burst in this workload.
            Metric::new("transport.fill_us", 0.0, "us"),
            Metric::new("wire.decode_ceiling_ns", median(&layer[7]), "ns"),
            Metric::new("burst.write_ms", 0.0, "ms"),
            Metric::new(
                "trace.overhead_pct",
                (traced_ms / untraced - 1.0) * 100.0,
                "%",
            ),
        ];
    } else {
        out.metrics = vec![
            Metric::new("round_ms_p50", quantile(&round_ms, 0.50), "ms"),
            Metric::new("round_ms_p95", quantile(&round_ms, 0.95), "ms"),
            Metric::new("react_ms_p50", react_ms.quantile(0.50), "ms"),
            Metric::new("react_ms_p95", react_ms.quantile(0.95), "ms"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `StepWatch` two budget schedules in which a stand-in
    /// coordinator yields `measured(op, budget_w)`; returns the rounds
    /// the check failed.
    fn failing_rounds(measured: impl Fn(u64, f64) -> f64) -> Vec<u64> {
        let desired_w = 1000.0;
        let mut watch = StepWatch::default();
        let mut t = 0.0;
        (0..2 * SCHEDULE_ROUNDS)
            .filter(|&op| {
                t += PERIOD_S;
                let (share, last) = budget_step(op);
                let budget_w = desired_w * share;
                watch
                    .observe(t, budget_w, measured(op, budget_w), last)
                    .is_err()
            })
            .collect()
    }

    #[test]
    fn a_coordinator_that_meets_every_step_passes() {
        assert!(failing_rounds(|_, budget_w| budget_w).is_empty());
    }

    #[test]
    fn a_coordinator_that_ignores_the_low_step_fails_it() {
        // Keeps its 95 % assignment through the 85 % step.
        assert_eq!(failing_rounds(|_, _| HIGH * 1000.0), vec![9, 19]);
    }

    #[test]
    fn reaching_the_budget_within_the_step_passes() {
        // Over budget in the first two rounds of each step, under by its last.
        let late = |op: u64, budget_w: f64| {
            let k = op % SCHEDULE_ROUNDS;
            if k < 2 || (HIGH_ROUNDS..HIGH_ROUNDS + 2).contains(&k) {
                budget_w + 50.0
            } else {
                budget_w
            }
        };
        assert!(failing_rounds(late).is_empty());
    }
}
