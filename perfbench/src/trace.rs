//! The benchmark's own span recorder.
//!
//! Spans are taken around the benchmark's calls into each layer, kept
//! in memory, and written out once the run ends, together with the
//! per-layer self time (a span's duration minus the part its children
//! cover). Every span of one round or one reaction carries that
//! operation's id, so a slow operation can be followed through its
//! layers. Spans the program records itself (through a ring
//! `Tracer` handed to its public `with_tracer` hooks) are attached to
//! the operation whose window contains their start.

use crate::report::{json_num, json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation id (round or reaction index).
    pub op: u64,
    /// Span id, 1-based; 0 means "no parent".
    pub id: u32,
    /// Parent span id (0 = root of its operation).
    pub parent: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
}

/// A span the program recorded, re-based onto the recorder's clock.
#[derive(Debug, Clone)]
pub struct ProgramSpan {
    /// Operation whose window contains the span start (`None` between
    /// operations).
    pub op: Option<u64>,
    /// The program's span name.
    pub name: &'static str,
    /// The program's span and parent ids.
    pub id: u64,
    /// Parent id in the program's id space (0 = root).
    pub parent: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: i64,
    /// Duration (ns).
    pub dur_ns: u64,
}

/// In-memory span store. Disabled recorders record nothing and cost one
/// branch per call.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    program: Vec<ProgramSpan>,
    /// Operation windows `(op, start_ns, end_ns)`, to attribute program
    /// spans.
    windows: Vec<(u64, u64, u64)>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            program: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn span(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
        });
        id
    }

    /// Open a span whose end is not known yet; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, op: u64, parent: u32, name: &'static str, start: Instant) -> u32 {
        self.span(op, parent, name, start, start)
    }

    /// Set the end of a span opened with [`Recorder::open`], and record
    /// its window as the operation's when it is a root.
    pub fn close(&mut self, id: u32, end: Instant) {
        if !self.on || id == 0 {
            return;
        }
        let end_ns = self.ns(end);
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = end_ns.saturating_sub(s.start_ns);
        if s.parent == 0 {
            self.windows.push((s.op, s.start_ns, end_ns));
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Adopt the program's own spans, recorded by a ring tracer whose
    /// epoch is `tracer_epoch`.
    pub fn adopt_program_spans(
        &mut self,
        tracer_epoch: Instant,
        records: &[fvs_telemetry::SpanRecord],
    ) {
        if !self.on {
            return;
        }
        let shift = if tracer_epoch >= self.epoch {
            tracer_epoch.duration_since(self.epoch).as_nanos() as i64
        } else {
            -(self.epoch.duration_since(tracer_epoch).as_nanos() as i64)
        };
        let mut windows = self.windows.clone();
        windows.sort_by_key(|w| w.1);
        for r in records {
            let start_ns = r.start_ns as i64 + shift;
            let op = windows
                .partition_point(|w| (w.1 as i64) <= start_ns)
                .checked_sub(1)
                .map(|i| windows[i])
                .filter(|w| start_ns <= w.2 as i64)
                .map(|w| w.0);
            self.program.push(ProgramSpan {
                op,
                name: r.name,
                id: r.id,
                parent: r.parent,
                start_ns,
                dur_ns: r.dur_ns,
            });
        }
    }

    /// Per-layer `(count, total ns, self ns)` over the benchmark's own
    /// spans.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Per-name `(count, total ns, self ns)` over the program's spans.
    pub fn program_self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.program {
            if s.parent != 0 {
                *child.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.program {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s
                .dur_ns
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Median duration (ns) of the program spans named `name`.
    pub fn program_median_ns(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .program
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect();
        (!d.is_empty()).then(|| crate::report::median(&d))
    }

    /// Write every span plus the self-time tables as one JSON document.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::with_capacity(self.spans.len() * 96 + self.program.len() * 96 + 4096);
        let _ = write!(s, "{{\"run\": {header},\n\"layers\": {{");
        table(&mut s, &self.layer_self_times());
        s.push_str("},\n\"program_layers\": {");
        table(&mut s, &self.program_self_times());
        s.push_str("},\n\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.op,
                sp.id,
                sp.parent,
                json_str(sp.name),
                sp.start_ns,
                sp.dur_ns
            );
        }
        s.push_str("],\n\"program_spans\": [");
        for (i, sp) in self.program.iter().enumerate() {
            let op = sp.op.map_or("null".to_string(), |o| o.to_string());
            let _ = write!(
                s,
                "{}\n{{\"op\": {op}, \"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.id,
                sp.parent,
                json_str(sp.name),
                sp.start_ns,
                sp.dur_ns
            );
        }
        s.push_str("]}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(s.as_bytes())?;
        f.flush()
    }
}

fn table(s: &mut String, t: &BTreeMap<&'static str, (u64, u64, u64)>) {
    for (i, (name, (count, total, self_ns))) in t.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}, \"self_ns_per_span\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_num(*total as f64 / 1e6),
            json_num(*self_ns as f64 / 1e6),
            json_num(*self_ns as f64 / (*count).max(1) as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let t0 = Instant::now();
        let root = r.open(7, 0, "round", t0);
        r.span(7, root, "decode", t0, t0 + Duration::from_micros(30));
        r.span(
            7,
            root,
            "schedule",
            t0 + Duration::from_micros(30),
            t0 + Duration::from_micros(80),
        );
        r.close(root, t0 + Duration::from_micros(100));
        let t = r.layer_self_times();
        assert_eq!(t["round"], (1, 100_000, 20_000));
        assert_eq!(t["decode"], (1, 30_000, 30_000));
        assert!(r.spans.iter().all(|s| s.op == 7));
    }
}
