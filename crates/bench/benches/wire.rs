//! Framing benchmark: `FrameReader` parsing a summary backlog that
//! arrives as one buffer, the way a peer flushing a batched backlog
//! writes it.
//!
//! `frame_backlog/{1000,2000,5000,10000}` feeds that many binary
//! 119-byte summaries (a 4-way p630 node) in one `feed` and parses
//! them all. Parsing is linear in the backlog when doubling it doubles
//! the time; a reader that moved the unparsed tail once per frame
//! would quadruple it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fvs_cluster::NodeSummary;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{encode_binary, FrameReader, WireMsg};
use std::hint::black_box;

const PROCS: usize = 4;
/// Header plus binary payload of a 4-processor summary with a model
/// on every processor.
const SUMMARY_FRAME_LEN: usize = 119;

fn backlog(frames: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frames * SUMMARY_FRAME_LEN);
    for i in 0..frames {
        let summary = NodeSummary {
            node: 1,
            sent_at_s: i as f64 * 0.1,
            models: (0..PROCS)
                .map(|p| Some(CpiModel::from_components(1.0, p as f64 * 2.0e-9)))
                .collect(),
            idle: vec![false; PROCS],
            current: vec![FreqMhz(1000); PROCS],
            power_w: 140.0 * PROCS as f64,
        };
        let frame = encode_binary(&WireMsg::Summary(summary)).expect("summary encodes");
        assert_eq!(frame.len(), SUMMARY_FRAME_LEN);
        buf.extend_from_slice(&frame);
    }
    buf
}

fn bench_frame_backlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame_backlog");
    g.sample_size(10);
    for &frames in &[1_000usize, 2_000, 5_000, 10_000] {
        let bytes = backlog(frames);
        g.bench_with_input(BenchmarkId::from_parameter(frames), &bytes, |b, bytes| {
            b.iter(|| {
                let mut reader = FrameReader::new();
                reader.feed(bytes);
                let mut parsed = 0usize;
                while let Some(msg) = reader.next_frame().expect("backlog parses") {
                    black_box(msg);
                    parsed += 1;
                }
                assert_eq!(parsed, frames);
                parsed
            })
        });
    }
    g.finish();
}

criterion_group!(wire, bench_frame_backlog);
criterion_main!(wire);
