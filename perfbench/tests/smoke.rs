//! Smoke test at tiny sizes: a 64-node fleet and a few reactions per
//! loopback workload, traced and untraced. Every metric `BENCHMARK.json`
//! lists must be printed, every output check must pass, and the frame
//! check must fire on a corrupted frame.

use fvs_cluster::FrequencyCommand;
use fvs_model::FreqMhz;
use fvs_net::{encode_with, WireCodec, WireMsg};
use fvs_perfbench::checks::check_round_trip;
use fvs_perfbench::report::{END_TO_END, PER_LAYER};
use std::process::Command;

/// Metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fvs-perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
    ])
    .args(["--trace", if trace { "1" } else { "0" }, "--out", out_dir]);
    if workload == "fleet-10k" {
        cmd.args(["--nodes", "64", "--max-ops", "30"]);
    } else {
        cmd.args(["--max-ops", "6"]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_listed_metric_is_printed_by_every_workload() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert_eq!(
        e2e,
        END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        layers,
        PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    for workload in fvs_perfbench::WORKLOADS {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{line}");
            for name in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} lacks {name}: {line}"
                );
            }
            assert!(!line.contains("null"), "{line}");
        }
    }
}

#[test]
fn frame_check_fires_on_a_corrupted_frame() {
    let msg = WireMsg::Ceiling(FrequencyCommand {
        node: 3,
        freqs: vec![FreqMhz(250), FreqMhz(600), FreqMhz(950), FreqMhz(1000)],
    });
    let frame = encode_with(&msg, WireCodec::Binary).unwrap();
    assert_eq!(check_round_trip(&frame, &msg), Ok(()));
    // A flipped frequency bit still decodes, but to another message.
    let mut flipped = frame.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    assert!(check_round_trip(&flipped, &msg).is_err());
    // A truncated payload with a consistent length prefix fails to decode.
    let mut short = frame.clone();
    short.truncate(frame.len() - 1);
    short[7] -= 1;
    assert!(check_round_trip(&short, &msg).is_err());
    // A frame that lost its first byte fails the magic check.
    assert!(check_round_trip(&frame[1..], &msg).is_err());
}
