//! `fvs-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints a provenance line, then the result line
//! (`correct`, `attempted`, `failed`, `metrics`). Exits non-zero when an
//! output check failed or the arguments are wrong. Smaller sizes for
//! smoke runs: `--nodes N` (fleet) and `--max-ops N`.
//! A traced run writes its spans to `--out DIR` (default: `out/` next
//! to this package's manifest).

use fvs_perfbench::report::{
    metric_set_problems, provenance_line, result_line, Outcome, END_TO_END, PER_LAYER,
};
use fvs_perfbench::sys::Provenance;
use fvs_perfbench::trace::Recorder;
use fvs_perfbench::{fleet, loopback, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    nodes: Option<usize>,
    max_ops: Option<u64>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        nodes: None,
        max_ops: None,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--nodes" => a.nodes = Some(value()?.parse().map_err(|_| "--nodes needs an integer")?),
            "--max-ops" => {
                a.max_ops = Some(value()?.parse().map_err(|_| "--max-ops needs an integer")?)
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fvs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::probe();
    let mut rec = Recorder::new(args.trace);
    let mut out = Outcome::default();
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "fleet-10k" => {
            let mut cfg = fleet::Config::full(args.seed, seconds, args.trace);
            if let Some(n) = args.nodes {
                cfg.nodes = n;
            }
            if let Some(n) = args.max_ops {
                cfg.max_rounds = n;
            }
            fleet::run(&cfg, &mut out, &mut rec);
        }
        name => {
            let mut cfg =
                loopback::Config::full(args.seed, name == "loopback-burst", seconds, args.trace);
            if let Some(n) = args.max_ops {
                cfg.max_ops = n;
            }
            loopback::run(&cfg, &mut out, &mut rec);
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if out.correct() {
        for p in metric_set_problems(&out.metrics, expected) {
            out.fail(p);
        }
    }
    if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        out.fact("trace_spans", rec.len());
        let header = provenance_line(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &prov,
            &out,
        );
        match rec.write_json(&path, &header) {
            Ok(()) => out.fact(
                "trace_file",
                fvs_perfbench::report::json_str(&path.to_string_lossy()),
            ),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
    if out.attempted == 0 {
        out.fail("no operation ran");
    }
    println!(
        "{}",
        provenance_line(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &prov,
            &out
        )
    );
    for f in out.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
