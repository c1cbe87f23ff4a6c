//! Host probes (procfs), provenance and the seeded input generator.

use std::path::Path;
use std::process::Command;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Read a POSIX clock, in ns; `None` if the kernel refuses the id.
fn clock_ns(clock_id: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of the
    // 64-bit Linux `struct timespec`, and `clock_gettime` writes only
    // into it; an unknown clock id makes it fail with -1, nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), in ns.
/// Unlike the wall clock it does not advance while the hypervisor runs
/// someone else on this vCPU.
pub fn thread_cpu_now_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_ns(CLOCK_THREAD_CPUTIME_ID).expect("Linux provides the thread CPU clock")
}

/// CPU time (ns) of thread `tid` of this process, read on its
/// per-thread scheduler clock (Linux `MAKE_THREAD_CPUCLOCK(tid,
/// CPUCLOCK_SCHED)`), which is exact even while that thread runs.
pub fn thread_cpu_ns(tid: &str) -> Option<u64> {
    let tid: i32 = tid.parse().ok()?;
    clock_ns((!tid << 3) | 6)
}

/// The task id of this process's thread named `name`, if exactly one
/// such thread is alive.
pub fn thread_named(name: &str) -> Option<String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let tid = entry.ok()?.file_name().to_string_lossy().into_owned();
        let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
        if comm.trim_end() == name {
            found.push(tid);
        }
    }
    (found.len() == 1).then(|| found.remove(0))
}

/// Threads of this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// What the run was built from and where it ran.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub commit: String,
    /// FNV-1a digest of the program sources the benchmark links, which
    /// identifies the code even where the checkout is not a repository.
    pub source_digest: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_tree(dir: &Path, root: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            digest_tree(&path, root, hash);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            if let (Ok(rel), Ok(bytes)) = (path.strip_prefix(root), std::fs::read(&path)) {
                fnv1a(hash, rel.to_string_lossy().as_bytes());
                fnv1a(hash, &bytes);
            }
        }
    }
}

impl Provenance {
    /// Probe the checkout that holds this benchmark.
    pub fn probe() -> Self {
        let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let repo = bench_dir.parent().unwrap_or(bench_dir);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for sub in ["crates", "vendor"] {
            digest_tree(&repo.join(sub), repo, &mut hash);
        }
        Provenance {
            commit: command_line("git", &["rev-parse", "HEAD"], repo)
                .unwrap_or_else(|| "unknown".to_string()),
            source_digest: format!("{hash:016x}"),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: command_line("rustc", &["-V"], repo).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}
