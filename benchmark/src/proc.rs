//! The real `bookleaf` CLI as a child process: build it, spawn it, time
//! it, watch its memory, parse its digest.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bookleaf_bench::schema::Json;

/// Where the harness finds the program under test and may write.
#[derive(Debug)]
pub struct Env {
    /// The `bookleaf` CLI binary, built from this checkout.
    pub cli: PathBuf,
    /// Scratch directory inside the build directory; removed on drop.
    pub work: PathBuf,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Build the CLI next to this binary (same target directory, so the two
/// share compiled crates) and make a scratch directory there. Nothing
/// outside the checkout's build directory is read or written.
pub fn prepare(tag: &str) -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/benchmark, or <target>/debug/deps/benchmark-<hash>
    // under `cargo test`.
    let target_dir = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark package has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "bookleaf"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build the bookleaf CLI: {e}"))?;
    if !status.success() {
        return Err(format!("building the bookleaf CLI failed: {status}"));
    }
    let cli = target_dir.join("release").join("bookleaf");
    if !cli.is_file() {
        return Err(format!("no CLI binary at {}", cli.display()));
    }
    let work = target_dir
        .join("benchmark-work")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Env { cli, work })
}

/// While this lives, the calling thread — and every thread and process
/// it starts — may run on one CPU only; dropping it gives the thread
/// its CPUs back.
///
/// The timed pass holds one. On the shared 2-vCPU host a program that
/// keeps both vCPUs busy measures where the hypervisor put the second
/// one: for minutes at a time `noh_flat2` ran a third slower with no
/// neighbour in sight inside the guest, while the serial workloads did
/// not move. On one CPU the wall is the work all threads do plus what
/// they spend handing over to each other, which is what a change to the
/// program changes. Parallel speed-up is not in it; the traced pass
/// runs unpinned and reports it per layer.
pub struct OneCpu {
    #[cfg(target_os = "linux")]
    before: affinity::Mask,
}

impl OneCpu {
    /// `None` (nothing changed, and stderr says so) off Linux or when
    /// the kernel refuses; the pass then runs on whatever CPUs it has.
    pub fn pin() -> Option<OneCpu> {
        #[cfg(target_os = "linux")]
        let pinned = affinity::get().and_then(|before| {
            // The highest allowed CPU: interrupts mostly land on the lowest.
            let cpu = affinity::highest(&before)?;
            affinity::set(&affinity::only(cpu)).then_some(OneCpu { before })
        });
        #[cfg(not(target_os = "linux"))]
        let pinned = None;
        if pinned.is_none() {
            eprintln!(
                "benchmark: could not pin to one CPU; timings include the host's choice of cores"
            );
        }
        pinned
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        affinity::set(&self.before);
    }
}

/// `sched_{get,set}affinity(2)` of the calling thread. `std` links the
/// C library but does not expose these two.
#[cfg(target_os = "linux")]
mod affinity {
    /// The C library's `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: pid 0 is the calling thread; the pointer and the size
        // describe `mask`, which the call fills.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: as above; the call only reads `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn highest(mask: &Mask) -> Option<usize> {
        (0..64 * mask.len())
            .rev()
            .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

/// The fields of the CLI's one-line JSON report the harness checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub steps: usize,
    pub time_bits: String,
    pub energy_end: f64,
    pub energy_drift: f64,
    pub state_crc: u32,
    pub wall_ms: f64,
}

pub fn parse_digest(line: &str) -> Result<Digest, String> {
    let doc = Json::parse(line.trim()).map_err(|e| format!("digest is not JSON: {e}"))?;
    let num = |key: &str| match doc.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        other => Err(format!(
            "digest key {key:?}: expected a number, found {other:?}"
        )),
    };
    let time_bits = match doc.get("time_bits") {
        Some(Json::Str(s)) => s.clone(),
        other => return Err(format!("digest key \"time_bits\": found {other:?}")),
    };
    if doc.get("status") != Some(&Json::Str("ok".into())) {
        return Err(format!("digest status is not ok: {line}"));
    }
    Ok(Digest {
        steps: num("steps")? as usize,
        time_bits,
        energy_end: num("energy_end")?,
        energy_drift: num("energy_drift")?,
        state_crc: num("state_crc")? as u32,
        wall_ms: num("wall_ms")?,
    })
}

/// One finished CLI invocation.
#[derive(Debug)]
pub struct CliRun {
    /// Spawn to exit.
    pub wall_s: f64,
    /// `VmHWM` in MB, when memory was watched and `/proc` has it.
    pub peak_rss_mb: Option<f64>,
    /// The parsed digest, or why there is none (non-zero exit, garbage).
    pub digest: Result<Digest, String>,
}

/// Run `cli args…` to completion. With `watch_memory` a second thread
/// polls the child's `VmHWM` (a high-water mark, so any late sample
/// holds the peak); the wall clock is taken by the waiting thread
/// either way, so polling granularity never enters a timing.
pub fn run_cli(cli: &Path, args: &[&str], watch_memory: bool) -> CliRun {
    let start = Instant::now();
    let child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let child = match child {
        Ok(child) => child,
        Err(e) => {
            return CliRun {
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_mb: None,
                digest: Err(format!("cannot spawn {}: {e}", cli.display())),
            }
        }
    };
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, wall_s, peak_rss_mb) = std::thread::scope(|scope| {
        let watcher = watch_memory.then(|| {
            scope.spawn(|| {
                let status = format!("/proc/{pid}/status");
                let mut peak = None;
                while !done.load(Ordering::SeqCst) {
                    if let Some(mb) = std::fs::read_to_string(&status)
                        .ok()
                        .and_then(|text| parse_vm_hwm(&text))
                    {
                        peak = Some(mb);
                    }
                    std::thread::sleep(Duration::from_millis(4));
                }
                peak
            })
        });
        // The digest is one short line: it fits the pipe buffer, so
        // waiting before reading cannot deadlock.
        let output = child.wait_with_output();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = watcher.and_then(|w| w.join().expect("memory watcher panicked"));
        (output, wall_s, peak)
    });
    let digest = match output {
        Err(e) => Err(format!("waiting for the CLI failed: {e}")),
        Ok(out) if !out.status.success() => Err(format!(
            "CLI exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Ok(out) => parse_digest(&String::from_utf8_lossy(&out.stdout)),
    };
    CliRun {
        wall_s,
        peak_rss_mb,
        digest,
    }
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB (the kernel reports
/// kB). `None` off Linux, for a zombie, or for a kernel thread.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's own peak resident set, in MB.
pub fn self_peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_kernel_format() {
        let status =
            "Name:\tbookleaf\nVmPeak:\t  123456 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(50.0));
        assert_eq!(parse_vm_hwm("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn one_cpu_pins_children_and_gives_the_cpus_back() {
        let allowed = |status: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
                .expect("Cpus_allowed_list")
        };
        let mine = || allowed(&std::fs::read_to_string("/proc/thread-self/status").unwrap());
        let before = mine();
        {
            let _pin = OneCpu::pin().expect("the kernel lets a thread pin itself");
            let cpu = affinity::highest(&affinity::get().unwrap()).unwrap();
            assert_eq!(mine(), cpu.to_string());
            // A child started now inherits the one CPU.
            let out = Command::new("cat")
                .arg("/proc/self/status")
                .output()
                .unwrap();
            assert_eq!(
                allowed(&String::from_utf8_lossy(&out.stdout)),
                cpu.to_string()
            );
        }
        assert_eq!(mine(), before);
    }

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(self_peak_rss_mb().expect("VmHWM of self") > 0.5);
        }
    }

    #[test]
    fn digest_parses_the_cli_report_line() {
        let line = r#"{"status":"ok","deck":"noh.deck","name":"noh","executor":"serial","ranks":1,"steps":50,"time":8.4e-4,"time_bits":"0x3f4bb708d0d7e125","energy_start":4.98e-1,"energy_end":4.98464019357502230e-1,"energy_drift":1.114e-16,"state_crc":3194288807,"wall_ms":1120.371}"#;
        let d = parse_digest(line).unwrap();
        assert_eq!(d.steps, 50);
        assert_eq!(d.time_bits, "0x3f4bb708d0d7e125");
        assert_eq!(d.state_crc, 3_194_288_807);
        assert_eq!(d.wall_ms, 1120.371);
        assert_eq!(d.energy_drift, 1.114e-16);
        assert!(parse_digest("").is_err());
        assert!(parse_digest(r#"{"status":"error"}"#).is_err());
        assert!(parse_digest(&line.replace("\"steps\":50,", "")).is_err());
    }
}
