//! Child processes: the server under test, `xdl run`, and what `/proc`
//! says about them.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running `xdl serve`. Dropping it kills and reaps the process, so a
/// panic or an early return in the driver never leaves a server behind.
/// (Ctrl-C reaches the children through the terminal's process group.)
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// The `recovered {...}` line, when the WAL directory was not empty.
    pub recovered: Option<String>,
    /// Spawn until `listening on <addr>` was read.
    pub startup_s: f64,
}

impl Server {
    /// `xdl serve --port 0 --wal <wal_dir>` — every other option at its
    /// default, so the benchmark survives a knob audit.
    pub fn spawn(xdl: &Path, wal_dir: &Path, stderr_log: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_log)
            .map_err(|e| format!("cannot create {}: {e}", stderr_log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(xdl)
            .args(["serve", "--port", "0", "--wal"])
            .arg(wal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xdl.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut recovered = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "server exited before announcing its address (see {})",
                        stderr_log.display()
                    ));
                }
                Ok(_) => {}
            }
            match parse_announcement(&line) {
                Some(Announcement::Recovered(r)) => recovered = Some(r),
                Some(Announcement::Listening(a)) => break a,
                None => {}
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            recovered,
            startup_s: t0.elapsed().as_secs_f64(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — no shutdown, no flush — and reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A line the server prints before it serves.
#[derive(Debug, PartialEq, Eq)]
pub enum Announcement {
    Recovered(String),
    Listening(String),
}

pub fn parse_announcement(line: &str) -> Option<Announcement> {
    let line = line.trim_end();
    if let Some(addr) = line.strip_prefix("listening on ") {
        return Some(Announcement::Listening(addr.to_string()));
    }
    line.strip_prefix("recovered ")
        .map(|r| Announcement::Recovered(r.to_string()))
}

/// One finished `xdl run`.
pub struct RunOutput {
    pub stdout: Vec<u8>,
    pub wall_s: f64,
}

/// `xdl run <file> [extra...]`, stdout captured. A non-zero exit is an
/// error carrying stderr.
pub fn xdl_run(xdl: &Path, file: &Path, extra: &[&str]) -> Result<RunOutput, String> {
    let t0 = Instant::now();
    let out = Command::new(xdl)
        .arg("run")
        .arg(file)
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", xdl.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "xdl run {} failed ({}): {}",
            file.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(RunOutput {
        stdout: out.stdout,
        wall_s,
    })
}

/// `utime + stime` of a process in clock ticks, from `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB, from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparseable /proc stat")?;
    Ok(ticks as f64 / clock_ticks_per_second())
}

pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM in /proc status")?;
    Ok(kib as f64 / 1024.0)
}

/// CPU seconds and peak RSS of this process's reaped children, for
/// `batch-run`: an `xdl run` child has exited (and its `/proc` entry is
/// gone) by the time its numbers are wanted.
pub struct ChildrenUsage {
    pub cpu_s: f64,
    /// The largest peak RSS among all children reaped so far.
    pub max_rss_mib: f64,
}

pub fn children_usage() -> ChildrenUsage {
    let mut ru = ffi::Rusage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `ffi::Rusage` has that struct's layout on Linux LP64 targets (two
    // `timeval`s and fourteen `long`s), and the pointer is to a live local.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let secs = |tv: ffi::Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    ChildrenUsage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mib: ru.maxrss as f64 / 1024.0,
    }
}

fn clock_ticks_per_second() -> f64 {
    // SAFETY: `sysconf` takes an integer and returns one; no pointers.
    let hz = unsafe { ffi::sysconf(ffi::SC_CLK_TCK) };
    assert!(hz > 0, "sysconf(_SC_CLK_TCK) failed");
    hz as f64
}

/// The two libc calls `/proc` cannot replace. std links libc already; the
/// declarations are here because the benchmark may depend on no crate.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        /// ixrss .. nivcsw: thirteen more `long`s, unused here.
        pub rest: [i64; 13],
    }

    pub const RUSAGE_CHILDREN: i32 = -1;
    pub const SC_CLK_TCK: i32 = 2;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
}

/// Bytes of all regular files directly inside `dir` (a WAL directory is
/// flat).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Copy the regular files directly inside `from` into a new directory `to`.
pub fn copy_flat_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// A scratch directory inside the checkout, removed on success and kept
/// (its path printed) when the run failed.
pub struct RunDir {
    pub path: PathBuf,
    keep: bool,
}

impl RunDir {
    /// `<out_dir>/run-<pid>`, emptied first.
    pub fn create(out_dir: &Path) -> Result<RunDir, String> {
        let path = out_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path, keep: false })
    }

    /// Keep the directory for inspection.
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if self.keep || std::thread::panicking() {
            eprintln!("xdl-bench: run directory kept at {}", self.path.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // Fields per proc(5); comm contains spaces and a ')'.
        let stat = "4242 (xdl) serve) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 269 0 0 20 0 7 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 269));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\txdl\nVmPeak:\t  400000 kB\nVmHWM:\t   29780 kB\nVmRSS:\t   20000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(29780));
        assert_eq!(parse_vm_hwm_kib("Name:\txdl\n"), None);
    }

    #[test]
    fn announcements() {
        assert_eq!(
            parse_announcement("listening on 127.0.0.1:45503\n"),
            Some(Announcement::Listening("127.0.0.1:45503".into()))
        );
        assert_eq!(
            parse_announcement("recovered {\"from_log\":305}\n"),
            Some(Announcement::Recovered("{\"from_log\":305}".into()))
        );
        assert_eq!(parse_announcement("something else\n"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        let u = children_usage();
        assert!(u.cpu_s >= 0.0 && u.max_rss_mib >= 0.0);
    }
}
