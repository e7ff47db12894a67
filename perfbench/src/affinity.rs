//! Where the wire workloads' threads run.
//!
//! On a 2-CPU virtual machine, a closed-loop client and a daemon worker
//! on two vCPUs wake each other with a cross-vCPU interrupt per hop,
//! and each interrupt has to wake a vCPU that went idle. How long that
//! takes depends on the hypervisor and the host's other tenants: runs
//! flipped between p50 modes 25% apart, and single runs fell to half
//! the usual rate. When the client and the daemon share one vCPU, each
//! request hands off by a local context switch, and the vCPU never
//! idles between hops. The wire workloads therefore pin the client and
//! every serving thread to one CPU. Only one of those threads is busy
//! at a time in a closed loop anyway.
//!
//! `batch-snapshot` runs on the same CPU. Spread over two vCPUs, its
//! scan workers are spawned and joined once per batch, and every batch
//! waits for its slowest worker: while the host stalled either vCPU,
//! the batch p99 doubled for whole runs.

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Bits in the kernel's fixed-size `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;
const WORD_BITS: usize = 8 * std::mem::size_of::<c_ulong>();

/// The CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        let parse = |s: &str| {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad Cpus_allowed_list '{list}': {e}"))
        };
        cpus.extend(parse(lo)?..=parse(hi)?);
    }
    Ok(cpus)
}

/// Restricts the calling thread, and the threads it spawns from now
/// on, to `cpus`.
fn pin(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0 as c_ulong; CPU_SET_BITS / WORD_BITS];
    for &cpu in cpus {
        if cpu >= CPU_SET_BITS {
            return Err(format!("CPU {cpu} is beyond the affinity mask"));
        }
        mask[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed with it (a whole `cpu_set_t`), which the kernel only
    // reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The CPU the measured loops run on, and every CPU the process may use.
#[derive(Debug, Clone)]
pub struct Placement {
    pub wire: Vec<usize>,
    pub all: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Result<Placement, String> {
        let all = allowed_cpus()?;
        let first = *all.first().ok_or("no CPU is allowed")?;
        Ok(Placement {
            wire: vec![first],
            all,
        })
    }

    /// Runs `f` on the wire CPU (threads it spawns stay there), then
    /// lets the calling thread use every CPU again.
    pub fn on_wire_cpu<T>(&self, f: impl FnOnce() -> T) -> Result<T, String> {
        pin(&self.wire)?;
        let out = f();
        pin(&self.all)?;
        Ok(out)
    }
}
