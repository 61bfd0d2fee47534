//! Take the kernel's and the hypervisor's scheduling choices out of
//! the gated measurements.
//!
//! The served workloads hand every request across four threads. On the
//! 2-vCPU build VM each handoff is then either a wake-up of a halted
//! vCPU (~25 µs, decided by the hypervisor's halt polling) or not, and
//! whole runs land in one regime or the other: `quote-wire` read
//! 42 µs or 90 µs per round trip on unchanged code. Pinned to one CPU
//! there is no cross-CPU wake-up, but a woken thread may or may not
//! preempt its waker, and runs flip between 18 µs and 28 µs. Under
//! `SCHED_BATCH` a wake-up never preempts, the handoffs happen in one
//! order only, and runs read 12.1–12.4 µs. So every workload process
//! pins itself to one CPU and switches to `SCHED_BATCH` before it
//! starts a thread (threads inherit both), and refuses to run if the
//! kernel refuses either: numbers from two regimes must not be
//! compared.
//!
//! What one CPU cannot show — the client and the server running side
//! by side, and what a wake-up across CPUs costs — the traced pass of
//! the wire workloads measures with the server's threads on a second
//! CPU ([`Cpus::beside`]). Those numbers are too noisy to gate
//! (5–10 % between runs) and are reported per layer.

use std::ffi::c_int;

/// Words in the kernel's `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;
/// `SCHED_BATCH` from `<sched.h>`.
const SCHED_BATCH: c_int = 3;

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// The CPUs this process was allowed on when it started, lowest first.
pub struct Cpus(Vec<usize>);

/// Move the calling thread (and every thread it starts later) to `cpu`.
fn move_to(cpu: usize) -> Result<(), String> {
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, which
    // the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} refused"));
    }
    Ok(())
}

impl Cpus {
    /// Pin the calling thread (and every thread it starts later) to
    /// the first CPU it is allowed on, under `SCHED_BATCH`.
    pub fn settle() -> Result<Cpus, String> {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Err("sched_getaffinity refused".into());
        }
        let allowed: Vec<usize> =
            (0..CPU_SET_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
        let first = *allowed.first().ok_or("empty affinity mask")?;
        move_to(first)?;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a live `struct sched_param` (one int, which
        // must be 0 for SCHED_BATCH) that the call only reads.
        if unsafe { sched_setscheduler(0, SCHED_BATCH, &param) } != 0 {
            return Err("sched_setscheduler(SCHED_BATCH) refused".into());
        }
        Ok(Cpus(allowed))
    }

    /// How many CPUs the process was allowed on.
    pub fn allowed(&self) -> usize {
        self.0.len()
    }

    /// Run `start` on the second allowed CPU and come back to the
    /// first, so the threads `start` spawned stay beside the caller's.
    /// `None` when there is no second CPU.
    pub fn beside<R>(&self, start: impl FnOnce() -> R) -> Result<Option<R>, String> {
        let Some(&second) = self.0.get(1) else { return Ok(None) };
        move_to(second)?;
        let started = start();
        move_to(self.0[0])?;
        Ok(Some(started))
    }
}
