//! CPU clocks, and the host-speed reference that scales the end-to-end
//! timings.
//!
//! The benchmark runs on a small share of a shared host.  Two things there
//! change how long the same work takes, from one minute to the next:
//!
//! * the hypervisor gives the guest's CPU to other guests (steal time) and
//!   the guest's scheduler runs other processes;
//! * other tenants share the cores' caches, memory bandwidth and clock.
//!
//! [`CpuTimer`] answers the first: it reads the CPU time of the thread or
//! the process (`clock_gettime`), which on Linux with paravirtual
//! steal-time accounting excludes both stolen time and time spent waiting
//! for a CPU.  [`HostSpeed`] answers the second: short passes of a fixed
//! reference computation, interleaved with the work on the same thread
//! (every few slices, after every sweep row), measure how fast the host
//! runs now.  Each unit of work's times are multiplied by the factor of the
//! passes made during it ([`HostSpeed::take_factor`]: reference seconds
//! over the median measured pass), which expresses them in seconds of a
//! host that runs a pass in [`REFERENCE_S`].  The reference is the
//! benchmark's own code, so a change to the simulator moves the scaled
//! figures exactly as it moves the measured ones.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

use crate::stats::median;

/// The time scale every scaled figure is expressed in: CPU seconds of one
/// reference pass on the two-vCPU Xeon guest the benchmark was sized on,
/// whose passes took 6-11 ms as the host's load changed.
pub const REFERENCE_S: f64 = 0.01;

/// CPU seconds of the calling thread or of the whole process, since an
/// origin taken at [`CpuTimer::thread`] / [`CpuTimer::process`].
pub struct CpuTimer {
    clock: Clock,
    origin: f64,
}

#[derive(Clone, Copy)]
enum Clock {
    Thread,
    Process,
}

impl CpuTimer {
    /// Starts timing the calling thread's CPU time.
    pub fn thread() -> Self {
        CpuTimer {
            clock: Clock::Thread,
            origin: cpu_seconds(Clock::Thread),
        }
    }

    /// Starts timing the CPU time of every thread of the process.
    pub fn process() -> Self {
        CpuTimer {
            clock: Clock::Process,
            origin: cpu_seconds(Clock::Process),
        }
    }

    /// CPU seconds since the timer started.
    pub fn elapsed_s(&self) -> f64 {
        cpu_seconds(self.clock) - self.origin
    }
}

/// CPU seconds the calling thread has run since it was created.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(Clock::Thread)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_seconds(clock: Clock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let id = match clock {
        Clock::Thread => CLOCK_THREAD_CPUTIME_ID,
        Clock::Process => CLOCK_PROCESS_CPUTIME_ID,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and both clock ids exist on every Linux.
    let status = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(status, 0, "clock_gettime failed for CPU clock {id}");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the wall clock since first use stands in for CPU time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_seconds(_clock: Clock) -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Nodes of the reference graph: 1 MiB of edges, held in a core's
/// private cache, so a pass tracks the core's speed rather than which
/// physical pages a run happened to get.
const NODES: usize = 1 << 15;
const DEGREE: usize = 8;
/// Bounded searches per pass, and nodes each may visit.
const SEARCHES: u32 = 400;
const BUDGET: usize = 256;

/// The host-speed reference: bounded depth-first searches over a fixed
/// random graph, with a binary heap and a hash map beside them -- the kinds
/// of work the simulator's ring search and event loop do.
struct Reference {
    edges: Vec<u32>,
    /// The search that last visited each node.
    stamp: Vec<u32>,
    epoch: u32,
}

impl Reference {
    fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let edges = (0..NODES * DEGREE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % NODES as u64) as u32
            })
            .collect();
        Reference {
            edges,
            stamp: vec![0; NODES],
            epoch: 0,
        }
    }

    fn pass(&mut self) -> u64 {
        let mut heap = BinaryHeap::with_capacity(BUDGET);
        let mut tally: HashMap<u32, u32> = HashMap::new();
        let mut stack = Vec::with_capacity(BUDGET * DEGREE);
        let mut checksum = 0u64;
        for search in 0..SEARCHES {
            self.epoch = self.epoch.wrapping_add(1);
            let epoch = self.epoch;
            let start = search.wrapping_mul(2_654_435_761) % NODES as u32;
            stack.push(start);
            let mut visited = 0;
            while let Some(node) = stack.pop() {
                let node = node as usize;
                if self.stamp[node] == epoch {
                    continue;
                }
                self.stamp[node] = epoch;
                heap.push((self.edges[node * DEGREE] ^ search, node as u32));
                visited += 1;
                if visited == BUDGET {
                    break;
                }
                stack.extend_from_slice(&self.edges[node * DEGREE..(node + 1) * DEGREE]);
            }
            stack.clear();
            while let Some((key, node)) = heap.pop() {
                checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(key));
                *tally.entry(node % 4096).or_insert(0) += 1;
            }
        }
        checksum ^ tally.len() as u64
    }
}

/// A reference, and the passes timed on it since the last
/// [`take_factor`](Self::take_factor).  One per thread that does measured
/// work.
pub struct HostSpeed {
    reference: Reference,
    probes: Vec<f64>,
    /// CPU seconds of every pass so far.
    spent_s: f64,
}

impl HostSpeed {
    /// Builds the reference graph (untimed).
    pub fn new() -> Self {
        HostSpeed {
            reference: Reference::new(),
            probes: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Times one reference pass in the calling thread's CPU seconds.
    pub fn probe(&mut self) {
        let timer = CpuTimer::thread();
        black_box(self.reference.pass());
        let pass_s = timer.elapsed_s();
        self.probes.push(pass_s);
        self.spent_s += pass_s;
    }

    /// CPU seconds all passes so far took, for subtracting them from a
    /// timing that contains them.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// [`REFERENCE_S`] over the median of the passes since the last call,
    /// which it forgets: below 1 while the host runs slower than the one
    /// the benchmark was sized on.  Multiplying a time measured over the
    /// same span by it gives the time on that host.  `None` without passes.
    pub fn take_factor(&mut self) -> Option<f64> {
        let measured = median(&self.probes);
        self.probes.clear();
        (measured > 0.0).then(|| REFERENCE_S / measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_timers_advance_with_work() {
        let thread = CpuTimer::thread();
        let process = CpuTimer::process();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        black_box(x);
        assert!(thread.elapsed_s() > 0.0);
        assert!(process.elapsed_s() >= thread.elapsed_s() * 0.5);
    }

    #[test]
    fn reference_passes_are_deterministic_and_timed() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.pass(), b.pass());
        assert_eq!(a.pass(), b.pass());
        let mut host = HostSpeed::new();
        assert_eq!(host.take_factor(), None);
        host.probe();
        host.probe();
        assert!(host.spent_s() > 0.0);
        let factor = host.take_factor().expect("two passes were timed");
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(host.take_factor(), None);
    }
}
