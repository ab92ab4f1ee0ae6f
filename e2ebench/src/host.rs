//! Host-speed correction for the timings the bounds are checked on.
//!
//! The benchmark runs on a few vCPUs of a host shared with other tenants.
//! Their load slows the same code by up to half again for seconds to
//! minutes at a time, differently on each vCPU, with no CPU time stolen
//! that the guest could see: a fixed loop, timed in 1.7-second chunks over
//! one minute, spread 0.32 between its quartiles, and one
//! `study_traditional` pass, the same work every time, took 3.4 to 6.2 s
//! within four minutes. No run length the contract allows averages that out.
//!
//! So the benchmark times a fixed reference [`kernel`] while it works and
//! scales each measured interval by [`NOMINAL_US`] over the kernel's median
//! time during the interval: the time the interval would have taken at the
//! host speed the nominal time stands for. The kernel is the benchmark's
//! own code, so a change to the program moves the corrected times exactly
//! as it moves the wall clock on a quiet host.
//!
//! Where the work runs on one thread, that thread runs the kernel itself
//! between work items ([`HostProbe::inline`] and [`HostProbe::tick`]), so
//! the kernel meets the same vCPU at the same moment. Over four minutes of
//! identical passes that left 0.05–0.07 of the passes' 0.20–0.31 spread.
//! Where the program spreads the work over threads of its own, a sampler
//! thread pinned to each CPU runs the kernel instead
//! ([`HostProbe::sampled`]), and the CPUs' medians are averaged; on
//! `study_table1` at one seed that left 0.064 of 0.131.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::digest::Fnv;
use crate::stats;

/// How often the kernel runs: about 1.5% of a CPU.
const PERIOD: Duration = Duration::from_millis(10);

/// The kernel's time on an unloaded core of the machine the bounds were
/// calibrated on (a 2.0 GHz Xeon guest), microseconds: the host speed
/// corrected times are expressed at.
pub const NOMINAL_US: f64 = 100.0;

/// The reference kernel: sorting, tree inserts and hashing, branchy and
/// allocating like the program's own work, and small enough to stay in
/// cache. Of the kernels tried against identical `study_traditional`
/// passes, it followed them best; kernels that walk a few megabytes
/// followed them worse, so the slowdowns are not the memory system's.
pub fn kernel() -> u64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut values: Vec<u64> = (0..2000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut tree = BTreeMap::new();
    for (i, v) in values.iter().enumerate().step_by(4) {
        tree.insert(v % 5003, i as u64);
    }
    let mut h = Fnv::default();
    for (k, i) in &tree {
        h.u64(k ^ i);
    }
    h.finish()
}

/// Runs the kernel once; returns when it started and its time in
/// microseconds.
fn time_kernel() -> (Instant, f64) {
    let t0 = Instant::now();
    black_box(kernel());
    (t0, t0.elapsed().as_secs_f64() * 1e6)
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `pid` 0 is the calling
    /// thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to `cpu`.
fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "CPU id above 1023")
    })?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed with it,
    // and the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .expect("/proc/self/status lists the allowed CPUs")
}

/// Kernel times per lane (a sampler's CPU, or the one working thread):
/// when each run started, and how long it took in microseconds.
type Samples = Arc<Mutex<Vec<Vec<(Instant, f64)>>>>;

/// The kernel's timings; dropping the probe stops and joins its samplers.
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    samples: Samples,
    threads: Vec<JoinHandle<()>>,
    /// When the working thread last ran the kernel ([`HostProbe::inline`]).
    last_tick: Mutex<Option<Instant>>,
}

impl HostProbe {
    fn with_lanes(lanes: usize) -> HostProbe {
        HostProbe {
            stop: Arc::new(AtomicBool::new(false)),
            samples: Arc::new(Mutex::new(vec![Vec::new(); lanes])),
            threads: Vec::new(),
            last_tick: Mutex::new(None),
        }
    }

    /// A probe fed by the working thread's own [`HostProbe::tick`] calls.
    pub fn inline() -> HostProbe {
        HostProbe::with_lanes(1)
    }

    /// Starts one pinned sampler per allowed CPU, for work that runs on
    /// threads the benchmark does not control.
    ///
    /// # Panics
    ///
    /// When a sampler cannot be pinned to its CPU.
    pub fn sampled() -> HostProbe {
        let cpus = allowed_cpus();
        let mut probe = HostProbe::with_lanes(cpus.len());
        let (pinned, results) = mpsc::channel();
        probe.threads = cpus
            .iter()
            .enumerate()
            .map(|(lane, &cpu)| {
                let (stop, samples, pinned) =
                    (probe.stop.clone(), probe.samples.clone(), pinned.clone());
                thread::spawn(move || {
                    let ok =
                        pin_to(cpu).map_err(|e| format!("cannot pin a sampler to CPU {cpu}: {e}"));
                    let go = ok.is_ok();
                    pinned.send(ok).expect("the probe waits for every sampler");
                    while go && !stop.load(Ordering::Relaxed) {
                        let sample = time_kernel();
                        samples.lock().expect("no sampler panics holding the lock")[lane]
                            .push(sample);
                        thread::sleep(PERIOD);
                    }
                })
            })
            .collect();
        for result in results.iter().take(cpus.len()) {
            if let Err(why) = result {
                panic!("{why}");
            }
        }
        probe
    }

    /// Runs the kernel on the calling thread unless it ran less than a
    /// period ago. The working thread of an [`HostProbe::inline`] probe
    /// calls this between work items, outside the intervals it times, and
    /// right before and after each interval. A sampled probe needs no
    /// ticks and ignores them.
    pub fn tick(&self) {
        if !self.threads.is_empty() {
            return;
        }
        let mut last = self
            .last_tick
            .lock()
            .expect("no tick panics holding the lock");
        if last.is_some_and(|t| t.elapsed() < PERIOD) {
            return;
        }
        let sample = time_kernel();
        *last = Some(Instant::now());
        self.samples
            .lock()
            .expect("no tick panics holding the lock")[0]
            .push(sample);
    }

    /// The correction factor over `[from, to]`: [`NOMINAL_US`] over the
    /// kernel's median time in that window, the medians of the lanes
    /// averaged. A time measured in the window times the factor is the
    /// corrected time. Samples up to two periods
    /// outside the window count, so a short interval still has some; `NaN`
    /// without samples. Ask once the window is over.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let margin = 2 * PERIOD;
        let (lo, hi) = (from.checked_sub(margin).unwrap_or(from), to + margin);
        let samples = self
            .samples
            .lock()
            .expect("no sampler panics holding the lock");
        let medians: Vec<f64> = samples
            .iter()
            .filter_map(|lane| {
                let inside: Vec<f64> = lane
                    .iter()
                    .filter(|(t, _)| (lo..=hi).contains(t))
                    .map(|&(_, us)| us)
                    .collect();
                (!inside.is_empty()).then(|| stats::median(&inside))
            })
            .collect();
        NOMINAL_US * medians.len() as f64 / medians.iter().sum::<f64>()
    }

    /// The corrected duration, in seconds, of the interval that started at
    /// `start` and lasted `wall`.
    pub fn corrected_s(&self, start: Instant, wall: Duration) -> f64 {
        wall.as_secs_f64() * self.factor(start, start + wall)
    }

    /// The kernel's median time over every sample so far, in microseconds.
    pub fn kernel_us(&self) -> f64 {
        let samples = self
            .samples
            .lock()
            .expect("no sampler panics holding the lock");
        let all: Vec<f64> = samples.iter().flatten().map(|&(_, us)| us).collect();
        stats::median(&all)
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A sampler that panicked has already said why on stderr.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("0-2,8,10-11"),
            Some(vec![0, 1, 2, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("0-x"), None);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn corrected_time_scales_wall_time_by_the_lanes_median_kernel_time() {
        let probe = HostProbe::with_lanes(2);
        let t0 = Instant::now();
        {
            let mut samples = probe.samples.lock().unwrap();
            // Lane 0 runs the kernel at twice its nominal time. Lane 1's
            // median is four times nominal: its one slow outlier does not
            // move the median, and the sample far after the interval is
            // outside the window.
            samples[0].push((t0, 2.0 * NOMINAL_US));
            samples[1].push((t0 + Duration::from_millis(5), 3.0 * NOMINAL_US));
            samples[1].push((t0 + Duration::from_millis(6), 4.0 * NOMINAL_US));
            samples[1].push((t0 + Duration::from_millis(15), 90.0 * NOMINAL_US));
            samples[1].push((t0 + Duration::from_secs(5), 100.0 * NOMINAL_US));
        }
        let wall = Duration::from_millis(12);
        let corrected = probe.corrected_s(t0, wall);
        assert!((corrected - 0.012 / 3.0).abs() < 1e-12, "{corrected}");
        assert_eq!(probe.kernel_us(), 4.0 * NOMINAL_US);
        // Before any sample there is nothing to correct with.
        assert!(probe
            .corrected_s(t0 + Duration::from_secs(60), wall)
            .is_nan());
    }

    #[test]
    fn ticks_run_the_kernel_at_most_once_a_period() {
        let probe = HostProbe::inline();
        let t0 = Instant::now();
        probe.tick();
        probe.tick();
        assert_eq!(probe.samples.lock().unwrap()[0].len(), 1);
        thread::sleep(PERIOD);
        probe.tick();
        assert_eq!(probe.samples.lock().unwrap()[0].len(), 2);
        let factor = probe.factor(t0, Instant::now());
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
    }

    #[test]
    fn a_sampled_probe_samples_every_cpu_and_stops_on_drop() {
        let probe = HostProbe::sampled();
        thread::sleep(PERIOD * 5);
        let us = probe.kernel_us();
        assert!(us.is_finite() && us > 0.0, "{us}");
        assert!(probe
            .samples
            .lock()
            .unwrap()
            .iter()
            .all(|cpu| !cpu.is_empty()));
        drop(probe);
    }
}
