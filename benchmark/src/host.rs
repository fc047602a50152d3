//! The host-speed probes and the clock of a timed window.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! a third within minutes, so wall-clock metrics of runs made at
//! different times differ by more than any bound worth having. A probe
//! is a fixed piece of work outside the library that slows down with
//! the host. It runs in short slices next to the timed operations, and
//! the wall-clock metrics are scaled by its rate (`Probe::factor`).
//! Which probe follows a workload depends on where the workload spends
//! its time; the README's Host-speed scaling section has the
//! measurements.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Workload time between two probe slices.
const PROBE_EVERY: Duration = Duration::from_millis(250);
/// Length of one probe slice (2% of the window).
const PROBE_SLICE: Duration = Duration::from_millis(5);
const MESSAGE: usize = 256;
/// Words of the compute probe's array (16 KiB, L1-resident).
const COMPUTE_WORDS: usize = 2048;
/// Words of the memory probe's array (64 MiB) and of one chunk (1 MiB).
const MEMORY_WORDS: usize = 8 << 20;
const CHUNK_WORDS: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// One thread echoing 256-byte messages over a loopback TCP
    /// connection: the kernel's syscall and loopback network paths.
    Loopback,
    /// Xorshift passes over an L1-resident array: user-space compute.
    Compute,
    /// Sums of 1 MiB chunks of a 64 MiB array, cycling: read bandwidth
    /// from DRAM once the workload's own traffic has evicted the array
    /// from the caches between slices.
    Memory,
}

impl Probe {
    /// The rate the wall-clock metrics are scaled to: about the probe's
    /// rate on a quiet period of the host in the README.
    fn nominal_rate(self) -> f64 {
        match self {
            Probe::Loopback => 150_000.0,
            Probe::Compute => 180_000.0,
            Probe::Memory => 10_000.0,
        }
    }

    /// How fast the host ran relative to the nominal host, from a rate
    /// of this probe. Throughput and bandwidth are divided by it, times
    /// multiplied by it.
    pub fn factor(self, rate: f64) -> f64 {
        rate / self.nominal_rate()
    }
}

pub enum HostProbe {
    Loopback(TcpStream, TcpStream),
    Compute(Vec<u64>),
    /// The array and the next chunk to read.
    Memory(Vec<u64>, usize),
}

impl HostProbe {
    pub fn new(probe: Probe) -> HostProbe {
        match probe {
            Probe::Loopback => {
                let (a, b) = loopback_pair().expect("open a loopback TCP connection");
                HostProbe::Loopback(a, b)
            }
            Probe::Compute => HostProbe::Compute((0..COMPUTE_WORDS as u64).collect()),
            Probe::Memory => HostProbe::Memory((0..MEMORY_WORDS as u64).collect(), 0),
        }
    }

    pub fn kind(&self) -> Probe {
        match self {
            HostProbe::Loopback(..) => Probe::Loopback,
            HostProbe::Compute(_) => Probe::Compute,
            HostProbe::Memory(..) => Probe::Memory,
        }
    }

    /// Rounds per second over about `d`, for timings made outside a
    /// window.
    pub fn rate(&mut self, d: Duration) -> f64 {
        rate(self.run(d))
    }

    /// Rounds for about `d`: (rounds, time taken).
    fn run(&mut self, d: Duration) -> (u64, Duration) {
        let started = Instant::now();
        let mut rounds = 0;
        while started.elapsed() < d {
            self.round();
            rounds += 1;
        }
        (rounds, started.elapsed())
    }

    /// One round: a round trip `a` -> `b` -> `a`, a pass over the
    /// compute array, or one chunk of the memory array.
    fn round(&mut self) {
        match self {
            HostProbe::Loopback(a, b) => {
                let mut msg = [0x5a_u8; MESSAGE];
                echo(a, b, &mut msg).expect("loopback echo");
            }
            HostProbe::Compute(words) => {
                let mut x = 0x9e37_79b9_7f4a_7c15_u64;
                for w in words.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *w = w.wrapping_mul(x) ^ (x >> 3);
                }
                std::hint::black_box(words);
            }
            HostProbe::Memory(words, next) => {
                let chunk = &words[*next * CHUNK_WORDS..][..CHUNK_WORDS];
                std::hint::black_box(chunk.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
                *next = (*next + 1) % (MEMORY_WORDS / CHUNK_WORDS);
            }
        }
    }
}

fn loopback_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

fn echo(a: &mut TcpStream, b: &mut TcpStream, msg: &mut [u8]) -> io::Result<()> {
    a.write_all(msg)?;
    b.read_exact(msg)?;
    b.write_all(msg)?;
    a.read_exact(msg)
}

/// Rounds per second.
fn rate((rounds, time): (u64, Duration)) -> f64 {
    rounds as f64 / time.as_secs_f64()
}

/// The clock of a timed window. It runs a probe slice after every
/// `PROBE_EVERY` of workload time and keeps the slices out of the
/// window's time.
pub struct WindowClock {
    probe: HostProbe,
    started: Instant,
    next_probe: Duration,
    /// Rounds and time of every slice so far.
    probed: (u64, Duration),
}

impl WindowClock {
    pub fn start(probe: Probe) -> WindowClock {
        WindowClock {
            probe: HostProbe::new(probe),
            started: Instant::now(),
            next_probe: Duration::ZERO,
            probed: (0, Duration::ZERO),
        }
    }

    /// Workload time so far, in seconds. Call it between operations: it
    /// first runs a probe slice when one is due.
    pub fn tick(&mut self) -> f64 {
        if self.workload_time() >= self.next_probe {
            let (n, t) = self.probe.run(PROBE_SLICE);
            self.probed = (self.probed.0 + n, self.probed.1 + t);
            self.next_probe += PROBE_EVERY;
        }
        self.workload_time().as_secs_f64()
    }

    fn workload_time(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.probed.1)
    }

    /// (workload seconds, probe, probe rate).
    pub fn finish(self) -> (f64, Probe, f64) {
        (
            self.workload_time().as_secs_f64(),
            self.probe.kind(),
            rate(self.probed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_probes_and_leaves_probe_time_out() {
        for probe in [Probe::Loopback, Probe::Compute, Probe::Memory] {
            let mut clock = WindowClock::start(probe);
            let t0 = Instant::now();
            while clock.tick() < 0.3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let wall = t0.elapsed().as_secs_f64();
            let (workload_s, kind, rate) = clock.finish();
            assert_eq!(kind, probe);
            assert!(rate > 0.0 && rate.is_finite(), "{rate}");
            // Two slices ran (at 0 and 250 ms), each about 5 ms.
            assert!(
                workload_s >= 0.3 && workload_s < wall - 0.009,
                "{probe:?}: {workload_s} of {wall}"
            );
        }
    }
}
