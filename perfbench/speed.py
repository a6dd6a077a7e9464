"""Machine-speed probe: a fixed pure-Python loop timed during each measurement.

On the shared 2-CPU machine this benchmark was written on, the speed of the
same code drifts by up to 1.7x over tens of seconds, in CPU time as well as
in wall time, because other tenants share the cores.  Timing this fixed loop
during a measurement, and scaling the measurement by REFERENCE_S over the
probe's mean, removes most of that drift.  For SG_{1,4} homology (7-10 s a
run) the wall time spread over 7.3-10.1 s while the scaled time stayed
within 633-674 probe units.  The probe is the benchmark's own code, so no
change to stablekneser can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median probe time on that machine (Python 3.11.7); scaled times are the
# seconds a measurement would take with the machine running at that speed.
REFERENCE_S = 0.0137
PROBE_LOOPS = 60000
# During a job a probe a tenth as long runs from SIGALRM every INTERVAL_S
# seconds, about 0.6% of the job's time, which is taken off its wall time.
SHORT_LOOPS = PROBE_LOOPS // 10
INTERVAL_S = 0.25


def probe(loops: int = PROBE_LOOPS) -> float:
    """Wall seconds of a fixed dict-and-integer loop (about 14 ms in full)."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(loops):
        d[i & 1023] = d.get(i & 1023, 0) + i * i
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    """A measured time rescaled to the reference machine speed."""
    return seconds * REFERENCE_S / probe_s


class Sampler:
    """Probes before, during (from a timer signal) and after a measurement.

    `probe_s` is the mean probe time, in full-probe seconds; `spent` is the
    wall time the probes inside the measurement took.
    """

    def _tick(self, signum, frame) -> None:
        d = probe(SHORT_LOOPS)
        self.spent += d
        self.samples.append(d * PROBE_LOOPS / SHORT_LOOPS)

    def __enter__(self) -> "Sampler":
        self.samples = [probe()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples.append(probe())
        self.probe_s = statistics.fmean(self.samples)
