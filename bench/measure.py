"""Timing helpers shared by the benchmark scripts: host-speed calibration,
order statistics, peak memory and the environment block.

Why calibrate. On a shared host the speed of one core swings by up to 2x,
in spells from well under a second to tens of seconds, as neighbouring
tenants come and go; a 10-second window of unchanged code can read 45%
slower than the next. Those swings slow the benchmark's operations and a
fixed numpy/Python kernel in nearly the same proportion (measured:
per-second op/kernel ratios spread 6% while the raw op times spread 58%).

So while a run measures, an interval timer runs three fixed numpy kernels
every ``SAMPLE_EVERY_S`` of wall time, in the middle of whatever
operation is executing: ``small`` (many calls on tiny arrays, the regime
of an SGD step or a CLI call), ``cache`` (passes over 800 KB arrays, the
regime of a full-batch epoch at m=100,000) and ``stream`` (a pass over
8 MB arrays, the regime of the whole-sample certificate). They slow down
differently under contention, and each operation is normalized by the one
that tracked it best (spread of 6-operation block medians: full-batch
training 2.2% with ``cache`` against 7.1% with ``small`` and 8.4% with
``stream``; the certificate 3.8% with ``stream`` against 6.7% and 10%;
unnormalized 5.9% and 11.5%). ``Clock`` converts an operation's time to
the speed at which the kernel takes ``CAL_NOMINAL_S``:

    normalized = program time * CAL_NOMINAL_S * mean(1 / kernel time)

over the samples taken during the operation, or during its cycle if the
operation was too short to be hit. The mean of 1/kernel time is
the one that matches the program's effective slowdown when the speed
changes within an operation. Program time is wall time minus the time
spent sampling. The kernels use numpy only, never dc_optlab, so no
change to the program can move them. Raw program-time medians are
reported next to the normalized ones.
"""

import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Kernel wall times, in seconds, on an uncontended core of the host the
# baseline was recorded on (Intel Xeon, 2 vCPUs, numpy 2.4.6).
CAL_NOMINAL_S = {"small": 0.0021, "cache": 0.0013, "stream": 0.0025}
SAMPLE_EVERY_S = 0.2

_SMALL = np.linspace(-3.0, 3.0, 75)
_SMALL_FEATURES = np.ones((75, 2))
_CACHE = np.linspace(-3.0, 3.0, 100_000)
_CACHE_OUT = np.empty_like(_CACHE)
_STREAM = np.linspace(-3.0, 3.0, 1_000_000)
_STREAM_OUT = np.empty_like(_STREAM)
# resident for the whole run (every sample touches them); not the program's
_KERNEL_BYTES = sum(a.nbytes for a in (_SMALL, _SMALL_FEATURES, _CACHE, _CACHE_OUT,
                                       _STREAM, _STREAM_OUT))


def _small_kernel() -> float:
    """Many numpy calls on 75-element arrays: interpreter and per-call
    overhead, like an SGD step or a CLI call."""
    acc = 0.0
    for _ in range(400):
        y = np.exp(-0.5 * _SMALL) * 1.5
        acc += float(np.einsum("i,ij->j", y, _SMALL_FEATURES)[0])
    return acc


def _pass_kernel(x, out, passes) -> float:
    """Passes over one array into a preallocated buffer, so the kernel's
    speed does not depend on the allocator state the last operation left
    behind."""
    acc = 0.0
    for _ in range(passes):
        np.multiply(x, -0.5, out=out)
        np.exp(out, out=out)
        acc += float(out.sum())
    return acc


KERNELS = {
    "small": _small_kernel,
    # 800 KB arrays, like a full-batch epoch at m=100,000
    "cache": lambda: _pass_kernel(_CACHE, _CACHE_OUT, 6),
    # 8 MB arrays, like the whole-sample certificate's 250,000-pair arrays
    "stream": lambda: _pass_kernel(_STREAM, _STREAM_OUT, 1),
}


def calibration_kernels() -> dict[str, float]:
    """Wall time of each kernel, run once."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        if not math.isfinite(kernel()):  # keeps the work observable
            raise RuntimeError(f"{name} calibration kernel produced a non-finite value")
        times[name] = time.perf_counter() - t0
    return times


class Clock:
    """Program-time clock with host-speed samples taken by an interval
    timer (SIGALRM, main thread, between bytecodes) while it runs."""

    def __init__(self):
        self.kernel_total = 0.0  # wall seconds spent in sampling
        self.samples: list[dict[str, float]] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_kernels())
        self.kernel_total += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def now(self) -> float:
        """Wall time minus the time spent sampling."""
        while True:
            spent = self.kernel_total
            t = time.perf_counter()
            if spent == self.kernel_total:  # no sample landed in between
                return t - spent

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int, profile: str, end: int | None = None) -> float:
        """Factor from program seconds to nominal-host seconds for work of
        the given profile ("small" or "stream") over the samples from
        ``mark`` to ``end``; samples once more if there are none."""
        taken = self.samples[mark:end] or [calibration_kernels()]
        return CAL_NOMINAL_S[profile] * statistics.fmean(1.0 / k[profile] for k in taken)

    def kernel_quartiles(self) -> dict[str, tuple[float, float, float]]:
        return {name: quartiles([k[name] for k in self.samples]) for name in KERNELS}


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def p90(values) -> float:
    """90th percentile (exclusive method); needs >= 100 samples to have ten
    beyond it, which callers state next to the value."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb() -> float:
    """Peak resident set of this process, less the calibration arrays.
    ru_maxrss is in KiB on Linux."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - _KERNEL_BYTES) / 2**20


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block(root: Path, thread_vars) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "executable": os.path.basename(sys.executable),
    }
