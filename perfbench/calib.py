"""Reference host speed.

Wall-clock figures from identical runs on a small shared VM drift by 15 %
and more: the hypervisor steals the virtual CPU in bursts (on a 2-vCPU
shared VM, up to a sixth of its time), waking an idle virtual
CPU after a disk wait takes longer when the host is busy, and the speed of
the CPU time we do get swings with the neighbours' load. The benchmark
therefore pins itself and every node process it starts to one CPU and, for
every timed slice, takes

* the wall time,
* the CPU time of all its processes (the nodes report theirs), which
  excludes stolen time,
* the rate of a fixed kernel that uses no dhp code, in units per CPU
  second, run just before and just after the slice.

A slice's reference time is its CPU time scaled to a host that runs the
kernel at REF_UNITS_PER_S. Throughputs and long steps from the slice are
scaled by reference time / wall time; raw wall-clock figures are printed
beside the scaled ones, with the shares of the timed wall time that were
our CPU time, stolen, and other waits. Waits off the CPU (the disk under
every fsync, wake-ups) are thus left out of those reference figures, as
they would mostly be on a memory-backed file system; the flush policy still
shows as storage.fsyncs_per_op in the traced run, and the raw figures keep
them.

A single round trip (VERIFY, SUBMIT) is scaled by the kernel factor alone:
its wall time at reference speed, waits included. Scaling it by its
slice's CPU share, as a throughput is, moved the median round trip by up
to 40 % when the host got busy, since the share follows the slice's mean
and not its median request; the median round trip's own wall time, at
kernel speed, moved by less than 20 %.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric import ed25519

#: Nominal host speed in kernel units per CPU second; fixed, so figures
#: from different hosts and days are comparable.
REF_UNITS_PER_S = 3000.0

#: Wall time of one chunk of a calibration sample.
CHUNK_S = 0.01
#: Chunks in the samples around a phase that cannot be sliced (set-up,
#: cold start), which lasts seconds.
LONG_CHUNKS = 9


def steal_seconds(cpu: int | None) -> float:
    """Seconds stolen from `cpu` since boot; 0 where that is not known."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


@dataclass(frozen=True)
class Mark:
    wall: float
    cpu: float
    steal: float


class Calibrator:
    """Kernel rate and steal of the CPU the benchmark is pinned to. One
    kernel unit mixes what dhp spends its time on: an Ed25519 sign and
    verify, SHA-256 over short messages, and a pure-Python dict and tuple
    loop."""

    def __init__(self, cpu: int | None) -> None:
        self.cpu = cpu
        self._key = ed25519.Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._pub = self._key.public_key()
        self._msg = b"perfbench reference kernel" * 3
        self.rates: list[float] = []
        # Totals over every timed interval, for the printed shares.
        self.wall = self.cpu = self.stolen = 0.0

    def _unit(self) -> int:
        signature = self._key.sign(self._msg)
        self._pub.verify(signature, self._msg)
        digest = self._msg
        for _ in range(16):
            digest = hashlib.sha256(digest + b"|").digest()
        table = {}
        for i in range(192):
            table[(i, digest[i & 31])] = (i, i ^ digest[i & 15])
        return sum(v[1] for k, v in table.items() if k[1] & 1)

    def sample(self, chunks: int = 3) -> float:
        """Kernel rate in units per CPU second: the median of `chunks` runs
        of CHUNK_S each, so a single hiccup does not move it."""
        rates = []
        for _ in range(chunks):
            units = 0
            c0, t0 = time.process_time(), time.perf_counter()
            while time.perf_counter() - t0 < CHUNK_S:
                self._unit()
                units += 1
            rates.append(units / max(time.process_time() - c0, 1e-6))
        rate = sorted(rates)[chunks // 2]
        self.rates.append(rate)
        return rate

    def mark(self, end: bool = False) -> Mark:
        """Clocks at the start (or end) of an interval. The steal counter is
        read from /proc, which takes longer than the work of a short
        set-up, so it is read outside the interval: before the clocks at
        its start, after them at its end."""
        if end:
            wall, cpu = time.perf_counter(), time.process_time()
            return Mark(wall, cpu, steal_seconds(self.cpu))
        steal = steal_seconds(self.cpu)
        cpu = time.process_time()
        return Mark(time.perf_counter(), cpu, steal)

    def ratio(self, start: Mark, end: Mark, other_cpu: float, before: float, after: float) -> float:
        """Reference time / wall time of the interval start..end, in which
        the node processes used other_cpu seconds of CPU, bracketed by the
        kernel rates before and after it."""
        wall = end.wall - start.wall
        cpu = end.cpu - start.cpu + other_cpu
        self.wall += wall
        self.cpu += cpu
        self.stolen += end.steal - start.steal
        return cpu * self.factor(before, after) / wall

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiply CPU time by this to get it at reference speed: a host
        slower than the reference (a lower kernel rate) would have needed
        less time at reference speed."""
        return (before + after) / 2 / REF_UNITS_PER_S


class Figures:
    """Samples of each end-to-end metric, raw and at reference speed. A
    duration is multiplied by its slice's ratio; a rate divided by it."""

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float]]] = {}

    def time(self, name: str, seconds: float, ratio: float, mult: float = 1.0) -> None:
        self.samples.setdefault(name, []).append((seconds * mult, seconds * ratio * mult))

    def rate(self, name: str, ops: int, seconds: float, ratio: float) -> None:
        self.samples.setdefault(name, []).append((ops / seconds, ops / (seconds * ratio)))

    def raw(self, name: str) -> list[float]:
        return [raw for raw, _ in self.samples[name]]

    def ref(self, name: str) -> list[float]:
        return [ref for _, ref in self.samples[name]]
