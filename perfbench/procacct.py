"""CPU accounting from ``/proc`` for the benchmark process tree.

For any interval, over the ``ncpu`` CPUs this process may run on,

    wall * ncpu == driver CPU + Ray worker CPU + Ray daemon CPU
                   + idle + steal + residual

where driver/worker/daemon CPU come from ``/proc/<pid>/stat`` of the driver
and its descendants, idle and steal from those CPUs' lines of
``/proc/stat``.  The residual is CPU that none of those account for (kernel
threads, processes outside the tree); it is reported, not assumed zero.

Workers that exit inside an interval (the crawl's seen-filter actors do,
after every crawl) keep the CPU they had at the last scan: a ``Sampler``
thread rescans every 0.1 s during traced ops, so at most that much of a
dying process's CPU is lost.
"""

from __future__ import annotations

import os
import signal
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """CPUs as coreutils ``nproc`` reports them (``OMP_NUM_THREADS`` wins)."""
    avail = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        return min(int(omp), avail)
    return avail


def _read_stat(pid: int) -> tuple[str, str, int, int, int] | None:
    """(comm, state, ppid, own CPU ticks, start time) of ``pid``."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    comm = raw[raw.index("(") + 1 : raw.rindex(")")]
    fields = raw[raw.rindex(")") + 2 :].split()
    # fields[0] is stat field 3 (state); utime/stime are fields 14/15 and
    # starttime 22 in proc(5) numbering
    return comm, fields[0], int(fields[1]), int(fields[11]) + int(fields[12]), int(fields[19])


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _cpu_idle_steal(cpus: list[int]) -> tuple[float, float]:
    """Idle (with iowait) and steal seconds so far of ``cpus``."""
    idle = steal = 0
    with open("/proc/stat") as f:
        for line in f:
            parts = line.split()
            if parts[0][3:].isdigit() and int(parts[0][3:]) in cpus:
                idle += int(parts[4]) + int(parts[5])
                steal += int(parts[8])
    return idle / CLK_TCK, steal / CLK_TCK


def steal_s(cpus: list[int]) -> float:
    """Steal seconds so far of ``cpus``: CPU the hypervisor gave elsewhere."""
    return _cpu_idle_steal(cpus)[1]


class ProcTree:
    """CPU of this process and its descendants, by role."""

    def __init__(self, cpus: list[int]):
        self.root = os.getpid()
        self.cpus = cpus
        self.lock = threading.Lock()
        # (pid, start time) -> [role, CPU ticks at the last scan]
        self.last: dict[tuple[int, int], list] = {}

    def _descendants(self) -> dict[int, tuple]:
        stats = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _read_stat(int(name))
                if st is not None:
                    stats[int(name)] = st
        children: dict[int, list[int]] = {}
        for pid, st in stats.items():
            children.setdefault(st[2], []).append(pid)
        out, stack = {}, list(children.get(self.root, []))
        while stack:
            pid = stack.pop()
            out[pid] = stats[pid]
            stack.extend(children.get(pid, []))
        return out

    def scan(self) -> None:
        """Record every live descendant's CPU so far."""
        with self.lock:
            for pid, (comm, _, _, own, start) in self._descendants().items():
                entry = self.last.get((pid, start))
                if entry is None:
                    # a Ray worker starts as ``default_worker.py`` and
                    # renames itself ``ray::<task or actor>``
                    cmd = _cmdline(pid)
                    worker = comm.startswith("ray::") or cmd.startswith("ray::") or (
                        "default_worker.py" in cmd
                    )
                    entry = self.last[(pid, start)] = [
                        "workers" if worker else "daemons", 0
                    ]
                entry[1] = own

    def snapshot(self) -> dict:
        """CPU seconds so far: driver, Ray workers, Ray daemons, plus the
        CPUs' idle and steal."""
        self.scan()
        t = os.times()
        totals = {"workers": 0, "daemons": 0}
        with self.lock:
            for role, ticks in self.last.values():
                totals[role] += ticks
        idle, steal = _cpu_idle_steal(self.cpus)
        return {
            "wall": time.time(),
            "driver": t.user + t.system,
            "workers": totals["workers"] / CLK_TCK,
            "daemons": totals["daemons"] / CLK_TCK,
            "idle": idle,
            "steal": steal,
        }

    def delta(self, a: dict, b: dict) -> dict:
        d = {k: b[k] - a[k] for k in a}
        cpu = d["driver"] + d["workers"] + d["daemons"]
        d["residual"] = d["wall"] * len(self.cpus) - cpu - d["idle"] - d["steal"]
        return d

    def reap(self, timeout_s: float = 20.0) -> int:
        """Wait for every descendant ever seen to exit; SIGKILL stragglers.
        Returns how many had to be killed."""
        self.scan()

        def alive() -> list[int]:
            out = []
            for pid, start in self.last:
                st = _read_stat(pid)
                if st is not None and st[4] == start and st[1] != "Z":
                    out.append(pid)
            return out

        deadline = time.time() + timeout_s
        while alive() and time.time() < deadline:
            time.sleep(0.2)
        left = alive()
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.time() + 5
        while alive() and time.time() < deadline:
            time.sleep(0.1)
        return len(left)


class Sampler:
    """Background thread that rescans a ``ProcTree`` every ``period_s``."""

    def __init__(self, tree: ProcTree, period_s: float = 0.1):
        self.tree = tree
        self.period_s = period_s
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self.stop.wait(self.period_s):
            self.tree.scan()

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join(timeout=5)
