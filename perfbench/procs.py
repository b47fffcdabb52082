"""Process helpers: run the measured programs and account for them from outside.

Peak memory is ``VmHWM`` from Linux ``/proc/<pid>/status``.  No helper
imports the program under test.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

def peak_rss_mib(pid: int) -> float | None:
    """``VmHWM`` of a live process in MiB (``None`` once gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return state[state.rindex(")") + 2] != "Z"


def descendants(pid: int) -> list[int]:
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                text = Path(f"/proc/{parent}/task/{task}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return found


def wait_gone(pids: list[int], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


@dataclass
class Timed:
    wall_s: float
    returncode: int
    peak_rss_mib: float
    stdout: str
    stderr: str


class _TreeWatch(threading.Thread):
    """Polls the descendants of one process for their peak RSS.

    Only descendants seen on two polls count.  A child between
    ``vfork`` and ``exec`` (the runner starts ``git`` that way) still
    shares its parent's memory and would read as a second copy of it.
    """

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.seen: dict[int, tuple[int, float]] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(0.25):
            for pid in descendants(self.root):
                peak = peak_rss_mib(pid)
                if peak is not None:
                    polls, high = self.seen.get(pid, (0, 0.0))
                    self.seen[pid] = (polls + 1, max(peak, high))

    @property
    def peaks(self) -> dict[int, float]:
        return {pid: high for pid, (polls, high) in self.seen.items() if polls >= 2}


def run_timed(
    cmd: list[str], env: dict[str, str], logs: Path, timeout: float = 170.0
) -> Timed:
    """Run one command to completion: wall time, exit code, tree peak RSS.

    The root's peak comes from ``wait4`` (exact); descendants are polled.
    Output goes to files under ``logs`` so a chatty program cannot block
    on a full pipe.
    """
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            cmd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        watch = _TreeWatch(process.pid)
        watch.start()
        killer = threading.Timer(
            timeout, lambda: os.killpg(process.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:  # interrupted (SIGTERM): take the tree down
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        watch.done.set()
        watch.join()
    leftovers = descendants(process.pid) + list(watch.seen)
    wait_gone([pid for pid in leftovers if alive(pid)], 10.0)
    return Timed(
        wall_s=wall,
        returncode=process.returncode,
        peak_rss_mib=usage.ru_maxrss / 1024.0 + sum(watch.peaks.values()),
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
