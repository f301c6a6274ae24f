"""The programs under test, run as separate processes through the CLI."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Proc:
    """A CLI subprocess whose output goes to a log file in the workdir."""

    def __init__(self, args: list[str], log: Path) -> None:
        self.log = log
        self._handle = open(log, "wb")
        self.popen = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *args],
            stdout=self._handle,
            stderr=subprocess.STDOUT,
            env=child_env(),
        )

    @property
    def pid(self) -> int:
        return self.popen.pid

    def wait_for_line(self, pattern: str, timeout: float = 60.0) -> re.Match:
        """Block until the log holds a line matching ``pattern``."""
        deadline = time.monotonic() + timeout
        while True:
            match = re.search(pattern, self.log.read_text(errors="replace"))
            if match:
                return match
            if self.popen.poll() is not None:
                raise RuntimeError(
                    f"process exited {self.popen.returncode} before "
                    f"{pattern!r}: {self.log.read_text(errors='replace')}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"timed out waiting for {pattern!r}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live process."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM (both CLIs drain on it), then wait until it has ended."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self._handle.close()


# ----------------------------------------------------------------------
# Nothing outlives a run
# ----------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_SECONDS = 10.0


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits (``PR_SET_CHILD_SUBREAPER``), so :func:`end_descendants` can
    wait for them. ``multiprocessing``'s resource tracker is one: it
    starts with the first shared-memory segment of ``ProcessBackend`` and
    ends only some milliseconds *after* the process that started it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children() -> list[int]:
    """Live or unreaped processes whose parent is this one."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # ended meanwhile
            continue
        # pid (comm) state ppid ...; comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
            found.append(int(entry))
    return found


def end_descendants() -> None:
    """Wait until every child has ended, adopted ones included; what is
    still alive after ``REAP_GRACE_SECONDS`` is killed and then waited
    for. Call last, on every path out of a run."""
    # This process's own resource tracker ends when its pipe closes.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + REAP_GRACE_SECONDS
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.005)


def spawn_gateway(artifact: Path, log: Path) -> tuple[Proc, tuple[str, int]]:
    """``kbt serve ARTIFACT --gateway`` on a free port; returns its address."""
    proc = Proc(
        ["serve", str(artifact), "--gateway", "--port", "0"], log
    )
    try:
        match = proc.wait_for_line(r"on http://([\d.]+):(\d+) ")
    except BaseException:
        proc.stop()
        raise
    return proc, (match.group(1), int(match.group(2)))


def spawn_ingest(
    artifact: Path, spool: Path, gateway: tuple[str, int], log: Path
) -> Proc:
    """``kbt ingest ARTIFACT --watch SPOOL --gateway URL``: a rename into
    the spool is one poll, and 0.1 s later one batch."""
    proc = Proc(
        [
            "ingest", str(artifact),
            "--watch", str(spool),
            "--batch-records", "1000000",
            "--batch-seconds", "0.1",
            "--gateway", f"http://{gateway[0]}:{gateway[1]}",
            # Every generation is re-read after the run to check what
            # was served, so none may be collected meanwhile.
            "--keep-generations", "100000",
        ],
        log,
    )
    try:
        proc.wait_for_line(r"ingesting into ")
    except BaseException:
        proc.stop()
        raise
    return proc
