"""Lifecycle of the service under test, and the host facts in the header.

``repro.cli serve --mode process`` forks one worker per shard; the
benchmark starts it in its own process group so that one ``killpg``
reaches the front door and every worker, whatever went wrong, and so
that ``/proc`` can be asked who is in the group: that is how CPU and
memory of the *whole* service are read from outside, and how
:meth:`Server.stop` proves no worker outlived the run.
"""

import os
import platform
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import REPO_ROOT, SCRUBBED_ENV, SRC

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# /proc/<pid>/stat fields after the parenthesised command name.
_STAT_STATE, _STAT_PGRP, _STAT_UTIME, _STAT_STIME = 0, 2, 11, 12


class ServerError(RuntimeError):
    """The service did not start, or did not die when told to."""


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:         # exited between listing and reading
        return None
    # The command name may contain spaces; fields resume after ")".
    return raw[raw.rindex(")") + 2:].split()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[_STAT_STATE] == "Z":
            continue
        if int(fields[_STAT_PGRP]) == pgid:
            members.append(int(entry))
    return sorted(members)


class Server:
    """One ``repro.cli serve`` process group; pair :meth:`start` with
    :meth:`stop` in a ``finally``."""

    def __init__(self, seed: int, population: int, domains: int,
                 hot_size: int, shards: int = 2,
                 start_timeout: float = 30.0) -> None:
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--mode", "process", "--shards", str(shards), "--port", "0",
            "--seed", str(seed), "--population", str(population),
            "--domains", str(domains), "--hot-size", str(hot_size)]
        self.start_timeout = start_timeout
        self.port: Optional[int] = None
        self._process: Optional[subprocess.Popen] = None
        self._members: List[int] = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Server":
        env = dict(os.environ)      # already scrubbed of DRBAC_* on import
        env["PYTHONPATH"] = SRC
        self._process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, env=env, cwd=REPO_ROOT,
            start_new_session=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise
        # The shards are forked before the port line is printed, so the
        # group is complete; listing it once keeps the per-slice CPU
        # reads to three small files.
        self._members = group_members(self._process.pid)
        return self

    def _read_port(self) -> int:
        stdout = self._process.stdout
        ready, _, _ = select.select([stdout], [], [], self.start_timeout)
        if not ready:
            raise ServerError(
                f"no port line within {self.start_timeout:.0f}s")
        # "drbac service on HOST:PORT -- ..." (printed whole, then flushed)
        line = stdout.readline().decode("utf-8", "replace")
        try:
            return int(line.split(" -- ")[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise ServerError(f"unexpected first line: {line!r}") from None

    def stop(self) -> None:
        """Kill the whole group; raise if any member survives."""
        process, self._process = self._process, None
        if process is None:
            return
        pgid = process.pid          # start_new_session: pgid == pid
        for signum, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            try:
                os.killpg(pgid, signum)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                process.poll()      # reap the front door
                if not group_members(pgid):
                    break
                time.sleep(0.01)
            if not group_members(pgid):
                break
        process.stdout.close()
        process.wait()
        survivors = group_members(pgid)
        if survivors:
            raise ServerError(f"shard workers survived: {survivors}")

    # -- read from outside ----------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU the front door and its workers have used."""
        ticks = 0
        for pid in self._members:
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[_STAT_UTIME]) + int(fields[_STAT_STIME])
        return ticks / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Sum of the members' resident-set high-water marks."""
        total_kb = 0
        for pid in self._members:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                pass
        return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Result header
# ---------------------------------------------------------------------------


def _git_rev() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def header() -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "loadavg_1m": os.getloadavg()[0],
        "scrubbed_env": dict(SCRUBBED_ENV),
        "timestamp": time.time(),
    }
