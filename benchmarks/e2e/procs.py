"""Process discipline: cold children that cannot outlive their repeat.

Every repeat is one blocking child with a timeout, in a session of its
own, so whatever it started shares its process group.  After it returns
the group is swept (anything still in it is killed and reported), and
before either process exits :func:`survivors` lists what this process
would leave behind: child processes (zombies included), threads other
than the main one, and sockets it still holds open.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent


def _stat_fields(pid: str) -> Tuple[str, List[str]]:
    """(command name, fields after it) of ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    left, right = text.index("("), text.rindex(")")
    return text[left + 1:right], text[right + 2:].split()


def group_members(pgid: int) -> List[Tuple[int, str]]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    found: List[Tuple[int, str]] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            name, fields = _stat_fields(entry)
        except (OSError, ValueError):
            continue  # exited while we were looking
        if fields[0] != "Z" and int(fields[2]) == pgid:
            found.append((int(entry), name))
    return found


def child_processes() -> List[Tuple[int, str]]:
    """Direct children of this process, over all of its threads."""
    found: List[Tuple[int, str]] = []
    for task in os.listdir("/proc/self/task"):
        try:
            pids = Path(f"/proc/self/task/{task}/children").read_text().split()
        except OSError:
            continue
        for pid in pids:
            try:
                name, _ = _stat_fields(pid)
            except (OSError, ValueError):
                continue
            found.append((int(pid), name))
    return found


def _socket_inodes() -> set:
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    return inodes


#: Sockets handed to this process by whoever started it (a supervisor's
#: stdin/stdout can be one): not ours to close, so not a leak.
_INHERITED_SOCKETS = _socket_inodes()


def open_sockets() -> List[str]:
    """Sockets this process opened and still holds, with their
    /proc/net identity."""
    inodes = _socket_inodes() - _INHERITED_SOCKETS
    if not inodes:
        return []
    described: Dict[str, str] = {}
    for table in ("tcp", "tcp6", "udp", "udp6"):
        try:
            lines = Path(f"/proc/net/{table}").read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[9] in inodes:
                port = int(fields[1].rsplit(":", 1)[1], 16)
                listening = table.startswith("tcp") and fields[3] == "0A"
                described[fields[9]] = (
                    f"{table} port {port}" + (" LISTEN" if listening else "")
                )
    return [
        f"socket {described.get(inode, 'inode ' + inode)}"
        for inode in sorted(inodes)
    ]


def survivors() -> List[str]:
    """Everything this process started and has not yet let go of."""
    found = [f"process {pid} ({name})" for pid, name in child_processes()]
    found.extend(
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
    )
    found.extend(open_sockets())
    return found


def _kill_group(pgid: int) -> List[str]:
    """Name, then SIGKILL, whatever still lives in one child's group."""
    leaked = [f"process {pid} ({name})" for pid, name in group_members(pgid)]
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    return leaked


def run_child(
    args: List[str], timeout: float, script: Path = HERE / "child.py"
) -> Dict[str, Any]:
    """One cold repeat; never a hang, never a process left behind.

    This is ``subprocess.run(..., timeout=...)`` open-coded, because the
    sweep needs the child's pid (== its session's process group) and
    because ``run`` kills only the direct child on timeout and then
    waits on a pipe a grandchild may still hold.  Returns the child's
    JSON result; a child that times out, dies or prints no result comes
    back as ``{"error": ...}`` and the caller counts its operations as
    failed.
    """
    spawned = time.time()
    command = [
        sys.executable, str(script), *args,
        "--spawned", repr(spawned),
    ]
    error = ""
    stdout = ""
    with subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=timeout)
            if child.returncode != 0:
                error = f"child exited with code {child.returncode}"
        except subprocess.TimeoutExpired:
            error = f"child timed out after {timeout:.0f} s and was killed"
        finally:
            # Also the Ctrl-C path: nothing of this repeat survives it.
            group_alive = child.poll() is None
            leaked = _kill_group(child.pid)
            if group_alive:
                leaked = []  # the child itself, killed for its timeout
            child.wait()
    if leaked:
        error = (error + "; " if error else "") + "left running: " + ", ".join(
            leaked
        )
    result: Dict[str, Any] = {}
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            error = error or "child printed no JSON result"
    elif not error:
        error = "child printed nothing"
    if error:
        result["error"] = error
    return result
