"""A small process that spawns the benchmark's operations and times them.

Linux charges a child's peak resident set with the peak of the address space
it was spawned from: ``exec`` records the old image's high-water mark in the
child's ``ru_maxrss``.  The benchmark process holds numpy, scipy and the
workload inputs, so children spawned straight from it would report its
size, not theirs.  The launcher is started before any of that is imported
(with ``-S``, importing only the standard modules below), so its own
footprint stays far under any operation's.

Protocol: one JSON request per line on stdin,
``{"args", "env", "cwd", "stdout", "stderr", "timeout"}``, one JSON reply per
line on stdout, ``{"status", "wall_s", "cpu_s", "peak_rss_mb"}``.  ``status``
is the exit code, or None when the child was killed at ``timeout``.  EOF on
stdin ends the launcher; SIGTERM kills the running child first.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


_running = []  # pid of the child being waited for, if any


def _on_term(signum, frame):
    for pid in _running:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped
    sys.exit(143)


def spawn(args, env, cwd, stdout, stderr, timeout):
    """Run ``args`` to completion; wall time is from spawn to exit."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    os.chdir(cwd)
    begin = time.perf_counter()
    pid = os.posix_spawn(args[0], args, env, file_actions=actions)
    _running.append(pid)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - begin
        status = os.waitstatus_to_exitcode(status)
    except _Timeout:
        wall = time.perf_counter() - begin
        try:
            os.kill(pid, signal.SIGKILL)
            usage = os.wait4(pid, 0)[2]
        except (ProcessLookupError, ChildProcessError):
            return {"status": None, "wall_s": wall, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        status = None
    finally:
        _running.remove(pid)
    return {
        "status": status,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def serve():
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["args"], request["env"], request["cwd"], request["stdout"],
                      request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: start the launcher, send it operations, stop it.

    Start it while the calling process is still small (see module docstring).
    The launcher and every child it spawns run on CPU ``cpu``.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self._process = subprocess.Popen(
            [sys.executable, "-S", __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self._process.pid, {cpu})

    def run(self, args, env, cwd, stdout, stderr, timeout):
        request = {"args": [str(a) for a in args], "env": env, "cwd": str(cwd),
                   "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        reply = self._process.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self):
        """Stop the launcher; an operation still running is killed."""
        try:
            self._process.stdin.close()
            self._process.wait(timeout=1)
        except (OSError, subprocess.TimeoutExpired):
            self._process.terminate()
            self._process.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
