"""Start, time and reap the benchmark's child processes.

    python3 -E -s -S bench/spawner.py REFERENCE_S

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
FILE, "stderr": FILE, "timeout": SECONDS, "scale": BOOL}``, runs it to
completion in this process's working directory and environment, and
answers with one JSON line ``{"code", "wall_s", "scaled_s", "slices",
"rss_mb"}``.  The peak RSS comes from ``os.wait4``, so it covers the
pool workers the child waited for.

With ``"scale"`` the child runs in slices of ``SLICE_S``.  After each
slice its process group is stopped, the reference work of
``reference.py`` is timed on each CPU in turn, and the group is
continued.  The first slice's left end is the last reference timed, if
that is less than a slice old, or a fresh one.
``wall_s`` is the sum of the slices.  ``scaled_s`` sums each slice
times ``REFERENCE_S / (mean reference time at the slice's two ends)``,
averaged over the CPUs with the CPU time the child's processes spent
on each during the slice as weights: the time the child would take on
a host where the reference work takes ``REFERENCE_S``.  That needs to
know where each process runs: the child is expected to pin its main
process to the first CPU and each forked process to a CPU of its own,
and to report each process's start and exit on its file descriptor
3, as ``launch.py`` does.  Without ``"scale"``, the child
runs in one piece and ``scaled_s`` equals ``wall_s``.

This is a separate, minimal process because Linux starts a spawned
child's peak RSS at the resident size of the process that spawned it.
The benchmark runner is larger than a small CLI process; this script
imports next to nothing and stays below any Python child it starts, so
the peak it reports is the child's own.
"""

import json
import os
import signal
import sys
import time

# The host's speed changes within seconds, so a slice is shorter than that.
SLICE_S = 1.0
# Where a child started by ``run`` reports its processes (see launch.py).
EVENT_FD = 3


class References:
    """One ``reference.py --serve`` process pinned to each CPU."""

    def __init__(self, cpus):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
        self.procs = []
        self.last = None
        self.taken = 0.0
        for cpu in cpus:
            to_child, from_parent = os.pipe()
            to_parent, from_child = os.pipe()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, "-E", "-s", "-S", script, "--serve"], os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, to_child, 0),
                    (os.POSIX_SPAWN_DUP2, from_child, 1),
                ],
                setsigmask=(),
            )
            os.sched_setaffinity(pid, {cpu})
            os.close(to_child)
            os.close(from_child)
            self.procs.append((pid, os.fdopen(from_parent, "w"), os.fdopen(to_parent, "r")))

    def time(self):
        """Run the reference work on each CPU in turn; the wall times, by CPU.
        One at a time, because the CPUs may share a core and slow each
        other down: each time is that of its CPU alone."""
        self.taken = time.perf_counter()
        times = []
        for pid, requests, replies in self.procs:
            requests.write("\n")
            requests.flush()
            line = replies.readline()
            if not line:
                raise RuntimeError(f"reference.py (pid {pid}) exited")
            times.append(float(line))
        self.last = times
        return times

    def recent(self):
        """The last reference times if they are less than a slice old, as
        between two children run back to back; else fresh ones."""
        if self.last and time.perf_counter() - self.taken < SLICE_S:
            return self.last
        return self.time()

    def close(self):
        for pid, requests, replies in self.procs:
            requests.close()
            replies.close()
            os.waitpid(pid, 0)


def cpu_clock(pid):
    """Seconds of CPU the process has used, or None once it is gone.
    The clock id is the one ``clock_getcpuclockid(pid)`` returns on Linux."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return None


class Placement:
    """Where the child's processes run, and the CPU time each CPU gave
    them since the last reading.  Reads the ``S``/``E`` lines that
    ``launch.py`` writes."""

    def __init__(self, leader, cpus, events):
        self.index = {cpu: i for i, cpu in enumerate(cpus)}
        self.leader = leader
        self.cpu_of = {leader: cpus[0]}
        self.used = {}
        self.final = {}
        self.events = events
        self.pending = b""

    def busy(self, slice_s):
        """CPU seconds per CPU since the last call.  The main process
        counts as busy for the whole slice if it ended unreported."""
        try:
            self.pending += os.read(self.events, 1 << 16)
        except BlockingIOError:
            pass
        *lines, self.pending = self.pending.split(b"\n")
        for line in lines:
            kind, pid, value = line.split()
            if kind == b"S":
                self.cpu_of[int(pid)] = int(value)
            else:
                self.final[int(pid)] = float(value)
        busy = [0.0] * len(self.index)
        for pid, cpu in list(self.cpu_of.items()):
            now = self.final.get(pid)
            if now is None:
                now = cpu_clock(pid)
            if now is None:
                del self.cpu_of[pid]
                if pid == self.leader:
                    busy[self.index[cpu]] += slice_s
                continue
            busy[self.index[cpu]] += now - self.used.get(pid, 0.0)
            self.used[pid] = now
            if pid in self.final:
                del self.cpu_of[pid]
        return busy


def signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def run(req, refs, cpus, reference_s):
    scale = req.get("scale", False)
    out_fd = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    event_reader, event_writer = os.pipe()
    os.set_blocking(event_reader, False)
    before = refs.recent() if scale else []
    wall_s = scaled_s = 0.0
    slices = 0
    start = time.perf_counter()
    try:
        child = os.posix_spawn(
            req["argv"][0], req["argv"], os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out_fd, 1),
                (os.POSIX_SPAWN_DUP2, err_fd, 2),
                (os.POSIX_SPAWN_DUP2, event_writer, EVENT_FD),
                (os.POSIX_SPAWN_CLOSE, 0),
            ],
            setpgroup=0,
            setsigmask=(),
        )
    finally:
        os.close(out_fd)
        os.close(err_fd)
        os.close(event_writer)
    placement = Placement(child, cpus, event_reader)
    try:
        while True:
            # wait until the child exits or the slice is over
            end = start + (SLICE_S if scale else req["timeout"] - wall_s)
            while True:
                pid, status, usage = os.wait4(child, os.WNOHANG)
                now = time.perf_counter()
                if pid or now >= end:
                    break
                signal.sigtimedwait([signal.SIGCHLD], end - now)
            if not pid:
                os.killpg(child, signal.SIGSTOP)
                pid, status, usage = os.wait4(child, os.WUNTRACED)
                if os.WIFSTOPPED(status):
                    pid = 0
            wall_s += now - start
            slices += 1
            if scale:
                busy = placement.busy(now - start)
                after = refs.time()
                speed = [reference_s / ((b + a) / 2) for b, a in zip(before, after)]
                total = sum(busy)
                factor = sum(w * s for w, s in zip(busy, speed)) / total if total > 0 else speed[0]
                scaled_s += (now - start) * factor
                before = after
            if pid:
                break
            if wall_s >= req["timeout"]:
                os.killpg(child, signal.SIGKILL)
            start = time.perf_counter()
            os.killpg(child, signal.SIGCONT)
    except BaseException:
        # leave nothing stopped or running behind
        signal_group(child, signal.SIGKILL)
        signal_group(child, signal.SIGCONT)
        try:
            os.waitpid(child, 0)
        except ChildProcessError:
            pass
        raise
    finally:
        os.close(event_reader)
    # the CLI waits for its pool workers; anything of its group still
    # there (stopped, perhaps, as the main process exited) is a stray
    signal_group(child, signal.SIGKILL)
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall_s,
            "scaled_s": scaled_s if scale else wall_s, "slices": slices,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    reference_s = float(sys.argv[1])
    cpus = sorted(os.sched_getaffinity(0))
    # a child's exit wakes sigtimedwait; children start with an empty mask
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGCHLD])
    refs = References(cpus)
    try:
        for line in sys.stdin:
            reply = run(json.loads(line), refs, cpus, reference_s)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        refs.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
