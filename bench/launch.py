"""Run the supercat CLI from a source tree, as the ``supercat`` console
script would, with its processes placed where ``spawner.py`` can time
them.

    python3 -E -s bench/launch.py SRC CLI-ARGS...

The main process pins itself to the first CPU.  Each process it forks
(the ``--jobs`` pool workers) is pinned to the next CPU in turn.  When
file descriptor 3 is open, each forked process writes ``S <pid> <cpu>``
to it as it starts, and every process writes ``E <pid> <cpu seconds>``
as it exits, so that ``spawner.py`` knows how much CPU each CPU gave
them.  Pool workers started by ``exec`` rather than ``fork`` would not
run these hooks and would stay on the first CPU; Python 3.11 on Linux
forks them.
"""

import atexit
import os
import sys
import time

EVENT_FD = 3


def report(line: str) -> None:
    try:
        os.write(EVENT_FD, f"{line}\n".encode())
    except OSError:
        pass


def report_exit() -> None:
    report(f"E {os.getpid()} {time.process_time()!r}")


def place_processes() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    forks = 0
    exit_now = os._exit

    def exit_reported(code: int) -> None:
        report_exit()
        exit_now(code)

    def before() -> None:
        nonlocal forks
        forks += 1

    def in_child() -> None:
        cpu = cpus[forks % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        report(f"S {os.getpid()} {cpu}")
        # a forked pool worker leaves through os._exit, past atexit
        os._exit = exit_reported

    os.register_at_fork(before=before, after_in_child=in_child)
    atexit.register(report_exit)


if __name__ == "__main__":
    place_processes()
    sys.path[0] = sys.argv.pop(1)  # in place of this script's directory
    from supercat.cli import main

    sys.exit(main())
