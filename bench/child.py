"""Run one supercat CLI invocation inside this process and print a JSON
summary of it on stdout.

    python3 bench/child.py --src SRC --run-id ID --trace 0|1 -- CLI-ARGS...

The CLI's own stdout is captured (hashed and counted, not printed), so
this script's stdout carries only the summary line.  The summary's
``wall_s`` covers ``import supercat.cli`` and ``cli.main``.  With
``--trace 1`` the import spans and layer wrappers of ``tracer.py`` are
installed first and the summary carries the trace.  The run with
``--trace 0`` is the untraced reference the tracing overhead is
measured against.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time


class _DigestSink:
    """A text stream that keeps only the sha256 and byte count of what is
    written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.trace_imports()
    sink = _DigestSink()
    start = time.perf_counter()
    from supercat import cli

    if tracer:
        tracer.install()
    with contextlib.redirect_stdout(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    wall_s = time.perf_counter() - start
    summary = {
        "code": code,
        "wall_s": wall_s,
        "stdout_bytes": sink.bytes,
        "sha256": sink.hash.hexdigest(),
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
