"""Start ``treesketch`` (``repro.cli.main``) under the benchmark's eye.

    python perfbench/launch.py [--spans FILE] [--usage FILE] -- ARGS...

``--usage FILE``: on every SIGUSR1 the process appends one JSON line with
its CPU seconds, peak RSS and a clock reading, so the benchmark can take
the daemon's CPU and memory over exactly its measurement window.
``--spans FILE``: wrap the serving and build layers (layers.py) before
the program starts, and write the recorded spans to FILE when it exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time


def _usage_writer(path: str):
    def on_signal(signum, frame):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        line = json.dumps({"cpu_s": usage.ru_utime + usage.ru_stime,
                           "peak_rss_mb": usage.ru_maxrss / 1024.0,
                           "t": time.perf_counter()})
        with open(path, "a") as handle:
            handle.write(line + "\n")

    return on_signal


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--usage")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = None
    if args.spans:
        from layers import install_serve
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_serve(recorder)
    if args.usage:
        signal.signal(signal.SIGUSR1, _usage_writer(args.usage))

    from repro.cli import main as treesketch

    try:
        return treesketch(argv)
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
