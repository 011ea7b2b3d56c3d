"""One synopsis build in a fresh process, as a ``treesketch build`` user runs it.

    python perfbench/buildproc.py XML_FILE OUT.tsb --budgets 50,40,30,20,10
        [--spans SPANS.json] [--reference]

Reads the XML text, then times parse -> stable summary -> TSBUILD down the
budget sweep -> writing the last sketch, and prints one JSON line: wall
and CPU seconds of that region, the process's peak RSS, a digest of every
swept sketch, and the backend ``kernel="auto"`` chose.  ``--spans`` also
wraps the build layers (see layers.py) and turns on the program's own
counters; ``--reference`` builds with ``TSBuildOptions(reference=True)``,
the seed code path the oracle compares against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def digest(sketch) -> str:
    """Canonical digest of a synopsis: equal iff bitwise-equal tables."""
    from repro.core.io import synopsis_to_dict

    text = json.dumps(synopsis_to_dict(sketch), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("xml")
    parser.add_argument("out")
    parser.add_argument("--budgets", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    budgets = [int(float(kb) * 1024) for kb in args.budgets.split(",")]

    import repro.core.build as build
    import repro.core.io as io
    import repro.core.stable as stable
    import repro.xmltree.parser as xmlparser

    with open(args.xml, encoding="utf-8") as handle:
        text = handle.read()
    options = build.TSBuildOptions(reference=args.reference)
    recorder = registry = None
    if args.spans:
        from repro import obs

        from layers import install_build
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_build(recorder)
        registry = obs.enable()
    made = {}

    def run_build():
        tree = xmlparser.parse_xml(text)
        summary = stable.build_stable(tree)
        builder = build.TreeSketchBuilder(summary, options)
        sketches = [builder.compress_to(budget) for budget in budgets]
        io.save_synopsis(sketches[-1], args.out, format="tsb")
        made.update(summary=summary, builder=builder, sketches=sketches)

    if recorder is not None:
        run_build = recorder.timed("build", run_build)
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    run_build()
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary, builder = made["summary"], made["builder"]
    part = builder.partition
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "digests": [digest(sketch) for sketch in made["sketches"]],
        "partition": type(part).__name__,
        "edge_density": summary.num_edges / max(1, len(summary.count)),
        "stable_kb": summary.size_bytes() / 1024.0,
        "merges": builder.merges_applied,
    }
    if recorder is not None:
        counters = registry.snapshot()["counters"]
        result["counters"] = {
            name: counters.get(f"tsbuild.{name}", 0)
            for name in ("heap_pops", "merges_applied",
                         "stale_recomputations", "pool_regenerations")
        }
        result["memo_hits"] = part.memo_hits
        result["memo_misses"] = part.memo_misses
        recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
