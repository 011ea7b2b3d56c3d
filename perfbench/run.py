"""TreeSketch benchmark: build and serve workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke] [--break-oracle]

Run from the root of a checkout.  Prints an ``attrs`` line (machine facts
and workload attributes), then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits non-zero when an output check fails, and without a
result when the program is missing.  ``--smoke`` shrinks every input for
the benchmark's own tests; ``--break-oracle`` corrupts one expected value
so those tests can prove the checks bite.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys

import common
import inputs

WORKLOADS = ("build", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args(argv)

    if not common.program_present():
        print(f"program sources not found under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    if args.workload == "build":
        import build_bench as workload
    else:
        import serve_bench as workload

    scale = inputs.SMOKE if args.smoke else inputs.FULL
    # Turn a termination request into an exception, so the cleanup below
    # and in the workloads stops every daemon and build process started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    run_dir = common.make_run_dir()
    try:
        out = workload.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), scale, run_dir,
                           args.break_oracle)
    except common.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = common.metric_units(kind)
    values = out["layers"] if args.trace else out["end_to_end"]
    # A layer a workload does not exercise reads 0 (e.g. the serving
    # layers on the build workload).
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in units.items()}
    attrs = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "machine": common.machine_facts(), **out["attrs"]}
    if out["problems"]:
        attrs["problems"] = out["problems"]
        for problem in out["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    correct = not out["problems"]
    common.emit(correct, out["attempted"], out["failed"], metrics, attrs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
