"""The build workload: XML text -> stable summary -> TSBUILD sweep -> .tsb.

One run alternates two documents, an XMark-like and an IMDB-like one, so
that both partition backends ``kernel="auto"`` picks from are measured in
every run.  Every build runs in a fresh process (buildproc.py), the way a
``treesketch build`` user pays for it, so peak RSS is the build's own.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import inputs
from common import cache_path, cached_json, median, run_child
from layers import self_seconds
from spans import load as load_spans, summarize

BUILDPROC = os.path.join("perfbench", "buildproc.py")
#: Modules a build process imports before it can start work.
BUILD_IMPORTS = ("import repro.xmltree.parser, repro.core.stable, "
                 "repro.core.build, repro.core.io")
SETUP_REPEATS = 9
MIN_PAIRS = 2
#: Build-layer self times must cover the traced build to within this
#: share; the rest is glue between the wrapped calls.
UNATTRIBUTED_TOLERANCE = 0.05
#: The documents of one pair, in build order.
KINDS = ("xmark", "imdb")


def _build(xml_path: str, out: str, sweep_kb, spans: str = "",
           reference: bool = False) -> dict:
    argv = [BUILDPROC, xml_path, out,
            "--budgets", ",".join(str(kb) for kb in sweep_kb)]
    if spans:
        argv += ["--spans", spans]
    if reference:
        argv.append("--reference")
    return json.loads(run_child(argv, timeout=170).splitlines()[-1])


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the build path."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child(["-c", BUILD_IMPORTS], timeout=60)
        samples.append(time.perf_counter() - start)
    return median(samples)


def _builds(docs: Dict[str, str], run_dir: str, sweep_kb, seconds: float,
            traced: bool) -> List[dict]:
    """Whole pairs of builds (XMark, then IMDB) for ``seconds``."""
    results = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(results) < MIN_PAIRS * len(KINDS)):
        for kind in KINDS:
            n = len(results)
            spans = os.path.join(run_dir, f"spans-{n}.json") if traced else ""
            out = os.path.join(run_dir, f"sketch-{n}.tsb")
            result = _build(docs[kind], out, sweep_kb, spans)
            result.update(kind=kind, out=out)
            if traced:
                result["spans"] = spans
            results.append(result)
    return results


def _pairs(results: List[dict]) -> List[List[dict]]:
    return [results[i:i + len(KINDS)]
            for i in range(0, len(results), len(KINDS))]


def _of(results: List[dict], kind: str) -> List[dict]:
    return [r for r in results if r["kind"] == kind]


def _sel_error(kind: str, seed: int, scale, tree, sketch_path: str) -> float:
    """Mean sanity-bounded relative error of the written 10 KB sketch."""
    from repro.core.estimate import estimate_selectivity
    from repro.core.evaluate import eval_query
    from repro.core.io import load_synopsis
    from repro.engine.exact import ExactEvaluator
    from repro.metrics.error import average_error
    from repro.query.parser import parse_twig

    queries = inputs.query_texts(tree, scale.sel_queries, seed + 1000)

    def exact():
        evaluator = ExactEvaluator(tree)
        return [evaluator.evaluate(parse_twig(q)).binding_tuple_count()
                for q in queries]

    truth = cached_json(cache_path(f"build-{kind}", f"{seed}-{len(tree)}",
                                   f"truth-{scale.sel_queries}.json"), exact)
    sketch = load_synopsis(sketch_path)
    estimates = [estimate_selectivity(eval_query(sketch, parse_twig(q)))
                 for q in queries]
    return average_error(list(zip(truth, estimates)))


def _layer_metrics(results: List[dict]) -> Dict[str, float]:
    """Per-layer numbers of traced builds taken together: one build, or
    one pair.  Times and counts add up; ratios come from the totals."""
    totals: Dict[str, float] = {}
    for result in results:
        data = load_spans(result["spans"])
        summary = summarize(data["spans"])
        counts = data["counts"]
        counters = result["counters"]
        root = summary["build"]
        scored = counts.get("core.pool.scored", 0)
        for name, value in {
            **self_seconds(summary),
            "core.stable.classes": counts.get("core.stable.classes", 0),
            "core.pool.calls": counts.get("core.pool.calls", 0),
            "core.pool.scored": scored,
            "core.build.heap_pops": counters["heap_pops"],
            "core.build.drain_rescored": result["memo_misses"] - scored,
            "core.partition.merges": counters["merges_applied"],
            "core.io.bytes": counts.get("core.io.bytes", 0),
            "stale": counters["stale_recomputations"],
            "memo_hits": result["memo_hits"],
            "memo_misses": result["memo_misses"],
            "root_self": root["self"],
            "root_total": root["total"],
        }.items():
            totals[name] = totals.get(name, 0) + value
    pops = totals["core.build.heap_pops"]
    hits, misses = totals.pop("memo_hits"), totals.pop("memo_misses")
    stale = totals.pop("stale")
    root_self, root_total = totals.pop("root_self"), totals.pop("root_total")
    totals["core.build.stale_ratio"] = stale / pops if pops else 0.0
    totals["core.partition.memo_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    totals["trace.build_unattributed"] = root_self / root_total
    return totals


def _medians(per_op: List[Dict[str, float]], prefix: str = "") -> dict:
    return {prefix + name: median([m[name] for m in per_op])
            for name in per_op[0]}


def _check(results: List[dict], reference: Dict[str, list],
           what: str) -> List[str]:
    for result in results:
        if result["digests"] != reference[result["kind"]]:
            return [f"{what} {result['kind']} sketches differ from the "
                    f"reference build"]
    return []


def run(workload: str, seed: int, seconds: float, traced: bool, scale,
        run_dir: str, break_oracle: bool) -> dict:
    sizes = {"xmark": scale.xmark_build, "imdb": scale.imdb_build}
    trees, docs, reference = {}, {}, {}
    for kind in KINDS:
        trees[kind] = inputs.document(kind, sizes[kind], seed)
        docs[kind] = os.path.join(run_dir, f"{kind}.xml")
        with open(docs[kind], "w", encoding="utf-8") as handle:
            handle.write(inputs.xml_text(trees[kind]))
        reference[kind] = cached_json(
            cache_path(f"build-{kind}",
                       f"{seed}-{sizes[kind]}-{scale.sweep_kb[-1]}",
                       "reference.json"),
            lambda: _build(docs[kind], os.path.join(run_dir, "reference.tsb"),
                           scale.sweep_kb, reference=True)["digests"])
    if break_oracle:
        reference["imdb"] = ["0" * 64] + reference["imdb"][1:]

    setup = setup_seconds()
    plain = _builds(docs, run_dir, scale.sweep_kb, seconds, traced=False)
    problems = _check(plain, reference, "swept")
    from buildproc import digest
    from repro.core.io import load_synopsis

    last = {kind: _of(plain, kind)[-1] for kind in KINDS}
    for kind, result in last.items():
        if digest(load_synopsis(result["out"])) != reference[kind][-1]:
            problems.append(f"written {kind} .tsb does not load back to the "
                            f"10 KB sketch")

    walls = [r["wall_s"] for r in plain]
    pair_walls = [sum(r["wall_s"] for r in pair) for pair in _pairs(plain)]
    out = {
        "attempted": len(plain),
        "failed": 0,
        "problems": problems,
        "attrs": {
            "documents": {kind: {
                "scale": sizes[kind],
                "elements": len(trees[kind]),
                "stable_kb": last[kind]["stable_kb"],
                "partition": last[kind]["partition"],
                "edge_density": last[kind]["edge_density"],
            } for kind in KINDS},
            "builds": len(plain),
            "pair_walls_s": pair_walls,
            "budgets_kb": list(scale.sweep_kb),
        },
        "end_to_end": {
            "setup_s": setup,
            "throughput_ops": len(walls) / sum(walls),
            "cpu_ms_per_op": (sum(r["cpu_s"] for r in plain) * 1000.0
                              / len(plain)),
            # A pair's high-water mark is its larger build's.
            "peak_rss_mb": median([max(r["peak_rss_mb"] for r in pair)
                                   for pair in _pairs(plain)]),
        },
    }
    if not traced:
        return out

    traced_runs = _builds(docs, run_dir, scale.sweep_kb, seconds,
                          traced=True)
    problems += _check(traced_runs, reference, "traced")
    per_build = [_layer_metrics([r]) for r in traced_runs]
    layers = _medians([_layer_metrics(pair) for pair in _pairs(traced_runs)])
    worst = max(m["trace.build_unattributed"] for m in per_build)
    if worst > UNATTRIBUTED_TOLERANCE:
        problems.append(
            f"build layer self times leave {worst:.1%} of the traced build "
            f"unattributed (tolerance {UNATTRIBUTED_TOLERANCE:.0%})")
    errors = {}
    for kind in KINDS:
        mine = [m for m, r in zip(per_build, traced_runs) if r["kind"] == kind]
        layers.update(_medians(mine, f"{kind}."))
        layers[f"client.{kind}_build_ms"] = median(
            [r["wall_s"] for r in _of(plain, kind)]) * 1000.0
        errors[kind] = _sel_error(kind, seed, scale, trees[kind],
                                  last[kind]["out"])
        layers[f"{kind}.quality.sel_error"] = errors[kind]
        out["attrs"].setdefault("clock_free_counts", {})[kind] = {
            name: layers[f"{kind}.{name}"] for name in (
                "core.partition.merges", "core.build.heap_pops",
                "core.pool.scored", "core.build.drain_rescored")}
    layers["quality.sel_error"] = sum(errors.values()) / len(errors)
    layers["trace.overhead"] = (
        median([sum(r["wall_s"] for r in pair)
                for pair in _pairs(traced_runs)]) / median(pair_walls) - 1.0)
    out["layers"] = layers
    return out
