"""Which program calls the traced runs wrap, and under which layer names.

Install before the program does its work; every name below is looked up
by the program at call time (module attribute or class method), so the
wrapper is what runs.
"""

from __future__ import annotations

import os

from spans import SpanRecorder


#: Per-layer metric -> the span whose self time it reports (per build).
BUILD_SELF_TIMES = {
    "xmltree.parse_s": "xmltree.parse",
    "core.stable.build_s": "core.stable.build",
    "core.build.init_s": "core.build.init",
    "core.pool.create_s": "core.pool.create",
    "core.build.drain_self_s": "core.build.compress_to",
    "core.partition.apply_merge_s": "core.partition.apply_merge",
    "core.partition.to_treesketch_s": "core.partition.to_treesketch",
    "core.io.save_s": "core.io.save",
}


def self_seconds(summary: dict) -> dict:
    """Build-layer metric -> total self seconds of its spans in ``summary``."""
    return {metric: summary.get(span, {}).get("self", 0.0)
            for metric, span in BUILD_SELF_TIMES.items()}


def _partition_classes():
    from repro.core.kernel import KernelPartition
    from repro.core.live import LivePartition
    from repro.core.partition import MergePartition

    return (MergePartition, KernelPartition, LivePartition)


def _count_classes(rec, args, result, state):
    rec.add("core.stable.classes", len(result.count))


def _memo_misses(args):
    return args[0].memo_misses


def _pool_scored(rec, args, result, before):
    rec.add("core.pool.calls", 1)
    rec.add("core.pool.scored", args[0].memo_misses - before)


def _saved_bytes(rec, args, result, state):
    rec.add("core.io.bytes", os.path.getsize(args[1]))


def install_build(rec: SpanRecorder) -> None:
    """Parse, stable summary, TSBUILD (pool, drain, merges), synopsis write."""
    import repro.core.build as build
    import repro.core.io as io
    import repro.core.stable as stable
    import repro.xmltree.parser as parser

    rec.wrap(parser, "parse_xml", "xmltree.parse")
    rec.wrap(parser, "parse_xml_file", "xmltree.parse")
    rec.wrap(stable, "build_stable", "core.stable.build", after=_count_classes)
    rec.wrap(build.TreeSketchBuilder, "__init__", "core.build.init")
    rec.wrap(build.TreeSketchBuilder, "compress_to", "core.build.compress_to")
    rec.wrap(build, "create_pool", "core.pool.create",
             before=_memo_misses, after=_pool_scored)
    for cls in _partition_classes():
        rec.wrap(cls, "apply_merge", "core.partition.apply_merge")
        rec.wrap(cls, "to_treesketch", "core.partition.to_treesketch")
    rec.wrap(io, "save_synopsis", "core.io.save", after=_saved_bytes)


def _expanded(rec, args, result, state):
    rec.add("core.expand.elements", result.size())


def install_serve(rec: SpanRecorder) -> None:
    """Protocol, query cache, EVALQUERY, estimators, expansion, live edits
    -- plus the build layers, which a live daemon runs at start-up."""
    import repro.core.live as live
    import repro.core.qcache as qcache
    import repro.serve.protocol as protocol
    import repro.serve.server as server

    install_build(rec)
    rec.wrap(protocol, "parse_request", "serve.protocol.decode")
    rec.wrap(protocol, "encode_response", "serve.protocol.encode")
    for method in ("selectivity", "selectivity_batch", "result", "invalidate"):
        rec.wrap(qcache.QueryCache, method, f"core.qcache.{method}")
    rec.wrap(qcache, "eval_query", "core.evaluate.eval_query")
    rec.wrap(qcache, "estimate_selectivity", "core.estimate")
    rec.wrap(qcache, "estimate_selectivity_batch", "core.estimate")
    rec.wrap(server, "estimate_bindings", "core.estimate")
    rec.wrap(server, "expand_result", "core.expand", after=_expanded)
    rec.wrap(live.SketchMaintainer, "insert_subtree", "core.live.edit")
    rec.wrap(live.SketchMaintainer, "delete_subtree", "core.live.edit")
    rec.wrap(live.SketchMaintainer, "snapshot", "core.live.snapshot")
