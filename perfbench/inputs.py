"""Deterministic workload inputs: the same seed gives the same inputs.

Documents come from the program's synthetic generators, queries from its
workload generator over the document's stable summary, and updates from
its mutation-workload generator.  The program itself only ever sees the
results: XML text, a synopsis file, and requests on the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: The daemon's default QueryCache size; serve-mixed reads exactly this
#: many hot queries, so they fit it.
CACHE_SIZE = 256
ZIPF_S = 1.0
#: Expansion answers stay small enough to fit one response line.
EXPAND_MAX_ELEMENTS = 2000
EXPAND_SEED = 7
#: Generator seed of the served document and its query universe.
SERVE_DOC_SEED = 0


@dataclass(frozen=True)
class Scale:
    #: Budget sweep, largest first; the last sketch is the one written.
    sweep_kb: Tuple[float, ...]
    #: Budget of the synopsis the serve workloads answer from.
    serve_kb: float
    xmark_build: float
    imdb_build: float
    xmark_serve: float
    sel_queries: int
    updates: int
    hot_probe: int


# The paper's sweep (Figs. 11-13) and the 20 KB XMark-TX serving sketch.
FULL = Scale(sweep_kb=(50, 40, 30, 20, 10), serve_kb=20, xmark_build=4.0,
             imdb_build=8.0, xmark_serve=4.0, sel_queries=200, updates=400,
             hot_probe=64)
SMOKE = Scale(sweep_kb=(5, 4, 3, 2, 1), serve_kb=3, xmark_build=0.3,
              imdb_build=0.5, xmark_serve=0.5, sel_queries=20, updates=40,
              hot_probe=16)


def document(kind: str, scale: float, seed: int):
    from repro.datagen.datasets import imdb_like, xmark_like

    generator = {"xmark": xmark_like, "imdb": imdb_like}[kind]
    return generator(scale=scale, seed=seed)


def xml_text(tree) -> str:
    from repro.xmltree.serialize import to_xml

    return to_xml(tree)


def query_texts(tree, count: int, seed: int) -> List[str]:
    """Up to ``count`` distinct positive twig queries, in generation order."""
    from repro.core.stable import build_stable
    from repro.query.generator import WorkloadOptions, generate_workload

    stable = build_stable(tree)
    out: List[str] = []
    seen = set()
    for attempt in range(4):
        queries = generate_workload(stable, WorkloadOptions(
            num_queries=count + count // 2, seed=seed * 31 + attempt))
        for query in queries:
            text = str(query)
            if text not in seen:
                seen.add(text)
                out.append(text)
                if len(out) == count:
                    return out
    return out


def zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]


def ranked(queries: List[str], seed: int) -> List[str]:
    """The universe in popularity order (rank 1 first), seed-shuffled so
    hotness is independent of the generator's output order."""
    order = list(queries)
    random.Random(seed ^ 0x5EED).shuffle(order)
    return order


def mutation_ops(tree, count: int, seed: int) -> List[dict]:
    from repro.workload.mutations import make_mutation_workload

    return [op.to_json() for op in make_mutation_workload(
        tree, num_ops=count, seed=seed)]


def op_stream(seed: int, conn: int, mix: Tuple[Tuple[str, float], ...]):
    """Endless deterministic op choices for one connection."""
    rng = random.Random(seed * 1009 + conn)
    names = [name for name, _ in mix]
    weights = [weight for _, weight in mix]
    while True:
        yield rng.choices(names, weights)[0], rng
