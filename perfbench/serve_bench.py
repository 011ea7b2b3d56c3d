"""The serve workload: a real ``treesketch serve`` daemon over TCP.

``serve-mixed`` serves an XMark-like document live (``--live-budget-kb``).
The load is a closed loop from one process over two connections (callers
such as query optimizers wait for each answer).  Reads are 70% estimate,
25% eval and 5% expand, with queries drawn Zipf-skewed from the 256
hottest twigs of a fixed universe, so they fit the daemon's cache and
every miss is an invalidation miss.  The second connection turns every
``UPDATE_EVERY``-th request into the next ``update`` of a fixed mutation
workload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import inputs
from common import (ROOT, BenchError, cache_path, cached_json, child_env,
                    mean, median, tail)
from layers import self_seconds
from spans import load as load_spans, summarize

LAUNCH = os.path.join("perfbench", "launch.py")
LAUNCHES = 3
READ_MIX = (("estimate", 0.70), ("eval", 0.25), ("expand", 0.05))
#: With one update in three of its requests, an invalidation lands every
#: few reads, so most reads miss and the median request sits clearly
#: among the misses.  At one in 16 the hit ratio was ~0.43 and the
#: median flipped between hits and misses from run to run (IQR/median
#: 0.29 over ten seeds; 0.08 over five seeds at one in three).
UPDATE_EVERY = 3
READY_TIMEOUT_S = 120.0
#: Client latency metrics per op, ``(op, with a tail metric)``; an op
#: the workload never sends reads 0.
OP_METRICS = (("estimate", True), ("eval", True), ("expand", False),
              ("update", True))


# ------------------------------------------------------------------ daemon


class Daemon:
    """One ``treesketch serve`` process started through launch.py."""

    def __init__(self, run_dir: str, serve_args: List[str], tag: str,
                 traced: bool = False) -> None:
        self.usage_path = os.path.join(run_dir, f"usage-{tag}.jsonl")
        self.spans_path = os.path.join(run_dir, f"spans-{tag}.json")
        self.trace_path = os.path.join(run_dir, f"trace-{tag}.jsonl")
        argv = [sys.executable, LAUNCH, "--usage", self.usage_path]
        if traced:
            argv += ["--spans", self.spans_path]
        argv += ["--", "serve", *serve_args, "--port", "0"]
        if traced:
            argv += ["--trace", self.trace_path]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_ready()
        self.ready_s = time.perf_counter() - self.started

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.stop()
                raise BenchError("daemon did not become ready in time")
            if line is None:
                self.stop()
                raise BenchError("daemon exited before ready: "
                                 + "".join(self.log[-20:]))
            self.log.append(line)
            if line.startswith("serving ") and " on " in line:
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def usage(self) -> dict:
        """CPU seconds and peak RSS of the daemon, taken now."""
        before = self._usage_lines()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            lines = self._usage_lines()
            if len(lines) > len(before):
                return json.loads(lines[-1])
            time.sleep(0.005)
        raise BenchError("daemon did not report its resource usage")

    def _usage_lines(self) -> List[str]:
        try:
            with open(self.usage_path) as handle:
                return [line for line in handle if line.endswith("\n")]
        except OSError:
            return []

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


# ------------------------------------------------------------------ client


class Conn:
    """A minimal newline-delimited JSON client (one request in flight)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, message: dict) -> dict:
        self.sock.sendall(json.dumps(message, separators=(",", ":")).encode()
                          + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def answer_key(op: str, response: dict):
    """The part of a response the oracle compares, as a hashable value."""
    if op == "estimate":
        return response["selectivity"]
    if op == "eval":
        return json.dumps([response["selectivity"], response["result"],
                           response["bindings"]], sort_keys=True)
    if op == "expand":
        return [response["elements"],
                hashlib.sha256(response["xml"].encode()).hexdigest()]
    return tuple(response[k] for k in (
        "epoch", "mutations", "remerges", "debt", "nodes", "edges",
        "size_bytes"))


class Plan:
    """What the load sends: universe, Zipf weights, expand pool, updates."""

    def __init__(self, seed: int, reads: List[str], expand_pool: List[str],
                 updates: List[dict]) -> None:
        self.seed = seed
        self.reads = reads
        weights = inputs.zipf_weights(len(reads))
        self.cum = list(itertools.accumulate(weights))
        self.expand_pool = expand_pool
        self.updates = updates


def _load(port: int, plan: Plan, warm_s: float, seconds: float,
          writer_conn: Optional[int]) -> dict:
    """Closed-loop load over two connections; returns per-request records."""
    records: List[tuple] = []
    errors: List[str] = []
    update_index = itertools.count()
    start = time.perf_counter()
    warm_end = start + warm_s
    end = warm_end + seconds

    def worker(conn_id: int) -> None:
        try:
            conn = Conn(port)
        except OSError as exc:
            errors.append(f"connect: {exc}")
            return
        stream = inputs.op_stream(plan.seed, conn_id, READ_MIX)
        sent = 0
        try:
            while time.perf_counter() < end:
                message = {"id": sent, "request_id": f"c{conn_id}-{sent}"}
                if (conn_id == writer_conn
                        and sent % UPDATE_EVERY == UPDATE_EVERY - 1):
                    index = next(update_index)
                    if index < len(plan.updates):
                        message.update(op="update", **plan.updates[index])
                if "op" not in message:
                    op, rng = next(stream)
                    if op == "expand":
                        query = rng.choice(plan.expand_pool)
                        message["seed"] = inputs.EXPAND_SEED
                    else:
                        query = plan.reads[rng.choices(
                            range(len(plan.reads)), cum_weights=plan.cum)[0]]
                    message.update(op=op, query=query)
                sent += 1
                t0 = time.perf_counter()
                try:
                    response = conn.call(message)
                except (OSError, ValueError) as exc:
                    records.append((conn_id, message, t0, time.perf_counter(),
                                    False, None))
                    errors.append(f"{message['op']}: {exc}")
                    return
                t1 = time.perf_counter()
                ok = bool(response.get("ok"))
                key = answer_key(message["op"], response) if ok else None
                if not ok:
                    errors.append(json.dumps(response.get("error")))
                records.append((conn_id, message, t0, t1, ok, key))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    return {"threads": threads, "records": records, "errors": errors,
            "warm_end": warm_end, "end": end}


def _finish(load: dict) -> None:
    for thread in load["threads"]:
        thread.join(timeout=120)
        if thread.is_alive():
            raise BenchError("load thread did not finish")


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _measure(daemon: Daemon, plan: Plan, warm_s: float, seconds: float,
             writer_conn: Optional[int]) -> dict:
    load = _load(daemon.port, plan, warm_s, seconds, writer_conn)
    _sleep_until(load["warm_end"])
    usage0 = daemon.usage()
    _sleep_until(load["end"])
    usage1 = daemon.usage()
    _finish(load)
    window = [r for r in load["records"] if r[2] >= load["warm_end"]]
    done = [r for r in load["records"]
            if load["warm_end"] <= r[3] <= load["end"] and r[4]]
    latencies: Dict[str, List[float]] = {}
    for record in window:
        if record[4]:
            latencies.setdefault(record[1]["op"], []).append(
                (record[3] - record[2]) * 1000.0)
    all_ms = [ms for values in latencies.values() for ms in values]
    return {
        "records": load["records"],
        "window": window,
        "errors": load["errors"],
        "completed": len(done),
        "latencies": latencies,
        "all_ms": all_ms,
        "latency_p50_ms": median(all_ms),
        "throughput_ops": len(done) / seconds,
        "cpu_ms_per_op": ((usage1["cpu_s"] - usage0["cpu_s"]) * 1000.0
                          / max(1, len(done))),
        "peak_rss_mb": usage1["peak_rss_mb"],
    }


# ----------------------------------------------------------------- oracles


def _expected(cache, sketch, message: dict):
    """The in-process answer to one read, in ``answer_key`` form."""
    from repro.core.estimate import estimate_bindings
    from repro.core.expand import expand_result
    from repro.query.parser import parse_twig
    from repro.xmltree.serialize import to_xml

    op, query = message["op"], parse_twig(message["query"])
    if op == "estimate":
        return cache.selectivity(query)
    if op == "eval":
        result = cache.result(query)
        return answer_key("eval", {
            "selectivity": cache.selectivity(query),
            "result": {"nodes": result.num_nodes, "edges": result.num_edges,
                       "empty": result.empty},
            "bindings": estimate_bindings(result)})
    nesting = expand_result(cache.result(query), max_nodes=200_000,
                            sketch=sketch, seed=message["seed"])
    return answer_key("expand", {"elements": nesting.size(),
                                 "xml": to_xml(nesting.to_xmltree())})


class Replay:
    """The live sketch replayed in-process through the same ops."""

    def __init__(self, xml_path: str, budget_kb: float) -> None:
        from repro.core.live import SketchMaintainer
        from repro.xmltree.parser import parse_xml_file

        self.maintainer = SketchMaintainer(parse_xml_file(xml_path),
                                           int(budget_kb * 1024))
        self.snapshot = self.maintainer.snapshot()
        self.applied = 0
        #: What the daemon must answer to the n-th update, at index n - 1.
        self.answers: List[tuple] = []

    def advance(self, ops: List[dict], count: int) -> None:
        from repro.workload.mutations import MutationOp, apply_mutation

        while self.applied < count:
            apply_mutation(self.maintainer,
                           MutationOp.from_json(ops[self.applied]))
            self.applied += 1
            # One snapshot per op, as the daemon takes one per update.
            snapshot = self.snapshot = self.maintainer.snapshot()
            info = self.maintainer.info()
            self.answers.append((
                self.applied, info["mutations"], info["remerges"],
                info["debt_total"], snapshot.num_nodes, snapshot.num_edges,
                snapshot.size_bytes()))

    def cache(self):
        from repro.core.qcache import QueryCache

        return QueryCache(self.snapshot, maxsize=None)


def _check(passes: List[dict], replay: Replay, ops: List[dict],
           hot: List[str], writer: int, break_oracle: bool) -> List[str]:
    """Walk the replay forward once and hold every pass to it.

    Each daemon starts from the same document and applies the same ops in
    order, and only the writer connection changes it, so the writer's
    reads see exactly the state after its last acknowledged update.  At
    each state the writer read, check those answers; check every update
    response against the replay op for op; and check each pass's final
    answers for the hot queries at the state it stopped at.
    """
    reads: Dict[int, List[tuple]] = {}
    finals: Dict[int, List[dict]] = {}
    updates: List[List[tuple]] = []
    for measured in passes:
        applied = []
        for record in measured["records"]:
            if record[0] != writer or not record[4]:
                continue
            if record[1]["op"] == "update":
                applied.append(record)
            else:
                reads.setdefault(len(applied), []).append(record)
        updates.append(applied)
        finals.setdefault(len(applied), []).append(measured)

    from repro.query.parser import parse_twig

    problems = []
    for state in sorted(set(reads) | set(finals)):
        replay.advance(ops, state)
        cache = replay.cache()
        for record in reads.get(state, []):
            if record[5] != _expected(cache, cache.sketch, record[1]):
                problems.append(
                    f"{record[1]['op']} of {record[1]['query']!r} after "
                    f"{state} updates differs from the in-process replay")
                break
        if state not in finals:
            continue
        want = [cache.selectivity(parse_twig(text)) for text in hot]
        if break_oracle:
            want[0] += 1.0
        for measured in finals[state]:
            if measured["final"] != want:
                problems.append(f"final answers after {state} updates "
                                "differ from the in-process replay")
    for applied in updates:
        for index, record in enumerate(applied):
            if record[5] != replay.answers[index]:
                problems.append(f"update #{index} answered {record[5]}, "
                                f"replay gives {replay.answers[index]}")
                break
    return problems


# ---------------------------------------------------------------- workload


def _prepare(seed: int, scale, run_dir: str) -> dict:
    # Document, query universe, popularity ranking and mutation workload
    # are fixed; --seed drives the request stream.  Which twigs are hot
    # decides most of the serving cost (eval misses are heavy-tailed), so
    # re-drawing them per seed would make the seed, not the program, the
    # largest term in every serving metric.
    tree = inputs.document("xmark", scale.xmark_serve, inputs.SERVE_DOC_SEED)
    xml_path = os.path.join(run_dir, "doc.xml")
    with open(xml_path, "w", encoding="utf-8") as handle:
        handle.write(inputs.xml_text(tree))
    reads = inputs.ranked(inputs.query_texts(
        tree, inputs.CACHE_SIZE, inputs.SERVE_DOC_SEED), inputs.SERVE_DOC_SEED)
    replay = Replay(xml_path, scale.serve_kb)
    ops = cached_json(
        cache_path("serve-mixed", f"{scale.xmark_serve}-{scale.updates}",
                   "ops.json"),
        lambda: inputs.mutation_ops(tree, scale.updates,
                                    inputs.SERVE_DOC_SEED))
    return {
        "tree": tree,
        "serve_args": [f"doc={xml_path}", "--live-budget-kb",
                       str(scale.serve_kb)],
        "reads": reads,
        "updates": ops,
        "replay": replay,
        "expand_pool": _expand_pool(replay.snapshot, reads[:scale.hot_probe]),
    }


def _expand_pool(sketch, texts: List[str]) -> List[str]:
    """Hot queries whose expansion stays small (one response line)."""
    from repro.core.evaluate import eval_query
    from repro.core.expand import expected_size
    from repro.query.parser import parse_twig

    sized = [(expected_size(eval_query(sketch, parse_twig(t))), t)
             for t in texts]
    pool = [t for size, t in sized if size <= inputs.EXPAND_MAX_ELEMENTS]
    return pool or [min(sized)[1]]


def _stats(port: int) -> dict:
    conn = Conn(port)
    try:
        return conn.call({"op": "stats"})
    finally:
        conn.close()


def _final_estimates(port: int, texts: List[str]) -> List[float]:
    conn = Conn(port)
    try:
        out = []
        for text in texts:
            response = conn.call({"op": "estimate", "query": text})
            if not response.get("ok"):
                raise BenchError(f"final estimate failed: {response}")
            out.append(response["selectivity"])
        return out
    finally:
        conn.close()


def _latencies(windows: List[dict]) -> Dict[str, List[float]]:
    pooled: Dict[str, List[float]] = {}
    for window in windows:
        for op, values in window["latencies"].items():
            pooled.setdefault(op, []).extend(values)
    return pooled


def _client_ops(windows: List[dict]) -> Dict[str, float]:
    pooled = _latencies(windows)
    out = {}
    for op, with_tail in OP_METRICS:
        values = pooled.get(op, [])
        out[f"client.{op}_p50_ms"] = median(values) if values else 0.0
        if with_tail:
            out[f"client.{op}_tail_ms"] = tail(values)["value"]
    return out


def _tails(windows: List[dict]) -> Dict[str, dict]:
    return {op: tail(values) for op, values in _latencies(windows).items()}


def _serve_layers(measured: dict) -> Dict[str, float]:
    """Per-request layer self times in the window, the start-up build's
    layer self times, and the daemon's own counts."""
    data = load_spans(measured["spans_path"])
    lo = min(r[2] for r in measured["window"])
    hi = max(r[3] for r in measured["window"])
    summary = summarize([s for s in data["spans"] if lo <= s[3] <= hi])
    # The daemon's start-up (a live build, on serve-mixed) is one build.
    startup = summarize([s for s in data["spans"] if s[4] < lo])
    requests = max(1, measured["completed"])

    def per_request(*names: str, field: str = "self") -> float:
        return sum(summary.get(n, {}).get(field, 0.0)
                   for n in names) / requests

    def per_call_mean(name: str, count_name: str) -> float:
        calls = summary.get(name, {}).get("calls", 0)
        return data["counts"].get(count_name, 0) / calls if calls else 0.0

    records = {}
    with open(measured["trace_path"]) as handle:
        for line in handle:
            event = json.loads(line)
            rid = event.get("attrs", {}).get("request_id")
            if rid and event.get("name") in ("serve.request", "serve.execute"):
                records.setdefault(rid, {})[event["name"]] = event
    client = {r[1]["request_id"]: (r[3] - r[2]) for r in measured["window"]
              if r[4]}
    wire, waits, executes = [], [], []
    for rid, latency in client.items():
        pair = records.get(rid, {})
        request, execute = pair.get("serve.request"), pair.get("serve.execute")
        if request is not None:
            wire.append(latency - request["duration"])
        if request is not None and execute is not None:
            waits.append(execute["start"] - request["start"])
            executes.append(execute["duration"])

    metrics = measured["stats"].get("metrics", {})
    counters = metrics.get("counters", {})
    batch = metrics.get("histograms", {}).get("serve.batch.size", {})
    sketch = measured["stats"]["sketches"][0]
    cache = sketch["cache"]
    lookups = cache["hits"] + cache["misses"]
    queries = counters.get("eval.queries", 0)
    return {
        **self_seconds(startup),
        "serve.protocol.decode_s": per_request("serve.protocol.decode"),
        "serve.protocol.encode_s": per_request("serve.protocol.encode"),
        "client.wire_s": mean(wire),
        "serve.server.queue_wait_s": mean(waits),
        "serve.server.execute_s": mean(executes),
        "serve.admission.shed": counters.get("serve.shed", 0),
        "serve.server.batch_size_mean": batch.get("mean", 0.0),
        "core.qcache.self_s": per_request(
            "core.qcache.selectivity", "core.qcache.selectivity_batch",
            "core.qcache.result", "core.qcache.invalidate"),
        "core.qcache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "core.qcache.evictions": cache["evictions"],
        "core.qcache.invalidations": cache["invalidations"],
        "core.evaluate.eval_query_s": per_request("core.evaluate.eval_query"),
        "core.evaluate.node_visits": (
            counters.get("eval.node_visits", 0) / queries if queries else 0.0),
        "core.estimate.estimate_s": per_request("core.estimate"),
        "core.expand.expand_s": per_request("core.expand"),
        "core.expand.elements": per_call_mean("core.expand",
                                              "core.expand.elements"),
        # Inclusive: an edit's re-merges are what an update waits for.
        "core.live.edit_s": per_request("core.live.edit", field="total"),
        "core.live.snapshot_s": per_request("core.live.snapshot"),
        "core.live.remerges": sketch.get("remerges", 0),
        "core.live.debt_total": sketch.get("debt", 0.0),
    }


def _sel_error(seed: int, scale, tree, estimate) -> float:
    from repro.engine.exact import ExactEvaluator
    from repro.metrics.error import average_error
    from repro.query.parser import parse_twig

    queries = inputs.query_texts(tree, scale.sel_queries, seed + 1000)
    # copy(): the live maintainer edits its tree in place and leaves the
    # element index the exact engine reads stale; a copy re-indexes.
    evaluator = ExactEvaluator(tree.copy())
    truth = [evaluator.evaluate(parse_twig(q)).binding_tuple_count()
             for q in queries]
    return average_error(list(zip(truth, estimate(queries))))


def run(workload: str, seed: int, seconds: float, traced: bool, scale,
        run_dir: str, break_oracle: bool) -> dict:
    prep = _prepare(seed, scale, run_dir)
    writer = 1
    plan = Plan(seed, prep["reads"], prep["expand_pool"], prep["updates"])
    warm = min(3.0, 0.2 * seconds)
    hot = prep["reads"]

    # Each launch is one set-up sample and one measurement window of
    # seconds / LAUNCHES; the run reports medians over the windows, so
    # one unlucky daemon process (thread placement, a burst of host
    # load) moves a metric less.  A traced run adds one traced launch.
    window_s = seconds / LAUNCHES
    windows = []
    for i in range(LAUNCHES + traced):
        traced_launch = i == LAUNCHES
        daemon = Daemon(run_dir, prep["serve_args"], f"launch{i}",
                        traced=traced_launch)
        try:
            measured = _measure(daemon, plan, warm, window_s, writer)
            measured.update(setup_s=daemon.ready_s,
                            spans_path=daemon.spans_path,
                            trace_path=daemon.trace_path)
            measured["stats"] = _stats(daemon.port)
            measured["final"] = _final_estimates(daemon.port, hot)
        finally:
            daemon.stop()
        windows.append(measured)
    problems = _check(windows, prep["replay"], prep["updates"], hot, writer,
                      break_oracle)
    traced_pass = windows.pop() if traced else None

    window = [r for w in windows for r in w["window"]]
    caches = [w["stats"]["sketches"][0]["cache"] for w in windows]
    hits = sum(c["hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    out = {
        "attempted": len(window),
        "failed": sum(1 for r in window if not r[4]),
        "problems": problems,
        "attrs": {
            "document": {"kind": "xmark", "scale": scale.xmark_serve,
                         "elements": len(prep["tree"]),
                         "budget_kb": scale.serve_kb, "live": True},
            "distinct_queries": len({r[1].get("query") for r in window
                                     if r[1]["op"] != "update"}),
            "cache_size": inputs.CACHE_SIZE,
            "hit_ratio": hits / lookups if lookups else 0.0,
            "update_share": (sum(1 for r in window if r[1]["op"] == "update")
                             / max(1, len(window))),
            "updates_applied": [w["stats"]["sketches"][0]["epoch"]
                                for w in windows],
            "updates_available": len(prep["updates"]),
            "expand_pool": len(prep["expand_pool"]),
            "connections": 2,
            "warmup_s": warm,
            "window_s": window_s,
            "windows": [{name: w[name] for name in (
                "setup_s", "latency_p50_ms", "throughput_ops",
                "cpu_ms_per_op")} for w in windows],
            "tails": _tails(windows),
            "errors": [e for w in windows for e in w["errors"]][:5],
        },
        "end_to_end": {
            name: median([w[name] for w in windows]) for name in (
                "setup_s", "throughput_ops", "cpu_ms_per_op", "peak_rss_mb")
        },
    }
    if traced_pass is not None:
        layers = _serve_layers(traced_pass)
        layers.update(_client_ops(windows))
        layers["client.p50_ms"] = median([w["latency_p50_ms"]
                                          for w in windows])
        layers["trace.overhead"] = (
            traced_pass["latency_p50_ms"] / layers["client.p50_ms"] - 1.0)
        # On the live sketch where the replay stopped: after the most
        # updates any pass applied.
        from repro.query.parser import parse_twig

        replay = prep["replay"]
        answers = replay.cache()
        layers["quality.sel_error"] = _sel_error(
            seed, scale, replay.maintainer.tree,
            lambda texts: [answers.selectivity(parse_twig(t)) for t in texts])
        out["layers"] = layers
    return out
