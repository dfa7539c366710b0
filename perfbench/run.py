"""sgmc benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; sgmc is imported from its ``src``.
A worker process (``worker.py``) sets the workload up and runs each item,
one at a time, in a fork of itself, under the workload's deadline.  The
worker is set up three times and the median set-up time is reported.  The
first pass runs every item; further rounds repeat the solved items until
each has run three times and ``--seconds`` have gone by, and each item
counts with its median time.  An item that times out counts at the time
it was stopped, just past the deadline.  Times are CPU seconds of the
item process (see ``worker.py``), each divided by the machine's speed
factor measured next to it, so that they read as CPU seconds on the
baseline VM (see ``speed.py``).
Every output is checked; a wrong one makes the run exit 1.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
and the tracing overhead.  Item lines, and for a traced run the spans, are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer  # noqa: E402

SETUP_ROUNDS = 7
MIN_RUNS = 3
# A solved item that took longer than ROUND_S in the first pass is repeated
# only every ceil(time / ROUND_S) rounds, so that short items are sampled
# many times across the whole run instead of a few times between long ones.
ROUND_S = 1.0
# Wall-clock backstop: an item process that has not answered within
# BACKSTOP_FACTOR * deadline + GRACE_S is killed (its own deadline is CPU
# time, at most twice the workload's on a slow machine).
BACKSTOP_FACTOR = 3.0
GRACE_S = 10.0
SETUP_TIMEOUT_S = 120.0
# one thread per item process, and a fixed hash seed for repeatable timings
WORKER_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)


class WorkerDied(Exception):
    pass


class Worker:
    """The worker process; it forks one item process at a time."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.proc = None

    def start(self):
        """Start the process and wait until its set-up is done.

        Returns the set-up time: CPU seconds from the process's start to
        ready, in baseline seconds (see ``speed.py``).
        """
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=WORKER_ENV,
            text=True,
            start_new_session=True,
        )
        self._send(self.cfg)
        reply = self._receive(SETUP_TIMEOUT_S)
        if not reply or not reply.get("ready"):
            self.stop()
            raise WorkerDied("worker failed during set-up")
        return reply["setup_s"]

    def _send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _receive(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied("worker exited")
        return json.loads(line)

    def run(self, index, item, deadline):
        """One item's reply; a worker that dies or hangs is replaced."""
        backstop = BACKSTOP_FACTOR * deadline + GRACE_S
        try:
            self._send({"op": "run", "index": index, "backstop_s": backstop})
            reply = self._receive(backstop + GRACE_S)
        except (WorkerDied, BrokenPipeError) as exc:
            reply = {"status": "error", "detail": str(exc), "stop": None}
        if reply is None:
            reply = {"status": "timeout", "detail": "worker killed by the backstop",
                     "stop": None}
        if "time_s" not in reply:
            self.stop()
            self.start()
            reply.update(id=item["id"], time_s=deadline, cpu_s=None, factor=None)
        return reply

    def finish(self):
        self._send({"op": "finish"})
        reply = self._receive(60)
        self.stop()
        return reply or {"spans": [], "counters": {}}

    def stop(self):
        """End the worker: it exits when its input closes, else it and any
        item process it forked are killed."""
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def run_pass(worker, items, indices, deadline):
    return {i: worker.run(i, items[i], deadline) for i in indices}


def repeat_solved(worker, items, first, deadline, seconds, tic):
    """Samples per item: the first pass, then rounds over the solved items
    until every one has MIN_RUNS samples and ``seconds`` have passed."""
    samples = {i: [reply] for i, reply in first.items()}
    period = {
        i: max(1, math.ceil(r["time_s"] / ROUND_S))
        for i, r in first.items()
        if r["status"] == "ok"
    }
    round_ = 0
    while period:
        enough = all(len(samples[i]) >= MIN_RUNS for i in period)
        if enough and time.perf_counter() - tic >= seconds:
            break
        round_ += 1
        due = [i for i, p in period.items() if round_ % p == 0]
        for i, reply in run_pass(worker, items, due, deadline).items():
            samples[i].append(reply)
    return samples, round_


def tail(times):
    """Highest percentile with at least ten samples beyond it (or the max)."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def summarize(items, samples):
    """Per item: median time (and raw CPU time) over its runs and median peak
    memory; solved only if every run was ok."""
    rows = []
    for i, item in enumerate(items):
        replies = samples[i]
        bad = [r for r in replies if r["status"] != "ok"]
        first = bad[0] if bad else replies[0]
        rows.append(
            dict(
                first,
                time_s=statistics.median(r["time_s"] for r in replies),
                cpu_s=statistics.median(r["cpu_s"] or r["time_s"] for r in replies),
                rss_mb=statistics.median(r.get("rss_mb", 0.0) for r in replies),
                runs=len(replies),
                item=item,
            )
        )
    return rows


def peak_rss(rows):
    """Largest peak memory of a solved item (of any item if none solved).

    A stopped item's memory depends on how far it got by its deadline,
    which follows the machine's speed; a solved item's does not.
    """
    solved = [r["rss_mb"] for r in rows if r["status"] == "ok"]
    return max(solved or [r["rss_mb"] for r in rows])


def measure(cfg, items, seconds):
    deadline = float(cfg["params"]["deadline_s"])
    setups = []
    worker = Worker(cfg)
    for round_ in range(SETUP_ROUNDS):
        setups.append(worker.start())
        if round_ < SETUP_ROUNDS - 1:
            worker.stop()
    try:
        tic = time.perf_counter()
        first = run_pass(worker, items, range(len(items)), deadline)
        samples, rounds = repeat_solved(worker, items, first, deadline, seconds, tic)
    finally:
        worker.stop()
    rows = summarize(items, samples)
    factors = [r["factor"] for runs in samples.values() for r in runs if r["factor"]]
    times = [r["time_s"] for r in rows]
    tail_value, tail_pct, n = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail_value, "s"),
        "solved_share": (sum(r["status"] == "ok" for r in rows) / len(rows), "ratio"),
        "peak_rss_mb": (peak_rss(rows), "MB"),
    }
    notes = {
        "speed_factor_quartiles": statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
        "setup_runs_s": setups,
        "rounds": rounds,
        "item_tail": f"p{tail_pct:.1f} of {n} items",
    }
    return rows, metrics, notes


def trace_run(cfg, items):
    deadline = float(cfg["params"]["deadline_s"])
    every = range(len(items))
    untraced_worker = Worker(dict(cfg, trace=False))
    untraced_worker.start()
    try:
        untraced = run_pass(untraced_worker, items, every, deadline)
    finally:
        untraced_worker.stop()
    worker = Worker(dict(cfg, trace=True))
    worker.start()
    try:
        traced = run_pass(worker, items, every, deadline)
        spans = worker.finish()
    finally:
        worker.stop()
    # spans are in CPU seconds; divide them by the traced pass's median factor
    factor = statistics.median([r["factor"] for r in traced.values() if r["factor"]] or [1.0])
    rows = summarize(items, {i: [reply] for i, reply in traced.items()})
    ids = [item["id"] for item in items]
    layer = tracer.layer_metrics(spans["spans"], spans["counters"], ids)
    # chain files are read during set-up, so their loading is timed there
    layer["cli.load_chain_file_s"] = tracer.layer_metrics(
        spans["spans"], spans["counters"], ["setup"]
    )["cli.load_chain_file_s"]
    untraced_wall = sum(r["time_s"] for r in untraced.values())
    layer["trace.overhead_s"] = sum(r["time_s"] for r in rows) - untraced_wall
    units = {name: "s" if name.endswith("_s") else "count" for name in layer}
    metrics = {
        name: (value / factor if units[name] == "s" and name != "trace.overhead_s" else value,
               units[name])
        for name, value in layer.items()
    }
    notes = {"speed_factor": factor, "untraced_wall_s": untraced_wall}
    return rows, metrics, notes, spans["spans"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", help="comma-separated item ids to run (default: all)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=JSON",
        help="override a workload parameter, e.g. deadline_s=5 or grid_seed=11",
    )
    p.add_argument(
        "--tamper",
        action="store_true",
        help="self-test only: rotate the per-element masses before the analyze gate",
    )
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src", "sgmc", "__init__.py")
    if not os.path.isfile(src):
        print(f"no sgmc source at {src}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        overrides = {}
        for entry in args.set:
            key, _, value = entry.partition("=")
            overrides[key] = json.loads(value)
        params = corpus.load_params(args.workload, overrides)
    except (KeyError, ValueError) as exc:
        print(f"bad --workload or --set: {exc}", file=sys.stderr)
        return 2
    items = corpus.items(
        args.workload, params, args.seed, os.path.join(ROOT, "src", "sgmc", "chains")
    )
    if args.items:
        wanted = args.items.split(",")
        unknown = set(wanted) - {item["id"] for item in items}
        if unknown:
            print(f"unknown item ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        items = [item for item in items if item["id"] in wanted]
    cfg = {
        "root": ROOT,
        "workload": args.workload,
        "params": params,
        "items": items,
        "seed": args.seed,
        "trace": False,
        "tamper": args.tamper,
    }
    spans = None
    if args.trace:
        rows, metrics, notes, spans = trace_run(cfg, items)
    else:
        rows, metrics, notes = measure(cfg, items, args.seconds)

    print(f"workload {args.workload} seed {args.seed} params {json.dumps(params)}")
    for r in rows:
        chain = r["item"].get("actions") or r["item"].get("file")
        line = f"item {r['id']} status={r['status']} time_s={r['time_s']:.6f} runs={r['runs']} chain={json.dumps(chain)}"
        if "point" in r["item"]:
            line += f" point={json.dumps(r['item']['point'])}"
        if r.get("stop"):
            line += f" stop={json.dumps(r['stop'])}"
        if r.get("detail"):
            line += f" detail={json.dumps(r['detail'])}"
        print(line)
    for key, value in notes.items():
        print(f"note {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "params": params,
                "items": [{k: v for k, v in r.items() if k != "item"} | {"chain": r["item"]} for r in rows],
                "notes": notes,
                "metrics": result_metrics,
            },
            handle,
            indent=1,
        )
    if spans is not None:
        with open(os.path.join(out_dir, stem + "-spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    wrong = sum(r["status"] == "wrong" for r in rows)
    failed = sum(r["status"] in ("wrong", "error") for r in rows)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(rows),
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
