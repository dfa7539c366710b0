"""Self-test of the benchmark harness; run from the checkout root:

    python3 perfbench/selftest.py

Each case runs ``run.py`` once on one or two items and checks how the
result is counted: a tampered per-element mass fails the run, an item past
its deadline counts as ``timeout`` (and a traced run names the stage it
stopped in), a ``CapExceeded`` counts as ``cap``, and without the sgmc
sources the command fails without printing a result.  Cases run one after
another, so at most one item process is alive at any time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(*extra, cwd=ROOT, script=RUN):
    argv = [sys.executable, script, "--workload", "analyze", "--seed", "1", "--seconds", "0"]
    done = subprocess.run(
        argv + list(extra), cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    statuses = {
        line.split()[1]: line.split()[2].removeprefix("status=")
        for line in lines
        if line.startswith("item ")
    }
    return done.returncode, result, statuses


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def case_tampered_mass_fails():
    code, result, statuses = run("--items", "example210", "--tamper")
    expect(code == 1, f"exit code {code}, expected 1")
    expect(statuses == {"example210": "wrong"}, f"statuses {statuses}")
    expect(result["correct"] is False and result["failed"] == 1, f"result {result}")


def case_deadline_counts_as_timeout():
    code, result, statuses = run(
        "--items", "pinned-0,example210", "--set", "deadline_s=0.05", "--trace", "1"
    )
    expect(code == 0, f"exit code {code}")
    expect(statuses == {"pinned-0": "timeout", "example210": "ok"}, f"statuses {statuses}")
    expect(result["attempted"] == 2 and result["failed"] == 0, f"result {result}")
    with open(os.path.join(HERE, "out", "analyze-seed1-trace.json"), encoding="utf-8") as handle:
        stop = next(i["stop"] for i in json.load(handle)["items"] if i["id"] == "pinned-0")
    expect(stop["span"] and stop["open"], f"no stage at stop: {stop}")
    code, result, statuses = run("--items", "pinned-0", "--set", "deadline_s=0.05")
    expect(statuses == {"pinned-0": "timeout"}, f"statuses {statuses}")
    metrics = result["metrics"]
    expect(metrics["solved_share"]["value"] == 0, f"metrics {metrics}")
    expect(metrics["wall_s"]["value"] >= 0.05, f"timeout not counted at the deadline: {metrics}")


def case_cap_counts_as_cap():
    code, result, statuses = run("--items", "d2", "--set", 'caps={"max_elements": 2}')
    expect(code == 0, f"exit code {code}")
    expect(statuses == {"d2": "cap"}, f"statuses {statuses}")
    expect(result["metrics"]["solved_share"]["value"] == 0, f"result {result}")


def case_no_sources_no_result():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, result, _ = run(cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None, f"exit code {code}, result {result}")


CASES = (
    case_tampered_mass_fails,
    case_deadline_counts_as_timeout,
    case_cap_counts_as_cap,
    case_no_sources_no_result,
)


def main():
    failures = 0
    for case in CASES:
        try:
            case()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {case.__name__}: {exc}")
        else:
            print(f"pass {case.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
