"""One fresh process of in-process benchmark work; started by run.py.

    python3 perfbench/worker.py '{"mode": ..., "workload": ..., "seed": ..., "budget": ...}'

Modes:
  measure  untraced passes of verify_full, with timed set-up, each between
           kernel samples (speed.py)
  trace    alternating untraced and traced rounds of any workload; CLI
           workloads replay their commands through ``cli.main`` in-process
  refuse   the E7 refusal command of cli_cold, traced, alone in its process

Prints one JSON object on stdout.  todalab is imported only after the
set-up clock starts.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import speed
import workloads as wl
from tracing import Tracer

REFUSAL = ("pq", "--type", "E7")


def setup(workload, seed):
    """Compile, import todalab, draw inputs; returns the round function."""
    wl.compile_package()
    import todalab  # noqa: F401  (the import is part of set-up)
    from todalab import cli, verify  # noqa: F401

    if workload == "verify_full":
        return verify_round
    ops = [op for op in wl.CLI_OPS[workload](seed) if op.argv != REFUSAL]
    reference = wl.load_reference()
    return lambda tracer: replay_round(ops, reference, tracer)


def verify_round(tracer):
    from todalab import verify

    start = perf_counter()
    results = verify.run("full")
    wall = perf_counter() - start
    return {
        "wall": wall,
        "ops": [r.seconds for r in results],
        "criteria": {r.number: r.seconds for r in results},
        "failures": [f"criterion {r.number}: {r.detail}" for r in results if not r.passed],
    }


def replay(op, reference, tracer):
    """Run one command through cli.main in this process and check it."""
    from todalab import cli

    out, err = io.StringIO(), io.StringIO()
    raised = False
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                tracer.op = op.key
                rc = tracer.call("cli.main", cli.main, list(op.argv))
        except Exception as exc:  # what the cold process would die of
            rc, raised = 1, True
            err.write("".join(traceback.format_exception(exc)))
    seconds = perf_counter() - start
    text = err.getvalue()
    failure = wl.check_cli(op, rc, out.getvalue().encode(), text, reference)
    return seconds, raised, wl.has_error_tag(text), failure


def replay_round(ops, reference, tracer):
    latencies, failures, per_command = [], [], {}
    tracebacks = tags = 0
    start = perf_counter()
    for op in ops:
        seconds, raised, tagged, failure = replay(op, reference, tracer)
        latencies.append(seconds)
        per_command[op.key] = seconds
        tracebacks += raised
        tags += tagged
        if failure:
            failures.append(f"{op.key}: {failure}")
    return {"wall": perf_counter() - start, "ops": latencies, "failures": failures,
            "per_command": per_command, "tracebacks": tracebacks, "error_tags": tags}


def traced(round_fn):
    tracer = Tracer()
    tracer.install()
    try:
        res = round_fn(tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    for key in ("tracebacks", "error_tags"):
        if key in res:
            layers[f"cli.{key}"] = res[key]
    return res, layers, tracer


def measure(round_fn, budget):
    """Untraced rounds until the budget is spent, with kernel samples between
    rounds and after the last one."""
    gaps, rounds = [], []
    start = perf_counter()
    while not rounds or (perf_counter() - start
                         + statistics.median(r["wall"] for r in rounds)) <= budget:
        rounds.append(round_fn(None))
        gaps.append(speed.gap())
    return rounds, gaps


def trace(round_fn, budget, spans_file):
    plain, layered, tracers = [], [], []
    start = perf_counter()
    while not layered or (perf_counter() - start + plain[-1]["wall"]
                          + layered[-1][0]["wall"]) <= budget:
        plain.append(round_fn(None))
        res, layers, tracer = traced(round_fn)
        layered.append((res, layers))
        tracers.append(tracer)
    with open(spans_file, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps({"round": k, **span.as_dict(i)}) + "\n")
    return plain, layered


def main(spec) -> dict:
    workload, seed, budget = spec["workload"], spec["seed"], spec["budget"]
    if spec["mode"] == "refuse":
        import todalab  # noqa: F401
        op = next(op for op in wl.CLI_OPS[workload](seed) if op.argv == REFUSAL)
        tracer = Tracer()
        tracer.install()
        try:
            _, raised, tagged, failure = replay(op, {}, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        return {"layers": layers, "tracebacks": int(raised), "error_tags": int(tagged),
                "failures": [f"{op.key}: {failure}"] if failure else []}
    before = speed.gap() if spec["mode"] == "measure" else []
    t0 = perf_counter()
    round_fn = setup(workload, seed)
    setup_s = perf_counter() - t0
    if spec["mode"] == "measure":
        after = speed.gap()
        rounds, gaps = measure(round_fn, budget)
        return {"setup_s": setup_s, "rounds": rounds, "gaps": [before, after, *gaps]}
    plain, layered = trace(round_fn, budget, spec["spans_file"])
    return {"plain": plain, "traced": [res for res, _ in layered],
            "layers": [layers for _, layers in layered]}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
