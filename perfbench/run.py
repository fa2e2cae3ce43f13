"""todalab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Run from the repository root.  The load is one closed-loop client: each
operation starts when the previous one has ended, and every process runs
alone.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see spec.py).  The last stdout line is the result
(correct / attempted / failed / metrics); the line before it holds details:
environment, fail_frac, the tail percentile, failures and per-command times.

CLI workloads (cli_cold, e6_graph) time cold ``python -m todalab.cli``
processes; verify_full runs in worker processes (worker.py).
Set-up is repeated and its median reported.  Timed end-to-end metrics are
in reference seconds (see speed.py); per-layer times are wall-clock.  Peak
memory is each child's own ``ru_maxrss`` from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import spec
import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPS = 9        # set-ups per CLI run; median reported
WORKERS = 3           # fresh worker processes per in-process run
PROBE_REPS = 3        # cold interpreter start-ups per import probe
CHILD_TIMEOUT_S = 150


class Child:
    """A finished child process: wall time, exit code, output, peak RSS."""

    def __init__(self, argv, env, timeout=CHILD_TIMEOUT_S):
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        self.out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        self.seconds = perf_counter() - start
        timer.cancel()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.err = err[0].decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TODA_CACHE_DIR", None)
    env.pop("PYTHONPYCACHEPREFIX", None)  # keep bytecode inside the checkout
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    return env


def spans_path(args) -> Path:
    return OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"


def run_worker(mode, args, budget, env) -> tuple[dict, Child]:
    payload = {"mode": mode, "workload": args.workload, "seed": args.seed, "budget": budget,
               "spans_file": str(spans_path(args))}
    child = Child([sys.executable, str(HERE / "worker.py"), json.dumps(payload)], env)
    if child.rc != 0:
        raise RuntimeError(f"worker {mode} exited {child.rc}: {child.err.strip()[-2000:]}")
    return json.loads(child.out), child


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies) -> dict | None:
    """Highest listed percentile with at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return {"percentile": pct, "value": xs[rank - 1], "samples": n, "above": n - rank}
    return None


# -- untraced runs --------------------------------------------------------------


def run_cli(args, env) -> dict:
    """Whole passes over the command mix, each in a fresh shuffled order,
    as many as fill ``--seconds`` most closely (at least one), so every
    command runs equally often.  Each cold CLI process is timed between
    kernel samples.  A pass is the sum of each command's median latency."""
    raw, scaled = {"setups": []}, {"setups": []}
    gap = speed.gap()
    kernel = list(gap)
    for _ in range(SETUP_REPS):
        start = perf_counter()
        wl.compile_package()
        ops = wl.CLI_OPS[args.workload](args.seed)
        seconds = perf_counter() - start
        after = speed.gap()
        raw["setups"].append(seconds)
        scaled["setups"].append(speed.scale(seconds, gap + after))
        kernel += after
        gap = after
    reference = wl.load_reference()
    rng = random.Random(args.seed)
    raw_cmd, scaled_cmd, rss, failures, per_rss, pass_s = {}, {}, [], [], {}, []
    attempted = 0
    start = perf_counter()
    while not pass_s or perf_counter() - start + statistics.median(pass_s) / 2 <= args.seconds:
        pass_start = perf_counter()
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            child = Child([sys.executable, "-m", "todalab.cli", *op.argv], env)
            after = speed.gap()
            kernel += after
            attempted += 1
            raw_cmd.setdefault(op.key, []).append(child.seconds)
            scaled_cmd.setdefault(op.key, []).append(speed.scale(child.seconds, gap + after))
            gap = after
            rss.append(child.rss_mb)
            per_rss[op.key] = max(per_rss.get(op.key, 0), child.rss_mb)
            failure = wl.check_cli(op, child.rc, child.out, child.err, reference)
            if failure:
                failures.append(f"{op.key}: {failure}")
        pass_s.append(perf_counter() - pass_start)
    for side, per_cmd in ((raw, raw_cmd), (scaled, scaled_cmd)):
        side["ops"] = [x for v in per_cmd.values() for x in v]
        side["walls"] = [sum(statistics.median(v) for v in per_cmd.values())]
    return {
        **scaled, "raw": raw, "peak_rss_mb": max(rss), "attempted": attempted,
        "failures": failures, "kernel": kernel,
        "detail": {"passes": len(pass_s),
                   "per_command_s": {k: statistics.median(v) for k, v in scaled_cmd.items()},
                   "per_command_rss_mb": per_rss},
    }


def run_inprocess(args, env) -> dict:
    """WORKERS fresh worker processes; set-up and each round are scaled by the
    kernel samples taken just before and after them in the same process."""
    kernel, rss, failures = [], [], []
    raw = {"setups": [], "walls": [], "ops": []}
    scaled = {"setups": [], "walls": [], "ops": []}
    for _ in range(WORKERS):
        res, child = run_worker("measure", args, args.seconds / WORKERS, env)
        gaps = res["gaps"]   # gaps[i], gaps[i + 1] bracket set-up (i = 0), round i - 1
        kernel += [x for g in gaps for x in g]
        rss.append(child.rss_mb)
        raw["setups"].append(res["setup_s"])
        scaled["setups"].append(speed.scale(res["setup_s"], gaps[0] + gaps[1]))
        for i, rnd in enumerate(res["rounds"], start=1):
            around = gaps[i] + gaps[i + 1]
            raw["walls"].append(rnd["wall"])
            scaled["walls"].append(speed.scale(rnd["wall"], around))
            raw["ops"] += rnd["ops"]
            scaled["ops"] += [speed.scale(x, around) for x in rnd["ops"]]
            failures += rnd["failures"]
    return {
        **scaled, "raw": raw, "peak_rss_mb": max(rss), "attempted": len(scaled["ops"]),
        "failures": failures, "kernel": kernel,
        "detail": {"passes": len(scaled["walls"]), "worker_rss_mb": rss},
    }


def untraced(args, env) -> tuple[dict, dict]:
    runner = run_cli if args.workload in wl.CLI_OPS else run_inprocess
    res = runner(args, env)
    medians = {side: {"setup_s": statistics.median(v["setups"]),
                      "wall_s": statistics.median(v["walls"]),
                      "op_p50_s": statistics.median(v["ops"])}
               for side, v in (("scaled", res), ("raw", res["raw"]))}
    metrics = {**medians["scaled"], "peak_rss_mb": res["peak_rss_mb"]}
    detail = {"raw_wall_clock": medians["raw"],
              "kernel_median_s": statistics.median(res["kernel"]),
              "kernel_samples": len(res["kernel"]), "op_tail_s": tail(res["ops"]),
              "setup_samples_s": res["setups"], "pass_walls_s": res["walls"],
              **res["detail"]}
    return metrics, dict(res, detail=detail)


# -- traced runs ----------------------------------------------------------------


def import_probes(env) -> dict:
    """Cold interpreter start, and cold imports timed inside fresh processes."""
    code = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    samples = {"import.python_s": [], "import.todalab_s": [], "import.scipy_integrate_s": []}
    for _ in range(PROBE_REPS):
        samples["import.python_s"].append(Child([sys.executable, "-c", "pass"], env).seconds)
        for metric, module in (("import.todalab_s", "todalab"),
                               ("import.scipy_integrate_s", "scipy.integrate")):
            child = Child([sys.executable, "-c", code.format(module)], env)
            if child.rc != 0:
                raise RuntimeError(f"import probe {module} failed: {child.err.strip()}")
            samples[metric].append(float(child.out))
    return {k: statistics.median(v) for k, v in samples.items()}


def traced_run(args, env) -> tuple[dict, dict]:
    start = perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    layers = {name: 0 for name, *_ in spec.PER_LAYER}
    layers.update(import_probes(env))
    failures, attempted = [], 0
    if args.workload == "cli_cold":
        refusal, refusal_child = run_worker("refuse", args, 0, env)
        failures += refusal["failures"]
        attempted += 1
    budget = max(args.seconds - (perf_counter() - start), 1.0)
    res, _ = run_worker("trace", args, budget, env)
    per_round = res["layers"]
    for name in per_round[0]:
        layers[name] = statistics.median(r.get(name, 0) for r in per_round)
    if args.workload == "cli_cold":
        layers["weyl.refuse_s"] = refusal["layers"]["weyl.refuse_s"]
        layers["weyl.refuse_rss_mb"] = refusal_child.rss_mb
        layers["cli.tracebacks"] += refusal["tracebacks"]
        layers["cli.error_tags"] += refusal["error_tags"]
    plain_walls = [r["wall"] for r in res["plain"]]
    traced_walls = [r["wall"] for r in res["traced"]]
    layers["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(plain_walls) - 1)
    if args.workload == "verify_full":
        for n in range(1, 14):
            layers[f"verify.criterion_{n:02d}_s"] = statistics.median(
                r["criteria"][str(n)] for r in res["plain"])
    for rnd in res["plain"] + res["traced"]:
        attempted += len(rnd["ops"])
        failures += rnd["failures"]
    detail = {"rounds": len(per_round), "untraced_walls_s": plain_walls,
              "traced_walls_s": traced_walls,
              "spans_file": os.path.relpath(spans_path(args), Path.cwd())}
    if "per_command" in res["traced"][0]:
        detail["cli_main_s_per_command"] = res["traced"][0]["per_command"]
    return layers, {"attempted": attempted, "failures": failures, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "todalab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the todalab repository root "
                         "(src/todalab not found)\n")
        return 2
    env = child_env()
    if args.trace:
        metrics, res = traced_run(args, env)
        units = spec.PER_LAYER_UNITS
    else:
        metrics, res = untraced(args, env)
        units = spec.END_TO_END_UNITS
    failed = len(res["failures"])
    # the known error-path defects count as failed operations, not wrong output
    known = {op.key for op in wl.CLI_OPS.get(args.workload, lambda seed: [])(args.seed)
             if op.known_defect}
    correct = all(f.split(": ")[0] in known for f in res["failures"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "fail_frac": failed / res["attempted"],
              "failures": sorted(set(res["failures"])), **res["detail"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
