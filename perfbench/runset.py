"""Run the benchmark over several seeds and workloads and keep every result.

    python3 perfbench/runset.py --out perfbench/out/base.jsonl --seeds 1-10
    python3 perfbench/runset.py --out perfbench/out/t.jsonl --seeds 1 --trace 1

Runs ``run.py`` once per (workload, seed), one at a time, each workload's
runs back to back (the machine drifts over minutes).  Each line of
the output file is {"workload", "seed", "trace", "detail", "result"}; two
such files are the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(n for n, _ in spec.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "detail": json.loads(detail_line)["detail"],
                      "result": json.loads(result_line)}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            res = record["result"]
            sys.stderr.write(f"seed {seed} {workload}: correct={res['correct']} "
                             f"failed={res['failed']}/{res['attempted']}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
