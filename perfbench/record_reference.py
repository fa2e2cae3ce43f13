"""Record the stdout digest of every successful CLI operation at the default seed.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose output is the reference.
Operations that have an oracle must pass it before their digest is kept.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    env = run.child_env()
    reference, bad = {}, []
    for make_ops in wl.CLI_OPS.values():
        for op in make_ops(wl.DEFAULT_SEED):
            if op.error_tag is not None:
                continue
            child = run.Child([sys.executable, "-m", "todalab.cli", *op.argv], env)
            why = wl.check_cli(op, child.rc, child.out, child.err, {})
            if op.oracle is not None and why is not None:
                bad.append(f"{op.key}: {why}")
                continue
            if child.rc != 0 or child.err:
                bad.append(f"{op.key}: exit {child.rc} {child.err.strip()[-200:]}")
                continue
            reference[op.key] = wl.digest(child.out)
    if bad:
        sys.stderr.write("not recorded:\n  " + "\n  ".join(bad) + "\n")
        return 1
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
