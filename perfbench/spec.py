"""What the todalab benchmark measures: workloads, metrics, bounds, layer map.

This module is the single source of ``BENCHMARK.json``.  Run

    python3 perfbench/spec.py --write     # regenerate BENCHMARK.json
    python3 perfbench/spec.py --layers    # print the layer -> end-to-end map

BENCHMARK.json has a fixed key set, so the layer -> end-to-end map (which
end-to-end metric each per-layer metric should move, on which workload)
lives here in ``PER_LAYER`` and is summarised in each workload's ``why``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = [
    ("cli_cold",
     "15 cold CLI one-shots incl. 5 error paths: start-up (import ~0.94 of ~1 s) "
     "dominates; moved by import.*, cli.*, weyl.refuse_*, affine.*, numtoda.*"),
    ("e6_graph",
     "cold E6 graph DOT/JSON + eta CSV: Bruhat covers (460k of 1.87M products), "
     "eta and MB-sized encoding dominate; moved by weyl.*, signflow.*, todagraph.*, cli.json_*"),
    ("verify_full",
     "in-process verify.run(full), one criterion per op: the only load on schurtau "
     "(Sturm), numtoda and brute-force counts; moved by verify.*, schurtau.*, numtoda.*"),
]

# (name, unit, better, bound).  Times are in reference seconds (speed.py):
# wall-clock seconds scaled by a calibration kernel timed around each
# operation.
# No metric here can read 0: operation failures are reported as the result's
# ``failed`` / ``attempted`` (fail_frac), which is 0 on three workloads.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_CLI = "cli_cold.op_p50_s, cli_cold.fail_frac"
_E6 = "e6_graph.wall_s, e6_graph.peak_rss_mb"
_VERIFY = "verify_full.wall_s"

# (name, unit, better, the end-to-end metrics it should move).  Times are
# self time: the span minus its child spans.  A workload that does not reach
# a layer reports 0 for it.
PER_LAYER = [
    ("import.python_s", "s", "lower", "cli_cold.op_p50_s, e6_graph.wall_s"),
    ("import.todalab_s", "s", "lower",
     "cli_cold.op_p50_s, e6_graph.wall_s, verify_full.setup_s"),
    ("import.scipy_integrate_s", "s", "lower",
     "cli_cold.op_p50_s, e6_graph.wall_s, verify_full.setup_s"),
    ("cli.main_s", "s", "lower", _CLI),
    ("cli.main_self_s", "s", "lower", _CLI),
    ("cli.tracebacks", "count", "lower", "cli_cold.fail_frac"),
    ("cli.error_tags", "count", "higher", "cli_cold.fail_frac"),
    ("cli.json_dumps_s", "s", "lower", _E6),
    ("cli.json_bytes", "bytes", "lower", _E6),
    ("weyl.generate_s", "s", "lower", "e6_graph.wall_s, " + _VERIFY),
    ("weyl.generate.elements", "count", "lower", "e6_graph.wall_s, " + _VERIFY),
    ("weyl.generate.new_ratio", "ratio", "higher", "e6_graph.wall_s, " + _VERIFY),
    ("weyl.refuse_s", "s", "lower", "cli_cold.wall_s"),
    ("weyl.refuse_rss_mb", "MB", "lower", "cli_cold.wall_s, cli_cold.peak_rss_mb"),
    ("weyl.reflections_s", "s", "lower", "e6_graph.wall_s"),
    ("weyl.bruhat_covers_s", "s", "lower", "e6_graph.wall_s"),
    ("weyl.bruhat_covers.covers", "count", "lower", "e6_graph.wall_s"),
    ("weyl.bruhat_covers.hit_ratio", "ratio", "higher", "e6_graph.wall_s"),
    ("signflow.eta_table_s", "s", "lower", _E6 + ", " + _VERIFY),
    ("signflow.eta_table.calls", "count", "lower", _E6 + ", " + _VERIFY),
    ("signflow.eta_table.elements_per_s", "1/s", "higher", _E6 + ", " + _VERIFY),
    ("blowup_poly.p_epsilon_self_s", "s", "lower", _VERIFY),
    ("blowup_poly.brute_force_so_order_s", "s", "lower", _VERIFY),
    ("todagraph.build_graph_self_s", "s", "lower", _E6),
    ("todagraph.build_graph.edges", "count", "lower", _E6),
    ("todagraph.edge_ratio", "ratio", "higher", _E6),
    ("todagraph.to_dot_s", "s", "lower", _E6),
    ("todagraph.to_dot.bytes", "bytes", "lower", _E6),
    ("todagraph.graph_to_dict_s", "s", "lower", _E6),
    ("todagraph.components_s", "s", "lower", _E6),
    ("todagraph.matching_report_s", "s", "lower", _E6),
    ("schurtau.tau_functions_s", "s", "lower", _VERIFY),
    ("schurtau.hirota_residual_s", "s", "lower", _VERIFY),
    ("schurtau.real_root_count_experiment_s", "s", "lower", _VERIFY),
    ("affine.p_series_s", "s", "lower", "cli_cold.wall_s"),
    ("affine.elements", "count", "lower", "cli_cold.wall_s"),
    ("numtoda.ode_integrate_s", "s", "lower", _VERIFY + ", cli_cold.wall_s"),
    ("numtoda.count_zero_crossings_s", "s", "lower", _VERIFY + ", cli_cold.wall_s"),
    *((f"verify.criterion_{n:02d}_s", "s", "lower", _VERIFY) for n in range(1, 14)),
    ("trace.overhead_frac", "ratio", "lower", "none: traced wall / untraced wall - 1"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def main(argv) -> int:
    if argv == ["--write"]:
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if argv == ["--layers"]:
        for name, unit, better, moves in PER_LAYER:
            print(f"{name:40s} {unit:6s} {better:7s} -> {moves}")
        return 0
    sys.stderr.write("usage: spec.py --write | --layers\n")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
