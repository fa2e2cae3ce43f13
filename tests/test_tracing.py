"""The benchmark's tracer, run unmodified against the package.

``perfbench/tracing.py`` patches functions, methods and module attributes
of ``todalab`` by name and reads counters off what they return.  A rename
in ``src/`` breaks it without failing any other test, so this replays a few
commands under the tracer the way the benchmark worker does (import
``todalab.verify``, then ``Tracer.install()``) and pins what it reads.
"""

import importlib.util
import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def namespaces():
    """Every loaded todalab module and class namespace the tracer may patch."""
    from todalab.weyl import WeylGroup

    spaces = {name: mod.__dict__ for name, mod in sys.modules.items()
              if name == "todalab" or name.startswith("todalab.")}
    spaces["WeylGroup"] = WeylGroup.__dict__
    return spaces


def test_tracer_reads_what_the_package_provides():
    import todalab.verify  # noqa: F401  (set-up order of the benchmark worker)
    from todalab import cli, numtoda

    before = {name: dict(space) for name, space in namespaces().items()}
    tracer = load_tracer_class()()
    tracer.install()
    try:
        def replay(*argv):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = tracer.call("cli.main", cli.main, list(argv))
            return code, tracer.layer_metrics()

        code, m = replay("affine", "--rank", "1", "--lmax", "12")
        assert code == 0
        assert m["affine.elements"] == 25

        code, m = replay("graph", "--type", "A3", "--format", "json")
        assert code == 0
        assert m["weyl.generate.elements"] == 24
        assert m["todagraph.build_graph.edges"] == 16
        assert m["signflow.eta_table.calls"] == 1
        assert m["todagraph.graph_to_dict_s"] > 0
        # JSON streams through cli._json_slices, and the tracer times and
        # counts json.dumps alone: no span, 0 bytes
        assert m["cli.json_bytes"] == 0 and "cli.json_dumps_s" not in m

        code, m = replay("pq", "--type", "E7")
        assert code == 2
        assert m["weyl.refuse_s"] > 0

        code, m = replay("schur", "--type", "G2", "--experiment", "real-roots")
        assert code == 0
        assert m["schurtau.real_root_count_experiment_s"] > 0

        code, m = replay("schur", "--type", "B2", "--hirota")
        assert code == 0
        assert m["schurtau.hirota_residual_s"] > 0

        # negative A1 with its one blow-up at t = 1
        s1, c1 = math.sinh(1.0), math.cosh(1.0)
        minors = numtoda.TauMinors([-c1 / s1], [-1.0 / s1 ** 2])
        assert numtoda.count_zero_crossings(minors, 1, window=(-6.0, 6.0)) == 1
        span = tracer.spans[-1]
        assert (span.name, span.error) == ("numtoda.count_zero_crossings", None)
        assert tracer.layer_metrics()["numtoda.count_zero_crossings_s"] > 0
    finally:
        tracer.uninstall()
    after = namespaces()
    for name, space in before.items():
        restored = [attr for attr, value in space.items() if after[name].get(attr) is value]
        assert restored == list(space), name
