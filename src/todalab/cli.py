"""Command-line front end.

Subcommands: pq, eta, graph, schur, affine, ode, chevalley, verify,
conventions.
Outputs are deterministic for a fixed seed and version: JSON with sorted
keys, RFC-4180-style CSV, or DOT.  Exit codes: 0 success, 1 validation
error, 2 computational error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import sys

from . import __version__
from .affine import AffineWeylGroup, bott_counts, p_series, rational_guess
from .blowup_poly import (
    brute_force_so_order,
    chevalley_order,
    closed_form_p,
    p_epsilon,
    so_factors,
)
from .errors import CapExceededError, TodaLabError, ValidationError
from .rootdata import (
    LieType,
    check_flow_input,
    compact_dual_info,
    conventions_table,
    require_finite,
)
from .schurtau import (
    hirota_residual,
    minimal_degrees,
    nu_degrees,
    real_root_count_experiment,
    tau_functions,
)
from .signflow import all_minus, eta_table, format_signs, parse_signs
from .todagraph import (
    ROWS_PER_SLICE,
    build_graph,
    fill_rows,
    graph_to_dict,
    matching_report,
    to_dot,
)
from .weyl import DEFAULT_CAP, WeylGroup, check_order

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse mistakes are validation errors: exit 1
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _type_and_sign(args):
    """The finite type of ``--type`` and the sign vector of ``--sign`` (default
    all minus); the type is checked first, so an affine type is refused
    whatever sign comes with it."""
    t = LieType.parse(args.type)
    require_finite(t)
    if args.sign is None:
        return t, all_minus(t.rank)
    eps = parse_signs(args.sign)
    if len(eps) != t.rank:
        raise ValidationError(  # strip the space _glue_sign_values may add
            f"sign vector {args.sign.strip()!r} has length {len(eps)}, expected {t.rank}"
        )
    return t, eps


def _emit(text: str, args):
    _emit_pieces((text,), args)


def _emit_pieces(pieces, args):
    """Write the strings of ``pieces`` in turn to ``--out`` or stdout."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(pieces)


_JSON_DEFAULTS = {"skipkeys": False, "ensure_ascii": True, "check_circular": True,
                  "allow_nan": True, "sort_keys": False, "indent": None, "separators": None,
                  "default": None}
_ascii = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _template_rows(o, inner: str):
    """A ``%`` template for each item of ``o`` and an iterable of the items'
    cells, when ``o`` is a run of like rows whose lines start with ``inner``;
    else None.

    Two kinds qualify: tuples of one nonzero length holding plain ints (graph
    edges), and dicts with one nonempty set of str keys where under each key
    every value is a str or every value is a plain int (vertex and eta
    records).  Not bool: ``"%d" % True`` is "1".
    """
    cell = inner + "  "
    first = o[0]
    if type(first) is tuple:
        if (set(map(type, o)) == {tuple} and len(set(map(len, o))) == 1
                and set(map(type, itertools.chain.from_iterable(o))) == {int}):
            return f"[{cell}{(',' + cell).join(['%d'] * len(first))}{inner}]", o
        return None
    if (type(first) is not dict or not first or set(map(type, o)) != {dict}
            or set(map(len, o)) != {len(first)} or set(map(type, first)) != {str}):
        return None
    items, cols = [], []
    for key in sorted(first):
        cell_value = operator.itemgetter(key)
        try:
            kind = set(map(type, map(cell_value, o)))
        except KeyError:  # a dict with other keys
            return None
        if kind == {str}:
            cols.append(map(_ascii, map(cell_value, o)))
            cell_format = ": %s"
        elif kind == {int}:
            cols.append(map(cell_value, o))
            cell_format = ": %d"
        else:
            return None
        items.append(_ascii(key).replace("%", "%%") + cell_format)
    return f"{{{cell}{(',' + cell).join(items)}{inner}}}", zip(*cols)


class IndentEncoder(json.JSONEncoder):
    """Writes exactly what ``json.dumps(o, sort_keys=True, indent=2)`` writes.

    With ``indent`` set the stdlib encodes through a generator of small
    strings; this renders each container with one ``str.join`` instead.
    Any other setting is refused, and so is a key that is not a ``str``.
    """

    SETTINGS = {**_JSON_DEFAULTS, "sort_keys": True, "indent": 2}

    def __init__(self, **settings):
        if {**_JSON_DEFAULTS, **settings} != self.SETTINGS:
            raise ValueError(f"IndentEncoder writes only sort_keys=True, indent=2 and the "
                             f"json defaults otherwise, not {settings}")
        super().__init__(**settings)

    def encode(self, o) -> str:
        return self._render(o, "\n")

    def _render(self, o, nl: str) -> str:
        """``o`` at the depth whose lines start with ``nl``; its items go one level deeper."""
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = nl + "  "
            if all(type(x) is int for x in o):  # not bool: int.__repr__(True) is "1"
                body = ("," + inner).join(map(_int, o))
            elif (filled := _template_rows(o, inner)) is not None:
                row, rows = filled  # one template filled per slice of rows
                body = ("," + inner).join(fill_rows(row, "," + inner, rows))
            else:
                render = self._render
                body = ("," + inner).join([
                    _ascii(x) if type(x) is str else _int(x) if type(x) is int
                    else render(x, inner) for x in o])
            return f"[{inner}{body}{nl}]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner, render = nl + "  ", self._render
            body = ("," + inner).join([  # _ascii raises TypeError on a key that is no str
                _ascii(key) + ": " + (_ascii(x) if type(x) is str else _int(x)
                                      if type(x) is int else render(x, inner))
                for key, x in sorted(o.items())])
            return f"{{{inner}{body}{nl}}}"
        if isinstance(o, str):
            return _ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return _int(o)
        if isinstance(o, float):
            return _float(o)
        return self._render(self.default(o), nl)


def _emit_json(payload: dict, args):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _emit(json.dumps(payload, sort_keys=True, indent=2, cls=IndentEncoder) + "\n", args)


def _emit_csv(rows, header, args):
    """Header and rows as CSV, rendered and written one slice of rows at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    rows = iter(rows)

    def pieces():
        while True:
            writer.writerows(itertools.islice(rows, ROWS_PER_SLICE))
            if not buf.tell():
                return
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()

    _emit_pieces(pieces(), args)


# -- subcommand handlers -------------------------------------------------------


def cmd_pq(args):
    t, eps = _type_and_sign(args)
    try:
        check_order(t, args.cap)  # p_eps needs no group, but --cap still bounds |W|
    except CapExceededError:
        # refuse inside generate, as eta and graph do, so a refusal has one
        # code path and one trace span (perfbench's refuse worker times it)
        WeylGroup.generate(t, args.cap)
        raise
    poly = p_epsilon(t, eps)
    payload = {
        "type": str(t),
        "sign": format_signs(eps),
        "coeffs": list(poly.coeffs),
        "p": str(poly),
    }
    if eps == all_minus(t.rank):
        closed = closed_form_p(t)
        payload["p"] = str(closed)
        payload["closed_form_exponents"] = list(closed.exponents)
        payload["matches_closed_form"] = closed.expand() == poly
    if args.format == "text":
        _emit(f"{t} {format_signs(eps)}: {poly}\n", args)
    else:
        _emit_json(payload, args)
    return 0


def cmd_eta(args):
    t, eps = _type_and_sign(args)
    group = WeylGroup.generate(t, args.cap)
    table = eta_table(group, eps)
    if args.format == "json":
        _emit_json({"type": str(t), "sign": format_signs(eps), "table": list(table.as_rows()),
                    "max_eta": table.max_value()}, args)
        return 0
    rows = zip(group.word_labels(), group.lengths, table.values, table.sign_labels())
    if args.format == "csv":
        _emit_csv(rows, ("word", "length", "eta", "sign"), args)
    else:
        lines = [f"{word:>12}  l={length}  eta={value}  {sign}"
                 for word, length, value, sign in rows]
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_graph(args):
    t, eps = _type_and_sign(args)
    graph = build_graph(WeylGroup.generate(t, args.cap), eps)
    if args.format == "dot":
        _emit(to_dot(graph), args)
    else:
        doc = graph_to_dict(graph)
        report = matching_report(graph)
        doc["matching"] = report.is_matching
        if report.is_matching:
            doc["betti"] = list(report.betti)
        _emit_json(doc, args)
    return 0


def cmd_schur(args):
    if args.experiment and args.hirota:
        raise ValidationError("--hirota does not apply to --experiment")
    for flag in ("samples", "seed"):
        if not args.experiment and getattr(args, flag) is not None:
            raise ValidationError(f"--{flag} needs --experiment")
    t = LieType.parse(args.type)
    if args.experiment == "real-roots":
        rep = real_root_count_experiment(
            t, samples=20 if args.samples is None else args.samples,
            seed=0 if args.seed is None else args.seed)
        _emit_json(rep.as_dict(), args)
        return 0
    system = tau_functions(t)
    payload = {
        "type": str(t),
        "variables": list(system.ring.names),
        "weights": list(system.ring.weights),
        "taus": [tau.to_json()["monomials"] for tau in system.taus],
        "taus_pretty": [str(tau) for tau in system.taus],
        "minimal_degrees": list(minimal_degrees(system)),
        "nu_degrees": list(nu_degrees(system)),
        "notes": list(system.notes),
    }
    if args.hirota:
        fits = []
        for k in range(1, t.rank + 1):
            a0, residual = hirota_residual(system, k)
            fits.append({"k": k, "a0": str(a0), "residual_zero": residual.is_zero()})
        payload["hirota"] = fits
    _emit_json(payload, args)
    return 0


def cmd_affine(args):
    t = LieType("A", args.rank, affine=True)
    eps = parse_signs(args.sign) if args.sign else all_minus(args.rank + 1)
    if len(eps) != args.rank + 1:
        raise ValidationError(
            f"affine sign vector needs length {args.rank + 1}, got {len(eps)}"
        )
    group = AffineWeylGroup(t)
    series = p_series(t, eps, args.lmax, group=group)
    payload = series.as_dict()
    payload["counts_per_length"] = bott_counts(t, args.lmax)  # extend_to asserts each level
    if args.guess:
        try:
            guess = rational_guess(series)
        except TodaLabError as exc:
            payload["rational_guess"] = None
            payload["rational_guess_error"] = exc.code
        else:
            payload["rational_guess"] = str(guess) if guess is not None else None
    _emit_json(payload, args)
    return 0


def _floats(text: str, flag: str) -> list[float]:
    out = []
    for token in text.split(","):
        try:
            out.append(float(token))
        except ValueError:
            raise ValidationError(f"{flag}: {token!r} is not a number") from None
    return out


def cmd_ode(args):
    t = LieType.parse(args.type)
    require_finite(t)  # no value count fits an affine type
    a0 = _floats(args.a, "--a")
    b0 = _floats(args.b, "--b")
    if len(a0) != t.rank or len(b0) != t.rank:
        raise ValidationError(f"need {t.rank} comma-separated values for --a and --b")
    check_flow_input(t, a0, b0, (args.t0, args.t1))  # refuse before numpy loads
    from . import numtoda  # numpy loads for this command only

    traj = numtoda.ode_integrate(t, a0, b0, (args.t0, args.t1))
    if args.format == "csv":
        header = (["t"] + [f"a{i+1}" for i in range(t.rank)]
                  + [f"b{i+1}" for i in range(t.rank)])
        taus = traj.tau
        if taus is not None:
            header += [f"tau{j}" for j in range(1, t.rank + 1)]
        rows = []
        for i, tt in enumerate(traj.t):
            row = [f"{tt:.12g}"] + [f"{x:.12g}" for x in traj.a[i]] \
                + [f"{x:.12g}" for x in traj.b[i]]
            if taus is not None:
                row += [f"{x:.12g}" for x in taus[i]]
            rows.append(row)
        _emit_csv(rows, header, args)
        return 0
    # between-events convention: drift is measured away from any divergence
    drift = traj.invariant_drift(a_bound=100.0) if traj.events \
        else traj.invariant_drift()
    payload = {
        "type": str(t),
        "status": traj.status,
        "samples": len(traj.t),
        "t_final": float(traj.t[-1]),
        "invariant_drift": drift,
        "events": [
            {"tau_index": e.tau_index, "time": e.time, "bracket": list(e.bracket)}
            for e in traj.events
        ],
    }
    _emit_json(payload, args)
    return 0


def cmd_chevalley(args):
    if args.brute and args.q is None:
        raise ValidationError("--brute needs --q")
    t = LieType.parse(args.type)
    info = compact_dual_info(t)
    # refuse --q before p, which can have a million factors, is formatted
    order = None if args.q is None else chevalley_order(t, args.q)
    payload = {
        "type": str(t),
        "dual_compact": info.name,
        "dim": info.dim,
        "rank": info.g,
        "degrees": list(info.degrees),
        "r": info.r,
        "p": str(closed_form_p(t)),
    }
    if args.q is not None:
        payload["q"] = args.q
        payload["order"] = order
        if args.brute:
            payload["brute_force_order"] = math.prod(
                brute_force_so_order(n, args.q) for n in so_factors(t))
            payload["matches"] = payload["brute_force_order"] == payload["order"]
    _emit_json(payload, args)
    return 0


def cmd_verify(args):
    from . import verify  # loads numpy through numtoda

    results = verify.run(args.scope)
    n_fail = sum(1 for r in results if not r.passed)
    if args.out:
        payload = {
            "scope": args.scope,
            "passed": len(results) - n_fail,
            "failed": n_fail,
            "results": [
                {"criterion": r.number, "title": r.title, "passed": r.passed,
                 "detail": r.detail, "seconds": round(r.seconds, 3)}
                for r in results
            ],
        }
        _emit_json(payload, args)
    else:
        for res in results:
            sys.stdout.write(res.line() + "\n")
    return 0  # criterion failures are data, not command errors


def cmd_conventions(args):
    _emit_json(conventions_table(), args)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="todalab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"todalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=None, typed=True):
        if typed:
            p.add_argument("--type", required=True, help="Lie type, e.g. B3")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--out", help="write output to this file instead of stdout")

    def group_command(name, summary, fmt, fn):  # the commands refused by |W| > --cap
        p = sub.add_parser(name, help=summary)
        common(p, fmt)
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="refuse groups of more elements (default %(default)s)")
        p.add_argument("--sign", help="sign vector like '--+' (default all minus)")
        p.set_defaults(fn=fn)

    group_command("pq", "blow-up polynomial p_eps(q)", ("json", "text"), cmd_pq)
    group_command("eta", "eta table for one sign vector", ("json", "csv", "text"), cmd_eta)
    group_command("graph", "blow-up graph, components, matching report", ("json", "dot"),
                  cmd_graph)

    p = sub.add_parser("schur", help="tau functions, degrees, Hirota fit, experiments")
    common(p)
    p.add_argument("--experiment", choices=["real-roots"])
    p.add_argument("--samples", type=int, help="experiment samples (default 20)")
    p.add_argument("--seed", type=int, help="experiment seed (default 0)")
    p.add_argument("--hirota", action="store_true", help="include Hirota constants")
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("affine", help="affine A(1) series and reconstruction")
    common(p, typed=False)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sign", help="l+1 signs (default all minus)")
    p.add_argument("--lmax", type=int, default=12)
    p.add_argument("--guess", action="store_true", help="attempt rational reconstruction")
    p.set_defaults(fn=cmd_affine)

    p = sub.add_parser("ode", help="integrate the flow; CSV trajectory dumps")
    common(p, ("json", "csv"))
    p.add_argument("--a", required=True, help="comma-separated a_i(0)")
    p.add_argument("--b", required=True, help="comma-separated b_i(0)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.set_defaults(fn=cmd_ode)

    p = sub.add_parser("chevalley", help="compact-dual data and point counts")
    common(p)
    p.add_argument("--q", type=int, help="odd prime power")
    p.add_argument("--brute", action="store_true",
                   help="cross-check by counting quadric points (A, C, D, E8; q prime)")
    p.set_defaults(fn=cmd_chevalley)

    p = sub.add_parser("verify", help="run the self-verification matrix")
    p.add_argument("--scope", choices=["fast", "full"], default="fast")
    p.add_argument("--out", help="write a JSON report here instead of the table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conventions", help="dump the node-numbering conventions table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_conventions)

    return parser


_NUMERIC_LIST = set("0123456789.,+-eE")


def _glue_sign_values(argv):
    """Join option values that argparse would mistake for flags.

    ``--sign ---`` and ``--a -1,-1`` are natural spellings; rewrite them to
    the ``=`` form (with a leading space for the pathological bare ``--``,
    which parse_signs strips)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok == "--sign" and nxt and set(nxt) <= set("+-"):
            out.append(f"--sign= {nxt}")
            i += 2
        elif tok in ("--a", "--b") and nxt and nxt.startswith("-") \
                and set(nxt) <= _NUMERIC_LIST:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_sign_values(list(argv)))
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1
    except TodaLabError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0  # downstream pager closed early


if __name__ == "__main__":
    sys.exit(main())
