"""Command-line front end.

Subcommands: pq, eta, graph, schur, affine, ode, chevalley, verify,
conventions.
Outputs are deterministic for a fixed seed and version: JSON with sorted
keys, CSV with CRLF line ends (no cell ever needs quoting), or DOT.  Exit
codes: 0 success, 1 validation error, 2 computational error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

# The parser needs only the core below; each handler imports the modules it
# runs (todagraph for its row filler, which writes every CSV row), so a cold
# command loads nothing else.
from . import __version__
from .errors import CapExceededError, TodaLabError, ValidationError
from .rootdata import (
    LieType,
    check_flow_input,
    compact_dual_info,
    conventions_table,
    require_finite,
)
from .signflow import Records, all_minus, eta_table, format_signs, parse_signs
from .weyl import DEFAULT_CAP, WeylGroup, check_order

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse mistakes are validation errors: exit 1
        self.print_usage(sys.stderr)
        raise ValidationError(message)

    def _get_values(self, action, arg_strings):
        # argparse strips an explicit "--" value (--t1=--) to an empty list,
        # which no type or choice check sees; read it as the string "--"
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


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


_ascii = json.encoder.encode_basestring_ascii
_int = int.__repr__
_scalar = json.JSONEncoder().encode  # any other scalar; TypeError for what is no JSON


def _template_rows(o, inner: str):
    """A ``%`` template for each item of ``o`` and an iterable of the items'
    cells, when ``o`` is a run of like rows whose lines start with ``inner``;
    else None.

    Two kinds qualify: ``Records`` whose every column holds only str or only
    plain ints (vertex and eta rows), checked once per column, and tuples of
    one nonzero length holding plain ints (graph edges).  Not bool:
    ``"%d" % True`` is "1".
    """
    cell = inner + "  "
    if type(o) is Records:
        items, cols = [], []
        for key, col in sorted(o.columns.items()):
            kind = set(map(type, col))
            if kind == {str}:
                cols.append(map(_ascii, col))
                cell_format = ": %s"
            elif kind == {int}:
                cols.append(col)
                cell_format = ": %d"
            else:
                return None
            items.append(_ascii(key).replace("%", "%%") + cell_format)
        return f"{{{cell}{(',' + cell).join(items)}{inner}}}", zip(*cols)
    first = o[0]
    if (type(first) is tuple and set(map(type, o)) == {tuple} and len(set(map(len, o))) == 1
            and set(map(type, itertools.chain.from_iterable(o))) == {int}):
        return f"[{cell}{(',' + cell).join(['%d'] * len(first))}{inner}]", o
    return None


def _json_slices(o, nl: str = "\n"):
    """The text ``json.dumps(o, sort_keys=True, indent=2)`` writes, slice by slice.

    ``o`` sits at the depth whose lines start with ``nl``; its items go one
    level deeper.  No whole text is built: a list of plain ints is one slice,
    a run of template rows (see ``_template_rows``) one slice per
    ``todagraph.ROWS_PER_SLICE`` rows, and any other container comes in the
    slices of its items.  ``Records`` encode as their list of dicts.  A key
    that is not a ``str`` is refused.
    """
    if type(o) is int:  # not bool: int.__repr__(True) is "1"
        yield _int(o)
    elif type(o) is str:
        yield _ascii(o)
    elif isinstance(o, (list, tuple, Records)):
        if not o:
            yield "[]"
            return
        inner = nl + "  "
        sep = "," + inner
        if all(type(x) is int for x in o):
            yield f"[{inner}{sep.join(map(_int, o))}{nl}]"
            return
        head = "[" + inner
        if (filled := _template_rows(o, inner)) is not None:
            from .todagraph import fill_rows

            row, rows = filled  # one template filled per slice of rows
            for text in fill_rows(row, sep, rows):
                yield head
                yield text
                head = sep
        else:
            for x in o:
                yield head
                yield from _json_slices(x, inner)
                head = sep
        yield nl + "]"
    elif isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = nl + "  "
        head = "{" + inner
        for key, x in sorted(o.items()):
            yield head + _ascii(key) + ": "  # _ascii raises TypeError on a key that is no str
            yield from _json_slices(x, inner)
            head = "," + inner
        yield nl + "}"
    else:
        yield _scalar(o)


def _emit_json(payload: dict, args):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _emit_pieces(itertools.chain(_json_slices(payload), ("\n",)), args)


def _emit_csv(header, row, rows, args):
    """The header line, then ``rows`` filled into the template ``row``, which
    ends in CRLF.  No quoting: every cell is a number, a word label, a sign
    string or a header name, none of which holds a comma, quote or line end."""
    from .todagraph import fill_rows

    _emit_pieces(itertools.chain((",".join(header) + "\r\n",), fill_rows(row, "", rows)),
                 args)


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
    from .blowup_poly import closed_form_p, p_epsilon

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
        _emit_json({"type": str(t), "sign": format_signs(eps), "table": table.as_rows(),
                    "max_eta": table.max_value()}, args)
        return 0
    rows = zip(group.word_labels(), group.lengths, table.values, table.sign_labels())
    if args.format == "csv":
        _emit_csv(("word", "length", "eta", "sign"), "%s,%d,%d,%s\r\n", rows, args)
    else:
        from .todagraph import fill_rows

        _emit_pieces(fill_rows("%12s  l=%d  eta=%d  %s\n", "", rows), args)
    return 0


def cmd_graph(args):
    from .todagraph import build_graph, graph_to_dict, matching_report, to_dot

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
    from .schurtau import (hirota_residual, minimal_degrees, nu_degrees,
                           real_root_count_experiment, tau_functions)

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
    from .affine import AffineWeylGroup, bott_counts, p_series, rational_guess

    t = LieType("A", args.rank, affine=True)
    eps = all_minus(args.rank + 1) if args.sign is None else parse_signs(args.sign)
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


def _parse_floats(text: str, flag: str) -> list[float]:
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
    a0 = _parse_floats(args.a, "--a")
    b0 = _parse_floats(args.b, "--b")
    if len(a0) != t.rank or len(b0) != t.rank:
        raise ValidationError(f"need {t.rank} comma-separated values for --a and --b")
    check_flow_input(t, a0, b0, (args.t0, args.t1))  # refuse before numpy loads
    from . import numtoda  # numpy loads for this command only

    traj = numtoda.ode_integrate(t, a0, b0, (args.t0, args.t1))
    if args.format == "csv":
        import numpy as np

        tau = numtoda.tau_tracks(t, a0, b0, traj.t)
        names = ("a", "b") if tau is None else ("a", "b", "tau")
        header = ["t"] + [f"{name}{i}" for name in names for i in range(1, t.rank + 1)]
        cols = [traj.t[:, None], traj.a, traj.b] + ([] if tau is None else [tau])
        _emit_csv(header, ",".join(["%.12g"] * len(header)) + "\r\n",
                  np.hstack(cols).tolist(), args)
        return 0
    payload = {
        "type": str(t),
        "status": traj.status,
        "samples": len(traj.t),
        "t_final": float(traj.t[-1]),
        "invariant_drift": traj.invariant_drift(),
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
    from .blowup_poly import brute_force_order, chevalley_order, closed_form_p

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
            payload["brute_force_order"] = brute_force_order(t, args.q)
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
                   help="cross-check by counting sphere points (every type; q prime)")
    p.set_defaults(fn=cmd_chevalley)

    p = sub.add_parser("verify", help="run the self-verification matrix")
    p.add_argument("--scope", choices=["fast", "full"], default="fast")
    p.add_argument("--out", help="write a JSON report here instead of the table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conventions", help="dump the node-numbering conventions table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_conventions)

    return parser


def _glue_sign_values(argv):
    """Join option values that argparse would mistake for flags.

    ``--sign ---``, ``--a -1,-1`` and ``--t1 -inf`` are natural spellings;
    rewrite them to the ``=`` form (with a leading space for the
    pathological bare ``--``, which parse_signs strips).  A value of
    ``--a/--b/--t0/--t1`` is anything after the flag that starts with ``-``
    and is not an option itself (``--`` and a letter, or ``-h``)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok == "--sign" and nxt and set(nxt) <= set("+-"):
            out.append(f"--sign= {nxt}")
            i += 2
        elif tok in ("--a", "--b", "--t0", "--t1") and nxt and nxt.startswith("-") \
                and nxt != "-h" and not (nxt[:2] == "--" and nxt[2:3].isalpha()):
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
