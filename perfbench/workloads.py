"""Benchmark inputs drawn from the seed, and the checks on every output.

A successful CLI operation whose argv was recorded in ``reference.json`` (at
the default seed) must reproduce its stdout byte for byte.  A seeded
operation drawn at another seed is checked by an oracle instead.  Error-path
operations must exit 1 or 2 with an ``error [tag]:`` line and no traceback.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Invariant degrees d_i of the compact dual K (Casian-Kodama, math/0602229):
# p_eps(q) = prod (q^d_i - 1) for the all-minus sign and 0 for every other.
DEGREES = {"E6": (2, 4, 6, 8), "G2": (2, 2)}
E6_ORDER = 51840
E6_LONGEST = 36

# Mixed E6 signs whose blow-up graph has 181k-198k edges: the seed varies the
# input while the work of the JSON export stays within about 5%.  Over all 62
# mixed signs the edge count ranges from 181k to 313k.
E6_MIXED_SIGNS = (
    "---+--", "--+---", "----+-", "+-----", "-----+", "+--+--", "---+-+",
    "--+-+-", "-+----", "--++--", "---++-", "+----+", "-++-+-", "-++---",
    "-+--+-", "+--+-+", "+---+-", "--+--+", "+--++-", "--++-+",
)

_TAG = re.compile(r"^error \[([a-z0-9-]+)\]:", re.MULTILINE)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its outcome must be."""

    argv: tuple[str, ...]
    error_tag: str | None = None   # "" = any tag; None = must succeed
    oracle: str | None = None      # check used when no reference hash exists
    known_defect: bool = False     # fails its check at the commit that added it

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def cli_cold_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    rr_seed = str(rng.randrange(1_000_000))
    return [
        Op(("pq", "--type", "A2")),
        Op(("conventions",)),
        Op(("chevalley", "--type", "A2", "--q", "5", "--brute")),
        Op(("eta", "--type", "G2", "--format", "csv")),
        Op(("graph", "--type", "A3", "--format", "dot")),
        Op(("schur", "--type", "B2", "--hirota")),
        Op(("schur", "--type", "G2", "--experiment", "real-roots", "--samples", "20",
            "--seed", rr_seed), oracle="real_roots_g2"),
        Op(("ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "5", "--format", "csv")),
        Op(("affine", "--rank", "1", "--lmax", "12", "--guess")),
        Op(("affine", "--rank", "16", "--lmax", "5")),
        Op(("pq", "--type", "E7"), error_tag="cap-exceeded"),
        Op(("pq", "--type", "A2", "--sign", "---"), error_tag="validation"),
        Op(("ode", "--type", "A1", "--a", "nan", "--b", "0"), error_tag="", known_defect=True),
        Op(("ode", "--type", "A1", "--a", "1", "--b", "0", "--t1", "0"), error_tag="",
           known_defect=True),
        Op(("affine", "--rank", "1", "--lmax", "-1"), error_tag="", known_defect=True),
    ]


def e6_graph_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    sign = rng.choice(E6_MIXED_SIGNS)
    return [
        Op(("graph", "--type", "E6", "--format", "dot")),
        Op(("graph", "--type", "E6", "--sign", sign, "--format", "json"),
           oracle="e6_graph_json"),
        Op(("eta", "--type", "E6", "--format", "csv")),
    ]


CLI_OPS = {"cli_cold": cli_cold_ops, "e6_graph": e6_graph_ops}


def expand_degrees(degrees) -> tuple[int, ...]:
    """Coefficients (low to high) of prod (q^d - 1)."""
    acc = [1]
    for d in degrees:
        nxt = [0] * (len(acc) + d)
        for i, c in enumerate(acc):
            nxt[i] -= c
            nxt[i + d] += c
        acc = nxt
    return tuple(acc)


def expected_p(name: str, eps) -> tuple[int, ...]:
    return expand_degrees(DEGREES[name]) if all(e < 0 for e in eps) else ()


def compile_package():
    """Byte-compile todalab (set-up work), so no timed import compiles."""
    if not compileall.compile_dir(str(Path.cwd() / "src" / "todalab"), quiet=1, force=True):
        raise RuntimeError("todalab does not byte-compile")


def has_error_tag(err: str) -> bool:
    return _TAG.search(err) is not None


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_cli(op: Op, rc: int, out: bytes, err: str, reference: dict) -> str | None:
    """None when the outcome is right, else a one-line reason."""
    if "Traceback" in err:
        return "traceback on stderr"
    if op.error_tag is not None:
        if rc not in (1, 2):
            return f"exit {rc}, expected 1 or 2"
        m = _TAG.search(err)
        if not m:
            return "no 'error [tag]:' line on stderr"
        if op.error_tag and m.group(1) != op.error_tag:
            return f"tag {m.group(1)!r}, expected {op.error_tag!r}"
        return None
    if rc != 0:
        return f"exit {rc}: {err.strip()[-200:]}"
    ref = reference.get(op.key)
    if ref is not None:
        got = digest(out)
        return None if got == ref else f"stdout {got['bytes']} B differs from the reference"
    if op.oracle is None:
        return "no reference output recorded"
    try:
        return ORACLES[op.oracle](op, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"oracle {op.oracle}: {type(exc).__name__}: {exc}"


def _real_roots_g2(op: Op, doc: dict) -> str | None:
    counts = doc["counts"]
    seed = int(op.argv[op.argv.index("--seed") + 1])
    modal = max(set(counts), key=lambda c: (counts.count(c), -c))
    off = [i for i, c in enumerate(counts) if c != modal]
    if doc["type"] != "G2" or doc["seed"] != seed or doc["samples"] != 20 or len(counts) != 20:
        return "real-roots header does not match the request"
    if doc["modal_count"] != modal or doc["modal_fraction"] != counts.count(modal) / 20:
        return "modal count or fraction inconsistent with counts"
    if [s["sample"] for s in doc["exceptional_slices"]] != off:
        return "exceptional slices inconsistent with counts"
    if doc["expected_degree"] != sum(DEGREES["G2"]) or modal != doc["expected_degree"] \
            or doc["matches_expected"] is not True:
        return f"modal real-root count {modal} != {sum(DEGREES['G2'])}"
    return None


def _e6_graph_json(op: Op, doc: dict) -> str | None:
    sign = op.argv[op.argv.index("--sign") + 1]
    verts = doc["vertices"]
    if doc["type"] != "E6" or doc["sign"] != sign:
        return "graph header does not match the request"
    if len(verts) != E6_ORDER:
        return f"{len(verts)} vertices, expected |W(E6)| = {E6_ORDER}"
    coeffs = [0] * (max(v["eta"] for v in verts) + 1)
    for v in verts:
        coeffs[v["eta"]] += -1 if (E6_LONGEST - v["length"]) % 2 else 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    want = expected_p("E6", [-1 if c == "-" else 1 for c in sign])
    if tuple(coeffs) != want:
        return f"alternating eta sum {coeffs} != {list(want)}"
    for a, b in doc["edges"]:
        va, vb = verts[a], verts[b]
        if va["eta"] != vb["eta"] or va["sign"] != vb["sign"] \
                or vb["length"] != va["length"] + 1:
            return f"edge ({a}, {b}) is not a blow-up-free cover"
    if sorted(x for comp in doc["components"] for x in comp) != list(range(E6_ORDER)):
        return "components do not partition the vertices"
    return None


ORACLES = {"real_roots_g2": _real_roots_g2, "e6_graph_json": _e6_graph_json}
