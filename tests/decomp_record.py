"""The outputs of `decompose`, the split functions and `solve_antipode`, as text.

`record(h)` evaluates every public decomposition entry point on h and prints
each result with `repr`, which shows every scalar with its type: idempotents,
block tensors and antipodes, embeddings, projections, certificates, split
comodules and modules, and the antipode solve.  `decomp_recorded.json` holds
what it returned on the corpus of `cases()` at commit 33291ac, the last one
whose products ran on field scalars; `tests/test_product_kernels.py` asserts
that the package still returns the same.

    PYTHONPATH=src python3 tests/decomp_record.py

writes the file afresh from the package on the path; on an unchanged package
it leaves no diff.
"""

import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_axiom_kernels import _unimodular_cols, rebased  # noqa: E402
from weakhopf.comod import regular_comodule, unit_comodule  # noqa: E402
from weakhopf.decomp import (  # noqa: E402
    _split_pieces,
    decompose,
    direct_sum,
    regular_module,
    split_by_idempotent,
    split_comodule,
    split_module,
)
from weakhopf.exactla import GF, QQ, Subspace  # noqa: E402
from weakhopf.fixtures import cyclic_group_table, group_algebra, preset  # noqa: E402
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra  # noqa: E402
from weakhopf.weakbia import build_weak_bialgebra, solve_antipode  # noqa: E402

RECORDED = pathlib.Path(__file__).parent / "decomp_recorded.json"
FIELDS = (QQ, GF(2), GF(3), GF(5), GF(1009))


def _cyclic(order, field):
    labels, table = cyclic_group_table(order)
    return group_algebra(labels, table, field)


def quadratic(d):
    """Q(sqrt d) on the basis 1, s (s^2 = d), with Delta(a) = (a (x) 1) e for
    e = 1/2 1 (x) 1 + 1/(2d) s (x) s and the trace as counit: indecomposable,
    but K = Q(sqrt d) is a field that `decompose` does not certify."""
    half = Fraction(1, 2)
    alg = FiniteAlgebra(QQ, ["1", "s"], [[[1, 0], [0, 1]], [[0, 1], [d, 0]]], [1, 0])
    comult = [[[half, 0], [0, Fraction(1, 2 * d)]], [[0, half], [half, 0]]]
    return build_weak_bialgebra(alg, FiniteCoalgebra(QQ, ["1", "s"], comult, [2, 0]))


def scrambled(h):
    """h in a unimodular-scrambled basis, with its antipode carried along."""
    alg, coa, s = rebased(h, _unimodular_cols(h.field, h.dim))
    out = build_weak_bialgebra(alg, coa)
    return out if s is None else out.with_antipode(s)


def cases():
    """(name, h, whole): the fixtures k, c2, gpd2, C3 and `sum` over five
    fields, natural and scrambled; z3gf2; scrambled k+C2 and k+k+k; Q[Z/4],
    whose Q(i) piece is undecided when the pieces of the whole (commutative)
    algebra are split (whole is True); Q(sqrt 2) and Q(sqrt 2) + Q(sqrt 3),
    which `decompose` leaves undecided."""
    out = []
    for field in FIELDS:
        natural = {
            "k": preset("k", field),
            "c2": preset("c2", field),
            "gpd2": preset("gpd2", field),
            "C3": _cyclic(3, field),
            "sum": preset("sum", field),
        }
        for name, h in natural.items():
            out.append((f"{name}@{field}", h, False))
            out.append((f"{name}@{field}@unimodular", scrambled(h), False))
    out.append(("z3gf2", preset("z3@gf2"), False))
    for field in (QQ, GF(5)):
        k, c2 = preset("k", field), preset("c2", field)
        out.append((f"k+C2@{field}@unimodular", scrambled(direct_sum(k, c2)), False))
        out.append((f"k+k+k@{field}@unimodular", scrambled(direct_sum(k, k, k)), False))
    out.append(("Q[Z/4]", _cyclic(4, QQ), True))
    out.append(("Q[Z/4]@unimodular", scrambled(_cyclic(4, QQ)), True))
    out.append(("Q(sqrt2)", quadratic(2), False))
    out.append(("Q(sqrt2)@unimodular", scrambled(quadratic(2)), False))
    both = direct_sum(quadratic(2), quadratic(3))
    out.append(("Q(sqrt2)+Q(sqrt3)@unimodular", scrambled(both), False))
    return out


def _wba(h):
    return repr((h.labels, h.mult, h.unit, h.comult, h.counit, _matrix(h.antipode)))


def _matrix(m):
    return None if m is None else repr((str(m.field), m.rows, m.cols, m.nz))


def record(h, whole: bool = False) -> dict:
    """Every decomposition output on h, as text; with whole, also the pieces
    that `_split_pieces` finds in the whole algebra."""
    report = decompose(h)
    data = report.block_data()
    out = {
        "idempotents": repr(report.block_idempotents),
        "blocks": [_wba(b) for b in report.blocks],
        "embeddings": [_matrix(m) for m in report.embeddings],
        "projections": [_matrix(m) for m in report.projections],
        "certificates": list(report.certificates),
    }
    if whole:
        space = Subspace(h.field, h.dim, h.mult_matrix(h.unit).column_list())
        out["pieces"] = [[repr(p.idempotent), p.certified] for p in _split_pieces(h, space)]
    antipode = solve_antipode(h)
    out["antipode"] = [antipode.status, _matrix(antipode.matrix), antipode.solution_space_dim]
    if report.block_count > 1:
        split = split_by_idempotent(h, report.block_idempotents[0])
        out["split_by_idempotent"] = [_wba(b) for b in split]
    if report.block_count == 2:
        out["split_comodule"] = [
            [_matrix(p.coaction) for p in split_comodule(h, c, data)]
            for c in (regular_comodule(h), unit_comodule(h))
        ]
        out["split_module"] = [
            [_matrix(a) for a in p.actions] for p in split_module(h, regular_module(h), data)
        ]
    return out


if __name__ == "__main__":
    recorded = {name: record(h, whole) for name, h, whole in cases()}
    RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", RECORDED.name)
