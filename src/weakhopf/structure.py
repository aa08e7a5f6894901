"""Finite-dimensional algebras and coalgebras given by structure constants.

Conventions, fixed once and used verbatim everywhere in the package:

    mult[i][j][k]   = coefficient of b_k in b_i * b_j
    comult[i][j][k] = coefficient of b_j (x) b_k in Delta(b_i)

Tensor-square coordinates are row-major: the pair (j, k) sits at j*n + k.
"""

from __future__ import annotations

from operator import mul

from .errors import MalformedInput, PreconditionError, Verdict, Violation
from .exactla import (
    FieldSpec,
    Matrix,
    Subspace,
    ints_differ,
    ints_to_field,
    kernel_space,
    lift_to_ints,
    vec_unit,
)


def _canonical_tensor(field: FieldSpec, tensor, n: int, what: str):
    if len(tensor) != n:
        raise MalformedInput(f"{what} tensor must have {n} slices")
    out = []
    for sl in tensor:
        if len(sl) != n:
            raise MalformedInput(f"{what} tensor slice must have {n} rows")
        rows = []
        for row in sl:
            if len(row) != n:
                raise MalformedInput(f"{what} tensor row must have {n} entries")
            rows.append(_canonical_vector(field, row, n, what))
        out.append(tuple(rows))
    return tuple(out)


def _canonical_vector(field: FieldSpec, vec, n: int, what: str):
    if len(vec) != n:
        raise MalformedInput(f"{what} vector must have length {n}")
    out = tuple(field.of(x) if isinstance(x, int) else x for x in vec)
    for x in out:
        if not field.is_element(x):
            raise MalformedInput(f"{what} entry {x!r} not in {field}")
    return out


class FiniteAlgebra:
    """A unital algebra on a labelled basis, given by its structure tensor."""

    __slots__ = ("field", "labels", "mult", "unit", "_ints")

    def __init__(self, field: FieldSpec, labels, mult, unit):
        labels = tuple(labels)
        n = len(labels)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mult", _canonical_tensor(field, mult, n, "mult"))
        object.__setattr__(self, "unit", _canonical_vector(field, unit, n, "unit"))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, val):
        raise AttributeError("FiniteAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def ints(self) -> tuple:
        """(mnz, sm, unit, su) by `lift_to_ints`, lifted on first use and kept.

        mnz[i][j] = ((k, c), ...) lists the nonzero lifted constants of
        b_i b_j at scale sm; unit is the dense lifted unit at scale su.
        """
        if self._ints is None:
            mu, sm = lift_to_ints(self.field, self.mult)
            mnz = tuple(
                tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in sl) for sl in mu
            )
            object.__setattr__(self, "_ints", (mnz, sm) + lift_to_ints(self.field, self.unit))
        return self._ints

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return (self.field, self.labels, self.mult, self.unit) == (
            other.field, other.labels, other.mult, other.unit)

    def __hash__(self):
        return hash((self.field, self.labels, self.mult, self.unit))


class FiniteCoalgebra:
    """A counital coalgebra on a labelled basis, given by its costructure tensor."""

    __slots__ = ("field", "labels", "comult", "counit", "_ints")

    def __init__(self, field: FieldSpec, labels, comult, counit):
        labels = tuple(labels)
        n = len(labels)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "comult", _canonical_tensor(field, comult, n, "comult"))
        object.__setattr__(self, "counit", _canonical_vector(field, counit, n, "counit"))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, val):
        raise AttributeError("FiniteCoalgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def ints(self) -> tuple:
        """(dnz, sd, counit, se) by `lift_to_ints`, lifted on first use and kept.

        dnz[i] = ((j, k, d), ...) lists the nonzero lifted constants of
        Delta(b_i) at scale sd; counit is the dense lifted counit at scale se.
        """
        if self._ints is None:
            delta, sd = lift_to_ints(self.field, self.comult)
            dnz = tuple(
                tuple((j, k, d) for j, row in enumerate(sl) for k, d in enumerate(row) if d)
                for sl in delta
            )
            object.__setattr__(self, "_ints", (dnz, sd) + lift_to_ints(self.field, self.counit))
        return self._ints

    def __eq__(self, other):
        if not isinstance(other, FiniteCoalgebra):
            return NotImplemented
        return (self.field, self.labels, self.comult, self.counit) == (
            other.field, other.labels, other.comult, other.counit)

    def __hash__(self):
        return hash((self.field, self.labels, self.comult, self.counit))


def _mul(mnz, x, y) -> list:
    """The dense int product x y on lifted mult nonzeros (the scales multiply)."""
    out = [0] * len(x)
    ynz = [(j, v) for j, v in enumerate(y) if v]
    for i, u in enumerate(x):
        if u:
            row = mnz[i]
            for j, v in ynz:
                uv = u * v
                for k, c in row[j]:
                    out[k] += uv * c
    return out


def _comul(dnz, x) -> list:
    """Delta(x) in row-major tensor-square coordinates, on lifted comult nonzeros."""
    n = len(x)
    out = [0] * (n * n)
    for i, u in enumerate(x):
        if u:
            for a, b, d in dnz[i]:
                out[a * n + b] += u * d
    return out


def _apply(cols, terms, rows: int) -> list:
    """A matrix, given by its lifted columns (`Matrix.col_ints`) and its row
    count, applied to the int vector with (index, int) pairs terms."""
    out = [0] * rows
    for j, u in terms:
        if u:
            for r, v in cols[j]:
                out[r] += u * v
    return out


def _lift(field: FieldSpec, x, n: int, what: str) -> tuple:
    """`lift_to_ints` of the vector x, after checking its length against the
    dimension n and coercing ints into the field (anything else is malformed)."""
    if len(x) != n:
        raise MalformedInput(f"vector length does not match {what} dimension")
    return lift_to_ints(field, tuple(map(field.of, x)))


def multiply(a: FiniteAlgebra, x, y) -> tuple:
    """Bilinear extension of the multiplication tensor (on lifted ints)."""
    (xs, sx), (ys, sy) = _lift(a.field, x, a.dim, "algebra"), _lift(a.field, y, a.dim, "algebra")
    mnz, sm, _, _ = a.ints()
    return ints_to_field(a.field, tuple(_mul(mnz, xs, ys)), sx * sy * sm)


def comultiply(c: FiniteCoalgebra, x) -> tuple:
    """Delta(x) in row-major tensor-square coordinates (on lifted ints)."""
    xs, sx = _lift(c.field, x, c.dim, "coalgebra")
    dnz, sd, _, _ = c.ints()
    return ints_to_field(c.field, tuple(_comul(dnz, xs)), sx * sd)


def counit_of(c: FiniteCoalgebra, x):
    """eps(x) (on lifted ints)."""
    xs, sx = _lift(c.field, x, c.dim, "coalgebra")
    _, _, eps, se = c.ints()
    return ints_to_field(c.field, (sum(map(mul, eps, xs)),), sx * se)[0]


def law_violations(field: FieldSpec, law: str, witness: tuple, u, su: int, v, sv: int) -> list:
    """[] if the lifted int vectors u / su and v / sv agree, else their one Violation."""
    if not ints_differ(field.characteristic, u, su, v, sv):
        return []
    return [Violation(law, witness, ints_to_field(field, u, su), ints_to_field(field, v, sv))]


def _sides_differ(p: int, lhs: dict, sl: int, rhs: dict, sr: int) -> bool:
    """Whether the sparse int vectors {key: int} lhs / sl and rhs / sr differ
    over GF(p), or over Q when p == 0."""
    if sl != sr:
        lhs, rhs = {k: v * sr for k, v in lhs.items()}, {k: v * sl for k, v in rhs.items()}
    if lhs == rhs:
        return False
    if p:
        return {k: v % p for k, v in lhs.items() if v % p} != {k: v % p for k, v in rhs.items() if v % p}
    return {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}


def _dict_violation(
    field: FieldSpec, law: str, witness: tuple, lhs: dict, sl: int, rhs: dict, sr: int
) -> Violation:
    """The Violation of sparse int vectors that `_sides_differ`; each side is
    its sorted nonzero (key, field value) pairs."""
    sides = [[(k, x) for k, x in _field_items(field, acc, s) if x] for acc, s in ((lhs, sl), (rhs, sr))]
    return Violation(law, witness, *sides)


def _field_items(field: FieldSpec, acc: dict, scale: int) -> list:
    """The sorted (key, field value) pairs of the sparse int vector acc / scale."""
    keys = sorted(acc)
    return list(zip(keys, ints_to_field(field, tuple([acc[k] for k in keys]), scale)))


def _unit_violation(field: FieldSpec, law: str, i: int, diff: dict, scale: int, dim: int) -> Violation:
    """The Violation, both sides dense, of a sparse int vector acc / scale that
    is not the i-th standard basis vector of k^dim, given as diff = acc - scale * e_i."""
    dense = [0] * dim
    for a, x in diff.items():
        dense[a] = x
    dense[i] += scale
    return Violation(law, (i,), ints_to_field(field, tuple(dense), scale), vec_unit(field, dim, i))


def check_algebra(a: FiniteAlgebra) -> Verdict:
    """Associativity and unit law, exhaustively on basis tuples (on lifted ints)."""
    n = a.dim
    violations = []
    nz, sm, unit, su = a.ints()
    for i in range(n):
        for j in range(n):
            # (b_i b_j) b_k and b_i (b_j b_k) for every k, at k * n + l
            lhs = [0] * (n * n)
            rhs = [0] * (n * n)
            for k in range(n):
                for m, c in nz[i][j]:
                    for l, d in nz[m][k]:
                        lhs[k * n + l] += c * d
                for m, c in nz[j][k]:
                    for l, d in nz[i][m]:
                        rhs[k * n + l] += c * d
            if ints_differ(a.field.characteristic, lhs, 1, rhs, 1):
                for k in range(n):
                    sides = (lhs[k * n:(k + 1) * n], sm * sm, rhs[k * n:(k + 1) * n], sm * sm)
                    violations += law_violations(a.field, "associativity", (i, j, k), *sides)
    for i in range(n):
        one = [int(t == i) for t in range(n)]
        left = [0] * n
        right = [0] * n
        for x, u in enumerate(unit):
            for k, c in nz[x][i]:
                left[k] += u * c
            for k, c in nz[i][x]:
                right[k] += u * c
        violations += law_violations(a.field, "unit-left", (i,), left, su * sm, one, 1)
        violations += law_violations(a.field, "unit-right", (i,), right, su * sm, one, 1)
    return Verdict(tuple(violations))


def check_coalgebra(c: FiniteCoalgebra) -> Verdict:
    """Coassociativity and counit law, exhaustively on basis elements (on lifted ints)."""
    n = c.dim
    field = c.field
    violations = []
    nz, sd, eps, se = c.ints()
    for i in range(n):
        # (Delta (x) id) Delta(b_i) and (id (x) Delta) Delta(b_i), keyed by basis triple
        lhs, rhs = {}, {}
        for j, k, d in nz[i]:
            for a, b, e in nz[j]:
                lhs[a, b, k] = lhs.get((a, b, k), 0) + d * e
            for a, b, e in nz[k]:
                rhs[j, a, b] = rhs.get((j, a, b), 0) + d * e
        if _sides_differ(field.characteristic, lhs, sd * sd, rhs, sd * sd):
            violations.append(_dict_violation(field, "coassociativity", (i,), lhs, sd * sd, rhs, sd * sd))
    for i in range(n):
        one = [int(t == i) for t in range(n)]
        left = [0] * n
        right = [0] * n
        for j, k, d in nz[i]:
            left[k] += eps[j] * d
            right[j] += eps[k] * d
        violations += law_violations(field, "counit-left", (i,), left, se * sd, one, 1)
        violations += law_violations(field, "counit-right", (i,), right, se * sd, one, 1)
    return Verdict(tuple(violations))


def dual(x):
    """Dual coalgebra of an algebra, or dual algebra of a coalgebra.

    Structure tensors transpose against the dual basis; applying `dual`
    twice gives back identical tensors.
    """
    if isinstance(x, FiniteAlgebra):
        n = x.dim
        comult = [
            [[x.mult[j][k][i] for k in range(n)] for j in range(n)] for i in range(n)
        ]
        return FiniteCoalgebra(x.field, x.labels, comult, x.unit)
    if isinstance(x, FiniteCoalgebra):
        n = x.dim
        mult = [
            [[x.comult[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)
        ]
        return FiniteAlgebra(x.field, x.labels, mult, x.counit)
    raise MalformedInput(f"dual expects an algebra or coalgebra, got {type(x)}")


def opposite(a: FiniteAlgebra) -> FiniteAlgebra:
    """b_i *op b_j = b_j b_i; its int tables are a's, transposed."""
    n = a.dim
    mult = [[a.mult[j][i] for j in range(n)] for i in range(n)]
    out = FiniteAlgebra(a.field, a.labels, mult, a.unit)
    mnz, sm, unit, su = a.ints()
    mnz = tuple(tuple(mnz[j][i] for j in range(n)) for i in range(n))
    object.__setattr__(out, "_ints", (mnz, sm, unit, su))
    return out


def coopposite(c: FiniteCoalgebra) -> FiniteCoalgebra:
    """Delta^cop(x) = x_(2) (x) x_(1); its int tables are c's, with the legs swapped."""
    n = c.dim
    comult = [
        [[c.comult[i][k][j] for k in range(n)] for j in range(n)] for i in range(n)
    ]
    out = FiniteCoalgebra(c.field, c.labels, comult, c.counit)
    dnz, sd, counit, se = c.ints()
    dnz = tuple(tuple(sorted((k, j, d) for j, k, d in row)) for row in dnz)
    object.__setattr__(out, "_ints", (dnz, sd, counit, se))
    return out


def center(a: FiniteAlgebra) -> Subspace:
    """Echelon basis of {z : z b_i = b_i z for all i}, via one kernel."""
    verdict = check_algebra(a)
    if not verdict.ok:
        raise PreconditionError(f"center of an invalid algebra: {verdict.describe()}")
    n = a.dim
    rows = [[a.mult[l][i][k] - a.mult[i][l][k] for l in range(n)]
            for i in range(n) for k in range(n)]
    if not rows:
        return Subspace(a.field, 0)
    return kernel_space(Matrix(a.field, rows, cols=n))
