"""Exact field arithmetic and the dense linear-algebra substrate.

Scalars are `fractions.Fraction` over the rationals and `Mod` residue classes
over a prime field.  Two guarantees made here carry the whole package:

* all arithmetic is exact, so equality is structural and zero tests decide;
* every derived basis is canonical (reduced row echelon, free variables
  zeroed), so repeated runs produce bit-identical results.

Matrices act on column vectors: ``m.apply(v)[r] == sum(m[r][c] * v[c])``.
Tensor-square coordinates are row-major pairs, (j, k) at index j*n + k,
which `kron` follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import ne, sub
import re

from .errors import MalformedInput

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_INT_RE = re.compile(r"^-?\d+$")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Mod:
    """Residue class modulo a prime, canonical representative in 0..p-1."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):
        raise AttributeError("Mod is immutable")

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise MalformedInput(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Mod(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Mod(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Mod(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Mod(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return Mod(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __pow__(self, n: int):
        return Mod(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            # only the canonical representative, so that equal values hash alike
            return self.value == other
        return NotImplemented

    def __lt__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.value < o.value

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True)
class FieldSpec:
    """The base field: the rationals or a prime field GF(p)."""

    kind: str
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic:
                raise MalformedInput("rationals carry no characteristic")
        elif self.kind == "prime-field":
            if not _is_prime(self.characteristic):
                raise MalformedInput(
                    f"prime-field characteristic {self.characteristic} is not prime"
                )
        else:
            raise MalformedInput(f"unknown field kind {self.kind!r}")

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rationals" else Mod(0, self.characteristic)

    @property
    def one(self):
        return Fraction(1) if self.kind == "rationals" else Mod(1, self.characteristic)

    def of(self, n):
        """Lift an int (or an exact scalar of this field) into the field."""
        if self.kind == "rationals":
            if isinstance(n, Fraction):
                return n
            if isinstance(n, int):
                return Fraction(n)
        else:
            if isinstance(n, Mod):
                if n.p != self.characteristic:
                    raise MalformedInput("residue from a different prime field")
                return n
            if isinstance(n, int):
                return Mod(n, self.characteristic)
        raise MalformedInput(f"cannot coerce {n!r} into {self}")

    def is_element(self, x) -> bool:
        if self.kind == "rationals":
            return isinstance(x, Fraction)
        return isinstance(x, Mod) and x.p == self.characteristic

    def parse(self, s: str):
        if not isinstance(s, str):
            raise MalformedInput(f"scalar must be a string, got {s!r}")
        if self.kind == "rationals":
            if not _RAT_RE.match(s):
                raise MalformedInput(f"bad rational scalar {s!r}")
            return Fraction(s)
        if not _INT_RE.match(s):
            raise MalformedInput(f"bad residue scalar {s!r}")
        return Mod(int(s), self.characteristic)

    def fmt(self, x) -> str:
        return str(x)

    def __str__(self):
        return "Q" if self.kind == "rationals" else f"GF({self.characteristic})"


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


def parse_field_name(name: str) -> FieldSpec:
    """Parse "Q" or "GF(p)" as used in documents and CLI flags."""
    if name == "Q":
        return QQ
    m = re.match(r"^GF\((\d+)\)$", name)
    if not m:
        raise MalformedInput(f"unknown field name {name!r}")
    return GF(int(m.group(1)))


# ---------------------------------------------------------------------------
# vectors: plain tuples of scalars

def vec_zero(field: FieldSpec, n: int) -> tuple:
    return (field.zero,) * n


def vec_unit(field: FieldSpec, n: int, i: int) -> tuple:
    z, o = field.zero, field.one
    return tuple(o if j == i else z for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# integer lifts: exact law checks on plain Python ints


def _rows(data) -> list:
    """The innermost sequences of a nested tuple, in order."""
    if data and isinstance(data[0], (tuple, list)):
        return [row for x in data for row in _rows(x)]
    return [data]


def _renest(data, rows):
    """The nesting of data with its innermost sequences taken from rows."""
    if data and isinstance(data[0], (tuple, list)):
        return tuple(_renest(x, rows) for x in data)
    return next(rows)


def lift_to_ints(field: FieldSpec, data) -> tuple:
    """Lift a vector or nested tensor of field scalars to ints, once.

    Returns (ints, scale) with the nesting kept and x == ints / scale
    entrywise: over Q the numerators over the lcm of all denominators and
    that lcm, over GF(p) the residues and 1.  A product of lifted factors
    carries the product of their scales.
    """
    rows = _rows(data)
    if field.kind != "rationals":
        return _renest(data, iter([tuple([x.value for x in row]) for row in rows])), 1
    scale = lcm(*{x.denominator for row in rows for x in row})
    if scale == 1:
        ints = [tuple([x.numerator for x in row]) for row in rows]
    else:
        ints = [tuple([x.numerator * (scale // x.denominator) for x in row]) for row in rows]
    return _renest(data, iter(ints)), scale


def ints_differ(p: int, u, su: int, v, sv: int) -> bool:
    """Whether the int vectors u / su and v / sv differ over GF(p), or over Q when p == 0."""
    if su != sv:
        u, v = map(sv.__mul__, u), map(su.__mul__, v)
    if p:
        return any(map(p.__rmod__, map(sub, u, v)))
    return any(map(ne, u, v))


def ints_to_field(field: FieldSpec, data, scale: int):
    """The field vector or nested tensor ints / scale (undoes `lift_to_ints`)."""
    if field.kind == "rationals":
        of = lambda x: Fraction(x, scale)
    else:
        of = lambda x: Mod(x, field.characteristic)
    return _renest(data, iter([tuple([of(x) for x in row]) for row in _rows(data)]))


class Matrix:
    """Dense exact matrix over one field; entries are tuples of row tuples."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        rows = []
        width = cols
        for row in entries:
            row = tuple(field.of(x) if isinstance(x, int) else x for x in row)
            for x in row:
                if not field.is_element(x):
                    raise MalformedInput(f"entry {x!r} is not an element of {field}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MalformedInput("ragged matrix rows")
            rows.append(row)
        if width is None:
            raise MalformedInput("column count needed for a matrix with no rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, val):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _raw(field: FieldSpec, entries, cols: int) -> "Matrix":
        """Internal fast path: entries are already canonical field scalars."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(tuple(r) for r in entries))
        return m

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix._raw(field, [(z,) * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix._raw(
            field, [tuple(o if i == j else z for j in range(n)) for i in range(n)], n
        )

    @staticmethod
    def from_cols(field: FieldSpec, cols_list, rows: int | None = None) -> "Matrix":
        cols_list = list(cols_list)
        if not cols_list:
            if rows is None:
                raise MalformedInput("row count needed for a matrix with no columns")
            return Matrix._raw(field, [() for _ in range(rows)], 0)
        return Matrix._raw(field, list(zip(*cols_list)), len(cols_list))

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def column_list(self) -> list[tuple]:
        return [self.col(j) for j in range(self.cols)]

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise MalformedInput(
                f"vector of length {len(v)} fed to a {self.rows}x{self.cols} matrix"
            )
        z = self.field.zero
        out = []
        for row in self.entries:
            acc = z
            for c, x in zip(row, v):
                if c and x:
                    acc = acc + c * x
            out.append(acc)
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MalformedInput("matrix product across different fields")
        if self.cols != other.rows:
            raise MalformedInput(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            oi = out[i]
            for k, c in enumerate(row):
                if not c:
                    continue
                orow = other.entries[k]
                for j, x in enumerate(orow):
                    if x:
                        oi[j] = oi[j] + c * x
        return Matrix._raw(self.field, out, other.cols)

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._raw(
            self.field,
            [vec_add(r, s) for r, s in zip(self.entries, other.entries)],
            self.cols,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._raw(
            self.field,
            [vec_sub(r, s) for r, s in zip(self.entries, other.entries)],
            self.cols,
        )

    def scale(self, c) -> "Matrix":
        return Matrix._raw(self.field, [vec_scale(c, r) for r in self.entries], self.cols)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix._raw(self.field, [() for _ in range(self.cols)], 0)
        return Matrix._raw(self.field, list(zip(*self.entries)), self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MalformedInput("kron across different fields")
        z = self.field.zero
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[z] * cols for _ in range(rows)]
        for i1, r1 in enumerate(self.entries):
            for j1, a in enumerate(r1):
                if not a:
                    continue
                for i2, r2 in enumerate(other.entries):
                    base_r = i1 * other.rows + i2
                    base_c = j1 * other.cols
                    orow = out[base_r]
                    for j2, b in enumerate(r2):
                        if b:
                            orow[base_c + j2] = a * b
        return Matrix._raw(self.field, out, cols)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def _same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise MalformedInput("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MalformedInput(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: {body})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot columns (Gauss-Jordan, exact).

    Elimination iterates only over the pivot row's nonzero support, which
    keeps sparse structure-constant systems fast without leaving the dense
    representation.
    """
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    one = m.field.one
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        if piv[c] != one:
            inv = one / piv[c]
            for j in range(c, nc):
                if piv[j]:
                    piv[j] = piv[j] * inv
        support = [j for j in range(c, nc) if piv[j]]
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                continue
            ri = rows[i]
            for j in support:
                ri[j] = ri[j] - f * piv[j]
        pivots.append(c)
        r += 1
    return Matrix._raw(m.field, rows, nc), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel, one vector per free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    out = []
    z, o = m.field.zero, m.field.one
    for f in free:
        v = [z] * m.cols
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -red.entries[r][f]
        out.append(tuple(v))
    return out


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b or None; free variables are zeroed."""
    if a.field != b.field:
        raise MalformedInput("solve across different fields")
    if a.rows != b.rows:
        raise MalformedInput(f"a has {a.rows} rows but b has {b.rows}")
    aug = Matrix._raw(
        a.field,
        [ra + rb for ra, rb in zip(a.entries, b.entries)],
        a.cols + b.cols,
    )
    red, pivots = rref(aug)
    for c in pivots:
        if c >= a.cols:
            return None
    z = a.field.zero
    x = [[z] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        x[c] = list(red.entries[r][a.cols:])
    return Matrix._raw(a.field, x, b.cols)


def solve_vec(a: Matrix, b) -> tuple | None:
    res = solve(a, Matrix.from_cols(a.field, [b], rows=a.rows))
    return None if res is None else res.col(0)


def inverse(m: Matrix) -> Matrix | None:
    if m.rows != m.cols:
        return None
    x = solve(m, Matrix.identity(m.field, m.rows))
    if x is None:
        return None
    if m.mul(x) != Matrix.identity(m.field, m.rows):
        return None
    return x


class Subspace:
    """A subspace of k^n held as a canonical reduced-echelon row basis.

    Two subspaces are equal iff their echelon bases are identical.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, vectors=(), assume_canonical=False):
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise MalformedInput(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        if vectors:
            mat = (
                Matrix._raw(field, vectors, ambient_dim)
                if assume_canonical
                else Matrix(field, vectors, cols=ambient_dim)
            )
            red, pivots = rref(mat)
            basis = tuple(red.entries[i] for i in range(len(pivots)))
        else:
            basis, pivots = (), ()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, val):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, v) -> tuple | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise MalformedInput("vector length does not match ambient dimension")
        residual = list(v)
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = residual[p]
            coords.append(c)
            if c:
                for j, x in enumerate(row):
                    if x:
                        residual[j] = residual[j] - c * x
        if any(residual):
            return None
        return tuple(coords)

    def contains(self, v) -> bool:
        return self.coords_of(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._compatible(other)
        return Subspace(self.field, self.ambient_dim, list(self.basis) + list(other.basis))

    def basis_matrix(self) -> Matrix:
        """Basis vectors as columns, shape ambient_dim x dim."""
        return Matrix.from_cols(self.field, list(self.basis), rows=self.ambient_dim)

    def _compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise MalformedInput("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise MalformedInput(
                f"ambient mismatch {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    return Subspace(m.field, m.rows, m.column_list())


def kernel_space(m: Matrix) -> Subspace:
    return Subspace(m.field, m.cols, kernel_basis(m))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b via the kernel of the stacked-basis system."""
    a._compatible(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.field, a.ambient_dim)
    stacked = Matrix.from_cols(
        a.field,
        list(a.basis) + [vec_scale(-a.field.one, v) for v in b.basis],
        rows=a.ambient_dim,
    )
    vectors = []
    for kv in kernel_basis(stacked):
        coeffs = kv[: a.dim]
        w = vec_zero(a.field, a.ambient_dim)
        for c, row in zip(coeffs, a.basis):
            if c:
                w = vec_add(w, vec_scale(c, row))
        vectors.append(w)
    return Subspace(a.field, a.ambient_dim, vectors)


def quotient_basis(
    ambient_dim: int, relators: Subspace
) -> tuple[tuple[int, ...], Matrix, Matrix]:
    """Canonical complement data for k^ambient_dim modulo the relator span.

    Returns the representative standard-basis indices (the non-pivot columns
    of the relator echelon form), the projection onto the quotient in those
    coordinates, and a section with projection * section = identity.
    """
    if relators.ambient_dim != ambient_dim:
        raise MalformedInput("relator ambient dimension mismatch")
    field = relators.field
    pivot_set = set(relators.pivots)
    reps = tuple(j for j in range(ambient_dim) if j not in pivot_set)
    z, o = field.zero, field.one
    proj_rows = [[z] * ambient_dim for _ in reps]
    for i, f in enumerate(reps):
        proj_rows[i][f] = o
    for r, p in enumerate(relators.pivots):
        row = relators.basis[r]
        for i, f in enumerate(reps):
            if row[f]:
                proj_rows[i][p] = -row[f]
    projection = Matrix._raw(field, proj_rows, ambient_dim)
    sect_rows = [[z] * len(reps) for _ in range(ambient_dim)]
    for i, f in enumerate(reps):
        sect_rows[f][i] = o
    section = Matrix._raw(field, sect_rows, len(reps))
    return reps, projection, section
