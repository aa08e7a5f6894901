"""Exact field arithmetic and the sparse linear-algebra substrate.

Scalars are `fractions.Fraction` over the rationals and `Mod` residue classes
over a prime field, and `FieldSpec.parse_ints` is the one scalar grammar.  A
`Matrix` is stored as its lifted int columns (the nonzeros of each column as
ints over one scale) and a `Subspace` as its echelon rows on ints; field
scalars are views built when read.  The kernels below (products,
elimination, solving) run on those ints and follow the nonzeros.  Two
guarantees made here carry the whole package:

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
from math import gcd, lcm
from operator import ne, sub
import re

from .errors import MalformedInput

_RAT_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_INT_RE = re.compile(r"-?[0-9]+")


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster 2015); prime-field characteristics are capped below it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981 - 1


def _is_prime(p: int) -> bool:
    """Deterministic for 0 <= p <= MAX_CHARACTERISTIC."""
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
            if self.characteristic > MAX_CHARACTERISTIC:
                raise MalformedInput(
                    "prime-field characteristic above the supported bound "
                    f"{MAX_CHARACTERISTIC}"
                )
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

    def parse_ints(self, s: str) -> tuple:
        """(num, den), ints with the scalar string s == num / den and den > 0.

        The one scalar grammar: over Q an integer or "a/b" with b >= 1, not
        necessarily in lowest terms; over GF(p) an integer, any representative
        (den == 1).  Digits are ASCII, with an optional leading minus sign.
        """
        if not isinstance(s, str):
            raise MalformedInput(f"scalar must be a string, got {s!r}")
        if s == "0":  # the commonest scalar, in both grammars
            return 0, 1
        if self.kind == "rationals":
            if not _RAT_RE.fullmatch(s):
                raise MalformedInput(f"bad rational scalar {s!r}")
        elif not _INT_RE.fullmatch(s):
            raise MalformedInput(f"bad residue scalar {s!r}")
        num, _, den = s.partition("/")
        try:
            return int(num), int(den) if den else 1
        except ValueError as exc:  # the interpreter's limit on integer digits
            raise MalformedInput(f"scalar of {len(s)} characters: {exc}")

    def parse(self, s: str):
        num, den = self.parse_ints(s)
        return Fraction(num, den) if self.kind == "rationals" else Mod(num, self.characteristic)

    def fmt(self, x) -> str:
        return str(x)

    def __str__(self):
        return "Q" if self.kind == "rationals" else f"GF({self.characteristic})"


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


def parse_field_name(name: str) -> FieldSpec:
    """Parse "Q" or "GF(p)" as used in documents and CLI flags."""
    if not isinstance(name, str):
        raise MalformedInput(f"field name must be a string, got {name!r}")
    if name == "Q":
        return QQ
    m = re.fullmatch(r"GF\(([0-9]+)\)", name)
    if not m:
        raise MalformedInput(f"unknown field name {name!r}")
    digits = m.group(1)
    if len(digits) > len(str(MAX_CHARACTERISTIC)):
        # also keeps int() clear of the interpreter's digit limit
        raise MalformedInput(
            f"prime-field characteristic of {len(digits)} digits is above the supported bound"
        )
    return GF(int(digits))


# ---------------------------------------------------------------------------
# vectors: plain tuples of scalars

def vec_zero(field: FieldSpec, n: int) -> tuple:
    return (field.zero,) * n


def vec_unit(field: FieldSpec, n: int, i: int) -> tuple:
    z, o = field.zero, field.one
    return tuple(o if j == i else z for j in range(n))


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
    p = field.characteristic
    if field.kind == "rationals":
        of = Fraction if scale == 1 else lambda x: Fraction(x, scale)
    elif scale % p == 1:
        of = lambda x: Mod(x, p)
    else:
        inv = pow(scale, -1, p)
        of = lambda x: Mod(x * inv, p)
    return _renest(data, iter([tuple([of(x) for x in row]) for row in _rows(data)]))


def ints_rank(p: int, rows) -> int:
    """The rank over GF(p), or over Q when p == 0, of a matrix given by int rows."""
    return len(_int_echelon(p, [dict(enumerate(row)) for row in rows]))


def _int_echelon(p: int, rows) -> dict:
    """{pivot column: row} of int {column: int} rows reduced to echelon form.

    Each row is reduced by the pivot rows kept so far until its leading
    column is new: over GF(p) by residues against pivot rows scaled to 1,
    over Q (p == 0) fraction-free with the row's content divided out.
    """
    pivots = {}
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p} if p else {j: x for j, x in row.items() if x}
        while row:
            c = min(row)
            q = pivots.get(c)
            if q is None:
                inv = pow(row[c], -1, p) if p else 0
                pivots[c] = {j: x * inv % p for j, x in row.items()} if p else _primitive(row)
                break
            row = _int_clear(p, row, q, c)
    return pivots


def _int_clear(p: int, row: dict, q: dict, c) -> dict:
    """row with column c cleared by the pivot row q, zeros dropped."""
    f, lead = row[c], q[c]
    if p:
        out = {j: (row.get(j, 0) - f * q.get(j, 0)) % p for j in row.keys() | q.keys()}
        return {j: x for j, x in out.items() if x}
    out = {j: lead * row.get(j, 0) - f * q.get(j, 0) for j in row.keys() | q.keys()}
    return _primitive({j: x for j, x in out.items() if x})


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _int_reduced(p: int, rows) -> dict:
    """{pivot column: row} of {column: int} rows in reduced echelon form.

    `_int_echelon` reduces the rows, so the work follows the nonzeros; a last
    pass, from the rightmost pivot, clears each pivot column in the rows
    above.  Each row keeps its own scale, its pivot entry (1 over GF(p)).
    """
    pivot_rows = _int_echelon(p, rows)
    pivots = sorted(pivot_rows)
    for k in range(len(pivots) - 1, 0, -1):
        q = pivot_rows[pivots[k]]
        for c in pivots[:k]:
            if pivots[k] in pivot_rows[c]:
                pivot_rows[c] = _int_clear(p, pivot_rows[c], q, pivots[k])
    return pivot_rows


def _int_quotient(p: int, ambient_dim: int, rows) -> tuple:
    """(pivot_rows, reps, proj, scale): k^ambient_dim modulo the span of {index: int} rows.

    pivot_rows are the rows reduced by `_int_reduced`, reps the non-pivot
    indices, and proj[f] the {rep index: int} column at scale of the
    projection of e_f onto the quotient in the reps coordinates: e_f for a
    rep, minus the rest of its row for a pivot e_c.
    """
    pivot_rows = _int_reduced(p, rows)
    reps = tuple([f for f in range(ambient_dim) if f not in pivot_rows])
    index = {f: i for i, f in enumerate(reps)}
    pivots, scaled, scale = _at_one_scale(pivot_rows)
    at_scale = dict(zip(pivots, scaled))
    proj = tuple([{index[f]: scale} if f in index else
                  {index[g]: -x for g, x in at_scale[f].items() if g != f}
                  for f in range(ambient_dim)])
    return pivot_rows, reps, proj, scale


def _at_one_scale(pivot_rows: dict) -> tuple:
    """(pivots, rows, scale): the rows of `_int_reduced` by pivot, each
    multiplied so that its pivot entry is scale, the lcm of the pivot entries."""
    pivots = sorted(pivot_rows)
    scale = lcm(*[pivot_rows[c][c] for c in pivots])
    rows = []
    for c in pivots:
        f = scale // pivot_rows[c][c]
        rows.append({j: x * f for j, x in pivot_rows[c].items()})
    return pivots, rows, scale


def _int_kernel(p: int, rows, n: int) -> tuple:
    """(vectors, scale): the canonical basis of the right kernel of the
    {column: int} rows in n unknowns, one {index: int} vector per free column f,
    scale at f and 0 at the other free columns."""
    pivots, red, scale = _at_one_scale(_int_reduced(p, rows))
    free = {}
    for c, row in zip(pivots, red):
        for f, x in row.items():
            if f != c:
                free.setdefault(f, {})[c] = -x
    pivot_set = set(pivots)
    return [{**free.get(f, {}), f: scale} for f in range(n) if f not in pivot_set], scale


def _int_transpose(vectors, n: int) -> list:
    """The n {index: int} vectors of the transpose of vectors, given as (index, int) pairs."""
    out = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for j, x in v:
            out[j][i] = x
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


def _lift_vectors(field: FieldSpec, vectors) -> tuple:
    """([{index: int}], scale): vectors of field scalars lifted at one scale,
    ints coerced into the field and anything else malformed."""
    checked = []
    for v in vectors:
        v = tuple([field.of(x) if isinstance(x, int) else x for x in v])
        for x in v:
            if not field.is_element(x):
                raise MalformedInput(f"entry {x!r} is not an element of {field}")
        checked.append(v)
    ints, scale = lift_to_ints(field, tuple(checked))
    return [{i: x for i, x in enumerate(v) if x} for v in ints], scale


def _canonical(field: FieldSpec, cols, scale: int) -> tuple:
    """The `Matrix.col_ints` form of the {row: int} columns cols / scale: over Q
    the content shared with the scale divided out, over GF(p) residues at scale 1."""
    p = field.characteristic
    if p:
        inv = 1 if scale % p == 1 else pow(scale, -1, p)
        return tuple([tuple(sorted([(r, y) for r, x in col.items() if (y := x * inv % p)]))
                      for col in cols]), 1
    lifted = [sorted([(r, x) for r, x in col.items() if x]) for col in cols]
    g = 1 if scale == 1 else gcd(scale, *[x for col in lifted for _, x in col])
    if scale < 0:
        g = -g
    if g != 1:
        lifted = [[(r, x // g) for r, x in col] for col in lifted]
    return tuple(map(tuple, lifted)), scale // g


class Matrix:
    """Exact matrix over one field, stored as its lifted int columns.

    The state is `col_ints()`: per column the (row, int) pairs of its
    nonzeros, by row, and one scale; entry (r, c) is the int over the scale.
    The form is canonical (over Q the content shared with the scale divided
    out, over GF(p) residues at scale 1), so `==` and `hash` compare ints.
    Field scalars are views: ``nz`` (the (column, value) pairs of each row,
    kept once read), ``entries``, `col` and `col_nz`.
    """

    __slots__ = ("field", "rows", "cols", "_ints", "_nz")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        rows = [tuple(row) for row in entries]
        if cols is None:
            if not rows:
                raise MalformedInput("column count needed for a matrix with no rows")
            cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise MalformedInput("ragged matrix rows")
        lifted = _lift_vectors(field, zip(*rows) if rows else [()] * cols)
        self._init(field, len(rows), *_canonical(field, *lifted))

    def _init(self, field, rows, cols, scale):
        for name, value in zip(Matrix.__slots__, (field, rows, len(cols), (cols, scale), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, val):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_int_cols(field: FieldSpec, cols, scale: int, rows: int) -> "Matrix":
        """The matrix whose column c is the {row: int} dict cols[c] / scale; no
        field scalar is made."""
        m = object.__new__(Matrix)
        m._init(field, rows, *_canonical(field, cols, scale))
        return m

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix.from_int_cols(field, [{}] * cols, 1, rows)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix.from_int_cols(field, [{i: 1} for i in range(n)], 1, n)

    @staticmethod
    def from_cols(field: FieldSpec, cols_list, rows: int | None = None) -> "Matrix":
        cols_list = [tuple(col) for col in cols_list]
        if cols_list:
            rows = len(cols_list[0])
        elif rows is None:
            raise MalformedInput("row count needed for a matrix with no columns")
        if any(len(col) != rows for col in cols_list):
            raise MalformedInput("ragged matrix columns")
        return Matrix.from_int_cols(field, *_lift_vectors(field, cols_list), rows)

    def col_ints(self) -> tuple:
        """(cols, scale), the state: per column the (row, int) pairs of its nonzeros."""
        return self._ints

    def col_nz(self) -> tuple:
        """Per column c, the (row, value) pairs of its nonzeros, by row."""
        cols, scale = self._ints
        values = iter(ints_to_field(self.field, tuple([x for col in cols for _, x in col]), scale))
        return tuple([tuple([(r, next(values)) for r, _ in col]) for col in cols])

    @property
    def nz(self) -> tuple:
        """Per row r, the (column, value) pairs of its nonzeros, by column; kept once read."""
        if self._nz is None:
            out = [[] for _ in range(self.rows)]
            for c, col in enumerate(self.col_nz()):
                for r, x in col:
                    out[r].append((c, x))
            object.__setattr__(self, "_nz", tuple(map(tuple, out)))
        return self._nz

    @property
    def entries(self) -> tuple:
        """The dense rows, rebuilt on every read."""
        z = self.field.zero
        out = []
        for row in self.nz:
            dense = [z] * self.cols
            for j, x in row:
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def col(self, j: int) -> tuple:
        col, scale = self._ints[0][j], self._ints[1]
        out = [self.field.zero] * self.rows
        for (r, _), x in zip(col, ints_to_field(self.field, tuple([x for _, x in col]), scale)):
            out[r] = x
        return tuple(out)

    def column_list(self) -> list[tuple]:
        return [self.col(j) for j in range(self.cols)]

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise MalformedInput(
                f"vector of length {len(v)} fed to a {self.rows}x{self.cols} matrix"
            )
        xs, sx = lift_to_ints(self.field, tuple(map(self.field.of, v)))
        cols, scale = self._ints
        return ints_to_field(self.field, tuple(_apply(cols, enumerate(xs), self.rows)), scale * sx)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MalformedInput("matrix product across different fields")
        if self.cols != other.rows:
            raise MalformedInput(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        (cols, s), (ocols, so) = self._ints, other._ints
        out = [dict(enumerate(_apply(cols, col, self.rows))) for col in ocols]
        return Matrix.from_int_cols(self.field, out, s * so, self.rows)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        self._same_shape(other)
        (a, sa), (b, sb) = self._ints, other._ints
        out = []
        for ca, cb in zip(a, b):
            col = {r: x * sb for r, x in ca}
            for r, x in cb:
                col[r] = col.get(r, 0) + sign * sa * x
            out.append(col)
        return Matrix.from_int_cols(self.field, out, sa * sb, self.rows)

    def add(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def scale(self, c) -> "Matrix":
        (x,), sx = lift_to_ints(self.field, (self.field.of(c),))
        cols, s = self._ints
        return Matrix.from_int_cols(self.field, [{r: v * x for r, v in col} for col in cols], s * sx, self.rows)

    def transpose(self) -> "Matrix":
        cols, s = self._ints
        return Matrix.from_int_cols(self.field, _int_transpose(cols, self.rows), s, self.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MalformedInput("kron across different fields")
        (a, sa), (b, sb), orows = self._ints, other._ints, other.rows
        out = [{r1 * orows + r2: x * y for r1, x in c1 for r2, y in c2} for c1 in a for c2 in b]
        return Matrix.from_int_cols(self.field, out, sa * sb, self.rows * orows)

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
        return self.field == other.field and self.rows == other.rows and self._ints == other._ints

    def __hash__(self):
        return hash((self.field, self.rows, self._ints))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: {body})"


def _row_dicts(m: Matrix) -> list:
    """The rows of m as {column: int} dicts, at the scale of `col_ints`."""
    return _int_transpose(m.col_ints()[0], m.rows)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot columns (Gauss-Jordan, exact)."""
    pivots, rows, scale = _at_one_scale(_int_reduced(m.field.characteristic, _row_dicts(m)))
    cols = _int_transpose([row.items() for row in rows], m.cols)
    return Matrix.from_int_cols(m.field, cols, scale, m.rows), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel, one vector per free column."""
    vectors, scale = _int_kernel(m.field.characteristic, _row_dicts(m), m.cols)
    dense = tuple([tuple([v.get(j, 0) for j in range(m.cols)]) for v in vectors])
    return list(ints_to_field(m.field, dense, scale))


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b or None; free variables are zeroed."""
    if a.field != b.field:
        raise MalformedInput("solve across different fields")
    if a.rows != b.rows:
        raise MalformedInput(f"a has {a.rows} rows but b has {b.rows}")
    (acols, sa), (bcols, sb), ac = a.col_ints(), b.col_ints(), a.cols
    aug = [[(r, x * sb) for r, x in col] for col in acols] + [[(r, x * sa) for r, x in col] for col in bcols]
    pivots, rows, scale = _at_one_scale(_int_reduced(a.field.characteristic, _int_transpose(aug, a.rows)))
    if pivots and pivots[-1] >= ac:
        return None
    x = [{} for _ in range(b.cols)]
    for c, row in zip(pivots, rows):
        for j, v in row.items():
            if j >= ac:
                x[j - ac][c] = v
    return Matrix.from_int_cols(a.field, x, scale, ac)


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
    """A subspace of k^n held as its canonical reduced-echelon row basis, on ints.

    The state is `ints()` with ``pivots``: the echelon rows as dense int rows
    at one scale, each equal to the scale at its own pivot and 0 at the
    others.  ``basis`` (kept once read) and ``nz`` are field views.  Two
    subspaces are equal iff their echelon bases are identical.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_ints", "_basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, vectors=()):
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise MalformedInput(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows, _ = _lift_vectors(field, vectors)
        self._init(field, ambient_dim, _int_reduced(field.characteristic, rows))

    @staticmethod
    def row_space(m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        return Subspace._reduced(m.field, m.cols, _int_reduced(m.field.characteristic, _row_dicts(m)))

    @staticmethod
    def _reduced(field: FieldSpec, ambient_dim: int, pivot_rows: dict) -> "Subspace":
        """The span of rows that `_int_reduced` returned, taken as they are."""
        s = object.__new__(Subspace)
        s._init(field, ambient_dim, pivot_rows)
        return s

    def _init(self, field, ambient_dim, pivot_rows):
        pivots, rows, scale = _at_one_scale(pivot_rows)
        dense = []
        for row in rows:
            out = [0] * ambient_dim
            for j, x in row.items():
                out[j] = x
            dense.append(tuple(out))
        for name, value in zip(Subspace.__slots__, (field, ambient_dim, tuple(pivots), (tuple(dense), scale), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, val):
        raise AttributeError("Subspace is immutable")

    @property
    def basis(self) -> tuple:
        """The echelon rows as field vectors, kept once read."""
        if self._basis is None:
            object.__setattr__(self, "_basis", ints_to_field(self.field, *self._ints))
        return self._basis

    @property
    def nz(self) -> tuple:
        """The echelon rows as nonzero (index, value) pairs, like `Matrix.nz`."""
        return tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in self.basis])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def coords_of(self, v) -> tuple | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise MalformedInput("vector length does not match ambient dimension")
        xs, sx = lift_to_ints(self.field, tuple(map(self.field.of, v)))
        if not self.contains_ints(xs):
            return None
        return ints_to_field(self.field, tuple([xs[c] for c in self.pivots]), sx)

    def contains(self, v) -> bool:
        return self.coords_of(v) is not None

    def ints(self) -> tuple:
        """(rows, scale), the state: the echelon basis as dense int rows at one scale."""
        return self._ints

    def contains_ints(self, x) -> bool:
        """`contains` for an int vector x, at any scale.

        x / s lies in the space iff scale * x minus x[pivot] times each lifted
        echelon row vanishes (each row is scale at its pivot, 0 at the others).
        """
        rows, scale = self._ints
        res = [scale * v for v in x]
        for row, piv in zip(rows, self.pivots):
            c = x[piv]
            if c:
                for j, v in enumerate(row):
                    if v:
                        res[j] -= c * v
        p = self.field.characteristic
        return not any([v % p for v in res] if p else res)

    def basis_matrix(self) -> Matrix:
        """Basis vectors as columns, shape ambient_dim x dim."""
        rows, scale = self._ints
        return Matrix.from_int_cols(self.field, [dict(enumerate(row)) for row in rows], scale, self.ambient_dim)

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
            and self._ints == other._ints
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._ints))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    cols = [dict(col) for col in m.col_ints()[0]]
    return Subspace._reduced(m.field, m.rows, _int_reduced(m.field.characteristic, cols))


def kernel_space(m: Matrix) -> Subspace:
    p = m.field.characteristic
    return Subspace._reduced(m.field, m.cols, _int_reduced(p, _int_kernel(p, _row_dicts(m), m.cols)[0]))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b via the kernel of the stacked-basis system."""
    a._compatible(b)
    p, n = a.field.characteristic, a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.field, n)
    arows, brows = a.ints()[0], b.ints()[0]
    # per coordinate j, the coefficients of the a-rows and of minus the b-rows
    system = [{} for _ in range(n)]
    for off, rows, sign in ((0, arows, 1), (a.dim, brows, -1)):
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    system[j][off + i] = sign * x
    acols = [[(j, x) for j, x in enumerate(row) if x] for row in arows]
    vectors = [dict(enumerate(_apply(acols, [(i, c) for i, c in kv.items() if i < a.dim], n)))
               for kv in _int_kernel(p, system, a.dim + b.dim)[0]]
    return Subspace._reduced(a.field, n, _int_reduced(p, vectors))
