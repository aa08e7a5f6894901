"""Exact field arithmetic and the sparse linear-algebra substrate.

Scalars are `fractions.Fraction` over the rationals and `Mod` residue classes
over a prime field.  A `Matrix` stores only the nonzeros of each row, and the
kernels below (products, elimination, solving) iterate over those alone.
Two guarantees made here carry the whole package:

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
from operator import add, ne, sub
import re

from .errors import MalformedInput

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_INT_RE = re.compile(r"^-?\d+$")


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

    def parse(self, s: str):
        if not isinstance(s, str):
            raise MalformedInput(f"scalar must be a string, got {s!r}")
        try:
            if self.kind == "rationals":
                if not _RAT_RE.match(s):
                    raise MalformedInput(f"bad rational scalar {s!r}")
                num, _, den = s.partition("/")
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            if not _INT_RE.match(s):
                raise MalformedInput(f"bad residue scalar {s!r}")
            return Mod(int(s), self.characteristic)
        except ValueError as exc:  # the interpreter's limit on integer digits
            raise MalformedInput(f"scalar of {len(s)} characters: {exc}")

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
    m = re.match(r"^GF\((\d+)\)$", name)
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


class Matrix:
    """Exact matrix over one field, stored as the nonzeros of each row.

    ``nz[r]`` holds the (column, value) pairs of row r whose value is nonzero,
    in increasing column order.  That form is canonical, so equality and
    hashing stay structural; ``entries`` is a derived dense view.
    """

    __slots__ = ("field", "rows", "cols", "nz", "_col_nz", "_col_ints")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        nz = []
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
            nz.append(tuple([(j, x) for j, x in enumerate(row) if x]))
        if width is None:
            raise MalformedInput("column count needed for a matrix with no rows")
        self._init(field, tuple(nz), width)

    def _init(self, field, nz, cols):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(nz))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nz", nz)
        object.__setattr__(self, "_col_nz", None)
        object.__setattr__(self, "_col_ints", None)

    def __setattr__(self, name, val):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _sparse(field: FieldSpec, nz, cols: int) -> "Matrix":
        """Internal fast path: nz is already a tuple of canonical nonzero rows."""
        m = object.__new__(Matrix)
        m._init(field, nz, cols)
        return m

    @staticmethod
    def _from_dicts(field: FieldSpec, rows, cols: int) -> "Matrix":
        """Internal: rows given as {column: value} dicts, zero values allowed."""
        nz = tuple([tuple([(j, x) for j, x in sorted(r.items()) if x]) if r else () for r in rows])
        return Matrix._sparse(field, nz, cols)

    @staticmethod
    def from_int_cols(field: FieldSpec, cols, scale: int, rows: int) -> "Matrix":
        """The matrix whose column c is the {row: int} dict cols[c] / scale, with its
        lift kept as `col_ints` gives it: over Q with the content shared with the
        scale divided out (the lcm of the denominators remains), over GF(p) residues."""
        p = field.characteristic
        if p and scale % p != 1:
            inv = pow(scale, -1, p)
            cols, scale = [{r: x * inv for r, x in col.items()} for col in cols], 1
        lifted = [sorted([(r, x % p if p else x) for r, x in col.items() if (x % p if p else x)])
                  for col in cols]
        g = scale if p else gcd(scale, *[x for col in lifted for _, x in col])
        if g > 1 and not p:
            lifted = [[(r, x // g) for r, x in col] for col in lifted]
        scale //= g
        values = iter(ints_to_field(field, tuple([x for col in lifted for _, x in col]), scale))
        out = [[] for _ in range(rows)]
        for c, col in enumerate(lifted):
            for r, _ in col:
                out[r].append((c, next(values)))
        m = Matrix._sparse(field, tuple(map(tuple, out)), len(cols))
        object.__setattr__(m, "_col_ints", (tuple(map(tuple, lifted)), scale))
        return m

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._sparse(field, ((),) * rows, cols)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        o = field.one
        return Matrix._sparse(field, tuple([((i, o),) for i in range(n)]), n)

    @staticmethod
    def from_cols(field: FieldSpec, cols_list, rows: int | None = None) -> "Matrix":
        cols_list = list(cols_list)
        if not cols_list:
            if rows is None:
                raise MalformedInput("row count needed for a matrix with no columns")
            return Matrix.zeros(field, rows, 0)
        out = [[] for _ in cols_list[0]]
        for j, col in enumerate(cols_list):
            for i, x in enumerate(col):
                if x:
                    out[i].append((j, x))
        return Matrix._sparse(field, tuple(map(tuple, out)), len(cols_list))

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

    def col_nz(self) -> tuple:
        """Per column c, the (row, value) pairs of its nonzeros, by row."""
        if self._col_nz is None:
            out = [[] for _ in range(self.cols)]
            for r, row in enumerate(self.nz):
                for j, x in row:
                    out[j].append((r, x))
            object.__setattr__(self, "_col_nz", tuple(map(tuple, out)))
        return self._col_nz

    def col_ints(self) -> tuple:
        """(cols, scale): `col_nz()` with its values lifted by `lift_to_ints`, kept."""
        if self._col_ints is None:
            cols = self.col_nz()
            values, scale = lift_to_ints(self.field, tuple([x for col in cols for _, x in col]))
            it = iter(values)
            lifted = tuple([tuple([(r, next(it)) for r, _ in col]) for col in cols])
            object.__setattr__(self, "_col_ints", (lifted, scale))
        return self._col_ints

    def col(self, j: int) -> tuple:
        out = [self.field.zero] * self.rows
        for r, x in self.col_nz()[j]:
            out[r] = x
        return tuple(out)

    def column_list(self) -> list[tuple]:
        return [self.col(j) for j in range(self.cols)]

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise MalformedInput(
                f"vector of length {len(v)} fed to a {self.rows}x{self.cols} matrix"
            )
        z = self.field.zero
        out = []
        for row in self.nz:
            acc = z
            for j, c in row:
                x = v[j]
                if x:
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
        one = self.field.one
        onz = other.nz
        out = []
        for row in self.nz:
            if len(row) == 1:
                k, c = row[0]
                orow = onz[k]
                out.append(orow if c == one else tuple([(j, c * x) for j, x in orow]))
                continue
            acc = {}
            for k, c in row:
                for j, x in onz[k]:
                    if j in acc:
                        acc[j] = acc[j] + c * x
                    else:
                        acc[j] = c * x
            out.append(tuple([(j, x) for j, x in sorted(acc.items()) if x]))
        return Matrix._sparse(self.field, tuple(out), other.cols)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        self._same_shape(other)
        z = self.field.zero
        out = []
        for r, s in zip(self.nz, other.nz):
            acc = dict(r)
            for j, x in s:
                acc[j] = op(acc.get(j, z), x)
            out.append(acc)
        return Matrix._from_dicts(self.field, out, self.cols)

    def add(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub)

    def scale(self, c) -> "Matrix":
        if not c:
            return Matrix.zeros(self.field, self.rows, self.cols)
        return Matrix._sparse(
            self.field, tuple([tuple([(j, c * x) for j, x in row]) for row in self.nz]), self.cols
        )

    def transpose(self) -> "Matrix":
        return Matrix._sparse(self.field, self.col_nz(), self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MalformedInput("kron across different fields")
        oc = other.cols
        out = []
        for r1 in self.nz:
            for r2 in other.nz:
                out.append(tuple([(j1 * oc + j2, a * b) for j1, a in r1 for j2, b in r2]))
        return Matrix._sparse(self.field, tuple(out), self.cols * oc)

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
        return self.field == other.field and self.cols == other.cols and self.nz == other.nz

    def __hash__(self):
        return hash((self.field, self.cols, self.nz))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: {body})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot columns (Gauss-Jordan, exact)."""
    nz, pivots = _field_rows(m.field, _int_reduced(m.field.characteristic, _row_ints(m)))
    return Matrix._sparse(m.field, nz + ((),) * (m.rows - len(nz)), m.cols), pivots


def _row_ints(m: Matrix) -> list:
    """The rows of m as {column: int} dicts, each row lifted on its own."""
    if m.field.characteristic:
        return [{j: x.value for j, x in row} for row in m.nz]
    rows = []
    for row in m.nz:
        d = lcm(*[x.denominator for _, x in row])
        rows.append({j: x.numerator * (d // x.denominator) for j, x in row})
    return rows


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


def _field_rows(field: FieldSpec, pivot_rows: dict) -> tuple:
    """(nz, pivots): the rows of `_int_reduced` as field rows, each divided by its pivot entry."""
    pivots = sorted(pivot_rows)
    nz = []
    for c in pivots:
        cols, xs = zip(*sorted(pivot_rows[c].items()))
        nz.append(tuple(zip(cols, ints_to_field(field, xs, pivot_rows[c][c]))))
    return tuple(nz), tuple(pivots)


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
    scale = lcm(*[row[c] for c, row in pivot_rows.items()])
    proj = tuple([{index[f]: scale} if f in index else
                  {index[g]: -x * (scale // pivot_rows[f][f]) for g, x in pivot_rows[f].items() if g != f}
                  for f in range(ambient_dim)])
    return pivot_rows, reps, proj, scale


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _kernel_nz(m: Matrix) -> list[tuple]:
    """The canonical kernel basis of `kernel_basis`, as nonzero (index, value) rows."""
    red, pivots = rref(m)
    one = m.field.one
    free = {}
    for r, c in enumerate(pivots):
        for f, x in red.nz[r][1:]:
            free.setdefault(f, []).append((c, -x))
    pivot_set = set(pivots)
    return [
        tuple(free.get(f, ())) + ((f, one),) for f in range(m.cols) if f not in pivot_set
    ]


def kernel_basis(m: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel, one vector per free column."""
    dense = Matrix._sparse(m.field, tuple(_kernel_nz(m)), m.cols).entries
    return list(dense)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b or None; free variables are zeroed."""
    if a.field != b.field:
        raise MalformedInput("solve across different fields")
    if a.rows != b.rows:
        raise MalformedInput(f"a has {a.rows} rows but b has {b.rows}")
    ac = a.cols
    aug = Matrix._sparse(
        a.field,
        tuple([ra + tuple([(ac + j, x) for j, x in rb]) for ra, rb in zip(a.nz, b.nz)]),
        ac + b.cols,
    )
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= ac:
        return None
    x = [()] * ac
    for r, c in enumerate(pivots):
        x[c] = tuple([(j - ac, v) for j, v in red.nz[r] if j >= ac])
    return Matrix._sparse(a.field, tuple(x), b.cols)


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

    ``nz`` holds the echelon rows as nonzero (index, value) pairs, like
    `Matrix.nz`; ``basis`` is the same rows as dense vectors.  Two subspaces
    are equal iff their echelon bases are identical.
    """

    __slots__ = ("field", "ambient_dim", "nz", "pivots", "_basis", "_ints")

    def __init__(self, field: FieldSpec, ambient_dim: int, vectors=()):
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise MalformedInput(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows = _row_ints(Matrix(field, vectors, cols=ambient_dim))
        self._init(field, ambient_dim, _field_rows(field, _int_reduced(field.characteristic, rows)))

    @staticmethod
    def row_space(m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        return Subspace._reduced(m.field, m.cols, _int_reduced(m.field.characteristic, _row_ints(m)))

    @staticmethod
    def _reduced(field: FieldSpec, ambient_dim: int, pivot_rows: dict) -> "Subspace":
        """The span of rows that `_int_reduced` returned, taken as they are."""
        s = object.__new__(Subspace)
        s._init(field, ambient_dim, _field_rows(field, pivot_rows))
        return s

    def _init(self, field, ambient_dim, echelon):
        nz, pivots = echelon
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "nz", nz)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, val):
        raise AttributeError("Subspace is immutable")

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            dense = Matrix._sparse(self.field, self.nz, self.ambient_dim).entries
            object.__setattr__(self, "_basis", dense)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.nz)

    def coords_of(self, v) -> tuple | None:
        """Coordinates of v in the echelon basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise MalformedInput("vector length does not match ambient dimension")
        residual = list(v)
        coords = []
        for row, p in zip(self.nz, self.pivots):
            c = residual[p]
            coords.append(c)
            if c:
                for j, x in row:
                    residual[j] = residual[j] - c * x
        if any(residual):
            return None
        return tuple(coords)

    def contains(self, v) -> bool:
        return self.coords_of(v) is not None

    def ints(self) -> tuple:
        """(rows, scale): the echelon basis as dense rows lifted by `lift_to_ints`, kept."""
        if self._ints is None:
            object.__setattr__(self, "_ints", lift_to_ints(self.field, self.basis))
        return self._ints

    def contains_ints(self, x) -> bool:
        """`contains` for an int vector x, at any scale.

        x / s lies in the space iff scale * x minus x[pivot] times each lifted
        echelon row vanishes (each row is scale at its pivot, 0 at the others).
        """
        rows, scale = self.ints()
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
        return Matrix._sparse(self.field, self.nz, self.ambient_dim).transpose()

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
            and self.nz == other.nz
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.nz))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    return Subspace.row_space(m.transpose())


def kernel_space(m: Matrix) -> Subspace:
    return Subspace.row_space(Matrix._sparse(m.field, tuple(_kernel_nz(m)), m.cols))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b via the kernel of the stacked-basis system."""
    a._compatible(b)
    field = a.field
    if a.dim == 0 or b.dim == 0:
        return Subspace(field, a.ambient_dim)
    neg = -field.one
    stacked = Matrix._sparse(
        field,
        a.nz + tuple([tuple([(j, neg * x) for j, x in row]) for row in b.nz]),
        a.ambient_dim,
    ).transpose()
    vectors = []
    for kv in _kernel_nz(stacked):
        w = {}
        for i, c in kv:
            if i >= a.dim:
                break
            for j, x in a.nz[i]:
                w[j] = w[j] + c * x if j in w else c * x
        vectors.append(w)
    return Subspace.row_space(Matrix._from_dicts(field, vectors, a.ambient_dim))

