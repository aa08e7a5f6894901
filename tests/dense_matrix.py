"""The dense exact matrix kernels that `exactla.Matrix` replaced, kept as a reference.

`DenseMatrix` stores every entry in tuples of row tuples, as the earlier
`exactla.Matrix` did, and its kernels scan those rows.  The functions below
are the earlier `rref`, `kernel_basis`, `solve`, `inverse` and
`quotient_basis` on that representation.  The differential tests compare the
sparse kernels with these by `repr`, which prints every entry with its type.
"""


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


class DenseMatrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols):
        self.field = field
        self.entries = tuple(tuple(r) for r in entries)
        self.rows = len(self.entries)
        self.cols = cols

    @staticmethod
    def of(m):
        """The dense copy of a sparse `exactla.Matrix`."""
        return DenseMatrix(m.field, m.entries, m.cols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return DenseMatrix(field, [tuple(o if i == j else z for j in range(n)) for i in range(n)], n)

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def apply(self, v):
        z = self.field.zero
        out = []
        for row in self.entries:
            acc = z
            for c, x in zip(row, v):
                if c and x:
                    acc = acc + c * x
            out.append(acc)
        return tuple(out)

    def mul(self, other):
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            oi = out[i]
            for k, c in enumerate(row):
                if not c:
                    continue
                for j, x in enumerate(other.entries[k]):
                    if x:
                        oi[j] = oi[j] + c * x
        return DenseMatrix(self.field, out, other.cols)

    def add(self, other):
        return DenseMatrix(self.field, [vec_add(r, s) for r, s in zip(self.entries, other.entries)], self.cols)

    def sub(self, other):
        return DenseMatrix(self.field, [vec_sub(r, s) for r, s in zip(self.entries, other.entries)], self.cols)

    def scale(self, c):
        return DenseMatrix(self.field, [vec_scale(c, r) for r in self.entries], self.cols)

    def transpose(self):
        if self.rows == 0:
            return DenseMatrix(self.field, [() for _ in range(self.cols)], 0)
        return DenseMatrix(self.field, list(zip(*self.entries)), self.rows)

    def kron(self, other):
        z = self.field.zero
        cols = self.cols * other.cols
        out = [[z] * cols for _ in range(self.rows * other.rows)]
        for i1, r1 in enumerate(self.entries):
            for j1, a in enumerate(r1):
                if not a:
                    continue
                for i2, r2 in enumerate(other.entries):
                    orow = out[i1 * other.rows + i2]
                    for j2, b in enumerate(r2):
                        if b:
                            orow[j1 * other.cols + j2] = a * b
        return DenseMatrix(self.field, out, cols)

    def __eq__(self, other):
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


def rref(m):
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
    return DenseMatrix(m.field, rows, nc), tuple(pivots)


def kernel_basis(m):
    red, pivots = rref(m)
    pivot_set = set(pivots)
    out = []
    z, o = m.field.zero, m.field.one
    for f in [c for c in range(m.cols) if c not in pivot_set]:
        v = [z] * m.cols
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -red.entries[r][f]
        out.append(tuple(v))
    return out


def solve(a, b):
    aug = DenseMatrix(a.field, [ra + rb for ra, rb in zip(a.entries, b.entries)], a.cols + b.cols)
    red, pivots = rref(aug)
    for c in pivots:
        if c >= a.cols:
            return None
    z = a.field.zero
    x = [[z] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        x[c] = list(red.entries[r][a.cols:])
    return DenseMatrix(a.field, x, b.cols)


def inverse(m):
    if m.rows != m.cols:
        return None
    x = solve(m, DenseMatrix.identity(m.field, m.rows))
    if x is None or m.mul(x) != DenseMatrix.identity(m.field, m.rows):
        return None
    return x


def echelon_basis(field, ambient_dim, vectors):
    """The canonical echelon basis of the span, as the earlier `Subspace` kept it."""
    if not vectors:
        return (), ()
    red, pivots = rref(DenseMatrix(field, vectors, ambient_dim))
    return tuple(red.entries[i] for i in range(len(pivots))), pivots


def quotient_basis(field, ambient_dim, basis, pivots):
    pivot_set = set(pivots)
    reps = tuple(j for j in range(ambient_dim) if j not in pivot_set)
    z, o = field.zero, field.one
    proj_rows = [[z] * ambient_dim for _ in reps]
    for i, f in enumerate(reps):
        proj_rows[i][f] = o
    for r, p in enumerate(pivots):
        for i, f in enumerate(reps):
            if basis[r][f]:
                proj_rows[i][p] = -basis[r][f]
    sect_rows = [[z] * len(reps) for _ in range(ambient_dim)]
    for i, f in enumerate(reps):
        sect_rows[f][i] = o
    return reps, DenseMatrix(field, proj_rows, ambient_dim), DenseMatrix(field, sect_rows, len(reps))


def coords_of(basis, pivots, v):
    residual = list(v)
    coords = []
    for row, p in zip(basis, pivots):
        c = residual[p]
        coords.append(c)
        if c:
            for j, x in enumerate(row):
                if x:
                    residual[j] = residual[j] - c * x
    if any(residual):
        return None
    return tuple(coords)
