"""The weak-bialgebra core: axioms, counital maps, lemma suite, antipodes.

A `WeakBialgebra` only comes out of `build_weak_bialgebra`, which verifies
the structure laws and the three weak-bialgebra axioms exhaustively on basis
tuples before caching the four counital matrices and the target/source
subalgebras.  Derived data is always recomputed, never trusted from callers.

Every law here is decided on Python ints (`exactla.lift_to_ints`).  Each
immutable object holds its own int tables, lifted on first use: the algebra
and coalgebra their structure tensors (`FiniteAlgebra.ints`,
`FiniteCoalgebra.ints`), the counital maps and an antipode their columns
(`Matrix.col_ints`), H_t and H_s their echelon bases (`Subspace.ints`).  A
failing side is rebuilt as field elements for its `Violation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from .errors import (
    AxiomViolation,
    InternalInconsistency,
    MalformedInput,
    Verdict,
    Violation,
)
from .exactla import (
    FieldSpec,
    Matrix,
    Subspace,
    _apply,
    column_space,
    ints_differ,
    ints_rank,
    ints_to_field,
    kernel_basis,
    kernel_space,
    lift_to_ints,
    solve,
)
from .structure import (
    FiniteAlgebra,
    FiniteCoalgebra,
    _comul,
    _mul,
    check_algebra,
    check_coalgebra,
    comultiply,
    coopposite,
    counit_of,
    dual,
    law_violations,
    multiply,
    opposite,
)

COUNITAL_KINDS = ("t", "s", "t'", "s'")


class WeakBialgebra:
    """A verified weak bialgebra with cached counital data.

    Construct through `build_weak_bialgebra`; the constructor itself trusts
    its arguments and is internal.
    """

    __slots__ = (
        "alg",
        "coa",
        "eps_t",
        "eps_s",
        "eps_t_prime",
        "eps_s_prime",
        "ht",
        "hs",
        "antipode",
        "blocks",
        "_comodule_ints",
        "_eps_table",
    )

    def __init__(self, alg, coa, eps, ht, hs, antipode=None, blocks=None):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "coa", coa)
        object.__setattr__(self, "eps_t", eps["t"])
        object.__setattr__(self, "eps_s", eps["s"])
        object.__setattr__(self, "eps_t_prime", eps["t'"])
        object.__setattr__(self, "eps_s_prime", eps["s'"])
        object.__setattr__(self, "ht", ht)
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_comodule_ints", None)
        object.__setattr__(self, "_eps_table", None)

    def __setattr__(self, name, val):
        raise AttributeError("WeakBialgebra is immutable")

    @property
    def field(self) -> FieldSpec:
        return self.alg.field

    @property
    def dim(self) -> int:
        return len(self.alg.labels)

    @property
    def labels(self):
        return self.alg.labels

    @property
    def mult(self):
        return self.alg.mult

    @property
    def unit(self):
        return self.alg.unit

    @property
    def comult(self):
        return self.coa.comult

    @property
    def counit(self):
        return self.coa.counit

    def multiply(self, x, y):
        return multiply(self.alg, x, y)

    def comultiply(self, x):
        return comultiply(self.coa, x)

    def counit_of(self, x):
        return counit_of(self.coa, x)

    def comult_matrix(self) -> Matrix:
        """Delta as an (n*n) x n matrix on column vectors."""
        n = self.dim
        dnz, sd, _, _ = self.coa.ints()
        cols = [{a * n + b: d for a, b, d in terms} for terms in dnz]
        return Matrix.from_int_cols(self.field, cols, sd, n * n)

    def mult_matrix(self, x, right: bool = False) -> Matrix:
        """Left multiplication by x (right multiplication with right=True), as a matrix."""
        n = self.dim
        mnz, sm, _, _ = self.alg.ints()
        xs, sx = lift_to_ints(self.field, tuple(x))
        cols = [{} for _ in range(n)]
        for i, c in enumerate(xs):
            if c:
                for j in range(n):
                    for k, v in mnz[j][i] if right else mnz[i][j]:
                        cols[j][k] = cols[j].get(k, 0) + c * v
        return Matrix.from_int_cols(self.field, cols, sx * sm, n)

    def eps_pair_ints(self) -> tuple:
        """(e, scale) with e[j][k] / scale = eps(b_j b_k), lifted on first use and kept."""
        if self._eps_table is None:
            mnz, sm, _, _ = self.alg.ints()
            _, _, eps, se = self.coa.ints()
            e = tuple(map(tuple, _eps_pairs(mnz, eps)))
            object.__setattr__(self, "_eps_table", (e, sm * se))
        return self._eps_table

    def comodule_ints(self):
        """(L, R, sp, Y, sy), the tables of the comodule kernels, lifted on first
        use and kept: L[j][i] / sp = eps(eps_s'(b_j) b_i), R[j][i] / sp =
        eps(b_i eps_s(b_j)), and Y holds per H_s basis vector y the int rows
        (eps(y b_j))_j and (eps(b_j y))_j at scale sy."""
        if self._comodule_ints is None:
            e, se = self.eps_pair_ints()
            et = tuple(zip(*e))
            (lc, sl), (rc, sr) = self.eps_s_prime.col_ints(), self.eps_s.col_ints()
            left = tuple([_rows_sum([(c, v * sr) for c, v in col], e) for col in lc])
            right = tuple([_rows_sum([(c, v * sl) for c, v in col], et) for col in rc])
            ys, sy = self.hs.ints()
            terms = [[(k, v) for k, v in enumerate(y) if v] for y in ys]
            rows = tuple([(_rows_sum(t, e), _rows_sum(t, et)) for t in terms])
            tables = (left, right, sl * sr * se, rows, sy * se)
            object.__setattr__(self, "_comodule_ints", tables)
        return self._comodule_ints

    def with_antipode(self, s: Matrix) -> "WeakBialgebra":
        verdict = verify_antipode(self, s)
        if not verdict.ok:
            raise AxiomViolation(verdict, "antipode verification")
        return self._with(antipode=s)

    def with_blocks(self, blocks) -> "WeakBialgebra":
        return self._with(blocks=blocks)

    def _with(self, **changes) -> "WeakBialgebra":
        """A new instance with the same structure and the antipode or blocks replaced."""
        eps = {"t": self.eps_t, "s": self.eps_s, "t'": self.eps_t_prime, "s'": self.eps_s_prime}
        kept = {"antipode": self.antipode, "blocks": self.blocks}
        return WeakBialgebra(self.alg, self.coa, eps, self.ht, self.hs, **{**kept, **changes})

    def same_tensors(self, other: "WeakBialgebra") -> bool:
        return self.alg == other.alg and self.coa == other.coa

    def __repr__(self):
        return f"WeakBialgebra(dim {self.dim} over {self.field})"


def _rows_sum(terms, rows) -> tuple:
    """sum v * rows[c] over the (c, v) pairs of terms, for the int rows of a square table."""
    out = [0] * len(rows)
    for c, v in terms:
        for i, x in enumerate(rows[c]):
            if x:
                out[i] += v * x
    return tuple(out)


def _int_matrix(field, rows, scale: int) -> Matrix:
    """The matrix of the dense int rows / scale."""
    return Matrix.from_int_cols(field, [dict(enumerate(c)) for c in zip(*rows)], scale, len(rows))


def _dense(nz, n: int) -> list:
    out = [0] * n
    for r, v in nz:
        out[r] = v
    return out


def _eps_pairs(mnz, eps) -> list:
    """e[i][j] = eps(b_i b_j) at the product of the mult and counit scales."""
    return [[sum(c * eps[m] for m, c in row) for row in sl] for sl in mnz]


def _idempotent(m: Matrix) -> bool:
    """m m == m, column by column on m's lifted columns."""
    cols, s = m.col_ints()
    p = m.field.characteristic
    n = m.rows
    return not any(ints_differ(p, _apply(cols, col, n), s * s, _dense(col, n), s) for col in cols)


def _in_tensor(x, left: Subspace | None, right: Subspace | None) -> bool:
    """Whether the row-major int tensor x lies in left (x) right (None: all of k^n).

    left (x) right is the set of n x n grids whose columns lie in left and
    whose rows lie in right.
    """
    n = isqrt(len(x))
    rows = [x[j * n:(j + 1) * n] for j in range(n)]
    return (right is None or all(map(right.contains_ints, rows))) and (
        left is None or all(map(left.contains_ints, zip(*rows)))
    )


def _check_wh1(field, mnz, sm, dnz, sd) -> list[Violation]:
    """Delta(b_i b_j) = Delta(b_i) Delta(b_j) on lifted ints.

    Delta(b_j) is formed once (dnz[j]); per i the products Delta(b_i)(b_c (x) b_d)
    are formed once for each (c, d) in the support of some Delta(b_j).
    """
    n = len(mnz)
    s_lhs, s_rhs = sm * sd, (sm * sd) ** 2
    violations = []
    for i in range(n):
        prods = {}
        for j in range(n):
            lhs = [0] * (n * n)
            for k, c in mnz[i][j]:
                for a, b, d in dnz[k]:
                    lhs[a * n + b] += c * d
            rhs = [0] * (n * n)
            for c, d, y in dnz[j]:
                terms = prods.get((c, d))
                if terms is None:
                    acc = [0] * (n * n)
                    for a, b, x in dnz[i]:
                        for m, q in mnz[a][c]:
                            base, xq = m * n, x * q
                            for l, r in mnz[b][d]:
                                acc[base + l] += xq * r
                    terms = prods[(c, d)] = [(idx, v) for idx, v in enumerate(acc) if v]
                for idx, v in terms:
                    rhs[idx] += y * v
            violations += law_violations(field, "WH1", (i, j), lhs, s_lhs, rhs, s_rhs)
    return violations


def verify_weak_bialgebra(alg: FiniteAlgebra, coa: FiniteCoalgebra) -> Verdict:
    """Check (WH1)-(WH3) after the structure laws; stop at the first failing layer.

    Every layer reads the int tables `alg.ints()` and `coa.ints()`.
    """
    if alg.field != coa.field:
        raise MalformedInput("algebra and coalgebra over different fields")
    if alg.labels != coa.labels:
        raise MalformedInput("algebra and coalgebra bases differ")
    va = check_algebra(alg)
    if not va.ok:
        return va
    vc = check_coalgebra(coa)
    if not vc.ok:
        return vc

    n = alg.dim
    field = alg.field
    p = field.characteristic
    mnz, sm, unit, su = alg.ints()
    dnz, sd, eps, se = coa.ints()
    wh1 = _check_wh1(field, mnz, sm, dnz, sd)
    if wh1:
        return Verdict(tuple(wh1))

    # (Delta(1) (x) 1)(1 (x) Delta(1)) = 1_(1) (x) 1_(2) 1_[1] (x) 1_[2] and
    # the reverse order multiplies the middle legs the other way around
    d1nz = [(divmod(idx, n), c) for idx, c in enumerate(_comul(dnz, unit)) if c]
    d2_one = [0] * n ** 3
    first = [0] * n ** 3
    second = [0] * n ** 3
    for (j, k), c in d1nz:
        for jj, kk, d in dnz[j]:
            d2_one[(jj * n + kk) * n + k] += c * d
        for (jp, kp), cp in d1nz:
            cc = c * cp
            for m, q in mnz[k][jp]:
                first[(j * n + m) * n + kp] += cc * q
            for m, q in mnz[jp][k]:
                second[(j * n + m) * n + kp] += cc * q
    s_d2, s_ab = su * sd * sd, (su * sd) ** 2 * sm
    wh2 = []
    for side, prod in (("first", first), ("second", second)):
        wh2 += law_violations(field, "WH2", (side,), d2_one, s_d2, prod, s_ab)
    if wh2:
        return Verdict(tuple(wh2))

    # etable[i][j] = eps(b_i b_j) at scale sm * se; per (i, j) the three sides
    # are rows over k, and lhs is brought to the rhs scale
    etable = _eps_pairs(mnz, eps)
    up, scale = sd * se, sd * (sm * se) ** 2
    wh3 = []
    for i in range(n):
        ei = etable[i]
        for j in range(n):
            lhs, rhs_i, rhs_ii = [0] * n, [0] * n, [0] * n
            for m, c in mnz[i][j]:
                lhs = [x + c * up * y for x, y in zip(lhs, etable[m])]
            for a, b, d in dnz[j]:
                if ei[a]:
                    rhs_i = [x + d * ei[a] * y for x, y in zip(rhs_i, etable[b])]
                if ei[b]:
                    rhs_ii = [x + d * ei[b] * y for x, y in zip(rhs_ii, etable[a])]
            if ints_differ(p, lhs, 1, rhs_i, 1) or ints_differ(p, lhs, 1, rhs_ii, 1):
                for k in range(n):
                    for law, rhs in (("WH3(i)", rhs_i[k]), ("WH3(ii)", rhs_ii[k])):
                        if (lhs[k] - rhs) % p if p else lhs[k] != rhs:
                            sides = ints_to_field(field, (lhs[k], rhs), scale)
                            wh3.append(Violation(law, (i, j, k), *sides))
    return Verdict(tuple(wh3))


def _counital_matrices(alg, coa):
    """eps_t, eps_s, eps_t', eps_s' from Delta(1) and eps(b_j b_m), on the int tables."""
    n = alg.dim
    mnz, sm, unit, su = alg.ints()
    dnz, sd, eps, se = coa.ints()
    e = _eps_pairs(mnz, eps)
    grids = {kind: [[0] * n for _ in range(n)] for kind in COUNITAL_KINDS}
    t, s, tp, sp = grids.values()
    for idx, c in enumerate(_comul(dnz, unit)):
        if c:
            j, k = divmod(idx, n)
            for m in range(n):
                t[k][m] += c * e[j][m]
                s[j][m] += c * e[m][k]
                tp[k][m] += c * e[m][j]
                sp[j][m] += c * e[k][m]
    scale = su * sd * sm * se
    return {kind: _int_matrix(alg.field, g, scale) for kind, g in grids.items()}


def build_weak_bialgebra(alg: FiniteAlgebra, coa: FiniteCoalgebra) -> WeakBialgebra:
    """Verify (WH1)-(WH3) and return the weak bialgebra with cached counital data."""
    verdict = verify_weak_bialgebra(alg, coa)
    if not verdict.ok:
        raise AxiomViolation(verdict, "weak bialgebra axioms")
    eps = _counital_matrices(alg, coa)
    ht = column_space(eps["t"])
    hs = column_space(eps["s"])
    h = WeakBialgebra(alg, coa, eps, ht, hs)
    # cheap sentinels for facts that are theorems once (WH1)-(WH3) hold
    if not (_idempotent(eps["t"]) and _idempotent(eps["s"])):
        raise InternalInconsistency("counital maps failed idempotency")
    if not _delta_one_in(h, hs, ht):
        raise InternalInconsistency("Delta(1) escaped H_s (x) H_t")
    return h


def _delta_one_in(h: WeakBialgebra, left: Subspace, right: Subspace) -> bool:
    dnz, _, _, _ = h.coa.ints()
    return _in_tensor(_comul(dnz, h.alg.ints()[2]), left, right)


def counital(h: WeakBialgebra, which: str, x) -> tuple:
    """Apply one of the cached counital maps eps_t, eps_s, eps_t', eps_s'."""
    if which not in COUNITAL_KINDS:
        raise MalformedInput(f"counital kind must be one of {COUNITAL_KINDS}")
    mat = {
        "t": h.eps_t,
        "s": h.eps_s,
        "t'": h.eps_t_prime,
        "s'": h.eps_s_prime,
    }[which]
    return mat.apply(x)


def verify_antipode(h: WeakBialgebra, s: Matrix) -> Verdict:
    """Check (WH4)(i)-(iii) exhaustively on basis elements (on lifted ints)."""
    n = h.dim
    if s.rows != n or s.cols != n or s.field != h.field:
        raise MalformedInput("antipode matrix has the wrong shape or field")
    field = h.field
    violations = []
    mnz, sm, _, _ = h.alg.ints()
    dnz, sd, _, _ = h.coa.ints()
    scol, ss = s.col_ints()
    et, st = h.eps_t.col_ints()
    es, se = h.eps_s.col_ints()
    s_12, s_3 = sd * ss * sm, (sd * ss * sm) ** 2
    for i in range(n):
        lhs_i = [0] * n
        lhs_ii = [0] * n
        for a, b, c in dnz[i]:
            for l, x in scol[b]:
                for m, q in mnz[a][l]:
                    lhs_i[m] += c * x * q
            for l, x in scol[a]:
                for m, q in mnz[l][b]:
                    lhs_ii[m] += c * x * q
        violations += law_violations(field, "WH4(i)", (i,), lhs_i, s_12, _dense(et[i], n), st)
        violations += law_violations(field, "WH4(ii)", (i,), lhs_ii, s_12, _dense(es[i], n), se)
        # S(b_a) b_b S(b_k) summed over (Delta (x) id) Delta(b_i)
        d2 = {}
        for j, k, c in dnz[i]:
            for a, b, d in dnz[j]:
                d2[(a, b, k)] = d2.get((a, b, k), 0) + c * d
        lhs_iii = [0] * n
        for (a, b, k), c in d2.items():
            for l, x in scol[a]:
                for m, q in mnz[l][b]:
                    cm = c * x * q
                    for l2, y in scol[k]:
                        for r, t in mnz[m][l2]:
                            lhs_iii[r] += cm * y * t
        violations += law_violations(field, "WH4(iii)", (i,), lhs_iii, s_3, _dense(scol[i], n), ss)
    return Verdict(tuple(violations))


@dataclass(frozen=True)
class AntipodeResult:
    """Outcome of the linear antipode solve: found / none / undetermined."""

    status: str
    matrix: Matrix | None = None
    solution_space_dim: int = 0


def solve_antipode(h: WeakBialgebra) -> AntipodeResult:
    """Solve (WH4)(i)+(ii) as a linear system in S, then verify (WH4)(iii).

    Underdetermined systems are reported, not searched, since (iii) is
    quadratic in S and the antipode is unique whenever it exists.
    """
    n = h.dim
    field = h.field
    mnz, sm, _, _ = h.alg.ints()
    dnz, sd, _, _ = h.coa.ints()
    (tc, st), (sc, ss) = h.eps_t.col_ints(), h.eps_s.col_ints()
    # unknown S[l][k] in column l * n + k; (i) and (ii) at b_i, coordinate m, in
    # rows 2 (i n + m) and 2 (i n + m) + 1
    cols = [{} for _ in range(n * n)]
    for i in range(n):
        for a, b, c in dnz[i]:
            for l in range(n):
                for m, q in mnz[a][l]:
                    col, r = cols[l * n + b], 2 * (i * n + m)
                    col[r] = col.get(r, 0) + c * q
                for m, q in mnz[l][b]:
                    col, r = cols[l * n + a], 2 * (i * n + m) + 1
                    col[r] = col.get(r, 0) + c * q
    rhs = {2 * (i * n + m): x * ss for i in range(n) for m, x in tc[i]}
    rhs.update({2 * (i * n + m) + 1: x * st for i in range(n) for m, x in sc[i]})
    system = Matrix.from_int_cols(field, cols, sd * sm, 2 * n * n)
    target = Matrix.from_int_cols(field, [rhs], st * ss, 2 * n * n)
    x = solve(system, target)
    if x is None:
        return AntipodeResult("none")
    nullity = len(kernel_basis(system))
    if nullity:
        return AntipodeResult("undetermined", solution_space_dim=nullity)
    flat = x.col(0)
    s = Matrix(field, [[flat[l * n + k] for k in range(n)] for l in range(n)], cols=n)
    if not verify_antipode(h, s).ok:
        return AntipodeResult("none")
    return AntipodeResult("found", matrix=s)


def dualize(h: WeakBialgebra) -> WeakBialgebra:
    """Transpose both structure tensors and re-verify the axioms."""
    alg = dual(h.coa)
    coa = dual(h.alg)
    try:
        out = build_weak_bialgebra(alg, coa)
    except AxiomViolation as exc:
        raise InternalInconsistency(f"dual of a valid weak bialgebra failed: {exc}")
    if h.antipode is not None:
        try:
            out = out.with_antipode(h.antipode.transpose())
        except AxiomViolation:
            raise InternalInconsistency("transposed antipode failed on the dual")
    return out


# ---------------------------------------------------------------------------
# lemma suite


def lemma_suite(h: WeakBialgebra) -> Verdict:
    """Check every identity of Lemmas 2.1-2.3 plus the op/cop identifications.

    All of these are theorems for a verified weak bialgebra, so a failure
    here is a build-blocking bug, reported with the first failing identity
    and its witness.  Each identity is decided on the instance's int tables
    and a failing side is rebuilt as field elements.
    """
    n = h.dim
    field = h.field
    p = field.characteristic
    mnz, sm, unit, su = h.alg.ints()
    dnz, sd, eps, se = h.coa.ints()
    (tc, st), (sc, ss) = h.eps_t.col_ints(), h.eps_s.col_ints()
    basis = [[int(t == i) for t in range(n)] for i in range(n)]
    d1 = _comul(dnz, unit)
    d1nz = [(divmod(idx, n), c) for idx, c in enumerate(d1) if c]
    s1 = su * sd

    def fail(law, witness, lhs, rhs):
        return Verdict((Violation(law, witness, lhs, rhs),))

    def differ(law, witness, u, s_u, v, s_v):
        """The failing verdict when u / s_u != v / s_v, else None."""
        bad = law_violations(field, law, witness, u, s_u, v, s_v)
        return Verdict(tuple(bad)) if bad else None

    def scalar(x, s):
        return ints_to_field(field, (x,), s)[0]

    if not _idempotent(h.eps_t):
        return fail("2.1(1) eps_t idempotent", (), None, None)
    if not _idempotent(h.eps_s):
        return fail("2.1(1) eps_s idempotent", (), None, None)

    # 2.1(2)(i): (id (x) eps_t) Delta(x) = 1_(1) x (x) 1_(2)
    # 2.1(2)(ii): (eps_s (x) id) Delta(x) = 1_(1) (x) x 1_(2)
    for m in range(n):
        lhs_i, lhs_ii, rhs_i, rhs_ii = ([0] * (n * n) for _ in range(4))
        for a, b, c in dnz[m]:
            for k, v in tc[b]:
                lhs_i[a * n + k] += c * v
            for k, v in sc[a]:
                lhs_ii[k * n + b] += c * v
        for (j, k), c in d1nz:
            for l, v in mnz[j][m]:
                rhs_i[l * n + k] += c * v
            for l, v in mnz[m][k]:
                rhs_ii[j * n + l] += c * v
        if bad := differ("2.1(2)(i)", (m,), lhs_i, sd * st, rhs_i, s1 * sm):
            return bad
        if bad := differ("2.1(2)(ii)", (m,), lhs_ii, sd * ss, rhs_ii, s1 * sm):
            return bad

    # eq (2-3): 1_(1) (x) eps_t(1_(2)) = Delta(1) = eps_s(1_(1)) (x) 1_(2)
    left, right = [0] * (n * n), [0] * (n * n)
    for (j, k), c in d1nz:
        for l, v in tc[k]:
            left[j * n + l] += c * v
        for l, v in sc[j]:
            right[l * n + k] += c * v
    if bad := differ("eq(2-3) target side", (), left, s1 * st, d1, s1):
        return bad
    if bad := differ("eq(2-3) source side", (), right, s1 * ss, d1, s1):
        return bad

    # 2.1(3): ker(eps_t - id) = ker(Delta - L) for L(x) = 1_(1) x (x) 1_(2), and
    # ker(eps_s - id) = ker(Delta - R) for R(x) = 1_(1) (x) x 1_(2); two kernels
    # agree iff both row spaces have the rank of the rows stacked together.
    # lgrid and rgrid hold L - Delta and R - Delta at scale sd * s1 * sm.
    sl = s1 * sm
    lgrid = [[0] * n for _ in range(n * n)]
    rgrid = [[0] * n for _ in range(n * n)]
    for (j, k), c in d1nz:
        for m in range(n):
            for l, v in mnz[j][m]:
                lgrid[l * n + k][m] += c * v * sd
            for l, v in mnz[m][k]:
                rgrid[j * n + l][m] += c * v * sd
    for m in range(n):
        for a, b, d in dnz[m]:
            lgrid[a * n + b][m] -= d * sl
            rgrid[a * n + b][m] -= d * sl
    for law, (cols, s), grid in (("2.1(3)(i)", (tc, st), lgrid), ("2.1(3)(ii)", (sc, ss), rgrid)):
        fix = [[0] * n for _ in range(n)]
        for j, col in enumerate(cols):
            for r, v in col:
                fix[r][j] = v
        for r in range(n):
            fix[r][r] -= s
        both = ints_rank(p, fix + grid)
        if not ints_rank(p, fix) == both == ints_rank(p, grid):
            cond = _int_matrix(field, grid, sd * sl)
            fix_space = kernel_space(_int_matrix(field, fix, s))
            return fail(law, (), fix_space, kernel_space(cond))

    # 2.1 "especially": both displayed identities on Delta2(1)
    n3 = n * n * n
    d2, lhs_t, lhs_s, rhs_t, rhs_s = ([0] * n3 for _ in range(5))
    for (j, k), c in d1nz:
        for a, b, d in dnz[j]:
            d2[(a * n + b) * n + k] += c * d
        for (jp, kp), cp in d1nz:
            cc = c * cp
            for l, v in mnz[j][jp]:
                lhs_t[(l * n + k) * n + kp] += cc * v
            for l, v in mnz[k][kp]:
                lhs_s[(j * n + jp) * n + l] += cc * v
    for idx, c in enumerate(d2):
        if c:
            a, b, k = idx // (n * n), idx // n % n, idx % n
            for l, v in tc[b]:
                rhs_t[(a * n + l) * n + k] += c * v
            for l, v in sc[b]:
                rhs_s[(a * n + l) * n + k] += c * v
    if bad := differ("2.1 especially (t)", (), lhs_t, s1 * s1 * sm, rhs_t, s1 * sd * st):
        return bad
    if bad := differ("2.1 especially (s)", (), lhs_s, s1 * s1 * sm, rhs_s, s1 * sd * ss):
        return bad

    # Lemma 2.2 on all basis pairs, with xt[i][j] = b_i eps_t(b_j), sx[i][j] = eps_s(b_i) b_j,
    # txy[i][j] = eps_t(b_i b_j), sxy[i][j] = eps_s(b_i b_j) and e_xy[i][j] = eps(b_i b_j)
    t_of = [_dense(col, n) for col in tc]
    s_of = [_dense(col, n) for col in sc]
    xt = [[_mul(mnz, basis[i], t_of[j]) for j in range(n)] for i in range(n)]
    sx = [[_mul(mnz, s_of[i], basis[j]) for j in range(n)] for i in range(n)]
    txy = [[_apply(tc, t, n) for t in row] for row in mnz]
    sxy = [[_apply(sc, t, n) for t in row] for row in mnz]
    e_xy = [[sum([eps[k] * c for k, c in t]) for t in row] for row in mnz]
    for i in range(n):
        for j in range(n):
            if ints_differ(p, _apply(tc, enumerate(xt[i][j]), n), st * st * sm, txy[i][j], st * sm):
                return fail("2.2(1) t", (i, j), None, None)
            if ints_differ(p, _apply(sc, enumerate(sx[i][j]), n), ss * ss * sm, sxy[i][j], ss * sm):
                return fail("2.2(1) s", (i, j), None, None)
            for law, w, s in (("2.2(2) t", xt[i][j], st), ("2.2(2) s", sx[i][j], ss)):
                e = sum(map(mul, eps, w))
                if ints_differ(p, (e,), sm * s * se, (e_xy[i][j],), sm * se):
                    return fail(law, (i, j), scalar(e, sm * s * se), scalar(e_xy[i][j], sm * se))
    for law, cols, s in (("2.2(3) t", tc, st), ("2.2(3) s", sc, ss)):
        if ints_differ(p, [sum(eps[r] * v for r, v in col) for col in cols], se * s, eps, se):
            return fail(law, (), None, None)
    for m in range(n):
        acc_t, acc_s = [0] * n, [0] * n
        for a, b, c in dnz[m]:
            for k, v in tc[a]:
                for l, q in mnz[k][b]:
                    acc_t[l] += c * v * q
            for k, v in sc[b]:
                for l, q in mnz[a][k]:
                    acc_s[l] += c * v * q
        if bad := differ("2.2(4) t", (m,), acc_t, sd * st * sm, basis[m], 1):
            return bad
        if bad := differ("2.2(4) s", (m,), acc_s, sd * ss * sm, basis[m], 1):
            return bad
    for i in range(n):
        for j in range(n):
            acc = [0] * n
            for a, b, c in dnz[i]:
                for k, v in enumerate(txy[a][j]):
                    if v:
                        for l, q in mnz[k][b]:
                            acc[l] += c * v * q
            if bad := differ("2.2(5) t", (i, j), acc, sd * st * sm * sm, xt[i][j], sm * st):
                return bad
            acc = [0] * n
            for a, b, c in dnz[j]:
                for k, v in enumerate(sxy[i][b]):
                    if v:
                        for l, q in mnz[a][k]:
                            acc[l] += c * v * q
            if bad := differ("2.2(5) s", (i, j), acc, sd * ss * sm * sm, sx[i][j], sm * ss):
                return bad

    # Lemma 2.3, with z over the echelon basis of H_t and y over that of H_s;
    # zx[zi][a] = z b_a and xz[zi][a] = b_a z at scale sm * sz (likewise for y)
    ht, hs = h.ht, h.hs
    (zs, sz), (ys, sy) = ht.ints(), hs.ints()
    zx = [[_mul(mnz, z, b) for b in basis] for z in zs]
    xz = [[_mul(mnz, b, z) for b in basis] for z in zs]
    yx = [[_mul(mnz, y, b) for b in basis] for y in ys]
    xy = [[_mul(mnz, b, y) for b in basis] for y in ys]
    for zi, z in enumerate(zs):
        for j in range(n):
            lhs, rhs = _mul(mnz, z, t_of[j]), _apply(tc, enumerate(zx[zi][j]), n)
            if bad := differ("2.3(1)", (zi, j), lhs, sz * sm * st, rhs, sz * sm * st):
                return bad
    for i in range(n):
        for yi, y in enumerate(ys):
            lhs, rhs = _mul(mnz, s_of[i], y), _apply(sc, enumerate(xy[yi][i]), n)
            if bad := differ("2.3(2)", (i, yi), lhs, sy * sm * ss, rhs, sy * sm * ss):
                return bad
    for zi, z in enumerate(zs):
        for yi, y in enumerate(ys):
            zy, yz = _mul(mnz, z, y), _mul(mnz, y, z)
            if bad := differ("2.3(3)(i)", (zi, yi), zy, sz * sy * sm, yz, sz * sy * sm):
                return bad
    for zi, z in enumerate(zs):
        if not _in_tensor(_comul(dnz, z), None, ht):
            return fail("2.3(3)(ii) H_t left coideal", (zi,), None, None)
    for yi, y in enumerate(ys):
        if not _in_tensor(_comul(dnz, y), hs, None):
            return fail("2.3(3)(ii) H_s right coideal", (yi,), None, None)
    if not ht.contains_ints(unit):
        return fail("2.3(3)(ii) H_t unital", (), None, None)
    if not hs.contains_ints(unit):
        return fail("2.3(3)(ii) H_s unital", (), None, None)
    for space, vecs, name in ((ht, zs, "H_t"), (hs, ys, "H_s")):
        for a, u in enumerate(vecs):
            for b, w in enumerate(vecs):
                if not space.contains_ints(_mul(mnz, u, w)):
                    return fail(f"2.3(3)(ii) {name} closed", (a, b), None, None)

    # eq (2-4)
    if not _delta_one_in(h, hs, ht):
        return fail("eq(2-4)", (), None, None)

    # 2.3(4): the four Delta identities and the four scalar forms; the products
    # of H_t act on the first leg of Delta(b_m), those of H_s on the second
    def delta_forms(m, prods, first):
        """(acc, Delta(prods[m])) and (scalar acc, prods[m]) over Delta(b_m)."""
        acc, acc_e = [0] * (n * n), [0] * n
        for a, b, c in dnz[m]:
            u, other = (a, b) if first else (b, a)
            for l, v in enumerate(prods[u]):
                if v:
                    acc[l * n + b if first else a * n + l] += c * v
            acc_e[other] += c * sum(map(mul, eps, prods[u]))
        return (acc, _comul(dnz, prods[m])), (acc_e, prods[m])

    for m in range(n):
        for first, vecs, s, names, sides in (
            (True, zs, sz, ("xz", "zx"), (xz, zx)),
            (False, ys, sy, ("xy", "yx"), (xy, yx)),
        ):
            for zi in range(len(vecs)):
                forms = [delta_forms(m, side[zi], first) for side in sides]
                sp = sm * s
                for name, ((acc, lhs), _) in zip(names, forms):
                    if bad := differ(f"2.3(4) {name}", (m, zi), acc, sd * sp, lhs, sp * sd):
                        return bad
                for name, (_, (acc, target)) in zip(names, forms):
                    law = f"2.3(4) {name} scalar"
                    if bad := differ(law, (m, zi), acc, sd * sp * se, target, sp):
                        return bad

    # op / cop / opcop identifications of section 2; the variants transpose
    # the int tables of h (see `opposite` and `coopposite`)
    op, cop = opposite(h.alg), coopposite(h.coa)
    variants = {"op": (op, h.coa), "cop": (h.alg, cop), "opcop": (op, cop)}
    built = {}
    for name, (alg_v, coa_v) in variants.items():
        try:
            built[name] = build_weak_bialgebra(alg_v, coa_v)
        except AxiomViolation as exc:
            return fail(f"{name} variant axioms", (), str(exc), None)
    expectations = [
        ("op", "eps_t", h.eps_t_prime, "(eps_op)_t = eps_t'"),
        ("op", "eps_s", h.eps_s_prime, "(eps_op)_s = eps_s'"),
        ("cop", "eps_t", h.eps_s_prime, "(eps_cop)_t = eps_s'"),
        ("cop", "eps_s", h.eps_t_prime, "(eps_cop)_s = eps_t'"),
        ("opcop", "eps_t", h.eps_s, "(eps_opcop)_t = eps_s"),
        ("opcop", "eps_s", h.eps_t, "(eps_opcop)_s = eps_t"),
        ("op", "ht", ht, "(H_op)_t = H_t"),
        ("op", "hs", hs, "(H_op)_s = H_s"),
        ("cop", "ht", hs, "(H_cop)_t = H_s"),
        ("cop", "hs", ht, "(H_cop)_s = H_t"),
        ("opcop", "ht", hs, "(H_opcop)_t = H_s"),
        ("opcop", "hs", ht, "(H_opcop)_s = H_t"),
    ]
    for name, attr, expected, law in expectations:
        got = getattr(built[name], attr)
        if got != expected:
            return fail(law, (), got, expected)
    if h.antipode is not None:
        if not verify_antipode(built["opcop"], h.antipode).ok:
            return fail("antipode of opcop", (), None, None)
    return Verdict.passing()
