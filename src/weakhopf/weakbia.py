"""The weak-bialgebra core: axioms, counital maps, lemma suite, antipodes.

A `WeakBialgebra` only comes out of `build_weak_bialgebra`, which verifies
the structure laws and the three weak-bialgebra axioms exhaustively on basis
tuples before caching the four counital matrices and the target/source
subalgebras.  Derived data is always recomputed, never trusted from callers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    column_space,
    ints_to_field,
    kernel_basis,
    kernel_space,
    lift_to_ints,
    solve,
    vec_unit,
    vec_zero,
)
from .structure import (
    FiniteAlgebra,
    FiniteCoalgebra,
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
        "_etable",
        "_mult_nz",
        "_comult_nz",
        "_counital_pairs",
        "_source_eps_rows",
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
        object.__setattr__(self, "_etable", None)
        object.__setattr__(self, "_mult_nz", None)
        object.__setattr__(self, "_comult_nz", None)
        object.__setattr__(self, "_counital_pairs", None)
        object.__setattr__(self, "_source_eps_rows", None)

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
        cols = [comultiply(self.coa, vec_unit(self.field, n, i)) for i in range(n)]
        return Matrix.from_cols(self.field, cols, rows=n * n)

    def eps_pair_table(self):
        """E[i][j] = eps(b_i b_j); computed once and cached."""
        cached = getattr(self, "_etable", None)
        if cached is not None:
            return cached
        n = self.dim
        eps = self.coa.counit
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.field.zero
                for l, c in enumerate(self.alg.mult[i][j]):
                    if c and eps[l]:
                        acc = acc + c * eps[l]
                row.append(acc)
            out.append(tuple(row))
        table = tuple(out)
        try:
            object.__setattr__(self, "_etable", table)
        except AttributeError:
            pass
        return table

    def mult_nz(self):
        """Sparse multiplication table: mult_nz()[i][j] = ((k, coeff), ...)."""
        cached = getattr(self, "_mult_nz", None)
        if cached is not None:
            return cached
        mu = self.alg.mult
        n = self.dim
        table = tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(mu[i][j]) if c) for j in range(n)
            )
            for i in range(n)
        )
        try:
            object.__setattr__(self, "_mult_nz", table)
        except AttributeError:
            pass
        return table

    def mult_matrix(self, x, right: bool = False) -> Matrix:
        """Left multiplication by x (right multiplication with right=True), as a matrix."""
        n = self.dim
        z = self.field.zero
        mu = self.mult_nz()
        rows = [{} for _ in range(n)]
        for i, c in enumerate(x):
            if not c:
                continue
            for j in range(n):
                for k, p in mu[j][i] if right else mu[i][j]:
                    rows[k][j] = rows[k].get(j, z) + c * p
        return Matrix._from_dicts(self.field, rows, n)

    def comult_nz(self):
        """Sparse comultiplication: comult_nz()[j] = ((j2, k2, coeff), ...)."""
        cached = getattr(self, "_comult_nz", None)
        if cached is not None:
            return cached
        delta = self.coa.comult
        table = tuple(
            tuple(
                (a, b, c)
                for a, row in enumerate(delta[j])
                for b, c in enumerate(row)
                if c
            )
            for j in range(self.dim)
        )
        try:
            object.__setattr__(self, "_comult_nz", table)
        except AttributeError:
            pass
        return table

    def counital_pair_tables(self):
        """(L, R) with L[j][i] = eps(eps_s'(b_j) b_i) and R[j][i] = eps(b_i eps_s(b_j))."""
        cached = self._counital_pairs
        if cached is not None:
            return cached
        e = self.eps_pair_table()
        e_t = tuple(zip(*e))
        n = self.dim
        tables = (
            tuple(_combine_rows(self.field, self.eps_s_prime.col(j), e) for j in range(n)),
            tuple(_combine_rows(self.field, self.eps_s.col(j), e_t) for j in range(n)),
        )
        object.__setattr__(self, "_counital_pairs", tables)
        return tables

    def source_eps_rows(self):
        """For each H_s basis vector y, the rows (eps(y b_j))_j and (eps(b_j y))_j."""
        cached = self._source_eps_rows
        if cached is not None:
            return cached
        e = self.eps_pair_table()
        e_t = tuple(zip(*e))
        table = tuple(
            (_combine_rows(self.field, y, e), _combine_rows(self.field, y, e_t))
            for y in self.hs.basis
        )
        object.__setattr__(self, "_source_eps_rows", table)
        return table

    def with_antipode(self, s: Matrix) -> "WeakBialgebra":
        verdict = verify_antipode(self, s)
        if not verdict.ok:
            raise AxiomViolation(verdict, "antipode verification")
        return WeakBialgebra(
            self.alg,
            self.coa,
            {
                "t": self.eps_t,
                "s": self.eps_s,
                "t'": self.eps_t_prime,
                "s'": self.eps_s_prime,
            },
            self.ht,
            self.hs,
            antipode=s,
            blocks=self.blocks,
        )

    def with_blocks(self, blocks) -> "WeakBialgebra":
        return WeakBialgebra(
            self.alg,
            self.coa,
            {
                "t": self.eps_t,
                "s": self.eps_s,
                "t'": self.eps_t_prime,
                "s'": self.eps_s_prime,
            },
            self.ht,
            self.hs,
            antipode=self.antipode,
            blocks=blocks,
        )

    def same_tensors(self, other: "WeakBialgebra") -> bool:
        return self.alg == other.alg and self.coa == other.coa

    def __repr__(self):
        return f"WeakBialgebra(dim {self.dim} over {self.field})"


def _combine_rows(field, coeffs, rows) -> tuple:
    """sum_c coeffs[c] * rows[c] for the rows of a square table."""
    out = [field.zero] * len(rows)
    for coef, row in zip(coeffs, rows):
        if not coef:
            continue
        for i, x in enumerate(row):
            if x:
                out[i] = out[i] + coef * x
    return tuple(out)


def _int_nonzeros(field, mult, comult):
    """Sparse int lifts (mnz, sm, dnz, sd) of the structure tensors.

    mnz[i][j] = ((k, c), ...) and dnz[i] = ((a, b, d), ...) list the nonzero
    lifted constants; sm and sd are the scales of mult and comult.
    """
    mu, sm = lift_to_ints(field, mult)
    delta, sd = lift_to_ints(field, comult)
    mnz = [[tuple((k, c) for k, c in enumerate(row) if c) for row in sl] for sl in mu]
    dnz = [
        tuple((a, b, d) for a, row in enumerate(sl) for b, d in enumerate(row) if d)
        for sl in delta
    ]
    return mnz, sm, dnz, sd


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


def _delta2(h_coa, x):
    """(Delta (x) id) Delta(x) as a dense n^3 vector (equal to (id (x) Delta) Delta)."""
    n = len(h_coa.labels)
    field = h_coa.field
    out = list(vec_zero(field, n * n * n))
    flat = comultiply(h_coa, x)
    for idx, c in enumerate(flat):
        if not c:
            continue
        j, k = divmod(idx, n)
        for a in range(n):
            row = h_coa.comult[j][a]
            base_a = a * n * n
            for b in range(n):
                d = row[b]
                if d:
                    out[base_a + b * n + k] = out[base_a + b * n + k] + c * d
    return tuple(out)


def verify_weak_bialgebra(alg: FiniteAlgebra, coa: FiniteCoalgebra) -> Verdict:
    """Check (WH1)-(WH3) after the structure laws; stop at the first failing layer."""
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
    mnz, sm, dnz, sd = _int_nonzeros(field, alg.mult, coa.comult)
    wh1 = _check_wh1(field, mnz, sm, dnz, sd)
    if wh1:
        return Verdict(tuple(wh1))

    # (Delta(1) (x) 1)(1 (x) Delta(1)) = 1_(1) (x) 1_(2) 1_[1] (x) 1_[2] and
    # the reverse order multiplies the middle legs the other way around
    unit, su = lift_to_ints(field, alg.unit)
    d1 = [0] * (n * n)
    for x, u in enumerate(unit):
        for j, k, d in dnz[x]:
            d1[j * n + k] += u * d
    d1nz = [(divmod(idx, n), c) for idx, c in enumerate(d1) if c]
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

    # etable[i][j] = eps(b_i b_j) at scale sm * se; lhs is brought to the rhs scale
    eps, se = lift_to_ints(field, coa.counit)
    etable = [[sum(c * eps[m] for m, c in row) for row in sl] for sl in mnz]
    up, scale = sd * se, sd * (sm * se) ** 2
    wh3 = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum(c * etable[m][k] for m, c in mnz[i][j]) * up
                rhs_i = sum(d * etable[i][a] * etable[b][k] for a, b, d in dnz[j])
                rhs_ii = sum(d * etable[i][b] * etable[a][k] for a, b, d in dnz[j])
                for law, rhs in (("WH3(i)", rhs_i), ("WH3(ii)", rhs_ii)):
                    if (lhs - rhs) % p if p else lhs != rhs:
                        sides = ints_to_field(field, (lhs, rhs), scale)
                        wh3.append(Violation(law, (i, j, k), *sides))
    return Verdict(tuple(wh3))


def _counital_matrices(alg, coa):
    n = alg.dim
    field = alg.field
    flat = comultiply(coa, alg.unit)
    d1 = [[flat[j * n + k] for k in range(n)] for j in range(n)]
    shell = WeakBialgebra.__new__(WeakBialgebra)
    object.__setattr__(shell, "alg", alg)
    object.__setattr__(shell, "coa", coa)
    e = shell.eps_pair_table()
    z = field.zero
    t = [[z] * n for _ in range(n)]
    s = [[z] * n for _ in range(n)]
    tp = [[z] * n for _ in range(n)]
    sp = [[z] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            c = d1[j][k]
            if not c:
                continue
            for m in range(n):
                if e[j][m]:
                    t[k][m] = t[k][m] + c * e[j][m]
                if e[m][k]:
                    s[j][m] = s[j][m] + c * e[m][k]
                if e[m][j]:
                    tp[k][m] = tp[k][m] + c * e[m][j]
                if e[k][m]:
                    sp[j][m] = sp[j][m] + c * e[k][m]
    return {
        "t": Matrix(field, t, cols=n),
        "s": Matrix(field, s, cols=n),
        "t'": Matrix(field, tp, cols=n),
        "s'": Matrix(field, sp, cols=n),
    }


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
    if eps["t"].mul(eps["t"]) != eps["t"] or eps["s"].mul(eps["s"]) != eps["s"]:
        raise InternalInconsistency("counital maps failed idempotency")
    if not _delta_one_in(h, hs, ht):
        raise InternalInconsistency("Delta(1) escaped H_s (x) H_t")
    return h


def _delta_one_in(h: WeakBialgebra, left: Subspace, right: Subspace) -> bool:
    n = h.dim
    gens = []
    for u in left.basis:
        for v in right.basis:
            w = list(vec_zero(h.field, n * n))
            for j, a in enumerate(u):
                if not a:
                    continue
                for k, b in enumerate(v):
                    if b:
                        w[j * n + k] = a * b
            gens.append(tuple(w))
    space = Subspace(h.field, n * n, gens)
    return space.contains(h.comultiply(h.unit))


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
    mnz, sm, dnz, sd = _int_nonzeros(field, h.mult, h.comult)
    sv, ss = lift_to_ints(field, s.entries)
    scol = [[(l, sv[l][b]) for l in range(n) if sv[l][b]] for b in range(n)]
    et, st = lift_to_ints(field, h.eps_t.entries)
    es, se = lift_to_ints(field, h.eps_s.entries)
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
        violations += law_violations(field, "WH4(i)", (i,), lhs_i, s_12, [r[i] for r in et], st)
        violations += law_violations(field, "WH4(ii)", (i,), lhs_ii, s_12, [r[i] for r in es], se)
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
        violations += law_violations(field, "WH4(iii)", (i,), lhs_iii, s_3, [r[i] for r in sv], ss)
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
    z = field.zero
    rows = []
    rhs = []
    mu = h.mult
    eps_t, eps_s = h.eps_t.entries, h.eps_s.entries
    for i in range(n):
        flat = h.comultiply(vec_unit(field, n, i))
        nz = [(divmod(idx, n), c) for idx, c in enumerate(flat) if c]
        for m in range(n):
            row_i = [z] * (n * n)
            row_ii = [z] * (n * n)
            for (a, b), c in nz:
                for l in range(n):
                    p = mu[a][l][m]
                    if p:
                        row_i[l * n + b] = row_i[l * n + b] + c * p
                    q = mu[l][b][m]
                    if q:
                        row_ii[l * n + a] = row_ii[l * n + a] + c * q
            rows.append(row_i)
            rhs.append((eps_t[m][i],))
            rows.append(row_ii)
            rhs.append((eps_s[m][i],))
    system = Matrix(field, rows, cols=n * n)
    target = Matrix(field, rhs, cols=1)
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
        st = h.antipode.transpose()
        if not verify_antipode(out, st).ok:
            raise InternalInconsistency("transposed antipode failed on the dual")
        out = out.with_antipode(st)
    return out


# ---------------------------------------------------------------------------
# lemma suite


def _tensor_subspace(h: WeakBialgebra, left: Subspace, right: Subspace) -> Subspace:
    n = h.dim
    gens = []
    for u in left.basis:
        for v in right.basis:
            w = list(vec_zero(h.field, n * n))
            for j, a in enumerate(u):
                if not a:
                    continue
                for k, b in enumerate(v):
                    if b:
                        w[j * n + k] = a * b
            gens.append(tuple(w))
    return Subspace(h.field, n * n, gens)


def _full_space(h: WeakBialgebra) -> Subspace:
    n = h.dim
    return Subspace(h.field, n, [vec_unit(h.field, n, i) for i in range(n)])


def lemma_suite(h: WeakBialgebra) -> Verdict:
    """Check every identity of Lemmas 2.1-2.3 plus the op/cop identifications.

    All of these are theorems for a verified weak bialgebra, so a failure
    here is a build-blocking bug, reported with the first failing identity
    and its witness.
    """
    n = h.dim
    field = h.field
    basis = [vec_unit(field, n, i) for i in range(n)]
    d1flat = h.comultiply(h.unit)
    d1nz = [(divmod(idx, n), c) for idx, c in enumerate(d1flat) if c]

    def fail(law, witness, lhs, rhs):
        return Verdict((Violation(law, witness, lhs, rhs),))

    ident = Matrix.identity(field, n)
    if h.eps_t.mul(h.eps_t) != h.eps_t:
        return fail("2.1(1) eps_t idempotent", (), None, None)
    if h.eps_s.mul(h.eps_s) != h.eps_s:
        return fail("2.1(1) eps_s idempotent", (), None, None)

    # 2.1(2)(i): (id (x) eps_t) Delta(x) = 1_(1) x (x) 1_(2)
    # 2.1(2)(ii): (eps_s (x) id) Delta(x) = 1_(1) (x) x 1_(2)
    for m in range(n):
        flat = h.comultiply(basis[m])
        lhs_i = list(vec_zero(field, n * n))
        lhs_ii = list(vec_zero(field, n * n))
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            for k, p in enumerate(h.eps_t.col(b)):
                if p:
                    lhs_i[a * n + k] = lhs_i[a * n + k] + c * p
            for k, p in enumerate(h.eps_s.col(a)):
                if p:
                    lhs_ii[k * n + b] = lhs_ii[k * n + b] + c * p
        rhs_i = list(vec_zero(field, n * n))
        rhs_ii = list(vec_zero(field, n * n))
        for (j, k), c in d1nz:
            for l, p in enumerate(h.mult[j][m]):
                if p:
                    rhs_i[l * n + k] = rhs_i[l * n + k] + c * p
            for l, p in enumerate(h.mult[m][k]):
                if p:
                    rhs_ii[j * n + l] = rhs_ii[j * n + l] + c * p
        if lhs_i != rhs_i:
            return fail("2.1(2)(i)", (m,), tuple(lhs_i), tuple(rhs_i))
        if lhs_ii != rhs_ii:
            return fail("2.1(2)(ii)", (m,), tuple(lhs_ii), tuple(rhs_ii))

    # eq (2-3): 1_(1) (x) eps_t(1_(2)) = Delta(1) = eps_s(1_(1)) (x) 1_(2)
    left = list(vec_zero(field, n * n))
    right = list(vec_zero(field, n * n))
    for (j, k), c in d1nz:
        for l, p in enumerate(h.eps_t.col(k)):
            if p:
                left[j * n + l] = left[j * n + l] + c * p
        for l, p in enumerate(h.eps_s.col(j)):
            if p:
                right[l * n + k] = right[l * n + k] + c * p
    if tuple(left) != d1flat:
        return fail("eq(2-3) target side", (), tuple(left), d1flat)
    if tuple(right) != d1flat:
        return fail("eq(2-3) source side", (), tuple(right), d1flat)

    # 2.1(3): fixed points of eps_t/eps_s coincide with the Delta conditions
    dmat = h.comult_matrix()
    lmap_rows = []
    rmap_rows = []
    z = field.zero
    lgrid = [[z] * n for _ in range(n * n)]
    rgrid = [[z] * n for _ in range(n * n)]
    for (j, k), c in d1nz:
        for m in range(n):
            for l, p in enumerate(h.mult[j][m]):
                if p:
                    lgrid[l * n + k][m] = lgrid[l * n + k][m] + c * p
            for l, p in enumerate(h.mult[m][k]):
                if p:
                    rgrid[j * n + l][m] = rgrid[j * n + l][m] + c * p
    lmap = Matrix(field, lgrid, cols=n)
    rmap = Matrix(field, rgrid, cols=n)
    fix_t = kernel_space(h.eps_t.sub(ident))
    fix_s = kernel_space(h.eps_s.sub(ident))
    cond_t = kernel_space(dmat.sub(lmap))
    cond_s = kernel_space(dmat.sub(rmap))
    if fix_t != cond_t:
        return fail("2.1(3)(i)", (), fix_t, cond_t)
    if fix_s != cond_s:
        return fail("2.1(3)(ii)", (), fix_s, cond_s)

    # 2.1 "especially": both displayed identities on Delta2(1)
    d2 = _delta2(h.coa, h.unit)
    lhs_t = list(vec_zero(field, n * n * n))
    lhs_s = list(vec_zero(field, n * n * n))
    for (j, k), c in d1nz:
        for (jp, kp), cp in d1nz:
            cc = c * cp
            for l, p in enumerate(h.mult[j][jp]):
                if p:
                    lhs_t[(l * n + k) * n + kp] = lhs_t[(l * n + k) * n + kp] + cc * p
            for l, p in enumerate(h.mult[k][kp]):
                if p:
                    lhs_s[(j * n + jp) * n + l] = lhs_s[(j * n + jp) * n + l] + cc * p
    rhs_t = list(vec_zero(field, n * n * n))
    rhs_s = list(vec_zero(field, n * n * n))
    for idx, c in enumerate(d2):
        if not c:
            continue
        a, r = divmod(idx, n * n)
        b, cc = divmod(r, n)
        for l, p in enumerate(h.eps_t.col(b)):
            if p:
                rhs_t[(a * n + l) * n + cc] = rhs_t[(a * n + l) * n + cc] + c * p
        for l, p in enumerate(h.eps_s.col(b)):
            if p:
                rhs_s[(a * n + l) * n + cc] = rhs_s[(a * n + l) * n + cc] + c * p
    if lhs_t != rhs_t:
        return fail("2.1 especially (t)", (), tuple(lhs_t), tuple(rhs_t))
    if lhs_s != rhs_s:
        return fail("2.1 especially (s)", (), tuple(lhs_s), tuple(rhs_s))

    # Lemma 2.2 on all basis pairs
    eps_vec = h.counit
    eps_t_of = [h.eps_t.col(i) for i in range(n)]
    eps_s_of = [h.eps_s.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            x, y = basis[i], basis[j]
            xty = h.multiply(x, eps_t_of[j])
            sxy = h.multiply(eps_s_of[i], y)
            xy = h.mult[i][j]
            if h.eps_t.apply(xty) != h.eps_t.apply(xy):
                return fail("2.2(1) t", (i, j), None, None)
            if h.eps_s.apply(sxy) != h.eps_s.apply(xy):
                return fail("2.2(1) s", (i, j), None, None)
            if h.counit_of(xty) != h.counit_of(xy):
                return fail("2.2(2) t", (i, j), h.counit_of(xty), h.counit_of(xy))
            if h.counit_of(sxy) != h.counit_of(xy):
                return fail("2.2(2) s", (i, j), h.counit_of(sxy), h.counit_of(xy))
    if tuple(h.eps_t.transpose().apply(eps_vec)) != eps_vec:
        return fail("2.2(3) t", (), None, None)
    if tuple(h.eps_s.transpose().apply(eps_vec)) != eps_vec:
        return fail("2.2(3) s", (), None, None)
    for m in range(n):
        flat = h.comultiply(basis[m])
        acc_t = list(vec_zero(field, n))
        acc_s = list(vec_zero(field, n))
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            v = h.multiply(eps_t_of[a], basis[b])
            w = h.multiply(basis[a], eps_s_of[b])
            for l in range(n):
                if v[l]:
                    acc_t[l] = acc_t[l] + c * v[l]
                if w[l]:
                    acc_s[l] = acc_s[l] + c * w[l]
        if tuple(acc_t) != basis[m]:
            return fail("2.2(4) t", (m,), tuple(acc_t), basis[m])
        if tuple(acc_s) != basis[m]:
            return fail("2.2(4) s", (m,), tuple(acc_s), basis[m])
    for i in range(n):
        flat_i = h.comultiply(basis[i])
        for j in range(n):
            lhs = h.multiply(basis[i], eps_t_of[j])
            acc = list(vec_zero(field, n))
            for idx, c in enumerate(flat_i):
                if not c:
                    continue
                a, b = divmod(idx, n)
                v = h.multiply(h.eps_t.apply(h.multiply(basis[a], basis[j])), basis[b])
                for l in range(n):
                    if v[l]:
                        acc[l] = acc[l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.2(5) t", (i, j), tuple(acc), lhs)
            lhs2 = h.multiply(eps_s_of[i], basis[j])
            flat_j = h.comultiply(basis[j])
            acc2 = list(vec_zero(field, n))
            for idx, c in enumerate(flat_j):
                if not c:
                    continue
                a, b = divmod(idx, n)
                v = h.multiply(basis[a], h.eps_s.apply(h.multiply(basis[i], basis[b])))
                for l in range(n):
                    if v[l]:
                        acc2[l] = acc2[l] + c * v[l]
            if tuple(acc2) != lhs2:
                return fail("2.2(5) s", (i, j), tuple(acc2), lhs2)

    # Lemma 2.3
    ht, hs = h.ht, h.hs
    for zi, zb in enumerate(ht.basis):
        for j in range(n):
            lhs = h.multiply(zb, eps_t_of[j])
            rhs = h.eps_t.apply(h.multiply(zb, basis[j]))
            if lhs != rhs:
                return fail("2.3(1)", (zi, j), lhs, rhs)
    for i in range(n):
        for yi, yb in enumerate(hs.basis):
            lhs = h.multiply(eps_s_of[i], yb)
            rhs = h.eps_s.apply(h.multiply(basis[i], yb))
            if lhs != rhs:
                return fail("2.3(2)", (i, yi), lhs, rhs)
    for zi, zb in enumerate(ht.basis):
        for yi, yb in enumerate(hs.basis):
            if h.multiply(zb, yb) != h.multiply(yb, zb):
                return fail("2.3(3)(i)", (zi, yi), h.multiply(zb, yb), h.multiply(yb, zb))
    full = _full_space(h)
    h_tensor_ht = _tensor_subspace(h, full, ht)
    hs_tensor_h = _tensor_subspace(h, hs, full)
    for zi, zb in enumerate(ht.basis):
        if not h_tensor_ht.contains(h.comultiply(zb)):
            return fail("2.3(3)(ii) H_t left coideal", (zi,), None, None)
    for yi, yb in enumerate(hs.basis):
        if not hs_tensor_h.contains(h.comultiply(yb)):
            return fail("2.3(3)(ii) H_s right coideal", (yi,), None, None)
    if not ht.contains(h.unit):
        return fail("2.3(3)(ii) H_t unital", (), None, None)
    if not hs.contains(h.unit):
        return fail("2.3(3)(ii) H_s unital", (), None, None)
    for zi, zb in enumerate(ht.basis):
        for zj, zc in enumerate(ht.basis):
            if not ht.contains(h.multiply(zb, zc)):
                return fail("2.3(3)(ii) H_t closed", (zi, zj), None, None)
    for yi, yb in enumerate(hs.basis):
        for yj, yc in enumerate(hs.basis):
            if not hs.contains(h.multiply(yb, yc)):
                return fail("2.3(3)(ii) H_s closed", (yi, yj), None, None)

    # eq (2-4)
    if not _tensor_subspace(h, hs, ht).contains(d1flat):
        return fail("eq(2-4)", (), None, None)

    # 2.3(4): the four Delta identities and the four scalar forms
    for m in range(n):
        flat = h.comultiply(basis[m])
        nz = [(divmod(idx, n), c) for idx, c in enumerate(flat) if c]
        for zi, zb in enumerate(ht.basis):
            lhs = h.comultiply(h.multiply(basis[m], zb))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = h.multiply(basis[a], zb)
                for l in range(n):
                    if v[l]:
                        acc[l * n + b] = acc[l * n + b] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) xz", (m, zi), tuple(acc), lhs)
            lhs = h.comultiply(h.multiply(zb, basis[m]))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = h.multiply(zb, basis[a])
                for l in range(n):
                    if v[l]:
                        acc[l * n + b] = acc[l * n + b] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) zx", (m, zi), tuple(acc), lhs)
            target = h.multiply(basis[m], zb)
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = h.counit_of(h.multiply(basis[a], zb))
                if e:
                    for l in range(n):
                        if basis[b][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) xz scalar", (m, zi), tuple(acc), target)
            target = h.multiply(zb, basis[m])
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = h.counit_of(h.multiply(zb, basis[a]))
                if e:
                    for l in range(n):
                        if basis[b][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) zx scalar", (m, zi), tuple(acc), target)
        for yi, yb in enumerate(hs.basis):
            lhs = h.comultiply(h.multiply(basis[m], yb))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = h.multiply(basis[b], yb)
                for l in range(n):
                    if v[l]:
                        acc[a * n + l] = acc[a * n + l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) xy", (m, yi), tuple(acc), lhs)
            lhs = h.comultiply(h.multiply(yb, basis[m]))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = h.multiply(yb, basis[b])
                for l in range(n):
                    if v[l]:
                        acc[a * n + l] = acc[a * n + l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) yx", (m, yi), tuple(acc), lhs)
            target = h.multiply(basis[m], yb)
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = h.counit_of(h.multiply(basis[b], yb))
                if e:
                    for l in range(n):
                        if basis[a][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) xy scalar", (m, yi), tuple(acc), target)
            target = h.multiply(yb, basis[m])
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = h.counit_of(h.multiply(yb, basis[b]))
                if e:
                    for l in range(n):
                        if basis[a][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) yx scalar", (m, yi), tuple(acc), target)

    # op / cop / opcop identifications of section 2
    variants = {
        "op": (opposite(h.alg), h.coa),
        "cop": (h.alg, coopposite(h.coa)),
        "opcop": (opposite(h.alg), coopposite(h.coa)),
    }
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
    ]
    for name, attr, expected, law in expectations:
        got = getattr(built[name], attr)
        if got != expected:
            return fail(law, (), got, expected)
    subspace_expectations = [
        ("op", "ht", ht, "(H_op)_t = H_t"),
        ("op", "hs", hs, "(H_op)_s = H_s"),
        ("cop", "ht", hs, "(H_cop)_t = H_s"),
        ("cop", "hs", ht, "(H_cop)_s = H_t"),
        ("opcop", "ht", hs, "(H_opcop)_t = H_s"),
        ("opcop", "hs", ht, "(H_opcop)_s = H_t"),
    ]
    for name, attr, expected, law in subspace_expectations:
        got = getattr(built[name], attr)
        if got != expected:
            return fail(law, (), got, expected)
    if h.antipode is not None:
        if not verify_antipode(built["opcop"], h.antipode).ok:
            return fail("antipode of opcop", (), None, None)
    return Verdict.passing()
