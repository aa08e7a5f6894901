"""Independent evaluation of weak-bialgebra laws from raw structure constants.

Nothing here imports the toolkit.  A document is read into a `Raw` record of
nested lists: `fractions.Fraction` entries over Q, plain ints reduced mod p
over GF(p).  The benchmark uses these functions to make its inputs (changes
of basis, perturbations) and to check the toolkit's outputs, so a check never
rests on the checker it is checking.

Conventions follow the document format: mult[i][j][k] is the coefficient of
b_k in b_i b_j, comult[i][j][k] the coefficient of b_j (x) b_k in Delta(b_i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Raw:
    p: int  # 0 for Q, the characteristic for GF(p)
    mult: list
    unit: list
    comult: list
    counit: list
    antipode: list | None = None  # antipode[r][c]: coefficient of b_r in S(b_c)

    @property
    def n(self) -> int:
        return len(self.unit)

    def norm(self, x):
        return x % self.p if self.p else x

    def zero(self):
        return 0 if self.p else Fraction(0)


def parse_scalar(s: str, p: int):
    return int(s) % p if p else Fraction(s)


def field_prime(name: str) -> int:
    if name == "Q":
        return 0
    if name.startswith("GF(") and name.endswith(")"):
        return int(name[3:-1])
    raise ValueError(f"unknown field {name!r}")


def raw_from_doc(doc: dict) -> Raw:
    p = field_prime(doc["field"])

    def grid(g):
        return [[parse_scalar(x, p) for x in row] for row in g]

    return Raw(
        p,
        [grid(sl) for sl in doc["mult"]],
        [parse_scalar(x, p) for x in doc["unit"]],
        [grid(sl) for sl in doc["comult"]],
        [parse_scalar(x, p) for x in doc["counit"]],
        grid(doc["antipode"]) if "antipode" in doc else None,
    )


def raw_from_text(text: str) -> Raw:
    return raw_from_doc(json.loads(text))


def doc_from_raw(raw: Raw, labels=None) -> dict:
    """A canonical wba/1 document (key order and scalar strings as emitted)."""
    n = raw.n
    s = str  # str(Fraction) is "a" or "a/b" in lowest terms; residues are ints
    doc = {
        "format_version": "wba/1",
        "field": "Q" if raw.p == 0 else f"GF({raw.p})",
        "dim": n,
        "basis": list(labels) if labels is not None else [f"v{i}" for i in range(n)],
        "mult": [[[s(x) for x in row] for row in sl] for sl in raw.mult],
        "unit": [s(x) for x in raw.unit],
        "comult": [[[s(x) for x in row] for row in sl] for sl in raw.comult],
        "counit": [s(x) for x in raw.counit],
    }
    if raw.antipode is not None:
        doc["antipode"] = [[s(x) for x in row] for row in raw.antipode]
    return doc


def text_from_raw(raw: Raw, labels=None) -> str:
    return json.dumps(doc_from_raw(raw, labels), indent=1) + "\n"


# ---------------------------------------------------------------------------
# elementwise algebra on raw constants


def basis_vec(raw: Raw, i: int) -> list:
    v = [raw.zero()] * raw.n
    v[i] = raw.norm(1 if raw.p else Fraction(1))
    return v


def mul(raw: Raw, x, y) -> list:
    n = raw.n
    out = [raw.zero()] * n
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            ab = a * b
            for k, c in enumerate(raw.mult[i][j]):
                if c:
                    out[k] += ab * c
    return [raw.norm(v) for v in out]


def comul(raw: Raw, x) -> list:
    """Delta(x) as an n x n grid g[j][k] (coefficient of b_j (x) b_k)."""
    n = raw.n
    out = [[raw.zero()] * n for _ in range(n)]
    for i, a in enumerate(x):
        if not a:
            continue
        for j in range(n):
            row = raw.comult[i][j]
            for k in range(n):
                if row[k]:
                    out[j][k] += a * row[k]
    return [[raw.norm(v) for v in row] for row in out]


def eps(raw: Raw, x):
    return raw.norm(sum((a * e for a, e in zip(x, raw.counit)), raw.zero()))


def antipode_of(raw: Raw, x) -> list:
    n = raw.n
    s = raw.antipode
    return [raw.norm(sum((s[r][c] * x[c] for c in range(n)), raw.zero())) for r in range(n)]


def _tensor2_mul(raw: Raw, g, h):
    """Product in H (x) H of grids g and h."""
    n = raw.n
    out = [[raw.zero()] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if not g[a][b]:
                continue
            for c in range(n):
                for d in range(n):
                    if not h[c][d]:
                        continue
                    coef = g[a][b] * h[c][d]
                    left = raw.mult[a][c]
                    right = raw.mult[b][d]
                    for m in range(n):
                        if left[m]:
                            for l in range(n):
                                if right[l]:
                                    out[m][l] += coef * left[m] * right[l]
    return [[raw.norm(v) for v in row] for row in out]


def _delta2(raw: Raw, x) -> dict:
    """(Delta (x) id) Delta(x) as {(a, b, c): coef}."""
    out = {}
    g = comul(raw, x)
    n = raw.n
    for j in range(n):
        for k in range(n):
            if not g[j][k]:
                continue
            inner = comul(raw, basis_vec(raw, j))
            for a in range(n):
                for b in range(n):
                    if inner[a][b]:
                        key = (a, b, k)
                        out[key] = out.get(key, raw.zero()) + g[j][k] * inner[a][b]
    return _clean(raw, out)


def _clean(raw: Raw, d: dict) -> dict:
    return {k: raw.norm(v) for k, v in d.items() if raw.norm(v)}


def _eps_t(raw: Raw, x) -> list:
    """eps_t(x) = eps(1_(1) x) 1_(2)."""
    d1 = comul(raw, raw.unit)
    n = raw.n
    out = [raw.zero()] * n
    for j in range(n):
        for k in range(n):
            if d1[j][k]:
                out[k] += d1[j][k] * eps(raw, mul(raw, basis_vec(raw, j), x))
    return [raw.norm(v) for v in out]


def _eps_s(raw: Raw, x) -> list:
    """eps_s(x) = 1_(1) eps(x 1_(2))."""
    d1 = comul(raw, raw.unit)
    n = raw.n
    out = [raw.zero()] * n
    for j in range(n):
        for k in range(n):
            if d1[j][k]:
                out[j] += d1[j][k] * eps(raw, mul(raw, x, basis_vec(raw, k)))
    return [raw.norm(v) for v in out]


def law_sides(raw: Raw, law: str, witness: tuple):
    """Both sides of one law instance, evaluated from the raw constants.

    Laws and witnesses are named as the toolkit's verdicts name them, so a
    reported violation can be re-evaluated here.  Raises KeyError for a law
    this module does not know.
    """
    e = lambda i: basis_vec(raw, i)  # noqa: E731
    n = raw.n
    if law == "associativity":
        i, j, k = witness
        return mul(raw, mul(raw, e(i), e(j)), e(k)), mul(raw, e(i), mul(raw, e(j), e(k)))
    if law == "unit-left":
        (i,) = witness
        return mul(raw, raw.unit, e(i)), e(i)
    if law == "unit-right":
        (i,) = witness
        return mul(raw, e(i), raw.unit), e(i)
    if law == "coassociativity":
        (i,) = witness
        g = comul(raw, e(i))
        rhs = {}
        for j in range(n):
            for k in range(n):
                if not g[j][k]:
                    continue
                inner = comul(raw, e(k))
                for a in range(n):
                    for b in range(n):
                        if inner[a][b]:
                            key = (j, a, b)
                            rhs[key] = rhs.get(key, raw.zero()) + g[j][k] * inner[a][b]
        return _delta2(raw, e(i)), _clean(raw, rhs)
    if law in ("counit-left", "counit-right"):
        (i,) = witness
        g = comul(raw, e(i))
        if law == "counit-left":
            got = [sum((raw.counit[j] * g[j][k] for j in range(n)), raw.zero()) for k in range(n)]
        else:
            got = [sum((raw.counit[k] * g[j][k] for k in range(n)), raw.zero()) for j in range(n)]
        return [raw.norm(v) for v in got], e(i)
    if law == "WH1":
        i, j = witness
        return comul(raw, mul(raw, e(i), e(j))), _tensor2_mul(raw, comul(raw, e(i)), comul(raw, e(j)))
    if law == "WH2":
        (which,) = witness
        d1 = comul(raw, raw.unit)
        rhs = {}
        for j in range(n):
            for k in range(n):
                if not d1[j][k]:
                    continue
                for jp in range(n):
                    for kp in range(n):
                        if not d1[jp][kp]:
                            continue
                        mid = raw.mult[k][jp] if which == "first" else raw.mult[jp][k]
                        for m in range(n):
                            if mid[m]:
                                key = (j, m, kp)
                                rhs[key] = rhs.get(key, raw.zero()) + d1[j][k] * d1[jp][kp] * mid[m]
        return _delta2(raw, raw.unit), _clean(raw, rhs)
    if law in ("WH3(i)", "WH3(ii)"):
        i, j, k = witness
        lhs = eps(raw, mul(raw, mul(raw, e(i), e(j)), e(k)))
        g = comul(raw, e(j))
        rhs = raw.zero()
        for a in range(n):
            for b in range(n):
                if not g[a][b]:
                    continue
                first, second = (a, b) if law == "WH3(i)" else (b, a)
                rhs += g[a][b] * eps(raw, mul(raw, e(i), e(first))) * eps(raw, mul(raw, e(second), e(k)))
        return lhs, raw.norm(rhs)
    if law in ("WH4(i)", "WH4(ii)", "WH4(iii)"):
        (i,) = witness
        g = comul(raw, e(i))
        acc = [raw.zero()] * n
        if law == "WH4(iii)":
            for (a, b, c), coef in _delta2(raw, e(i)).items():
                v = mul(raw, mul(raw, antipode_of(raw, e(a)), e(b)), antipode_of(raw, e(c)))
                acc = [x + coef * y for x, y in zip(acc, v)]
            return [raw.norm(v) for v in acc], antipode_of(raw, e(i))
        for a in range(n):
            for b in range(n):
                if not g[a][b]:
                    continue
                if law == "WH4(i)":
                    v = mul(raw, e(a), antipode_of(raw, e(b)))
                else:
                    v = mul(raw, antipode_of(raw, e(a)), e(b))
                acc = [x + g[a][b] * y for x, y in zip(acc, v)]
        rhs = _eps_t(raw, e(i)) if law == "WH4(i)" else _eps_s(raw, e(i))
        return [raw.norm(v) for v in acc], rhs
    raise KeyError(law)


def violation_holds(raw: Raw, law: str, witness: tuple) -> bool:
    """True when the law really fails at the witness."""
    try:
        lhs, rhs = law_sides(raw, law, tuple(witness))
    except (KeyError, ValueError, IndexError, TypeError):
        return False
    return lhs != rhs


# ---------------------------------------------------------------------------
# changes of basis


def mat_inverse(p_mat) -> list:
    """Exact inverse of an invertible square matrix of ints, over Q."""
    n = len(p_mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p_mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_basis(raw: Raw, p_mat) -> Raw:
    """The same weak bialgebra in the basis b'_i = sum_j p_mat[j][i] b_j (over Q)."""
    n = raw.n
    q = mat_inverse(p_mat)
    cols = [[Fraction(p_mat[j][i]) for j in range(n)] for i in range(n)]

    def back(v):  # old coordinates -> new coordinates
        return [sum((q[r][k] * v[k] for k in range(n) if v[k]), Fraction(0)) for r in range(n)]

    mult = [[back(mul(raw, cols[i], cols[j])) for j in range(n)] for i in range(n)]
    comult = []
    for i in range(n):
        g = comul(raw, cols[i])
        half = [back([g[b][c] for b in range(n)]) for c in range(n)]  # half[c][r]
        comult.append([back([half[c][r] for c in range(n)]) for r in range(n)])
    unit = back(raw.unit)
    counit = [eps(raw, cols[i]) for i in range(n)]
    antipode = None
    if raw.antipode is not None:
        img = [back(antipode_of(raw, cols[i])) for i in range(n)]
        antipode = [[img[c][r] for c in range(n)] for r in range(n)]
    return Raw(0, mult, unit, comult, counit, antipode)


def scale_basis(raw: Raw, scales) -> Raw:
    """The same weak bialgebra in the basis b'_i = scales[i] b_i, over any field."""
    n = raw.n
    c = [raw.norm(x) for x in scales]
    inv = [pow(x, -1, raw.p) if raw.p else 1 / Fraction(x) for x in c]
    mult = [[[raw.norm(c[i] * c[j] * inv[k] * raw.mult[i][j][k]) for k in range(n)]
             for j in range(n)] for i in range(n)]
    comult = [[[raw.norm(c[i] * inv[a] * inv[b] * raw.comult[i][a][b]) for b in range(n)]
               for a in range(n)] for i in range(n)]
    unit = [raw.norm(inv[k] * raw.unit[k]) for k in range(n)]
    counit = [raw.norm(c[i] * raw.counit[i]) for i in range(n)]
    antipode = None
    if raw.antipode is not None:
        antipode = [[raw.norm(c[col] * inv[r] * raw.antipode[r][col]) for col in range(n)]
                    for r in range(n)]
    return Raw(raw.p, mult, unit, comult, counit, antipode)


def wh1_work(raw: Raw) -> int:
    """Products the sparse (WH1) check forms: a cost model of verification."""
    n = raw.n
    mnz = [[sum(1 for x in raw.mult[a][c] if x) for c in range(n)] for a in range(n)]
    dnz = [[(a, b) for a in range(n) for b in range(n) if raw.comult[i][a][b]] for i in range(n)]
    total = 0
    for i in range(n):
        for j in range(n):
            for a, b in dnz[i]:
                for c, d in dnz[j]:
                    total += mnz[a][c] * mnz[b][d]
    return total


def scalar_height(raw: Raw) -> int:
    """Largest bit length of a numerator or denominator among the constants."""
    h = 0
    for t in (raw.mult, raw.comult):
        for sl in t:
            for row in sl:
                for x in row:
                    if x:
                        h = max(h, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return h


# ---------------------------------------------------------------------------
# comodule and map checks


def counit_law_holds(raw: Raw, coaction, dim: int) -> bool:
    """(id (x) eps) rho = id for a coaction grid with rows indexed a*n + j."""
    n = raw.n
    for i in range(dim):
        for a in range(dim):
            acc = sum((coaction[a * n + j][i] * raw.counit[j] for j in range(n)), raw.zero())
            if raw.norm(acc) != raw.norm(int(a == i)):
                return False
    return True
