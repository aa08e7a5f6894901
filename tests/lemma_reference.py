"""The field-scalar lemma suite that `weakbia.lemma_suite` replaced.

`ref_lemma_suite` is the earlier `Fraction`/`Mod` loop of
`weakbia.lemma_suite`, kept in substance: every identity of Lemmas 2.1-2.3,
in the same order, with the same early exit and the same verdict values.
Its op/cop/opcop variants transpose the field tensors here and are lifted
afresh by `build_weak_bialgebra`, so they do not share the transposed int
tables of the package's own variants.
"""

from product_reference import comultiply, counit_of, multiply
from weakhopf.errors import AxiomViolation, Verdict, Violation
from weakhopf.exactla import Matrix, Subspace, kernel_space, vec_unit, vec_zero
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra
from weakhopf.weakbia import build_weak_bialgebra, verify_antipode


def _opposite(a):
    n = a.dim
    mult = [[a.mult[j][i] for j in range(n)] for i in range(n)]
    return FiniteAlgebra(a.field, a.labels, mult, a.unit)


def _coopposite(c):
    n = c.dim
    comult = [[[c.comult[i][k][j] for k in range(n)] for j in range(n)] for i in range(n)]
    return FiniteCoalgebra(c.field, c.labels, comult, c.counit)


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


def _tensor_subspace(h, left, right):
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


def _full_space(h):
    n = h.dim
    return Subspace(h.field, n, [vec_unit(h.field, n, i) for i in range(n)])


def ref_lemma_suite(h):
    """Check every identity of Lemmas 2.1-2.3 plus the op/cop identifications.

    All of these are theorems for a verified weak bialgebra, so a failure
    here is a build-blocking bug, reported with the first failing identity
    and its witness.
    """
    n = h.dim
    field = h.field
    basis = [vec_unit(field, n, i) for i in range(n)]
    d1flat = comultiply(h.coa, h.unit)
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
        flat = comultiply(h.coa, basis[m])
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
    dmat = Matrix.from_cols(field, [comultiply(h.coa, b) for b in basis], rows=n * n)
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
            xty = multiply(h.alg, x, eps_t_of[j])
            sxy = multiply(h.alg, eps_s_of[i], y)
            xy = h.mult[i][j]
            if h.eps_t.apply(xty) != h.eps_t.apply(xy):
                return fail("2.2(1) t", (i, j), None, None)
            if h.eps_s.apply(sxy) != h.eps_s.apply(xy):
                return fail("2.2(1) s", (i, j), None, None)
            if counit_of(h.coa, xty) != counit_of(h.coa, xy):
                return fail("2.2(2) t", (i, j), counit_of(h.coa, xty), counit_of(h.coa, xy))
            if counit_of(h.coa, sxy) != counit_of(h.coa, xy):
                return fail("2.2(2) s", (i, j), counit_of(h.coa, sxy), counit_of(h.coa, xy))
    if tuple(h.eps_t.transpose().apply(eps_vec)) != eps_vec:
        return fail("2.2(3) t", (), None, None)
    if tuple(h.eps_s.transpose().apply(eps_vec)) != eps_vec:
        return fail("2.2(3) s", (), None, None)
    for m in range(n):
        flat = comultiply(h.coa, basis[m])
        acc_t = list(vec_zero(field, n))
        acc_s = list(vec_zero(field, n))
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            v = multiply(h.alg, eps_t_of[a], basis[b])
            w = multiply(h.alg, basis[a], eps_s_of[b])
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
        flat_i = comultiply(h.coa, basis[i])
        for j in range(n):
            lhs = multiply(h.alg, basis[i], eps_t_of[j])
            acc = list(vec_zero(field, n))
            for idx, c in enumerate(flat_i):
                if not c:
                    continue
                a, b = divmod(idx, n)
                v = multiply(h.alg, h.eps_t.apply(multiply(h.alg, basis[a], basis[j])), basis[b])
                for l in range(n):
                    if v[l]:
                        acc[l] = acc[l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.2(5) t", (i, j), tuple(acc), lhs)
            lhs2 = multiply(h.alg, eps_s_of[i], basis[j])
            flat_j = comultiply(h.coa, basis[j])
            acc2 = list(vec_zero(field, n))
            for idx, c in enumerate(flat_j):
                if not c:
                    continue
                a, b = divmod(idx, n)
                v = multiply(h.alg, basis[a], h.eps_s.apply(multiply(h.alg, basis[i], basis[b])))
                for l in range(n):
                    if v[l]:
                        acc2[l] = acc2[l] + c * v[l]
            if tuple(acc2) != lhs2:
                return fail("2.2(5) s", (i, j), tuple(acc2), lhs2)

    # Lemma 2.3
    ht, hs = h.ht, h.hs
    for zi, zb in enumerate(ht.basis):
        for j in range(n):
            lhs = multiply(h.alg, zb, eps_t_of[j])
            rhs = h.eps_t.apply(multiply(h.alg, zb, basis[j]))
            if lhs != rhs:
                return fail("2.3(1)", (zi, j), lhs, rhs)
    for i in range(n):
        for yi, yb in enumerate(hs.basis):
            lhs = multiply(h.alg, eps_s_of[i], yb)
            rhs = h.eps_s.apply(multiply(h.alg, basis[i], yb))
            if lhs != rhs:
                return fail("2.3(2)", (i, yi), lhs, rhs)
    for zi, zb in enumerate(ht.basis):
        for yi, yb in enumerate(hs.basis):
            if multiply(h.alg, zb, yb) != multiply(h.alg, yb, zb):
                return fail("2.3(3)(i)", (zi, yi), multiply(h.alg, zb, yb), multiply(h.alg, yb, zb))
    full = _full_space(h)
    h_tensor_ht = _tensor_subspace(h, full, ht)
    hs_tensor_h = _tensor_subspace(h, hs, full)
    for zi, zb in enumerate(ht.basis):
        if not h_tensor_ht.contains(comultiply(h.coa, zb)):
            return fail("2.3(3)(ii) H_t left coideal", (zi,), None, None)
    for yi, yb in enumerate(hs.basis):
        if not hs_tensor_h.contains(comultiply(h.coa, yb)):
            return fail("2.3(3)(ii) H_s right coideal", (yi,), None, None)
    if not ht.contains(h.unit):
        return fail("2.3(3)(ii) H_t unital", (), None, None)
    if not hs.contains(h.unit):
        return fail("2.3(3)(ii) H_s unital", (), None, None)
    for zi, zb in enumerate(ht.basis):
        for zj, zc in enumerate(ht.basis):
            if not ht.contains(multiply(h.alg, zb, zc)):
                return fail("2.3(3)(ii) H_t closed", (zi, zj), None, None)
    for yi, yb in enumerate(hs.basis):
        for yj, yc in enumerate(hs.basis):
            if not hs.contains(multiply(h.alg, yb, yc)):
                return fail("2.3(3)(ii) H_s closed", (yi, yj), None, None)

    # eq (2-4)
    if not _tensor_subspace(h, hs, ht).contains(d1flat):
        return fail("eq(2-4)", (), None, None)

    # 2.3(4): the four Delta identities and the four scalar forms
    for m in range(n):
        flat = comultiply(h.coa, basis[m])
        nz = [(divmod(idx, n), c) for idx, c in enumerate(flat) if c]
        for zi, zb in enumerate(ht.basis):
            lhs = comultiply(h.coa, multiply(h.alg, basis[m], zb))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = multiply(h.alg, basis[a], zb)
                for l in range(n):
                    if v[l]:
                        acc[l * n + b] = acc[l * n + b] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) xz", (m, zi), tuple(acc), lhs)
            lhs = comultiply(h.coa, multiply(h.alg, zb, basis[m]))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = multiply(h.alg, zb, basis[a])
                for l in range(n):
                    if v[l]:
                        acc[l * n + b] = acc[l * n + b] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) zx", (m, zi), tuple(acc), lhs)
            target = multiply(h.alg, basis[m], zb)
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = counit_of(h.coa, multiply(h.alg, basis[a], zb))
                if e:
                    for l in range(n):
                        if basis[b][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) xz scalar", (m, zi), tuple(acc), target)
            target = multiply(h.alg, zb, basis[m])
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = counit_of(h.coa, multiply(h.alg, zb, basis[a]))
                if e:
                    for l in range(n):
                        if basis[b][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) zx scalar", (m, zi), tuple(acc), target)
        for yi, yb in enumerate(hs.basis):
            lhs = comultiply(h.coa, multiply(h.alg, basis[m], yb))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = multiply(h.alg, basis[b], yb)
                for l in range(n):
                    if v[l]:
                        acc[a * n + l] = acc[a * n + l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) xy", (m, yi), tuple(acc), lhs)
            lhs = comultiply(h.coa, multiply(h.alg, yb, basis[m]))
            acc = list(vec_zero(field, n * n))
            for (a, b), c in nz:
                v = multiply(h.alg, yb, basis[b])
                for l in range(n):
                    if v[l]:
                        acc[a * n + l] = acc[a * n + l] + c * v[l]
            if tuple(acc) != lhs:
                return fail("2.3(4) yx", (m, yi), tuple(acc), lhs)
            target = multiply(h.alg, basis[m], yb)
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = counit_of(h.coa, multiply(h.alg, basis[b], yb))
                if e:
                    for l in range(n):
                        if basis[a][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) xy scalar", (m, yi), tuple(acc), target)
            target = multiply(h.alg, yb, basis[m])
            acc = list(vec_zero(field, n))
            for (a, b), c in nz:
                e = counit_of(h.coa, multiply(h.alg, yb, basis[b]))
                if e:
                    for l in range(n):
                        if basis[a][l]:
                            acc[l] = acc[l] + c * e
            if tuple(acc) != target:
                return fail("2.3(4) yx scalar", (m, yi), tuple(acc), target)

    # op / cop / opcop identifications of section 2
    variants = {
        "op": (_opposite(h.alg), h.coa),
        "cop": (h.alg, _coopposite(h.coa)),
        "opcop": (_opposite(h.alg), _coopposite(h.coa)),
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
