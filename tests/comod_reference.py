"""The field-scalar comodule and map kernels that the lifted ones replaced.

Each function here is the earlier `Fraction`/`Mod` loop of its namesake in
`weakhopf.comod` or `weakhopf.tannaka`, kept in substance: the same laws in
the same order, with the same early exits and the same verdict values.  The
per-instance tables those loops read (the sparse comultiplication, the
counital pair tables, the H_s counit rows) are rebuilt here from the
structure tensors, and the relator echelon form comes from the dense
reference in `dense_matrix`, so nothing below shares a lifted table or the
int elimination with the package.
"""

from dense_matrix import echelon_basis, quotient_basis
from product_reference import comultiply, counit_of, multiply
from weakhopf.errors import InternalInconsistency, Verdict, Violation
from weakhopf.exactla import Matrix, vec_unit, vec_zero


def _dict_matrix(field, rows, cols: int):
    """The matrix whose rows are the {column: value} dicts rows (absent entries zero)."""
    return Matrix(field, [[row.get(j, field.zero) for j in range(cols)] for row in rows], cols=cols)


def _combine_rows(field, coeffs, rows) -> tuple:
    out = [field.zero] * len(rows)
    for coef, row in zip(coeffs, rows):
        if coef:
            for i, x in enumerate(row):
                if x:
                    out[i] = out[i] + coef * x
    return tuple(out)


def eps_pair_table(h):
    """E[i][j] = eps(b_i b_j)."""
    n, eps = h.dim, h.counit
    return tuple(
        tuple(
            sum((c * eps[l] for l, c in enumerate(h.mult[i][j]) if c and eps[l]), h.field.zero)
            for j in range(n)
        )
        for i in range(n)
    )


def counital_pair_tables(h):
    """(L, R) with L[j][i] = eps(eps_s'(b_j) b_i) and R[j][i] = eps(b_i eps_s(b_j))."""
    e = eps_pair_table(h)
    e_t = tuple(zip(*e))
    return (
        tuple(_combine_rows(h.field, h.eps_s_prime.col(j), e) for j in range(h.dim)),
        tuple(_combine_rows(h.field, h.eps_s.col(j), e_t) for j in range(h.dim)),
    )


def source_eps_rows(h):
    """For each H_s basis vector y, the rows (eps(y b_j))_j and (eps(b_j y))_j."""
    e = eps_pair_table(h)
    e_t = tuple(zip(*e))
    return tuple((_combine_rows(h.field, y, e), _combine_rows(h.field, y, e_t)) for y in h.hs.basis)


def comult_nz(h):
    return tuple(
        tuple((a, b, c) for a, row in enumerate(h.comult[j]) for b, c in enumerate(row) if c)
        for j in range(h.dim)
    )


def coaction_nonzeros(h, dim, coaction):
    n = h.dim
    return tuple(tuple([(divmod(r, n), c) for r, c in col]) for col in coaction.col_nz())


def _is_unit_vector(acc, i, one):
    return acc.get(i) == one and (len(acc) == 1 or not any(x for a, x in acc.items() if a != i))


def _dense(acc, dim, z):
    out = [z] * dim
    for a, x in acc.items():
        out[a] = x
    return tuple(out)


def coaction_verdict(h, dim, coaction):
    """Coassociativity, the counit law and 2.5(3)(iii), on field scalars."""
    nz = coaction_nonzeros(h, dim, coaction)
    field = h.field
    z, one = field.zero, field.one
    delta_nz = comult_nz(h)
    violations = []
    for i in range(dim):
        lhs = {}
        rhs = {}
        for (a, j), c in nz[i]:
            for (a2, j2), c2 in nz[a]:
                key = (a2, j2, j)
                lhs[key] = lhs.get(key, z) + c * c2
            for j2, k2, d in delta_nz[j]:
                key = (a, j2, k2)
                rhs[key] = rhs.get(key, z) + c * d
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            violations.append(
                Violation("comodule coassociativity", (i,), sorted(lhs.items()), sorted(rhs.items()))
            )
    eps = h.counit
    for i in range(dim):
        acc = {}
        for (a, j), c in nz[i]:
            if eps[j]:
                acc[a] = acc.get(a, z) + c * eps[j]
        if not _is_unit_vector(acc, i, one):
            violations.append(
                Violation("comodule counit", (i,), _dense(acc, dim, z), vec_unit(field, dim, i))
            )
    if violations:
        return Verdict(tuple(violations))
    left_pairs, right_pairs = counital_pair_tables(h)
    for i in range(dim):
        left = {}
        right = {}
        for (a, j), c in nz[i]:
            for (a2, j1), c2 in nz[a]:
                es = left_pairs[j][j1]
                er = right_pairs[j][j1]
                if es:
                    left[a2] = left.get(a2, z) + c * c2 * es
                if er:
                    right[a2] = right.get(a2, z) + c * c2 * er
        if not _is_unit_vector(left, i, one):
            violations.append(
                Violation("2.5(3)(iii) left", (i,), _dense(left, dim, z), vec_unit(field, dim, i))
            )
        if not _is_unit_vector(right, i, one):
            violations.append(
                Violation("2.5(3)(iii) right", (i,), _dense(right, dim, z), vec_unit(field, dim, i))
            )
    return Verdict(tuple(violations))


def actions(h, c):
    """(left_act, right_act) of the comodule c, on field scalars."""
    nz = coaction_nonzeros(h, c.dim, c.coaction)
    z, dim = h.field.zero, c.dim
    left = []
    right = []
    for y_left, y_right in source_eps_rows(h):
        lm = [{} for _ in range(dim)]
        rm = [{} for _ in range(dim)]
        for b in range(dim):
            for (a, j), coef in nz[b]:
                if y_left[j]:
                    lm[a][b] = lm[a].get(b, z) + coef * y_left[j]
                if y_right[j]:
                    rm[a][b] = rm[a].get(b, z) + coef * y_right[j]
        left.append(_dict_matrix(h.field, lm, dim))
        right.append(_dict_matrix(h.field, rm, dim))
    return tuple(left), tuple(right)


def truncation(left, right):
    """The matrix of E(m (x) n) = m_(0) (x) n_(0) eps(m_(1) n_(1)) on the plain
    tensor product of left and right."""
    h = left.over
    e = eps_pair_table(h)
    m, p = left.dim, right.dim
    left_nz = coaction_nonzeros(h, m, left.coaction)
    right_nz = coaction_nonzeros(h, p, right.coaction)
    cols = []
    for a in range(m):
        for b in range(p):
            col = [h.field.zero] * (m * p)
            for (a2, j), c1 in left_nz[a]:
                for (b2, k), c2 in right_nz[b]:
                    col[a2 * p + b2] = col[a2 * p + b2] + c1 * c2 * e[j][k]
            cols.append(col)
    return Matrix.from_cols(h.field, cols, rows=m * p)


def tensor_data(left, right):
    """(relator basis, reps, projection, section, coaction) of left (x)_{H_s} right.

    The relator echelon form and the quotient data come from the dense
    reference; the descent sentinel runs on every relator as before.
    """
    h = left.over
    n, field = h.dim, h.field
    z = field.zero
    m, p = left.dim, right.dim
    amb = m * p
    _, left_right = actions(h, left)
    right_left, _ = actions(h, right)
    gens = {}
    for rm, ln in zip(left_right, right_left):
        rcols, lcols = rm.col_nz(), ln.col_nz()
        for a in range(m):
            for b in range(p):
                w = {}
                for a2, cc in rcols[a]:
                    w[a2 * p + b] = w.get(a2 * p + b, z) + cc
                for b2, cc in lcols[b]:
                    w[a * p + b2] = w.get(a * p + b2, z) - cc
                key = tuple(sorted((k, v) for k, v in w.items() if v))
                if key:
                    gens[key] = None
    vectors = []
    for key in gens:
        w = [z] * amb
        for k, v in key:
            w[k] = v
        vectors.append(tuple(w))
    basis, pivots = echelon_basis(field, amb, vectors)
    reps, projection, section = quotient_basis(field, amb, basis, pivots)
    t = len(reps)
    proj_cols = Matrix(field, projection.entries, cols=amb).col_nz()
    left_nz = coaction_nonzeros(h, m, left.coaction)
    right_nz = coaction_nonzeros(h, p, right.coaction)

    def big_coaction(vec_nz):
        out = {}
        for ab, x in vec_nz:
            a, b = divmod(ab, p)
            for (a2, j), c1 in left_nz[a]:
                for (b2, k), c2 in right_nz[b]:
                    for l, mu in enumerate(h.mult[j][k]):
                        if mu:
                            key = (a2 * p + b2, l)
                            out[key] = out.get(key, z) + x * c1 * c2 * mu
        return {k: v for k, v in out.items() if v}

    for v in basis:
        vec_nz = [(f, x) for f, x in enumerate(v) if x]
        for (pair, l), coef in big_coaction(vec_nz).items():
            for _, pc in proj_cols[pair]:
                if pc * coef:
                    raise InternalInconsistency("tensor coaction does not descend to the quotient")
    rows = [{} for _ in range(t * n)]
    for q, f in enumerate(reps):
        for (pair, l), coef in big_coaction([(f, field.one)]).items():
            for q2, pc in proj_cols[pair]:
                row = rows[q2 * n + l]
                row[q] = row.get(q, z) + pc * coef
    return (
        tuple(basis),
        tuple(reps),
        Matrix(field, projection.entries, cols=amb),
        Matrix(field, section.entries, cols=t),
        _dict_matrix(field, rows, t),
    )


def comodule_map_verdict(source, target, matrix):
    """The intertwining law and the bimodule-map law, on field scalars."""
    h = source.over
    z = h.field.zero
    fcols = matrix.col_nz()
    s_nz = coaction_nonzeros(h, source.dim, source.coaction)
    t_nz = coaction_nonzeros(h, target.dim, target.coaction)
    violations = []
    for i in range(source.dim):
        lhs = {}
        for b, fc in fcols[i]:
            for (a, j), c in t_nz[b]:
                lhs[(a, j)] = lhs.get((a, j), z) + fc * c
        rhs = {}
        for (a, j), c in s_nz[i]:
            for b, fc in fcols[a]:
                rhs[(b, j)] = rhs.get((b, j), z) + c * fc
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            violations.append(
                Violation("comodule map law", (i,), sorted(lhs.items()), sorted(rhs.items()))
            )
    if violations:
        return Verdict(tuple(violations))
    for r in range(h.hs.dim):
        if matrix.mul(source.left_act[r]) != target.left_act[r].mul(matrix):
            violations.append(Violation("bimodule map (left)", (r,), None, None))
        if matrix.mul(source.right_act[r]) != target.right_act[r].mul(matrix):
            violations.append(Violation("bimodule map (right)", (r,), None, None))
    return Verdict(tuple(violations))


def check_lemma25(c):
    """Lemma 2.5(3)(i)-(ii) on field scalars."""
    h = c.over
    z = h.field.zero
    nz = coaction_nonzeros(h, c.dim, c.coaction)
    left, right = c.left_act, c.right_act
    for r, y in enumerate(h.hs.basis):
        for b in range(c.dim):
            for law, act, prod in (("2.5(3)(i)", left, lambda u: multiply(h.alg, y, u)),
                                   ("2.5(3)(ii)", right, lambda u: multiply(h.alg, u, y))):
                lhs = {}
                for b2, coef in act[r].col_nz()[b]:
                    for (a, j), cc in nz[b2]:
                        lhs[(a, j)] = lhs.get((a, j), z) + coef * cc
                rhs = {}
                for (a, j), cc in nz[b]:
                    for j2, x in enumerate(prod(vec_unit(h.field, h.dim, j))):
                        if x:
                            rhs[(a, j2)] = rhs.get((a, j2), z) + cc * x
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    return Verdict((Violation(law, (r, b), sorted(lhs.items()), sorted(rhs.items())),))
    return Verdict.passing()


def unit_coaction(h):
    """The coaction of the unit comodule (H_s, Delta restricted to H_s)."""
    n, field, hs = h.dim, h.field, h.hs
    rows = [{} for _ in range(hs.dim * n)]
    for r, y in enumerate(hs.basis):
        flat = comultiply(h.coa, y)
        for k in range(n):
            wk = tuple(flat[j * n + k] for j in range(n))
            if not any(wk):
                continue
            coords = hs.coords_of(wk)
            if coords is None:
                raise InternalInconsistency("Delta(H_s) escaped H_s (x) H")
            for c, coef in enumerate(coords):
                if coef:
                    rows[c * n + k][r] = coef
    return _dict_matrix(field, rows, hs.dim)


def induced_coaction(phi, m, target):
    nk = target.dim
    z = target.field.zero
    rows = [{} for _ in range(m.dim * nk)]
    cols = phi.col_nz()
    for i, terms in enumerate(coaction_nonzeros(m.over, m.dim, m.coaction)):
        for (a, j), c in terms:
            for k, p in cols[j]:
                rows[a * nk + k][i] = rows[a * nk + k].get(i, z) + c * p
    return _dict_matrix(target.field, rows, m.dim)


def algebra_map_violations(phi, source, target):
    n = source.dim
    out = []
    basis_img = [phi.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = phi.apply(source.mult[i][j])
            rhs = multiply(target.alg, basis_img[i], basis_img[j])
            if lhs != rhs:
                out.append(Violation("not multiplicative", (i, j), lhs, rhs))
    lhs = phi.apply(source.unit)
    if lhs != target.unit:
        out.append(Violation("unit mismatch", (), lhs, target.unit))
    return out


def coalgebra_map_violations(phi, source, target):
    n, nk, field = source.dim, target.dim, source.field
    cols = phi.col_nz()
    out = []
    for i in range(n):
        lhs = comultiply(target.coa, phi.col(i))
        rhs = list(vec_zero(field, nk * nk))
        for j in range(n):
            for k in range(n):
                d = source.comult[i][j][k]
                if d:
                    for a, x in cols[j]:
                        for b, y in cols[k]:
                            rhs[a * nk + b] = rhs[a * nk + b] + d * x * y
        if lhs != tuple(rhs):
            out.append(Violation("not comultiplicative", (i,), lhs, tuple(rhs)))
        eps_lhs = counit_of(target.coa, phi.col(i))
        if eps_lhs != source.counit[i]:
            out.append(Violation("counit mismatch", (i,), eps_lhs, source.counit[i]))
    return out


def map_verdict(phi, source, target):
    violations = algebra_map_violations(phi, source, target)
    violations += coalgebra_map_violations(phi, source, target)
    for r, y in enumerate(source.hs.basis):
        if not target.hs.contains(phi.apply(y)):
            violations.append(Violation("phi(H_s) in K_s", (r,), phi.apply(y), None))
    for r, x in enumerate(source.ht.basis):
        if not target.ht.contains(phi.apply(x)):
            violations.append(Violation("phi(H_t) in K_t", (r,), phi.apply(x), None))
    return Verdict(tuple(violations))


def phi_s_matrix(phi, source, target):
    """phi restricted to H_s -> K_s in the echelon bases, or the first image outside K_s."""
    cols = []
    for y in source.hs.basis:
        img = phi.apply(y)
        coords = target.hs.coords_of(img)
        if coords is None:
            return img
        cols.append(coords)
    return Matrix.from_cols(source.field, cols, rows=target.hs.dim)


def coalgebra_layer_phi(rho_reg, h, k):
    """phi = (eps (x) id) rho^F of the regular assignment."""
    n, nk, z = h.dim, k.dim, h.field.zero
    rows = [{} for _ in range(nk)]
    for i, col in enumerate(rho_reg.col_nz()):
        for idx, c in col:
            a, kk = divmod(idx, nk)
            if h.counit[a]:
                rows[kk][i] = rows[kk].get(i, z) + h.counit[a] * c
    return _dict_matrix(h.field, rows, n)


def remark32_violations(phi, rho_reg, h, k):
    """Remark 3.2: Delta_K . phi = (phi (x) id) rho^F, column by column."""
    nk, field = k.dim, h.field
    phi_cols = phi.col_nz()
    out = []
    for i, col in enumerate(rho_reg.col_nz()):
        lhs = comultiply(k.coa, phi.col(i))
        rhs = list(vec_zero(field, nk * nk))
        for idx, c in col:
            a, kk = divmod(idx, nk)
            for b, p in phi_cols[a]:
                rhs[b * nk + kk] = rhs[b * nk + kk] + c * p
        if lhs != tuple(rhs):
            out.append(Violation("Delta_K . phi != (phi (x) id) rho^F", (i,), lhs, tuple(rhs)))
    return out

