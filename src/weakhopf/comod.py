"""Right comodules over a weak bialgebra and their monoidal structure.

A comodule is a coaction matrix rho: M -> M (x) H with row-major tensor
coordinates, the pair (a, j) at index a*n + j.  The tensor product of two
comodules is taken over the source subalgebra H_s: the plain tensor product
modulo the balancing relators (m.y) (x) n - m (x) (y.n), carried concretely as
canonical quotient data (representative indices, projection, section).  A
comodule built from a coaction matrix verifies its axioms; one derived from
verified objects by a README proposition (`Comodule._derived`) does not.
Induced maps are verified to descend to the quotient before they are accepted.

Coactions, action tensors, relators and quotient data are sparse `Matrix`
and `Subspace` objects.  Every law is decided on their int lifts, and field
elements are rebuilt only for the public matrices and a reported witness.
"""

from __future__ import annotations

from .errors import (
    AxiomViolation,
    InternalInconsistency,
    MalformedInput,
    PreconditionError,
    Verdict,
    Violation,
)
from .exactla import (
    Matrix,
    Subspace,
    _int_kernel,
    inverse,
    _int_quotient,
    ints_to_field,
    lift_to_ints,
    vec_zero,
)
from .structure import _comul, _dict_violation, _field_items, _sides_differ, _unit_violation
from .weakbia import WeakBialgebra


def coaction_verdict(h: WeakBialgebra, dim: int, coaction: Matrix) -> Verdict:
    """Check the comodule axioms for a claimed coaction matrix.

    Checks, exactly: coassociativity, the counit law, and the counital
    identity eps_s'(m_(1)) . m_(0) = m = m_(0) . eps_s(m_(1)).
    """
    return _coaction_nz_verdict(h, dim, *_coaction_ints(h, dim, coaction))


def _coaction_ints(h: WeakBialgebra, dim: int, coaction: Matrix) -> tuple:
    """(nz, scale): per column i the lifted nonzeros (a, j, c) of rho(m_i), by row index."""
    n = h.dim
    if coaction.field != h.field:
        raise MalformedInput("coaction over the wrong field")
    if coaction.rows != dim * n or coaction.cols != dim:
        raise MalformedInput(
            f"coaction must be {dim * n}x{dim}, got {coaction.rows}x{coaction.cols}"
        )
    cols, scale = coaction.col_ints()
    return tuple([tuple([(*divmod(r, n), c) for r, c in col]) for col in cols]), scale


def _coaction_nz_verdict(h: WeakBialgebra, dim: int, nz, s: int) -> Verdict:
    """The comodule axioms of `coaction_verdict` on the lifted nonzeros nz at scale s."""
    field = h.field
    p = field.characteristic
    dnz, sd, eps, se = h.coa.ints()
    violations = []
    # coassociativity: (rho (x) id) rho = (id (x) Delta) rho
    for i in range(dim):
        lhs = {}
        rhs = {}
        for a, j, c in nz[i]:
            for a2, j2, c2 in nz[a]:
                key = (a2, j2, j)
                lhs[key] = lhs.get(key, 0) + c * c2
            for j2, k2, d in dnz[j]:
                key = (a, j2, k2)
                rhs[key] = rhs.get(key, 0) + c * d
        if _sides_differ(p, lhs, s * s, rhs, s * sd):
            violations.append(
                _dict_violation(field, "comodule coassociativity", (i,), lhs, s * s, rhs, s * sd))
    # counit: (id (x) eps) rho = id, on acc minus the unit vector
    for i in range(dim):
        acc = {i: -s * se}
        for a, j, c in nz[i]:
            if eps[j]:
                acc[a] = acc.get(a, 0) + c * eps[j]
        if any([x % p for x in acc.values()] if p else acc.values()):
            violations.append(_unit_violation(field, "comodule counit", i, acc, s * se, dim))
    if violations:
        return Verdict(tuple(violations))
    # 2.5(3)(iii) via the double expansion (coassociativity already holds)
    left_pairs, right_pairs, sp, _, _ = h.comodule_ints()
    for i in range(dim):
        for law, pairs in (("2.5(3)(iii) left", left_pairs), ("2.5(3)(iii) right", right_pairs)):
            acc = {i: -s * s * sp}
            for a, j, c in nz[i]:
                pj = pairs[j]
                for a2, j1, c2 in nz[a]:
                    if pj[j1]:
                        acc[a2] = acc.get(a2, 0) + c * c2 * pj[j1]
            if any([x % p for x in acc.values()] if p else acc.values()):
                violations.append(_unit_violation(field, law, i, acc, s * s * sp, dim))
    return Verdict(tuple(violations))


class Comodule:
    """A verified right comodule with its (H_s, H_s)-action tensors.

    The lifted coaction (`ints`) is made with the instance; the action tensors
    (`act_ints`) and their field matrices `left_act` and `right_act` are built
    on first read.
    """

    __slots__ = ("over", "dim", "coaction", "_ints", "_acts", "_act_matrices")

    def __init__(self, over: WeakBialgebra, dim: int, coaction: Matrix):
        self._attach(over, dim, coaction)
        verdict = _coaction_nz_verdict(over, dim, *self._ints)
        if not verdict.ok:
            raise AxiomViolation(verdict, "comodule axioms")

    def _attach(self, over, dim, coaction):
        slots = dict(over=over, dim=dim, coaction=coaction, _ints=_coaction_ints(over, dim, coaction),
                     _acts=None, _act_matrices=None)
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _derived(cls, over: WeakBialgebra, dim: int, coaction: Matrix) -> "Comodule":
        """A comodule whose axioms follow from those of the verified objects it is
        made from (the README): its coaction is lifted and kept, not verified."""
        c = object.__new__(cls)
        c._attach(over, dim, coaction)
        return c

    def __setattr__(self, name, val):
        raise AttributeError("Comodule is immutable")

    def ints(self) -> tuple:
        """(nz, scale): nz[i] lists the lifted nonzeros (a, j, c) of rho(m_i) at scale."""
        return self._ints

    def act_ints(self) -> tuple:
        """(left, right, scale): left[r][b] and right[r][b] are the {a: int} columns
        of y_r . m_b and m_b . y_r at scale, for the H_s basis vectors y_r; built on first read."""
        if self._acts is None:
            nz, s = self._ints
            *_, eps_rows, sy = self.over.comodule_ints()
            acts = ([], [])
            for ys in eps_rows:
                for side, y in zip(acts, ys):
                    cols = [{} for _ in range(self.dim)]
                    for col, terms in zip(cols, nz):
                        for a, j, c in terms:
                            if y[j]:
                                col[a] = col.get(a, 0) + c * y[j]
                    side.append(cols)
            object.__setattr__(self, "_acts", (*acts, s * sy))
        return self._acts

    @property
    def left_act(self) -> tuple:
        """The matrices of m -> y_r . m, one per H_s basis vector y_r, built on first read."""
        return self._matrices()[0]

    @property
    def right_act(self) -> tuple:
        """The matrices of m -> m . y_r, one per H_s basis vector y_r, built on first read."""
        return self._matrices()[1]

    def _matrices(self) -> tuple:
        if self._act_matrices is None:
            *sides, s = self.act_ints()
            mats = [tuple([Matrix.from_int_cols(self.over.field, cols, s, self.dim) for cols in side])
                    for side in sides]
            object.__setattr__(self, "_act_matrices", tuple(mats))
        return self._act_matrices

    def coact_nonzeros(self, i: int) -> list:
        """The nonzero entries ((a, j), c) of rho(m_i), by row index."""
        nz, s = self._ints
        values = ints_to_field(self.over.field, tuple([c for _, _, c in nz[i]]), s)
        return [((a, j), x) for (a, j, _), x in zip(nz[i], values)]

    def same_structure(self, other: "Comodule") -> bool:
        return (
            self.over is other.over
            and self.dim == other.dim
            and self.coaction == other.coaction
        )

    def __repr__(self):
        return f"Comodule(dim {self.dim} over dim-{self.over.dim} weak bialgebra)"


class ComoduleMap:
    """A verified comodule map; also an (H_s, H_s)-bimodule map by Lemma-level checks."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Comodule, target: Comodule, matrix: Matrix):
        if source.over is not target.over:
            raise MalformedInput("comodule map between different weak bialgebras")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise MalformedInput(
                f"map must be {target.dim}x{source.dim}, got {matrix.rows}x{matrix.cols}"
            )
        verdict = comodule_map_verdict(source, target, matrix)
        if not verdict.ok:
            raise AxiomViolation(verdict, "comodule map")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, val):
        raise AttributeError("ComoduleMap is immutable")

    @staticmethod
    def _trusted(source: Comodule, target: Comodule, matrix: Matrix) -> "ComoduleMap":
        """For maps that are comodule maps by arithmetic (e.g. composites)."""
        m = object.__new__(ComoduleMap)
        object.__setattr__(m, "source", source)
        object.__setattr__(m, "target", target)
        object.__setattr__(m, "matrix", matrix)
        return m

    @staticmethod
    def identity(c: Comodule) -> "ComoduleMap":
        return ComoduleMap._trusted(c, c, Matrix.identity(c.over.field, c.dim))

    def compose(self, other: "ComoduleMap") -> "ComoduleMap":
        """self after other."""
        if not other.target.same_structure(self.source):
            raise MalformedInput("composition mismatch")
        return ComoduleMap._trusted(
            other.source, self.target, self.matrix.mul(other.matrix)
        )

    def is_isomorphism(self) -> bool:
        return inverse(self.matrix) is not None


def comodule_map_verdict(source: Comodule, target: Comodule, matrix: Matrix) -> Verdict:
    """Check the intertwining law and the induced bimodule-map property."""
    h = source.over
    field = h.field
    p = field.characteristic
    fcols, sf = matrix.col_ints()
    snz, ss = source.ints()
    tnz, st = target.ints()
    violations = []
    for i in range(source.dim):
        lhs = {}
        for b, fc in fcols[i]:
            for a, j, c in tnz[b]:
                key = (a, j)
                lhs[key] = lhs.get(key, 0) + fc * c
        rhs = {}
        for a, j, c in snz[i]:
            for b, fc in fcols[a]:
                key = (b, j)
                rhs[key] = rhs.get(key, 0) + c * fc
        if _sides_differ(p, lhs, sf * st, rhs, ss * sf):
            violations.append(_dict_violation(field, "comodule map law", (i,), lhs, sf * st, rhs, ss * sf))
    if violations:
        return Verdict(tuple(violations))
    sl, sr, sa = source.act_ints()
    tl, tr, sb = target.act_ints()
    for r in range(h.hs.dim):
        for law, a, b in (("bimodule map (left)", sl, tl), ("bimodule map (right)", sr, tr)):
            if not _intertwines(p, fcols, sf, a[r], sa, b[r], sb):
                violations.append(Violation(law, (r,), None, None))
    return Verdict(tuple(violations))


def _intertwines(p: int, fcols, sf: int, acols, sa: int, bcols, sb: int) -> bool:
    """F A == B F, column by column, for F given by its lifted columns fcols at
    scale sf and A, B by their {row: int} columns at scales sa, sb."""
    for acol, fcol in zip(acols, fcols):
        lhs = {}
        for k, v in acol.items():
            for r, x in fcols[k]:
                lhs[r] = lhs.get(r, 0) + v * x
        rhs = {}
        for k, v in fcol:
            for r, x in bcols[k].items():
                rhs[r] = rhs.get(r, 0) + v * x
        if _sides_differ(p, lhs, sa * sf, rhs, sf * sb):
            return False
    return True


def regular_comodule(h: WeakBialgebra) -> Comodule:
    """H coacting on itself by the comultiplication."""
    return Comodule(h, h.dim, h.comult_matrix())


def unit_comodule(h: WeakBialgebra) -> Comodule:
    """The unit object (H_s, Delta restricted to H_s)."""
    n = h.dim
    hs = h.hs
    s = hs.dim
    dnz, sd, _, _ = h.coa.ints()
    ys, sy = hs.ints()
    cols = [{} for _ in range(s)]
    for r, y in enumerate(ys):
        flat = _comul(dnz, y)
        for k in range(n):
            wk = flat[k::n]
            if not any(wk):
                continue
            if not hs.contains_ints(wk):
                raise InternalInconsistency("Delta(H_s) escaped H_s (x) H")
            for c, piv in enumerate(hs.pivots):
                cols[r][c * n + k] = wk[piv]
    return Comodule(h, s, Matrix.from_int_cols(h.field, cols, sy * sd, s * n))


def bimodule_action(c: Comodule, side: str, y, m) -> tuple:
    """Evaluate y . m or m . y for y in H_s, via the cached action tensors."""
    if side not in ("left", "right"):
        raise MalformedInput("side must be 'left' or 'right'")
    h = c.over
    if len(y) != h.dim:
        raise MalformedInput("element length does not match the weak bialgebra")
    coords = h.hs.coords_of(y)
    if coords is None:
        raise PreconditionError("element is not in the source subalgebra H_s")
    acts = c.left_act if side == "left" else c.right_act
    out = list(vec_zero(h.field, c.dim))
    for coef, mat in zip(coords, acts):
        if not coef:
            continue
        v = mat.apply(m)
        for i, x in enumerate(v):
            if x:
                out[i] = out[i] + coef * x
    return tuple(out)


class TensorComodule(Comodule):
    """M (x)_{H_s} N with its quotient data and the induced diagonal coaction.

    The relators span the image of 1 - E for the truncation idempotent
    E(m (x) n) = m_(0) (x) n_(0) eps(m_(1) n_(1)) (see the README), so they are
    generated by the m*p vectors e_f - E(e_f).  Their reduced int rows give
    `reps` and the int columns of the projection (`projection_ints`);
    `relators`, `projection` and `section` are field views built on first read.
    """

    __slots__ = ("factors", "reps", "_relator_rows", "_proj", "_views")

    def __init__(self, left: Comodule, right: Comodule):
        if left.over is not right.over:
            raise MalformedInput("tensor product across different weak bialgebras")
        h = left.over
        char = h.field.characteristic
        m, p = left.dim, right.dim
        (left_nz, sl), (right_nz, sr) = left.ints(), right.ints()
        e, se = h.eps_pair_ints()
        # the relator generators e_f - E(e_f), at scale sl * sr * se
        gens = []
        for a in range(m):
            for b in range(p):
                w = {a * p + b: sl * sr * se}
                for a2, j, c1 in left_nz[a]:
                    ej = e[j]
                    for b2, k, c2 in right_nz[b]:
                        if ej[k]:
                            w[a2 * p + b2] = w.get(a2 * p + b2, 0) - c1 * c2 * ej[k]
                gens.append(w)
        rows, reps, proj, sp = _int_quotient(char, m * p, gens)
        mnz = h.alg.ints()[0]
        # descent: the coaction must map relators into relators (x) H
        for row in rows.values():
            for (pair, l), coef in _diagonal_coaction(mnz, left_nz, right_nz, p, row.items()).items():
                if proj[pair] and (coef % char if char else coef):
                    raise InternalInconsistency("tensor coaction does not descend to the quotient")
        for name, value in (("factors", (left, right)), ("reps", reps), ("_relator_rows", rows),
                            ("_proj", (proj, sp)), ("_views", {})):
            object.__setattr__(self, name, value)
        cols, scale = _quotient_coaction(h.alg, left.ints(), right.ints(), reps, (proj, sp))
        super().__init__(h, len(reps), Matrix.from_int_cols(h.field, cols, scale, len(reps) * h.dim))

    def projection_ints(self) -> tuple:
        """(cols, scale): cols[f] is the {rep index: int} column of e_f in the projection, at scale."""
        return self._proj

    def _view(self, name: str, build):
        if name not in self._views:
            self._views[name] = build(self.over.field, len(self._proj[0]))
        return self._views[name]

    @property
    def relators(self) -> Subspace:
        """The relator span in canonical echelon form, built on first read."""
        return self._view("relators", lambda f, amb: Subspace._reduced(f, amb, self._relator_rows))

    @property
    def projection(self) -> Matrix:
        """The projection onto the quotient in the `reps` coordinates, built on first read."""
        return self._view("projection", lambda f, amb: Matrix.from_int_cols(f, *self._proj, self.dim))

    @property
    def section(self) -> Matrix:
        """The coordinate injection of the quotient at `reps`, built on first read."""
        return self._view("section", lambda f, amb: Matrix.from_int_cols(
            f, [{r: 1} for r in self.reps], 1, amb))


def _diagonal_coaction(mnz, left_nz, right_nz, p: int, vec) -> dict:
    """rho_{M (x) N} of the int vector with nonzeros vec, as {(pair, l): coef}, from the
    lifted legs of M and N (dim N = p) and multiplication mnz, at the product of their scales."""
    out = {}
    for ab, x in vec:
        a, b = divmod(ab, p)
        for a2, j, c1 in left_nz[a]:
            xc1 = x * c1
            for b2, k, c2 in right_nz[b]:
                cc = xc1 * c2
                base = a2 * p + b2
                for l, mu in mnz[j][k]:
                    key = (base, l)
                    out[key] = out.get(key, 0) + cc * mu
    return out


def _quotient_coaction(alg, left, right, reps, proj) -> tuple:
    """(cols, scale): the {row: int} columns of the coaction of (M (x) N) / relators at
    the representatives reps, row q * n + l for rep q (x) b_l.  left and right are the
    lifted legs (nz, scale) of M and N as `Comodule.ints()` gives them, alg the
    n-dimensional algebra they coact in, and proj = (cols, scale) the projection's int
    columns: the diagonal coaction of each rep, projected by proj."""
    (left_nz, sl), (right_nz, sr), (pcols, sp) = left, right, proj
    mnz, sm, _, _ = alg.ints()
    n = len(mnz)
    cols = [{} for _ in reps]
    for col, f in zip(cols, reps):
        for (pair, l), coef in _diagonal_coaction(mnz, left_nz, right_nz, len(right_nz), [(f, 1)]).items():
            for q2, pc in pcols[pair].items():
                col[q2 * n + l] = col.get(q2 * n + l, 0) + pc * coef
    return cols, sp * sl * sr * sm


def tensor_over_source(a: Comodule, b: Comodule) -> TensorComodule:
    """The comodule tensor product over H_s with the induced coaction."""
    return TensorComodule(a, b)


def tensor_map(
    f: ComoduleMap,
    g: ComoduleMap,
    src: TensorComodule | None = None,
    dst: TensorComodule | None = None,
) -> ComoduleMap:
    """The induced map f (x)_{H_s} g on quotient representatives."""
    if src is None:
        src = tensor_over_source(f.source, g.source)
    if dst is None:
        dst = tensor_over_source(f.target, g.target)
    projected = dst.projection.mul(f.matrix.kron(g.matrix))
    for v in src.relators.basis:
        if any(projected.apply(v)):
            raise InternalInconsistency("f (x) g does not preserve the relators")
    mat = projected.mul(src.section)
    return ComoduleMap(src, dst, mat)


def unitors(c: Comodule):
    """The four unit isomorphisms (l, l_inverse, r, r_inverse) for c."""
    h = c.over
    field = h.field
    s = h.hs.dim
    m = c.dim
    unit_c = unit_comodule(h)
    one_s = h.hs.coords_of(h.unit)
    if one_s is None:
        raise InternalInconsistency("the unit escaped H_s")
    out = []
    # y_r (x) m_b sits at r*m + b in unit (x) c, and m_b (x) y_r at b*s + r in c (x) unit
    ones, so = lift_to_ints(field, one_s)
    left, right, sa = c.act_ints()
    for side, t, acts, at in (("left", tensor_over_source(unit_c, c), left, lambda r, b: r * m + b),
                              ("right", tensor_over_source(c, unit_c), right, lambda r, b: b * s + r)):
        # column at(r, b) of the evaluation is y_r . m_b (m_b . y_r on the right)
        evals = [None] * (s * m)
        for r in range(s):
            for b in range(m):
                evals[at(r, b)] = acts[r][b]
        mat = Matrix.from_int_cols(field, evals, sa, m).mul(t.section)
        back = [{at(r, b): x for r, x in enumerate(ones)} for b in range(m)]
        inv = t.projection.mul(Matrix.from_int_cols(field, back, so, s * m))
        out += [ComoduleMap(t, c, mat), ComoduleMap(c, t, inv)]
        if mat.mul(inv) != Matrix.identity(field, m) or inv.mul(mat) != Matrix.identity(field, t.dim):
            raise InternalInconsistency(f"{side} unitor is not an isomorphism")
    return tuple(out)


def associator(
    a: Comodule,
    b: Comodule,
    c: Comodule,
    ab: TensorComodule | None = None,
    bc: TensorComodule | None = None,
    left: TensorComodule | None = None,
    right: TensorComodule | None = None,
) -> ComoduleMap:
    """(a (x) b) (x) c -> a (x) (b (x) c), induced by the identity of a (x) b (x) c."""
    h = a.over
    field = h.field
    if ab is None:
        ab = tensor_over_source(a, b)
    if bc is None:
        bc = tensor_over_source(b, c)
    if left is None:
        left = tensor_over_source(ab, c)
    if right is None:
        right = tensor_over_source(a, bc)
    ident_a = Matrix.identity(field, a.dim)
    ident_c = Matrix.identity(field, c.dim)
    mat = (
        right.projection.mul(ident_a.kron(bc.projection))
        .mul(ab.section.kron(ident_c))
        .mul(left.section)
    )
    out = ComoduleMap(left, right, mat)
    if not out.is_isomorphism():
        raise InternalInconsistency("associator is not invertible")
    return out


def memoized_tensor(memo, a: Comodule, b: Comodule) -> TensorComodule:
    """Tensor product shared through a caller-owned cache keyed by identity."""
    if memo is None:
        return tensor_over_source(a, b)
    key = (id(a), id(b))
    hit = memo.get(key)
    if hit is None:
        hit = tensor_over_source(a, b)
        memo[key] = hit
        memo.setdefault("_refs", []).extend([a, b])
    return hit


def memoized_associator(memo, a: Comodule, b: Comodule, c: Comodule) -> ComoduleMap:
    """Associator built on cache-shared tensor products."""
    return associator(
        a,
        b,
        c,
        ab=memoized_tensor(memo, a, b),
        bc=memoized_tensor(memo, b, c),
        left=memoized_tensor(memo, memoized_tensor(memo, a, b), c),
        right=memoized_tensor(memo, a, memoized_tensor(memo, b, c)),
    )


def check_triangle(a: Comodule, b: Comodule, memo=None) -> Verdict:
    """(id_a (x) l_b) . assoc_{a,I,b} = r_a (x) id_b on quotient representatives."""
    h = a.over
    unit_c = memo.get("unit") if memo else None
    if unit_c is None:
        unit_c = unit_comodule(h)
        if memo is not None:
            memo["unit"] = unit_c
    au = memoized_tensor(memo, a, unit_c)
    ub = memoized_tensor(memo, unit_c, b)
    ab = memoized_tensor(memo, a, b)
    left = memoized_tensor(memo, au, b)
    right = memoized_tensor(memo, a, ub)
    assoc = associator(a, unit_c, b, ab=au, bc=ub, left=left, right=right)
    _, _, r_a, _ = unitors(a)
    l_b, _, _, _ = unitors(b)
    id_a = ComoduleMap.identity(a)
    id_b = ComoduleMap.identity(b)
    lhs = tensor_map(id_a, l_b, src=right, dst=ab).compose(assoc)
    rhs = tensor_map(r_a, id_b, src=left, dst=ab)
    if lhs.matrix != rhs.matrix:
        return Verdict((Violation("triangle", (), lhs.matrix, rhs.matrix),))
    return Verdict.passing()


def check_pentagon(a: Comodule, b: Comodule, c: Comodule, d: Comodule, memo=None) -> Verdict:
    """MacLane's pentagon for the given quadruple, on quotient representatives."""
    ab = memoized_tensor(memo, a, b)
    bc = memoized_tensor(memo, b, c)
    cd = memoized_tensor(memo, c, d)
    ab_c = memoized_tensor(memo, ab, c)
    b_cd = memoized_tensor(memo, b, cd)
    bc_d = memoized_tensor(memo, bc, d)
    a_bc = memoized_tensor(memo, a, bc)
    abc_d = memoized_tensor(memo, ab_c, d)
    a_bcd = memoized_tensor(memo, a, b_cd)
    ab_cd = memoized_tensor(memo, ab, cd)
    abc_d2 = memoized_tensor(memo, a_bc, d)
    a_bcd2 = memoized_tensor(memo, a, bc_d)

    id_a = ComoduleMap.identity(a)
    id_d = ComoduleMap.identity(d)
    assoc_abc = associator(a, b, c, ab=ab, bc=bc, left=ab_c, right=a_bc)
    assoc_bcd = associator(b, c, d, ab=bc, bc=cd, left=bc_d, right=b_cd)
    alpha1 = tensor_map(assoc_abc, id_d, src=abc_d, dst=abc_d2)
    alpha2 = associator(a, bc, d, ab=a_bc, bc=bc_d, left=abc_d2, right=a_bcd2)
    alpha3 = tensor_map(id_a, assoc_bcd, src=a_bcd2, dst=a_bcd)
    beta1 = associator(ab, c, d, ab=ab_c, bc=cd, left=abc_d, right=ab_cd)
    beta2 = associator(a, b, cd, ab=ab, bc=b_cd, left=ab_cd, right=a_bcd)
    lhs = alpha3.compose(alpha2).compose(alpha1)
    rhs = beta2.compose(beta1)
    if lhs.matrix != rhs.matrix:
        return Verdict((Violation("pentagon", (), lhs.matrix, rhs.matrix),))
    return Verdict.passing()


def comodule_hom_basis(m: Comodule, n_c: Comodule) -> list[Matrix]:
    """Echelon basis of the intertwiner space Hom(m, n_c)."""
    if m.over is not n_c.over:
        raise MalformedInput("hom between comodules over different weak bialgebras")
    h = m.over
    n = h.dim
    field = h.field
    tm, tn = m.dim, n_c.dim
    unknowns = tn * tm
    (mnz, sm), (nnz, sn) = m.ints(), n_c.ints()
    rho_n = {}
    for b, terms in enumerate(nnz):
        for a, j, c in terms:
            rho_n.setdefault((a, j), []).append((b, c))
    # unknown F[b][i] at b * tm + i; one row per (i, a, j): (rho_N F - (F (x) id) rho_M)(m_i) at (a, j)
    rows = []
    for i in range(tm):
        for a in range(tn):
            for j in range(n):
                row = {}
                for b, c in rho_n.get((a, j), ()):
                    row[b * tm + i] = row.get(b * tm + i, 0) + c * sm
                for a2, j2, c in mnz[i]:
                    if j2 == j:
                        row[a * tm + a2] = row.get(a * tm + a2, 0) - c * sn
                rows.append(row)
    vectors, scale = _int_kernel(field.characteristic, rows, unknowns)
    out = []
    for v in vectors:
        cols = [{} for _ in range(tm)]
        for idx, x in v.items():
            r, c = divmod(idx, tm)
            cols[c][r] = x
        out.append(Matrix.from_int_cols(field, cols, scale, tn))
    return out


def check_lemma25(c: Comodule) -> Verdict:
    """Lemma 2.5(3)(i)-(ii): the coaction is an (H_s, H_s)-bimodule map."""
    h = c.over
    nz, s = c.ints()
    for r, y in enumerate(h.hs.basis):
        laws = (("2.5(3)(i)", c.left_act[r], h.mult_matrix(y)),
                ("2.5(3)(ii)", c.right_act[r], h.mult_matrix(y, right=True)))
        laws = [(law, act.col_ints(), mult.col_ints()) for law, act, mult in laws]
        for b in range(c.dim):
            for law, (acts, sa), (prods, sm) in laws:
                lhs = {}
                for b2, coef in acts[b]:
                    for a, j, cc in nz[b2]:
                        lhs[(a, j)] = lhs.get((a, j), 0) + coef * cc
                rhs = {}
                for a, j, cc in nz[b]:
                    for j2, v in prods[j]:
                        rhs[(a, j2)] = rhs.get((a, j2), 0) + cc * v
                if _sides_differ(h.field.characteristic, lhs, sa * s, rhs, s * sm):
                    sides = _field_items(h.field, lhs, sa * s), _field_items(h.field, rhs, s * sm)
                    return Verdict((Violation(law, (r, b), *sides),))
    return Verdict.passing()
