"""Weak-bialgebra maps, induced functors, and reconstruction from functor data.

Functor data is a finite table: for each chosen comodule over the source, the
coaction the candidate functor assigns on the *same* underlying space, plus
the unit morphism on the source subalgebras.  Reconstruction computes the
candidate map phi = (eps (x) id) . rho^F on the regular comodule and then
verifies every conclusion of the reconstruction theorems on the supplied
data, layer by layer, in a fixed order:

    comodule-validity -> coalgebra-map -> functor-equality ->
    comodule-map-property -> algebra-map -> unit-morphism ->
    source-bijectivity -> comonoidal-structure

Reports name the first failing layer and still evaluate the later layers.
The comonoidal layer compares, on ints, the two coactions of each pair's one
tensor product over H_s (`comonoidal_structure`).
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
from .exactla import Matrix, ints_differ, ints_to_field, inverse
from .comod import (
    Comodule,
    ComoduleMap,
    TensorComodule,
    _quotient_coaction,
    coaction_verdict,
    tensor_over_source,
)
from .structure import _apply, _comul, _dict_violation, _mul, _sides_differ, law_violations
from .weakbia import WeakBialgebra, _dense

RECONSTRUCTION_LAYERS = (
    "comodule-validity",
    "coalgebra-map",
    "functor-equality",
    "comodule-map-property",
    "algebra-map",
    "unit-morphism",
    "source-bijectivity",
    "comonoidal-structure",
)


class WeakBialgebraMap:
    """A verified map of weak bialgebras (algebra map and coalgebra map)."""

    __slots__ = ("source", "target", "matrix", "_eps_pairs_agree")

    def __init__(self, source: WeakBialgebra, target: WeakBialgebra, matrix: Matrix):
        verdict = map_verdict(matrix, source, target)
        if not verdict.ok:
            raise AxiomViolation(verdict, "weak bialgebra map")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_eps_pairs_agree", None)

    def __setattr__(self, name, val):
        raise AttributeError("WeakBialgebraMap is immutable")

    def compose(self, other: "WeakBialgebraMap") -> "WeakBialgebraMap":
        """self after other."""
        if other.target is not self.source:
            raise MalformedInput("composition mismatch")
        return WeakBialgebraMap(other.source, self.target, self.matrix.mul(other.matrix))

    def source_restriction(self) -> Matrix:
        """phi restricted to H_s, as a matrix in the canonical echelon bases."""
        return _phi_s_matrix(self.matrix, self.source, self.target)

    def _require_eps_pairs(self) -> None:
        """Raise unless eps_K(phi b_j . phi b_k) = eps_H(b_j b_k) for all j, k, under
        which M^phi (x)_{K_s} N^phi and M (x)_{H_s} N are one quotient; decided on first use."""
        if self._eps_pairs_agree is None:
            (e, se), (ek, sk) = self.source.eps_pair_ints(), self.target.eps_pair_ints()
            cols, sp = self.matrix.col_ints()
            u = [[sum([x * ek[a][b] for a, x in col]) for b in range(self.target.dim)] for col in cols]
            lhs = [sum([uj[b] * y for b, y in col]) for uj in u for col in cols]  # eps_K(phi b_j . phi b_k)
            differ = ints_differ(self.source.field.characteristic, lhs, sk * sp * sp, sum(e, ()), se)
            object.__setattr__(self, "_eps_pairs_agree", not differ)
        if not self._eps_pairs_agree:
            raise InternalInconsistency("eps_K(phi x . phi y) != eps_H(x y) for a weak bialgebra map")

    def __repr__(self):
        return f"WeakBialgebraMap({self.source!r} -> {self.target!r})"


def map_verdict(phi: Matrix, source: WeakBialgebra, target: WeakBialgebra) -> Verdict:
    """Check every weak-bialgebra-map law for the matrix phi, with witnesses."""
    if source.field != target.field:
        raise MalformedInput("map across different fields")
    if phi.rows != target.dim or phi.cols != source.dim:
        raise MalformedInput(
            f"map must be {target.dim}x{source.dim}, got {phi.rows}x{phi.cols}"
        )
    violations = _algebra_map_violations(phi, source, target)
    violations += _coalgebra_map_violations(phi, source, target)
    subalgebras = (("phi(H_s) in K_s", source.hs, target.hs), ("phi(H_t) in K_t", source.ht, target.ht))
    for law, sub, sub_k in subalgebras:
        imgs, scale = _images(phi, sub, target.dim)
        for r, img in enumerate(imgs):
            if not sub_k.contains_ints(img):
                violations.append(Violation(law, (r,), ints_to_field(source.field, img, scale), None))
    return Verdict(tuple(violations))


def _images(phi: Matrix, sub, rows: int) -> list:
    """(imgs, scale): phi(y) = img / scale for each echelon basis vector y of the subspace sub."""
    cols, sp = phi.col_ints()
    ys, sy = sub.ints()
    return [tuple(_apply(cols, enumerate(y), rows)) for y in ys], sy * sp


def _algebra_map_violations(phi, source, target):
    field = source.field
    nk = target.dim
    mnz, sm, unit, su = source.alg.ints()
    knz, sk, kunit, sku = target.alg.ints()
    cols, sp = phi.col_ints()
    img = [_dense(col, nk) for col in cols]
    out = []
    for i, row in enumerate(mnz):
        for j, terms in enumerate(row):
            lhs = _apply(cols, terms, nk)
            rhs = _mul(knz, img[i], img[j])
            out += law_violations(field, "not multiplicative", (i, j), lhs, sm * sp, rhs, sk * sp * sp)
    lhs = _apply(cols, enumerate(unit), nk)
    return out + law_violations(field, "unit mismatch", (), lhs, su * sp, kunit, sku)


def _coalgebra_map_violations(phi, source, target):
    field = source.field
    nk = target.dim
    dnz, sd, eps, se = source.coa.ints()
    knz, sk, keps, ske = target.coa.ints()
    cols, sp = phi.col_ints()
    out = []
    for i, terms in enumerate(dnz):
        lhs = _comul(knz, _dense(cols[i], nk))
        rhs = [0] * (nk * nk)
        for j, k, d in terms:
            for a, x in cols[j]:
                for b, y in cols[k]:
                    rhs[a * nk + b] += d * x * y
        out += law_violations(field, "not comultiplicative", (i,), lhs, sk * sp, rhs, sd * sp * sp)
        eps_lhs = sum([keps[r] * x for r, x in cols[i]])
        if ints_differ(field.characteristic, (eps_lhs,), ske * sp, (eps[i],), se):
            (eps_lhs,) = ints_to_field(field, (eps_lhs,), ske * sp)
            out.append(Violation("counit mismatch", (i,), eps_lhs, source.counit[i]))
    return out


def check_map(phi: Matrix, source: WeakBialgebra, target: WeakBialgebra):
    """Verify phi; return (WeakBialgebraMap or None, Verdict)."""
    verdict = map_verdict(phi, source, target)
    if not verdict.ok:
        return None, verdict
    return WeakBialgebraMap(source, target, phi), verdict


def induced_coaction(phi: Matrix, m: Comodule, target: WeakBialgebra) -> Matrix:
    """(id_M (x) phi) . rho_M as a coaction matrix into M (x) K."""
    return Matrix.from_int_cols(target.field, *_id_phi_ints(phi, m.ints(), target.dim), m.dim * target.dim)


def _id_phi_ints(phi: Matrix, lifted, nk: int) -> tuple:
    """(cols, scale): the {row: int} columns of (id_M (x) phi) . rho_M into M (x) K, the
    pair (a, k) at row a * nk + k, from the lifted coaction (nz, scale) of `Comodule.ints()`."""
    pcols, sp = phi.col_ints()
    nz, s = lifted
    cols = [{} for _ in nz]
    for col, terms in zip(cols, nz):
        for a, j, c in terms:
            for k, v in pcols[j]:
                col[a * nk + k] = col.get(a * nk + k, 0) + c * v
    return cols, s * sp


def induced_functor(phi: WeakBialgebraMap, m: Comodule) -> Comodule:
    """The comodule M^phi(m) = (M, (id (x) phi) . rho_M) over the target.

    Its axioms follow from m's over the verified phi, so they are not re-run
    (the README): coassociativity from Delta phi = (phi (x) phi) Delta, the
    counit law from eps_K phi = eps_H, 2.5(3)(iii) as phi commutes with eps_s, eps_s'.
    """
    if m.over is not phi.source:
        raise MalformedInput("comodule is not over the map's source")
    return Comodule._derived(phi.target, m.dim, induced_coaction(phi.matrix, m, phi.target))


def induced_map(phi: WeakBialgebraMap, f):
    """Transport a comodule map along the induced functor (same matrix)."""
    return ComoduleMap(induced_functor(phi, f.source), induced_functor(phi, f.target), f.matrix)


def _phi_s_matrix(phi: Matrix, source: WeakBialgebra, target: WeakBialgebra) -> Matrix:
    """phi restricted to H_s -> K_s in the canonical echelon bases, or raise."""
    hs = target.hs
    imgs, scale = _images(phi, source.hs, target.dim)
    cols = []
    for img in imgs:
        if not hs.contains_ints(img):
            raise PhiSEscape(ints_to_field(source.field, img, scale))
        cols.append({c: img[piv] for c, piv in enumerate(hs.pivots)})  # coordinates sit at the pivots
    return Matrix.from_int_cols(source.field, cols, scale, hs.dim)


class PhiSEscape(Exception):
    """Internal signal: phi(H_s) is not inside K_s."""

    def __init__(self, img):
        self.img = img
        super().__init__("phi(H_s) escaped K_s")


def comonoidal_structure(phi: WeakBialgebraMap, t: TensorComodule) -> Verdict:
    """The comodule-map law of iota_{a,b}: M^phi(a (x)_{H_s} b) -> M^phi(a) (x)_{K_s} M^phi(b)
    for t = a (x)_{H_s} b, with a, b = t.factors.

    Both sides are one quotient of a (x) b (the README), so iota is the identity
    on t's representatives.  The target side's coaction is made on ints from the
    legs of a and b sent through id (x) phi, K's multiplication and t's
    projection columns; it is compared, column by column, with (id (x) phi) of
    t's coaction, and a column that differs is a `comodule map law` violation.
    """
    if t.over is not phi.source:
        raise MalformedInput("comodules are not over the map's source")
    phi._require_eps_pairs()
    k = phi.target
    nk = k.dim
    legs = []
    for m in t.factors:
        cols, s = _id_phi_ints(phi.matrix, m.ints(), nk)
        legs.append(([[(*divmod(r, nk), c) for r, c in col.items()] for col in cols], s))
    lhs, sl = _quotient_coaction(k.alg, *legs, t.reps, t.projection_ints())
    rhs, sr = _id_phi_ints(phi.matrix, t.ints(), nk)
    violations = []
    for i, (lc, rc) in enumerate(zip(lhs, rhs)):
        if _sides_differ(k.field.characteristic, lc, sl, rc, sr):
            lc, rc = [{divmod(r, nk): c for r, c in col.items()} for col in (lc, rc)]
            violations.append(_dict_violation(k.field, "comodule map law", (i,), lc, sl, rc, sr))
    return Verdict(tuple(violations))


class FunctorData:
    """The finite table presenting a candidate fibered functor.

    `assignments` pairs comodules over the source with the coactions the
    functor claims on the identical underlying spaces; `unit_map` is the
    matrix of the unit morphism H_s -> K_s in the canonical echelon bases.
    Validity of the claimed coactions is checked by the reconstruction entry
    points, so that malformed tables are reported as layer verdicts.
    """

    __slots__ = ("source", "target", "assignments", "unit_map")

    def __init__(self, source: WeakBialgebra, target: WeakBialgebra, assignments, unit_map=None):
        assignments = tuple(assignments)
        for m, rho in assignments:
            if m.over is not source:
                raise MalformedInput("assignment comodule is not over the source")
            if rho.rows != m.dim * target.dim or rho.cols != m.dim:
                raise MalformedInput("claimed coaction has the wrong shape")
        if unit_map is not None and (
            unit_map.rows != target.hs.dim or unit_map.cols != source.hs.dim
        ):
            raise MalformedInput("unit morphism matrix has the wrong shape")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "unit_map", unit_map)

    def __setattr__(self, name, val):
        raise AttributeError("FunctorData is immutable")

    def regular_assignment(self):
        n = self.source.dim
        reg = self.source.comult_matrix()
        for m, rho in self.assignments:
            if m.dim == n and m.coaction == reg:
                return m, rho
        raise MalformedInput("functor data lacks the regular comodule assignment")


def functor_from_map(phi: WeakBialgebraMap, comodules) -> FunctorData:
    """The functor table of M^phi on the given comodules (regular included by caller)."""
    assignments = [
        (m, induced_coaction(phi.matrix, m, phi.target)) for m in comodules
    ]
    return FunctorData(
        phi.source, phi.target, assignments, unit_map=phi.source_restriction()
    )


@dataclass(frozen=True)
class ReconstructionResult:
    """The candidate matrix, per-layer verdicts, and the verified map if all pass."""

    phi: Matrix
    layers: tuple[tuple[str, Verdict], ...]
    bialgebra_map: WeakBialgebraMap | None = None

    @property
    def ok(self) -> bool:
        return all(v.ok for _, v in self.layers)

    def first_failing_layer(self) -> str | None:
        for name, v in self.layers:
            if not v.ok:
                return name
        return None

    def layer(self, name: str) -> Verdict:
        for lname, v in self.layers:
            if lname == name:
                return v
        raise KeyError(name)


def _coalgebra_layers(fd: FunctorData):
    h, k = fd.source, fd.target
    field = h.field
    n, nk = h.dim, k.dim
    layers = []

    validity = []
    for idx, (m, rho) in enumerate(fd.assignments):
        v = coaction_verdict(k, m.dim, rho)
        if not v.ok:
            validity.append(
                Violation(f"assignment {idx} invalid over target", (idx,), v.describe(), None)
            )
    layers.append(("comodule-validity", Verdict(tuple(validity))))

    _, rho_reg = fd.regular_assignment()
    _, _, eps, se = h.coa.ints()
    rho_cols, sr = rho_reg.col_ints()
    phi_cols = [{} for _ in range(n)]
    for col, terms in zip(phi_cols, rho_cols):
        for idx, c in terms:
            a, kk = divmod(idx, nk)
            col[kk] = col.get(kk, 0) + eps[a] * c
    phi = Matrix.from_int_cols(field, phi_cols, se * sr, nk)

    layers.append(("coalgebra-map", Verdict(tuple(_coalgebra_map_violations(phi, h, k)))))

    feq = []
    for idx, (m, rho) in enumerate(fd.assignments):
        expected = induced_coaction(phi, m, k)
        if rho != expected:
            for i in range(m.dim):
                if rho.col(i) != expected.col(i):
                    feq.append(
                        Violation("rho^F != (id (x) phi) rho", (idx, i), rho.col(i), expected.col(i))
                    )
                    break
    layers.append(("functor-equality", Verdict(tuple(feq))))

    # Remark 3.2: phi is a K-comodule map from (H, rho^F) to (K, Delta_K)
    rem = []
    knz, sk, _, _ = k.coa.ints()
    phi_cols, sp = phi.col_ints()
    for i in range(n):
        lhs = _comul(knz, _dense(phi_cols[i], nk))
        rhs = [0] * (nk * nk)
        for idx, c in rho_cols[i]:
            a, kk = divmod(idx, nk)
            for b, v in phi_cols[a]:
                rhs[b * nk + kk] += c * v
        law = "Delta_K . phi != (phi (x) id) rho^F"
        rem += law_violations(field, law, (i,), lhs, sk * sp, rhs, sr * sp)
    layers.append(("comodule-map-property", Verdict(tuple(rem))))
    return phi, layers


def reconstruct_coalgebra_map(fd: FunctorData) -> ReconstructionResult:
    """Recover the coalgebra map from the regular assignment and verify it."""
    phi, layers = _coalgebra_layers(fd)
    return ReconstructionResult(phi, tuple(layers))


def reconstruct_weak_bialgebra_map(fd: FunctorData) -> ReconstructionResult:
    """Recover the weak bialgebra map and verify every layer of Theorem-level claims."""
    if fd.unit_map is None:
        raise MalformedInput("functor data lacks the unit morphism")
    h, k = fd.source, fd.target
    phi, layers = _coalgebra_layers(fd)

    layers.append(("algebra-map", Verdict(tuple(_algebra_map_violations(phi, h, k)))))

    unit_violations = []
    phi_s = None
    try:
        phi_s = _phi_s_matrix(phi, h, k)
        if fd.unit_map != phi_s:
            unit_violations.append(
                Violation("unit morphism != phi restricted to H_s", (), fd.unit_map, phi_s)
            )
    except PhiSEscape as exc:
        unit_violations.append(Violation("phi(H_s) escaped K_s", (), exc.img, None))
    layers.append(("unit-morphism", Verdict(tuple(unit_violations))))

    bij_violations = []
    if phi_s is None:
        bij_violations.append(Violation("phi_s not bijective", (), None, None))
    elif inverse(phi_s) is None:
        bij_violations.append(
            Violation("phi_s not bijective", (), (phi_s.rows, phi_s.cols), None)
        )
    layers.append(("source-bijectivity", Verdict(tuple(bij_violations))))

    como_violations = []
    bmap = None
    if all(v.ok for _, v in layers):
        bmap = WeakBialgebraMap(h, k, phi)
        comods = [m for m, _ in fd.assignments]
        # a product the table assigns is t_h for its own factors
        named = {tuple(map(id, m.factors)): m for m in comods if isinstance(m, TensorComodule)}
        for i, m in enumerate(comods):
            for j, m2 in enumerate(comods):
                t = named.get((id(m), id(m2)))
                verdict = comonoidal_structure(bmap, tensor_over_source(m, m2) if t is None else t)
                if not verdict.ok:
                    como_violations.append(Violation("iota not a comodule map", (i, j), verdict.describe(), None))
    else:
        como_violations.append(
            Violation("skipped: earlier layer failed", (), None, None)
        )
    layers.append(("comonoidal-structure", Verdict(tuple(como_violations))))

    ok = all(v.ok for _, v in layers)
    return ReconstructionResult(phi, tuple(layers), bmap if ok else None)


@dataclass(frozen=True)
class IsoResult:
    is_isomorphism: bool
    inverse: WeakBialgebraMap | None = None


def check_isomorphism(phi: WeakBialgebraMap) -> IsoResult:
    """Invertibility of the matrix, with the inverse verified as a map."""
    inv = inverse(phi.matrix)
    if inv is None:
        return IsoResult(False)
    back, verdict = check_map(inv, phi.target, phi.source)
    if back is None:
        raise InternalInconsistency(
            f"inverse of a weak bialgebra isomorphism failed: {verdict.describe()}"
        )
    return IsoResult(True, back)
