"""Direct sums, indecomposable decomposition, and the splitting functors.

The decomposition algorithm works inside K = Z(H) cap H_t cap H_s, where
every block unit provably lives: split K into primitive idempotents by
minimal polynomials (rational roots over Q, every root over prime
fields; anything beyond that is flagged undecided, never guessed),
then merge the primitive idempotents along comultiplication leakage until
every block sum e satisfies Delta(e) in eH (x) eH.  Each merge is forced in
any valid coarser partition, so the fixpoint is the unique finest system of
Theorem-level block idempotents.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import lcm
from operator import add, mul, sub

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
    _apply,
    column_space,
    ints_differ,
    ints_to_field,
    ints_rank,
    intersect,
    inverse,
    lift_to_ints,
    rref,
    vec_unit,
    vec_zero,
)
from .structure import (
    FiniteAlgebra,
    FiniteCoalgebra,
    _canonical_vector,
    _comul,
    _mul,
    _sides_differ,
    center,
)
from .poly import _coprime_split, _poly_divmod, _poly_extended_gcd, _poly_mul
from .weakbia import WeakBialgebra, _dense, build_weak_bialgebra
from .comod import Comodule

CERT_INDECOMPOSABLE = "indecomposable"
CERT_UNDECIDED = "undecided-over-field"


@dataclass(frozen=True)
class BlockData:
    """Summands with their embeddings, projections, and unit idempotents."""

    summands: tuple[WeakBialgebra, ...]
    embeddings: tuple[Matrix, ...]
    projections: tuple[Matrix, ...]
    idempotents: tuple[tuple, ...]


class LeftModule:
    """A verified left module: one action matrix per algebra basis element."""

    __slots__ = ("over", "dim", "actions")

    def __init__(self, over: WeakBialgebra, dim: int, actions):
        actions = tuple(actions)
        n = over.dim
        field = over.field
        if len(actions) != n:
            raise MalformedInput(f"need {n} action matrices, got {len(actions)}")
        for a in actions:
            if a.rows != dim or a.cols != dim or a.field != field:
                raise MalformedInput("action matrix with wrong shape or field")
        violations = []
        for i in range(n):
            for j in range(n):
                lhs = actions[i].mul(actions[j])
                rhs = Matrix.zeros(field, dim, dim)
                for k, c in enumerate(over.mult[i][j]):
                    if c:
                        rhs = rhs.add(actions[k].scale(c))
                if lhs != rhs:
                    violations.append(Violation("module associativity", (i, j), None, None))
        unit_act = Matrix.zeros(field, dim, dim)
        for i, c in enumerate(over.unit):
            if c:
                unit_act = unit_act.add(actions[i].scale(c))
        if unit_act != Matrix.identity(field, dim):
            violations.append(Violation("module unit law", (), unit_act, None))
        if violations:
            raise AxiomViolation(Verdict(tuple(violations)), "left module axioms")
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "actions", actions)

    def __setattr__(self, name, val):
        raise AttributeError("LeftModule is immutable")


def regular_module(h: WeakBialgebra) -> LeftModule:
    n = h.dim
    return LeftModule(h, n, [h.mult_matrix(vec_unit(h.field, n, i)) for i in range(n)])


def _block_diag_tensor(field, tensors, dims):
    n = sum(dims)
    z = field.zero
    out = [[[z] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for t, d in zip(tensors, dims):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    c = t[i][j][k]
                    if c:
                        out[off + i][off + j][off + k] = c
        off += d
    return out


def _block_diag_matrix(field, mats) -> Matrix:
    scale = lcm(*[m.col_ints()[1] for m in mats])
    cols = []
    off = 0
    for m in mats:
        mc, s = m.col_ints()
        cols += [{off + r: x * (scale // s) for r, x in col} for col in mc]
        off += m.rows
    return Matrix.from_int_cols(field, cols, scale, off)


def direct_sum(*summands: WeakBialgebra) -> WeakBialgebra:
    """Product algebra, direct-sum coalgebra; verified, with block data attached."""
    if len(summands) < 2:
        raise MalformedInput("direct_sum needs at least two summands")
    field = summands[0].field
    for s in summands:
        if s.field != field:
            raise MalformedInput("direct sum across different fields")
        if s.dim == 0:
            raise PreconditionError("zero-dimensional summand has no unit")
    dims = [s.dim for s in summands]
    n = sum(dims)
    labels = []
    for idx, s in enumerate(summands):
        labels.extend(f"{idx}.{lab}" for lab in s.labels)
    mult = _block_diag_tensor(field, [s.mult for s in summands], dims)
    comult = _block_diag_tensor(field, [s.comult for s in summands], dims)
    unit = []
    counit = []
    for s in summands:
        unit.extend(s.unit)
        counit.extend(s.counit)
    alg = FiniteAlgebra(field, labels, mult, unit)
    coa = FiniteCoalgebra(field, labels, comult, counit)
    try:
        h = build_weak_bialgebra(alg, coa)
    except AxiomViolation as exc:
        raise InternalInconsistency(f"direct sum of valid weak bialgebras failed: {exc}")
    # section-4 counital formulas, asserted against the cached data
    for attr in ("eps_t", "eps_s", "eps_t_prime", "eps_s_prime"):
        expected = _block_diag_matrix(field, [getattr(s, attr) for s in summands])
        if getattr(h, attr) != expected:
            raise InternalInconsistency(f"direct-sum {attr} is not block diagonal")
    embeds = []
    projs = []
    idems = []
    off = 0
    for s, d in zip(summands, dims):
        emb = Matrix.from_cols(field, [vec_unit(field, n, off + r) for r in range(d)], rows=n)
        embeds.append(emb)
        projs.append(emb.transpose())
        idems.append(emb.apply(s.unit))
        off += d
    ht_expected = Subspace(
        field, n, [emb.apply(v) for emb, s in zip(embeds, summands) for v in s.ht.basis]
    )
    hs_expected = Subspace(
        field, n, [emb.apply(v) for emb, s in zip(embeds, summands) for v in s.hs.basis]
    )
    if h.ht != ht_expected or h.hs != hs_expected:
        raise InternalInconsistency("direct-sum counital subalgebras are not the sums")
    if all(s.antipode is not None for s in summands):
        try:
            h = h.with_antipode(_block_diag_matrix(field, [s.antipode for s in summands]))
        except AxiomViolation:
            raise InternalInconsistency("direct-sum antipode failed verification")
    return h.with_blocks(
        BlockData(tuple(summands), tuple(embeds), tuple(projs), tuple(idems))
    )


def _tensor_image(u, left, right) -> dict:
    """(L (x) R) u as {(a, b): int}, for the row-major int tensor u and the
    lifted columns (`Matrix.col_ints`) of the square matrices L and R."""
    n = len(left)
    out = {}
    for idx, c in enumerate(u):
        if c:
            a, b = divmod(idx, n)
            for a2, x in left[a]:
                for b2, y in right[b]:
                    out[a2, b2] = out.get((a2, b2), 0) + c * x * y
    return out


def _leaks(p: int, u, left, right) -> bool:
    """Whether (L (x) R) u is nonzero over GF(p), or over Q when p == 0."""
    return _sides_differ(p, _tensor_image(u, left, right), 1, {}, 1)


def _coords(space: Subspace, x, what: str) -> list:
    """The coordinates of the int vector x in the echelon basis of space, at
    x's scale (x at the pivots); InternalInconsistency(what) if x is outside."""
    if not space.contains_ints(x):
        raise InternalInconsistency(what)
    return [x[c] for c in space.pivots]


def _minimal_polynomial(h: WeakBialgebra, w, unit_vec, space: Subspace):
    """Monic minimal polynomial of w in the unital algebra on `space`: the
    powers w^0 = unit_vec, ..., w^dim are put through one elimination, and the
    first power that depends on the lower ones gives the coefficients."""
    field = h.field
    powers = [tuple(unit_vec)]
    for _ in range(space.dim):
        powers.append(h.multiply(powers[-1], w))
    red, pivots = rref(Matrix.from_cols(field, powers, rows=h.dim))
    deg = len(pivots)
    if deg > space.dim:
        raise InternalInconsistency("minimal polynomial exceeded the subalgebra dimension")
    # rows 0..deg-1 of red are pivoted at the powers 0..deg-1; column deg holds w^deg in them
    cols, scale = red.col_ints()
    last = dict(cols[deg])
    return list(ints_to_field(field, tuple([-last.get(r, 0) for r in range(deg)]), scale)) + [field.one]


def _crt_idempotents(h: WeakBialgebra, w, f, minpoly, parts) -> list[tuple]:
    """For coprime parts of the minimal polynomial of w in fK, the idempotents
    u(w) with u = 1 mod one part and 0 mod the others (CRT), each evaluated by
    Horner's rule with f as the unit and checked."""
    field = h.field
    out = []
    for part in parts:
        cof = _poly_divmod(field, minpoly, part)[0]
        g, x, _ = _poly_extended_gcd(field, cof, part)
        if len(g) != 1:
            raise InternalInconsistency("minimal polynomial factors not coprime")
        e = vec_zero(field, h.dim)
        for c in reversed(_poly_mul(field, x, cof)):
            e = h.multiply(e, w)
            if c:
                e = tuple([a + c * u for a, u in zip(e, f)])
        if h.multiply(e, e) != e:
            raise InternalInconsistency("CRT idempotent failed idempotency")
        if not any(e):
            raise InternalInconsistency("CRT produced a zero idempotent")
        out.append(tuple(e))
    return out


_Piece = namedtuple("_Piece", ["idempotent", "certified"])


def _split_pieces(h: WeakBialgebra, k_space: Subspace):
    """Primitive idempotents of K with per-piece certificates.

    Each piece f is examined once.  fK is put through elimination once, and
    the minimal polynomial of each candidate (the echelon basis of fK, then
    its pairwise sums and products) is computed once, until one has two
    coprime parts: their CRT idempotents replace f.  A piece that no
    candidate splits is final, and certified unless the minimal polynomial of
    a basis vector leaves a factor without a root in the field.
    """
    field = h.field
    pending = [tuple(h.unit)] if any(h.unit) else []  # the zero algebra is the empty sum
    pieces = []
    while pending:
        f = pending.pop()
        space = Subspace(field, h.dim, [h.multiply(f, z) for z in k_space.basis])
        basis = space.basis if space.dim > 1 else ()
        candidates = list(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                candidates.append(tuple(map(add, basis[i], basis[j])))
                candidates.append(tuple(h.multiply(basis[i], basis[j])))
        certified = True
        for idx, w in enumerate(candidates):
            minpoly = _minimal_polynomial(h, w, f, space)
            factors, leftover = _coprime_split(field, minpoly)
            parts = factors + [leftover] if len(leftover) > 1 else factors
            if len(parts) > 1:
                pending.extend(_crt_idempotents(h, w, f, minpoly, parts))
                break
            if idx < len(basis) and len(leftover) > 1:
                certified = False
        else:
            pieces.append(_Piece(f, certified))
    pieces.sort(key=lambda p: p.idempotent)
    return pieces


def _restrict_block(h: WeakBialgebra, e):
    """The weak bialgebra on eH with its embedding and projection (on lifted ints)."""
    field = h.field
    n = h.dim
    ml = h.mult_matrix(e)
    space = column_space(ml)
    d = space.dim
    emb = space.basis_matrix()
    cols, sl = ml.col_ints()
    left = "left multiplication left the block"
    coords = [dict(enumerate(_coords(space, _dense(col, n), left))) for col in cols]
    proj = Matrix.from_int_cols(field, coords, sl, d)
    labels = []
    for r, v in enumerate(space.basis):
        std = [i for i, c in enumerate(v) if c]
        if len(std) == 1 and v[std[0]] == field.one:
            labels.append(h.labels[std[0]])
        else:
            labels.append(f"v{r}")
    vs, sv = space.ints()
    mnz, sm, _, _ = h.alg.ints()
    dnz, sd, eps, se = h.coa.ints()
    closed = "block is not closed under multiplication"
    mult = [[_coords(space, _mul(mnz, x, y), closed) for y in vs] for x in vs]
    leak = "comultiplication leaks out of the block"
    comult = []
    for x in vs:
        # the coordinates of each column of Delta(x), then of each row of those
        flat = _comul(dnz, x)
        first = [_coords(space, flat[k::n], leak) for k in range(n)]
        comult.append([_coords(space, row, leak) for row in zip(*first)])
    eu, su = lift_to_ints(field, e)
    unit = ints_to_field(field, _coords(space, eu, "block idempotent escaped its own block"), su)
    counit = ints_to_field(field, [sum(map(mul, eps, x)) for x in vs], sv * se)
    alg = FiniteAlgebra(field, labels, ints_to_field(field, mult, sv * sv * sm), unit)
    coa = FiniteCoalgebra(field, labels, ints_to_field(field, comult, sv * sd), counit)
    try:
        block = build_weak_bialgebra(alg, coa)
    except AxiomViolation as exc:
        raise InternalInconsistency(f"restricted block failed the axioms: {exc}")
    if h.antipode is not None:
        # S restricted to eH, kept only if it maps eH into itself and passes (WH4) there
        scol, ss = h.antipode.col_ints()
        images = [_apply(scol, enumerate(v), n) for v in vs]
        if all(map(space.contains_ints, images)):
            cols = [dict(enumerate([x[c] for c in space.pivots])) for x in images]
            try:
                block = block.with_antipode(Matrix.from_int_cols(field, cols, ss * sv, d))
            except AxiomViolation:
                pass
    return block, emb, proj


def _delta_block_condition(h: WeakBialgebra, e) -> bool:
    """Delta(e) in eH (x) eH, tested with complement projections (on lifted ints)."""
    comp = h.mult_matrix(tuple(map(sub, h.unit, e))).col_ints()[0]
    ident = tuple([((j, 1),) for j in range(h.dim)])
    u = _comul(h.coa.ints()[0], lift_to_ints(h.field, e)[0])
    p = h.field.characteristic
    return not (_leaks(p, u, comp, ident) or _leaks(p, u, ident, comp))


def split_by_idempotent(h: WeakBialgebra, e) -> tuple[WeakBialgebra, WeakBialgebra]:
    """Split along a central idempotent with the block comultiplication property."""
    field = h.field
    e = _canonical_vector(field, e, h.dim, "idempotent")
    if h.multiply(e, e) != e:
        raise PreconditionError("element is not idempotent")
    if not any(e) or e == h.unit:
        raise PreconditionError("trivial split rejected: idempotent is 0 or 1")
    for i in range(h.dim):
        b = vec_unit(field, h.dim, i)
        if h.multiply(e, b) != h.multiply(b, e):
            raise PreconditionError(
                f"element is not central: fails to commute with basis element {i}"
            )
    comp = tuple(map(sub, h.unit, e))
    if not _delta_block_condition(h, e):
        raise PreconditionError("comultiplication leaks: Delta(e) not in eH (x) eH")
    if not _delta_block_condition(h, comp):
        raise PreconditionError(
            "comultiplication leaks: Delta(1-e) not in (1-e)H (x) (1-e)H"
        )
    block_a, emb_a, _ = _restrict_block(h, e)
    block_b, emb_b, _ = _restrict_block(h, comp)
    big = Matrix.from_cols(field, emb_a.column_list() + emb_b.column_list(), rows=h.dim)
    _verify_reassembly(h, (block_a, block_b), big)
    return block_a, block_b


def _verify_reassembly(h: WeakBialgebra, blocks, change: Matrix):
    """h's tensors carried along the block basis `change` must be the block-diagonal
    tables of the blocks' int lifts, brought to one scale each: multiplication,
    comultiplication, unit and counit.  No direct sum is built."""
    n = h.dim
    p = h.field.characteristic
    cols, sc = change.col_ints()
    dense = [_dense(col, n) for col in cols]
    if ints_rank(p, dense) != n:
        raise InternalInconsistency("block bases do not span")
    algs = [b.alg.ints() for b in blocks]
    coas = [b.coa.ints() for b in blocks]
    srm, sru = lcm(*[a[1] for a in algs]), lcm(*[a[3] for a in algs])
    srd, sre = lcm(*[c[1] for c in coas]), lcm(*[c[3] for c in coas])
    rmnz = [[()] * n for _ in range(n)]
    rdelta, runit, reps = [], [], []
    off = 0
    for (bm, bsm, bu, bsu), (bd, bsd, be, bse) in zip(algs, coas):
        for i, row in enumerate(bm):
            for j, terms in enumerate(row):
                rmnz[off + i][off + j] = [(off + k, c * (srm // bsm)) for k, c in terms]
            u = [0] * (n * n)
            for a, b, x in bd[i]:
                u[(off + a) * n + off + b] = x * (srd // bsd)
            rdelta.append(u)
        runit += [x * (sru // bsu) for x in bu]
        reps += [x * (sre // bse) for x in be]
        off += len(bu)
    mnz, sm, unit, su = h.alg.ints()
    dnz, sd, eps, se = h.coa.ints()
    for i in range(n):
        for j in range(n):
            got = _mul(mnz, dense[i], dense[j])
            if ints_differ(p, got, sc * sc * sm, _apply(cols, rmnz[i][j], n), sc * srm):
                raise InternalInconsistency("reassembled multiplication differs")
    for i in range(n):
        got = {divmod(idx, n): x for idx, x in enumerate(_comul(dnz, dense[i])) if x}
        if _sides_differ(p, got, sc * sd, _tensor_image(rdelta[i], cols, cols), sc * sc * srd):
            raise InternalInconsistency("reassembled comultiplication differs")
    if ints_differ(p, unit, su, _apply(cols, enumerate(runit), n), sc * sru):
        raise InternalInconsistency("reassembled unit differs")
    if ints_differ(p, [sum([eps[r] * x for r, x in col]) for col in cols], sc * se, reps, sre):
        raise InternalInconsistency("reassembled counit differs")


@dataclass(frozen=True)
class DecompositionReport:
    """Block idempotents, in-place blocks, and the uniqueness certificate."""

    weak_bialgebra: WeakBialgebra
    block_idempotents: tuple[tuple, ...]
    blocks: tuple[WeakBialgebra, ...]
    embeddings: tuple[Matrix, ...]
    projections: tuple[Matrix, ...]
    certificates: tuple[str, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def fully_certified(self) -> bool:
        return all(c == CERT_INDECOMPOSABLE for c in self.certificates)

    def block_data(self) -> BlockData:
        return BlockData(self.blocks, self.embeddings, self.projections, self.block_idempotents)


def decompose(h: WeakBialgebra) -> DecompositionReport:
    """Indecomposable direct-summand decomposition with certificates."""
    field = h.field
    k_space = intersect(center(h.alg), intersect(h.ht, h.hs))
    pieces = _split_pieces(h, k_space)
    prims = [p.idempotent for p in pieces]
    r = len(prims)
    parent = list(range(r))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    p = field.characteristic
    dnz = h.coa.ints()[0]
    mls = [h.mult_matrix(e).col_ints()[0] for e in prims]
    for k in range(r):
        u = _comul(dnz, lift_to_ints(field, prims[k])[0])
        for i in range(r):
            for j in range(r):
                if _leaks(p, u, mls[i], mls[j]):
                    union(k, i)
                    union(k, j)
    classes: dict[int, list[int]] = {}
    for k in range(r):
        classes.setdefault(find(k), []).append(k)
    ordered = [classes[key] for key in sorted(classes)]

    idems, blocks, embeds, projs, certs = [], [], [], [], []
    for members in ordered:
        e = tuple([sum(xs, field.zero) for xs in zip(*[prims[k] for k in members])])
        if h.multiply(e, e) != e:
            raise InternalInconsistency("block idempotent failed idempotency")
        if not _delta_block_condition(h, e):
            raise InternalInconsistency("merged block still leaks comultiplication")
        block, emb, proj = _restrict_block(h, e)
        idems.append(e)
        blocks.append(block)
        embeds.append(emb)
        projs.append(proj)
        certified = all(pieces[k].certified for k in members)
        certs.append(CERT_INDECOMPOSABLE if certified else CERT_UNDECIDED)
    # orthogonality and completeness of the block system
    if tuple([sum(xs, field.zero) for xs in zip(*idems)]) != h.unit:
        raise InternalInconsistency("block idempotents do not sum to 1")
    for i in range(len(idems)):
        for j in range(len(idems)):
            if i != j and any(h.multiply(idems[i], idems[j])):
                raise InternalInconsistency("block idempotents are not orthogonal")
    if len(blocks) > 1:
        cols = [c for emb in embeds for c in emb.column_list()]
        _verify_reassembly(h, blocks, Matrix.from_cols(field, cols, rows=h.dim))
    return DecompositionReport(
        h, tuple(idems), tuple(blocks), tuple(embeds), tuple(projs), tuple(certs)
    )


def is_indecomposable(h: WeakBialgebra) -> str:
    """'yes', 'no', or 'undecided-over-field'; the zero algebra (no block) is not indecomposable."""
    report = decompose(h)
    if report.block_count != 1:
        return "no"
    return "yes" if report.fully_certified else CERT_UNDECIDED


def _require_two_blocks(h: WeakBialgebra, blocks: BlockData | None) -> BlockData:
    data = blocks if blocks is not None else h.blocks
    if data is None:
        raise PreconditionError("no block data: build via direct_sum or decompose")
    if len(data.summands) != 2:
        raise PreconditionError("splitting requires exactly two blocks")
    return data


def split_module(h: WeakBialgebra, mod: LeftModule, blocks: BlockData | None = None):
    """F(X) = (1_A . X, 1_B . X) with restricted actions, verified exactly."""
    data = _require_two_blocks(h, blocks)
    if mod.over is not h:
        raise MalformedInput("module is not over the given weak bialgebra")
    field = h.field
    pieces = []
    spaces = []
    for s, emb in zip(data.summands, data.embeddings):
        e = emb.apply(s.unit)
        t = Matrix.zeros(field, mod.dim, mod.dim)
        for i, c in enumerate(e):
            if c:
                t = t.add(mod.actions[i].scale(c))
        space = column_space(t)
        spaces.append(space)
        actions = []
        for r in range(s.dim):
            amb = emb.col(r)
            big = Matrix.zeros(field, mod.dim, mod.dim)
            for i, c in enumerate(amb):
                if c:
                    big = big.add(mod.actions[i].scale(c))
            coord_cols = []
            for v in space.basis:
                coords = space.coords_of(big.apply(v))
                if coords is None:
                    raise InternalInconsistency("block action left its piece")
                coord_cols.append(coords)
            actions.append(Matrix.from_cols(field, coord_cols, rows=space.dim))
        pieces.append(LeftModule(s, space.dim, actions))
    if sum(p.dim for p in pieces) != mod.dim:
        raise InternalInconsistency("piece dimensions do not add up")
    _verify_module_reassembly(h, mod, data, pieces, spaces)
    return tuple(pieces)


def _verify_module_reassembly(h, mod, data, pieces, spaces):
    """G(U, V) = U x V matches X through the recorded change of basis."""
    field = h.field
    cols = []
    for space in spaces:
        cols.extend(space.basis)
    change = Matrix.from_cols(field, cols, rows=mod.dim)
    inv = inverse(change)
    if inv is None:
        raise InternalInconsistency("piece bases do not span the module")
    for i in range(h.dim):
        acts = []
        for piece, proj in zip(pieces, data.projections):
            act = Matrix.zeros(field, piece.dim, piece.dim)
            for r, c in enumerate(proj.col(i)):
                if c:
                    act = act.add(piece.actions[r].scale(c))
            acts.append(act)
        g_act = _block_diag_matrix(field, acts)
        transported = inv.mul(mod.actions[i]).mul(change)
        if g_act != transported:
            raise InternalInconsistency("module reassembly differs from the original")


def split_comodule(h: WeakBialgebra, com: Comodule, blocks: BlockData | None = None):
    """Prop-4.2 comodule splitting: counit-weighted idempotents, projected coactions
    (on the lifted coaction)."""
    data = _require_two_blocks(h, blocks)
    if com.over is not h:
        raise MalformedInput("comodule is not over the given weak bialgebra")
    field = h.field
    pieces = []
    spaces = []
    cnz, s = com.ints()
    _, _, eps, se = h.coa.ints()
    for blk, emb, proj in zip(data.summands, data.embeddings, data.projections):
        ml, sl = h.mult_matrix(emb.apply(blk.unit)).col_ints()
        gamma = [sum([eps[r] * x for r, x in col]) for col in ml]
        # column b of q is (id (x) eps(e -)) rho(m_b)
        q = [{} for _ in range(com.dim)]
        for col, terms in zip(q, cnz):
            for a, j, c in terms:
                if gamma[j]:
                    col[a] = col.get(a, 0) + c * gamma[j]
        space = column_space(Matrix.from_int_cols(field, q, s * sl * se, com.dim))
        spaces.append(space)
        nk = blk.dim
        pc, sp = proj.col_ints()
        vs, sv = space.ints()
        cols = []
        for v in vs:
            # acc[r][a]: (id (x) proj) rho(v), then each of its columns in the piece's basis
            acc = [[0] * com.dim for _ in range(nk)]
            for i, x in enumerate(v):
                if x:
                    for a, j, c in cnz[i]:
                        for r, y in pc[j]:
                            acc[r][a] += x * c * y
            col = {}
            for r, w in enumerate(acc):
                for a, y in enumerate(_coords(space, w, "split coaction left its piece")):
                    col[a * nk + r] = y
            cols.append(col)
        coaction = Matrix.from_int_cols(field, cols, sv * s * sp, space.dim * nk)
        pieces.append(Comodule(blk, space.dim, coaction))
    if sum(p.dim for p in pieces) != com.dim:
        raise InternalInconsistency("piece dimensions do not add up")
    _verify_comodule_reassembly(h, com, data, pieces, spaces)
    return tuple(pieces)


def _verify_comodule_reassembly(h, com, data, pieces, spaces):
    """rho_com change = (change (x) id) rho_G, column by column on lifted ints, where
    change stacks the pieces' bases and rho_G is the coaction of G(pieces), the
    pieces' coactions carried into H by the embeddings; G(pieces) is not built."""
    n = h.dim
    p = h.field.characteristic
    if ints_rank(p, [v for space in spaces for v in space.ints()[0]]) != com.dim:
        raise InternalInconsistency("piece bases do not span the comodule")
    cnz, s = com.ints()
    for piece, emb, space in zip(pieces, data.embeddings, spaces):
        pnz, sp = piece.ints()
        ec, se = emb.col_ints()
        vs, sv = space.ints()
        for v, terms in zip(vs, pnz):
            lhs = {}
            for i, x in enumerate(v):
                if x:
                    for a, j, c in cnz[i]:
                        lhs[a, j] = lhs.get((a, j), 0) + x * c
            rhs = {}
            for a, r, c in terms:
                for j, y in ec[r]:
                    for b, z in enumerate(vs[a]):
                        if z:
                            rhs[b, j] = rhs.get((b, j), 0) + c * y * z
            if _sides_differ(p, lhs, sv * s, rhs, sp * se * sv):
                raise InternalInconsistency("comodule reassembly differs from the original")
