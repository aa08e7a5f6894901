"""The three workloads: inputs made from a seed, operations, output checks.

Each workload's `setup` loads the resident objects and returns `next_round`,
which makes the `Op`s of one round; every call draws the next round's inputs
from the same seeded generator.  `check` repeats its documents every round;
`decompose-dense` draws every document afresh, and `reconstruct` draws its
one-shot maps afresh beside the automorphism tables it keeps.  `Op.run` is
the timed call into the toolkit; `Op.verify` checks its result against the
independent evaluation in `oracle` or against a property the method must
have, never against stored output.  The toolkit is reached only through the
module namespace `wh` (see `run.load_package`), so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Callable

import oracle

PRIMES = (5, 7, 11, 13)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], bool]
    tags: dict = field(default_factory=dict)


def field_for(wh, name: str):
    return wh.exactla.QQ if name == "Q" else wh.exactla.GF(int(name[3:-1]))


# ---------------------------------------------------------------------------
# generators shared by the workloads (toolkit fixtures, set-up only)


def cyclic(wh, order: int, fld):
    labels, table = wh.fixtures.cyclic_group_table(order)
    return wh.fixtures.group_algebra(labels, table, fld)


def symmetric3(wh, fld):
    perms = list(permutations(range(3)))
    labels = ["".join(map(str, p)) for p in perms]
    table = {}
    for a, pa in zip(labels, perms):
        for b, pb in zip(labels, perms):
            comp = tuple(pa[pb[i]] for i in range(3))
            table[(a, b)] = "".join(map(str, comp))
    return wh.fixtures.group_algebra(labels, table, fld)


def groupoid(wh, objects: int, fld):
    return wh.fixtures.groupoid_algebra(wh.fixtures.indiscrete_groupoid(objects), fld)


def doc_text(wh, h) -> str:
    return wh.serialize.emit(wh.serialize.document_from_wba(h))


# ---------------------------------------------------------------------------
# check: parse, verify, lemma suite and antipode on natural-basis documents

# (name, builder, number of groupoid objects summed over summands)
CHECK_ALGEBRAS = (
    ("gpd2", lambda wh, f: groupoid(wh, 2, f), 2),
    ("gpd3", lambda wh, f: groupoid(wh, 3, f), 3),
    ("C3", lambda wh, f: cyclic(wh, 3, f), 1),
    ("C4", lambda wh, f: cyclic(wh, 4, f), 1),
    ("S3", symmetric3, 1),
    ("C2+gpd2", lambda wh, f: wh.decomp.direct_sum(cyclic(wh, 2, f), groupoid(wh, 2, f)), 3),
    ("k+C3", lambda wh, f: wh.decomp.direct_sum(cyclic(wh, 1, f), cyclic(wh, 3, f)), 2),
)
CHECK_TINY = ("gpd2", "C3")


def _bump(raw: oracle.Raw, tensor: str, idx: tuple):
    one = 1 if raw.p else Fraction(1)
    t = getattr(raw, tensor)
    i, j, k = idx
    t[i][j][k] = raw.norm(t[i][j][k] + one)


def perturbed_text(text: str, rng: random.Random, tensor: str) -> tuple[str, oracle.Raw]:
    """Bump one structure constant so that some law must fail.

    A bumped comult entry breaks the counit law (every basis element of
    these algebras has counit 1); a bumped mult entry b_u b_j with u in the
    support of the unit breaks the unit law.
    """
    raw = oracle.raw_from_text(text)
    n = raw.n
    if tensor == "comult":
        idx = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
    else:
        units = [u for u in range(n) if raw.unit[u]]
        idx = (rng.choice(units), rng.randrange(n), rng.randrange(n))
    _bump(raw, tensor, idx)
    labels = json.loads(text)["basis"]
    return oracle.text_from_raw(raw, labels), raw


def _check_op(wh, label, text, objects):
    def run():
        doc = wh.serialize.parse_text(text)
        h, _ = wh.serialize.wba_from_document(doc)
        lemmas = wh.weakbia.lemma_suite(h)
        anti = wh.weakbia.verify_antipode(h, h.antipode)
        return lemmas.ok, anti.ok, h.ht.dim, h.hs.dim

    def verify(res):
        return res == (True, True, objects, objects)

    return Op(label, run, verify, {"rejected": False})


def _rejected_op(wh, label, text, raw):
    axiom_violation = wh.errors.AxiomViolation

    def run():
        doc = wh.serialize.parse_text(text)
        try:
            wh.serialize.wba_from_document(doc)
        except axiom_violation as exc:
            first = exc.verdict.violations[0]
            return first.law, first.witness
        return None

    def verify(res):
        return res is not None and oracle.violation_holds(raw, res[0], res[1])

    return Op(label, run, verify, {"rejected": True, "raw": raw})


def setup_check(wh, rng: random.Random, tiny: bool) -> Callable[[], list[Op]]:
    p = rng.choice(PRIMES)
    ops = []
    for fname in ("Q", f"GF({p})"):
        fld = field_for(wh, fname)
        for idx, (name, build, objects) in enumerate(CHECK_ALGEBRAS):
            if tiny and name not in CHECK_TINY:
                continue
            text = doc_text(wh, build(wh, fld))
            label = f"{name}@{fname}"
            ops.append(_check_op(wh, label, text, objects))
            tensor = "mult" if idx % 2 == 0 else "comult"
            bad_text, bad_raw = perturbed_text(text, rng, tensor)
            ops.append(_rejected_op(wh, f"{label}~{tensor}", bad_text, bad_raw))
    return lambda: ops


# ---------------------------------------------------------------------------
# decompose-dense: direct sums in a seeded random integer basis

# (name, dimensions of the summands, documents per round).  Sums of
# dimension 4 and up are left out: there one document's cost varies by a
# third with the basis drawn, so percentiles over a round would not agree
# between seeds.
DENSE_SUMS = (("k+C2", (1, 2), 20), ("k+k+k", (1, 1, 1), 20))
DENSE_TINY = 1
CANDIDATES = 8
MAX_BATCHES = 64
# the (WH1) work count the kept basis is drawn closest to; 6561 is the most
# a dimension-3 document can reach
WORK_TARGET = 4761


def random_unimodular(rng: random.Random, n: int) -> list:
    """A row-permuted product of unit lower and upper triangular +-1 matrices,
    its columns then permuted and signed (which leaves the cost of the
    document it makes unchanged but multiplies the number of documents)."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rows = list(range(n))
    rng.shuffle(rows)
    cols = list(range(n))
    rng.shuffle(cols)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[j] * prod[rows[i]][cols[j]] for j in range(n)] for i in range(n)]


def scrambled(raw: oracle.Raw, rng: random.Random, seen: set) -> tuple[oracle.Raw, str]:
    """Of CANDIDATES random unimodular changes of basis giving a document not
    in `seen`, the one whose (WH1) work count is closest to WORK_TARGET, ties
    broken by the smaller scalar height; its text is added to `seen`.  So
    seeds differ in the order and values of the constants more than in the
    cost of checking them, and no document comes twice, unless MAX_BATCHES
    batches of draws find no new one, which only runs many times longer than
    30 seconds come near.
    """
    best = None
    for batch in range(MAX_BATCHES):
        for _ in range(CANDIDATES):
            out = oracle.change_basis(raw, random_unimodular(rng, raw.n))
            text = oracle.text_from_raw(out)
            if text in seen and batch < MAX_BATCHES - 1:
                continue
            key = (abs(oracle.wh1_work(out) - WORK_TARGET), oracle.scalar_height(out))
            if best is None or key < best[0]:
                best = (key, out, text)
        if best is not None:
            break
    seen.add(best[2])
    return best[1], best[2]


def _decompose_op(wh, label, text, raw, dims):
    def run():
        doc = wh.serialize.parse_text(text)
        h, _ = wh.serialize.wba_from_document(doc)
        report = wh.decomp.decompose(h)
        pieces = None
        if report.block_count == 2:
            reg = wh.comod.regular_comodule(h)
            pieces = wh.decomp.split_comodule(h, reg, report.block_data())
        return (
            [tuple(e) for e in report.block_idempotents],
            [b.dim for b in report.blocks],
            list(report.certificates),
            None if pieces is None else [pc.dim for pc in pieces],
        )

    def verify(res):
        idems, block_dims, certs, piece_dims = res
        return (
            idempotent_system_ok(raw, idems)
            and sorted(block_dims) == sorted(dims)
            and all(c == "indecomposable" for c in certs)
            and (piece_dims is None if len(dims) != 2 else sorted(piece_dims) == sorted(dims))
        )

    return Op(label, run, verify, {"text": text})


def idempotent_system_ok(raw: oracle.Raw, idems) -> bool:
    """Idempotent, central, pairwise orthogonal, summing to the unit."""
    n = raw.n
    idems = [[raw.norm(x) for x in e] for e in idems]
    zero = [raw.zero()] * n
    for a, e in enumerate(idems):
        if oracle.mul(raw, e, e) != e:
            return False
        for i in range(n):
            b = oracle.basis_vec(raw, i)
            if oracle.mul(raw, e, b) != oracle.mul(raw, b, e):
                return False
        for f in idems[a + 1:]:
            if oracle.mul(raw, e, f) != zero or oracle.mul(raw, f, e) != zero:
                return False
    total = [raw.norm(sum(col, raw.zero())) for col in zip(*idems)] if idems else zero
    return total == [raw.norm(x) for x in raw.unit]


def dense_summands(wh, name: str):
    fld = wh.exactla.QQ
    parts = {"k": 1, "C2": 2, "C3": 3}
    return [cyclic(wh, parts[p], fld) for p in name.split("+")]


def setup_decompose(wh, rng: random.Random, tiny: bool) -> Callable[[], list[Op]]:
    sums = [
        (name, dims, DENSE_TINY if tiny else count,
         oracle.raw_from_text(doc_text(wh, wh.decomp.direct_sum(*dense_summands(wh, name)))))
        for name, dims, count in DENSE_SUMS
    ]
    seen: set[str] = set()

    def next_round():
        """Every document in a basis of its own: no comodule is built twice."""
        ops = []
        for name, dims, count, natural in sums:
            for copy in range(count):
                raw, text = scrambled(natural, rng, seen)
                ops.append(_decompose_op(wh, f"{name}#{copy}", text, raw, dims))
        return ops

    return next_round


# ---------------------------------------------------------------------------
# reconstruct: functor tables against resident sources and targets

ASSIGN3 = ("regular", "unit", "regular*unit")
ASSIGN4 = ("regular", "unit", "regular*unit", "unit*regular")


def groupoid_permutation(h, sigma) -> list:
    """Matrix of the automorphism moving arrow (s, t) to (sigma s, sigma t)."""
    n_obj = len(sigma)
    labels = list(h.labels)
    index = {}
    for s in range(n_obj):
        index[(s, s)] = labels.index(f"e{s + 1}")
        for t in range(n_obj):
            if s != t:
                lab = ("f" if (s, t) == (0, 1) else "g") if n_obj == 2 else f"a{s + 1}{t + 1}"
                index[(s, t)] = labels.index(lab)
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
    for (s, t), col in index.items():
        rows[index[(sigma[s], sigma[t])]][col] = 1
    return rows


def cyclic_power(order: int, k: int) -> list:
    rows = [[0] * order for _ in range(order)]
    for a in range(order):
        rows[(a * k) % order][a] = 1
    return rows


def idempotents_into_groupoid(h_target, sigma) -> list:
    """k + ... + k -> groupoid algebra: summand i to the identity at sigma(i)."""
    labels = list(h_target.labels)
    rows = [[0] * len(sigma) for _ in labels]
    for i, s in enumerate(sigma):
        rows[labels.index(f"e{s + 1}")][i] = 1
    return rows


@dataclass
class Table:
    label: str
    source: object
    target: object
    phi: list
    names: tuple
    corrupt: str | None = None  # None, "coaction" or "unit_map"


def _table_text(wh, rng, t: Table, fld):
    phi = wh.exactla.Matrix(fld, t.phi)
    bmap = wh.tannaka.WeakBialgebraMap(t.source, t.target, phi)
    comods = [wh.serialize.resolve_comodule(t.source, {}, nm) for nm in t.names]
    fd = wh.tannaka.functor_from_map(bmap, comods)
    doc = wh.serialize.document_from_functor(fd, list(t.names))
    claim = None
    p = 0 if fld == wh.exactla.QQ else fld.characteristic
    if t.corrupt == "coaction":
        which = rng.randrange(1, len(t.names))  # never the regular assignment
        grid = doc["assignments"][which]["coaction"]
        r, c = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
        grid[r][c] = _bump_str(grid[r][c], p)
        claim = ([[oracle.parse_scalar(x, p) for x in row] for row in grid], len(grid[0]))
    elif t.corrupt == "unit_map":
        grid = doc["unit_map"]
        r, c = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
        grid[r][c] = _bump_str(grid[r][c], p)
    return wh.serialize.emit(doc), claim, p


def _bump_str(s: str, p: int) -> str:
    return str((int(s) + 1) % p) if p else str(Fraction(s) + 1)


EXPECTED_LAYER = {None: None, "coaction": "comodule-validity", "unit_map": "unit-morphism"}


def _reconstruct_op(wh, t: Table, text, claim, p, target_raw):
    source, target = t.source, t.target
    expected = EXPECTED_LAYER[t.corrupt]
    layers = list(wh.tannaka.RECONSTRUCTION_LAYERS)

    def run():
        doc = wh.serialize.parse_text(text)
        fd = wh.serialize.functor_from_document(doc, source, {}, target)
        res = wh.tannaka.reconstruct_weak_bialgebra_map(fd)
        return (
            res.phi.entries,
            [(name, v.ok) for name, v in res.layers],
            res.first_failing_layer(),
        )

    def verify(res):
        phi, verdicts, first = res
        got = [[oracle.parse_scalar(str(x), p) for x in row] for row in phi]
        if got != [[oracle.parse_scalar(str(x), p) for x in row] for row in t.phi]:
            return False
        if [name for name, _ in verdicts] != layers or first != expected:
            return False
        if expected is None:
            return all(ok for _, ok in verdicts)
        stop = layers.index(expected)
        if not all(ok for _, ok in verdicts[:stop]):
            return False
        if t.corrupt == "coaction":
            grid, dim = claim
            # the corrupted claim must really break the counit law
            return not oracle.counit_law_holds(target_raw, grid, dim)
        return True

    return Op(t.label, run, verify, {"corrupt": t.corrupt})


def automorphism_tables(wh, fname: str, tiny: bool) -> tuple[list[Table], list]:
    """The tables whose maps share a source, and the groupoid algebras
    (objects, algebra) that the one-shot maps go into."""
    fld = field_for(wh, fname)
    tables = []
    g2 = groupoid(wh, 2, fld)
    tables += [
        Table(f"gpd2 auto {s} {len(names)}@{fname}", g2, g2, groupoid_permutation(g2, s), names)
        for s in permutations(range(2))
        for names in (ASSIGN3, ASSIGN4)
    ]
    c3 = cyclic(wh, 3, fld)
    tables += [
        Table(f"C3 ^{k}@{fname}", c3, c3, cyclic_power(3, k), ASSIGN4 if k % 2 else ASSIGN3)
        for k in (1, 2)
    ]
    if tiny:
        return tables, [(2, g2)]
    g3 = groupoid(wh, 3, fld)
    tables += [
        Table(f"gpd3 auto {s}@{fname}", g3, g3, groupoid_permutation(g3, s), ASSIGN3)
        for s in permutations(range(3))
    ]
    for order in (4, 5):
        cn = cyclic(wh, order, fld)
        tables += [
            Table(f"C{order} ^{k}@{fname}", cn, cn, cyclic_power(order, k), ASSIGN4 if k % 2 else ASSIGN3)
            for k in range(1, order)
            if gcd(k, order) == 1
        ]
    return tables, [(2, g2), (3, g3)]


def one_shot_tables(wh, rng: random.Random, fname: str, groupoids) -> list[Table]:
    """Maps k + ... + k -> gpd, each from a source of its own: the sum in a
    seeded diagonal basis b'_i = c_i e_i, with b'_i sent to c_i times the
    identity arrow at sigma(i) for a seeded object permutation sigma."""
    fld = field_for(wh, fname)
    p = oracle.field_prime(fname)
    k1 = cyclic(wh, 1, fld)
    tables = []
    for n_obj, target in groupoids:
        natural = oracle.raw_from_text(doc_text(wh, wh.decomp.direct_sum(*([k1] * n_obj))))
        scales = [rng.randrange(1, p) if p else rng.choice((-1, 1)) * rng.randrange(1, 10)
                  for _ in range(n_obj)]
        text = oracle.text_from_raw(oracle.scale_basis(natural, scales))
        src, _ = wh.serialize.wba_from_document(json.loads(text))
        sigma = list(range(n_obj))
        rng.shuffle(sigma)
        phi = [[x * c for x, c in zip(row, scales)]
               for row in idempotents_into_groupoid(target, sigma)]
        tables.append(Table(f"k^{n_obj} {scales} -> gpd{n_obj}@{fname}", src, target, phi, ASSIGN4))
    return tables


def _table_op(wh, rng, t: Table, fld) -> Op:
    text, claim, p = _table_text(wh, rng, t, fld)
    target_raw = oracle.raw_from_text(doc_text(wh, t.target)) if claim else None
    return _reconstruct_op(wh, t, text, claim, p, target_raw)


def setup_reconstruct(wh, rng: random.Random, tiny: bool) -> Callable[[], list[Op]]:
    p = rng.choice(PRIMES)
    shared = []
    groupoids = []
    for fname in ("Q", f"GF({p})"):
        fld = field_for(wh, fname)
        tables, gpds = automorphism_tables(wh, fname, tiny)
        groupoids.append((fname, gpds))
        # corrupted copies of three tables spread over the list, per kind
        extra = []
        for kind in ("coaction", "unit_map"):
            for t in tables[:: max(1, len(tables) // 3)][:3]:
                extra.append(Table(f"{t.label}!{kind}", t.source, t.target, t.phi, t.names, kind))
        shared += [_table_op(wh, rng, t, fld) for t in tables + extra]

    def next_round():
        """The automorphism tables again, and one-shot maps drawn afresh."""
        ops = list(shared)
        for fname, gpds in groupoids:
            fld = field_for(wh, fname)
            ops += [_table_op(wh, rng, t, fld) for t in one_shot_tables(wh, rng, fname, gpds)]
        return ops

    return next_round


WORKLOADS = {
    "check": setup_check,
    "decompose-dense": setup_decompose,
    "reconstruct": setup_reconstruct,
}
