"""The lifted products and `decomp` against the field-scalar loops they replaced.

`structure.multiply`, `comultiply` and `counit_of` lift their arguments and
run the int kernels; each result must print (`repr`, so with its scalar
types) as the retired loops of `product_reference` print theirs, on natural
and unimodular-scrambled bases of k, c2, gpd2, C3, `sum` and z3gf2 over Q,
GF(2), GF(3), GF(5) and GF(1009), for zero, basis, int-entry and
non-integer vectors.  The tensor kernel of `decomp` is compared with the
retired leakage and reassembly loops in the same way.  Every output of
`decompose`, the split functions and `solve_antipode` must equal what
`decomp_record.record` returned before the products were lifted.
"""

import json
import random
from fractions import Fraction

import pytest

import decomp_record
import product_reference as ref
from test_axiom_kernels import _scalar, _unimodular_cols, rebased
from weakhopf.decomp import _leaks, _tensor_image
from weakhopf.errors import MalformedInput
from weakhopf.exactla import GF, QQ, Matrix, ints_to_field, inverse, lift_to_ints, vec_unit, vec_zero
from weakhopf.fixtures import cyclic_group_table, group_algebra, preset
from weakhopf.structure import comultiply, counit_of, multiply
from weakhopf.weakbia import build_weak_bialgebra

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(1009))
IDS = [str(f) for f in FIELDS]
RATIONALS = ("0", "1", "-1", "2", "1/2", "-1/3", "5/4", "-7/6", "3")


def corpus(field):
    """(name, h) for the fixtures and their scrambled copies."""
    labels, table = cyclic_group_table(3)
    natural = {
        "k": preset("k", field),
        "c2": preset("c2", field),
        "gpd2": preset("gpd2", field),
        "C3": group_algebra(labels, table, field),
        "sum": preset("sum", field),
    }
    if field == GF(2):
        natural["z3gf2"] = preset("z3@gf2")
    out = []
    for name, h in natural.items():
        out.append((name, h))
        alg, coa, _ = rebased(h, _unimodular_cols(field, h.dim))
        out.append((name + "@unimodular", build_weak_bialgebra(alg, coa)))
    return out


def vectors(field, n, rng):
    """Zero, the basis, one int-entry vector and random vectors with
    non-integer entries (over Q; their residues over GF(p))."""
    out = [vec_zero(field, n)] + [vec_unit(field, n, i) for i in range(n)]
    out.append(tuple(rng.randrange(-3, 4) for _ in range(n)))
    for _ in range(4):
        out.append(tuple(_scalar(field, rng.choice(RATIONALS)) for _ in range(n)))
    return out


def _field_items(field, acc, scale):
    """The sorted nonzero (key, field value) pairs of the sparse int vector acc / scale."""
    keys = sorted(acc)
    return [(k, v) for k, v in zip(keys, ints_to_field(field, tuple(acc[k] for k in keys), scale)) if v]


def _same(got, want):
    assert repr(got) == repr(want)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_products_match_the_field_loops(field):
    rng = random.Random(f"products:{field}")
    for _, h in corpus(field):
        vs = vectors(field, h.dim, rng)
        for x in vs:
            _same(comultiply(h.coa, x), ref.comultiply(h.coa, x))
            _same(counit_of(h.coa, x), ref.counit_of(h.coa, x))
            for y in vs:
                _same(multiply(h.alg, x, y), ref.multiply(h.alg, x, y))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_tensor_kernel_matches_the_leakage_and_reassembly_loops(field):
    rng = random.Random(f"tensor:{field}")
    p = field.characteristic
    for _, h in corpus(field):
        n = h.dim
        mats = [h.mult_matrix(x) for x in vectors(field, n, rng)[-3:]]
        change = Matrix.from_cols(field, _unimodular_cols(field, n), rows=n)
        inv = inverse(change)
        for x in vectors(field, n, rng)[-3:]:
            u = ref.comultiply(h.coa, x)
            lifted, su = lift_to_ints(field, u)
            for left in mats:
                for right in mats:
                    want = ref.tensor_component(h, u, left, right)
                    (lc, sl), (rc, sr) = left.col_ints(), right.col_ints()
                    got = _field_items(field, _tensor_image(lifted, lc, rc), su * sl * sr)
                    _same([(a * n + b, v) for (a, b), v in got], sorted(want.items()))
                    assert _leaks(p, lifted, lc, rc) == bool(want)
            ic, si = inv.col_ints()
            got = _field_items(field, _tensor_image(lifted, ic, ic), su * si * si)
            _same(got, sorted(ref.pull_back(h, u, inv).items()))


def test_products_reject_non_field_entries():
    h = preset("sum")
    one = (Fraction(1),) * 6
    for bad in ((0.5,) * 6, ("1",) * 6, (GF(3).one,) * 6):
        with pytest.raises(MalformedInput):
            multiply(h.alg, bad, one)
        with pytest.raises(MalformedInput):
            comultiply(h.coa, bad)
        with pytest.raises(MalformedInput):
            counit_of(h.coa, bad)


RECORDED = json.loads(decomp_record.RECORDED.read_text(encoding="utf-8"))
CASES = decomp_record.cases()


@pytest.mark.parametrize("name,h,whole", CASES, ids=[c[0] for c in CASES])
def test_decomposition_outputs_as_recorded(name, h, whole):
    assert decomp_record.record(h, whole) == RECORDED[name]


def test_recorded_corpus_reaches_every_output():
    assert sorted(RECORDED) == sorted(c[0] for c in CASES)
    keys = set().union(*RECORDED.values())
    assert {"pieces", "split_by_idempotent", "split_comodule", "split_module"} <= keys
    certificates = {c for r in RECORDED.values() for c in r["certificates"]}
    assert certificates == {"indecomposable", "undecided-over-field"}
    assert {r["antipode"][0] for r in RECORDED.values()} == {"found", "undetermined"}
    assert any(not certified for r in RECORDED.values() for _, certified in r.get("pieces", []))
