"""The sparse `exactla` kernels against the dense kernels they replaced.

The reference is `dense_matrix.DenseMatrix` and its functions, the earlier
dense `Matrix`, `rref`, `kernel_basis`, `solve`, `inverse` and
`quotient_basis` (compared with the field views of `_int_quotient`).  On
seeded random matrices over Q, GF(2), GF(5) and GF(1009), with empty shapes, identities, zero and low-rank matrices among
them, every result must print the same (`repr` shows each entry), and
`==` and `hash` must agree with the dense rows.
"""

import random
from fractions import Fraction

import pytest

from dense_matrix import DenseMatrix, coords_of, echelon_basis
from dense_matrix import inverse as dense_inverse
from dense_matrix import kernel_basis as dense_kernel_basis
from dense_matrix import quotient_basis as dense_quotient_basis
from dense_matrix import rref as dense_rref
from dense_matrix import solve as dense_solve
from test_exactla import quotient_basis
from weakhopf.exactla import (
    GF,
    QQ,
    Matrix,
    Subspace,
    column_space,
    inverse,
    kernel_basis,
    kernel_space,
    rref,
    solve,
)

FIELDS = (QQ, GF(2), GF(5), GF(1009))
SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 6), (7, 9))


def scalar(rng, field, density):
    if rng.random() >= density:
        return field.zero
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return field.of(rng.randrange(field.characteristic))


def random_matrix(rng, field, rows, cols, density=0.5):
    return Matrix(field, [[scalar(rng, field, density) for _ in range(cols)] for _ in range(rows)], cols=cols)


def corpus(field):
    rng = random.Random(f"sparse-kernels:{field}")
    mats = []
    for rows, cols in SHAPES:
        for density in (0.0, 0.2, 0.5, 1.0):
            mats.append(random_matrix(rng, field, rows, cols, density))
    for n in (0, 1, 3, 5):
        mats.append(Matrix.identity(field, n))
        mats.append(Matrix.zeros(field, n, n + 1))
    for _ in range(6):
        k = rng.randint(1, 3)
        mats.append(random_matrix(rng, field, 6, k, 0.7).mul(random_matrix(rng, field, k, 7, 0.7)))
    return rng, mats


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unary_kernels_match_dense(field):
    rng, mats = corpus(field)
    for m in mats:
        d = DenseMatrix(field, m.entries, m.cols)
        assert repr(m) == repr(d)
        assert repr(m.transpose()) == repr(d.transpose())
        assert [m.col(j) for j in range(m.cols)] == [d.col(j) for j in range(d.cols)]
        red, pivots = rref(m)
        d_red, d_pivots = dense_rref(d)
        assert (repr(red), pivots) == (repr(d_red), d_pivots)
        assert repr(kernel_basis(m)) == repr(dense_kernel_basis(d))
        c = scalar(rng, field, 1.0)
        assert repr(m.scale(c)) == repr(d.scale(c))
        v = tuple(scalar(rng, field, 0.6) for _ in range(m.cols))
        assert repr(m.apply(v)) == repr(d.apply(v))
        assert column_space(m).basis == echelon_basis(field, m.rows, [d.col(j) for j in range(m.cols)])[0]
        assert kernel_space(m).basis == echelon_basis(field, m.cols, dense_kernel_basis(d))[0]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_binary_kernels_match_dense(field):
    rng, mats = corpus(field)
    for m in mats:
        d = DenseMatrix(field, m.entries, m.cols)
        right = random_matrix(rng, field, m.cols, rng.randint(0, 5), rng.choice((0.2, 0.7)))
        assert repr(m.mul(right)) == repr(d.mul(DenseMatrix.of(right)))
        other = random_matrix(rng, field, rng.randint(0, 3), rng.randint(0, 3))
        assert repr(m.kron(other)) == repr(d.kron(DenseMatrix.of(other)))
        assert repr(other.kron(m)) == repr(DenseMatrix.of(other).kron(d))
        same = random_matrix(rng, field, m.rows, m.cols, 0.4)
        assert repr(m.add(same)) == repr(d.add(DenseMatrix.of(same)))
        assert repr(m.sub(same)) == repr(d.sub(DenseMatrix.of(same)))
        assert m.sub(m) == Matrix.zeros(field, m.rows, m.cols)
        for b in (random_matrix(rng, field, m.rows, 2), m.mul(random_matrix(rng, field, m.cols, 2))):
            got, want = solve(m, b), dense_solve(d, DenseMatrix.of(b))
            assert repr(got) == repr(want)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inverse_matches_dense(field):
    rng, mats = corpus(field)
    squares = [m for m in mats if m.rows == m.cols]
    for n in (1, 2, 3, 5):
        for _ in range(4):
            squares.append(random_matrix(rng, field, n, n, rng.choice((0.3, 0.6, 1.0))))
    found = 0
    for m in squares:
        got, want = inverse(m), dense_inverse(DenseMatrix.of(m))
        assert repr(got) == repr(want)
        if got is not None:
            found += 1
            assert m.mul(got) == Matrix.identity(field, m.rows)
    assert found > 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equality_and_hash_follow_the_dense_rows(field):
    _, mats = corpus(field)
    rebuilt = [Matrix(field, m.entries, cols=m.cols) for m in mats]
    transposed_twice = [m.transpose().transpose() for m in mats]
    for m, r, t in zip(mats, rebuilt, transposed_twice):
        assert m == r == t and hash(m) == hash(r) == hash(t)
    for m in mats:
        for other in mats:
            dense_equal = DenseMatrix.of(m) == DenseMatrix.of(other)
            assert (m == other) == dense_equal
            if dense_equal:
                assert hash(m) == hash(other)
    assert len(set(mats)) == len({DenseMatrix.of(m) for m in mats})


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_quotient_basis_matches_dense(field):
    rng, mats = corpus(field)
    for m in mats:
        if not m.cols:
            continue
        relators = Subspace(field, m.cols, m.entries)
        basis, pivots = echelon_basis(field, m.cols, list(m.entries))
        assert (relators.basis, relators.pivots) == (basis, tuple(pivots))
        reps, proj, sect = quotient_basis(m.cols, relators)
        d_reps, d_proj, d_sect = dense_quotient_basis(field, m.cols, basis, pivots)
        assert (reps, repr(proj), repr(sect)) == (d_reps, repr(d_proj), repr(d_sect))
        v = tuple(scalar(rng, field, 0.6) for _ in range(m.cols))
        assert repr(relators.coords_of(v)) == repr(coords_of(basis, pivots, v))
        # a combination of the rows lies in their span
        inside = m.transpose().apply(tuple(scalar(rng, field, 0.6) for _ in range(m.rows)))
        assert relators.coords_of(inside) is not None
        assert repr(relators.coords_of(inside)) == repr(coords_of(basis, pivots, inside))
