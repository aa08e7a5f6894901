import random
import time
from fractions import Fraction

import pytest

import weakhopf.exactla as exactla
from dense_matrix import DenseMatrix
from weakhopf.errors import MalformedInput
from weakhopf.exactla import (
    GF,
    MAX_CHARACTERISTIC,
    QQ,
    FieldSpec,
    Matrix,
    Mod,
    Subspace,
    _int_quotient,
    _is_prime,
    intersect,
    ints_to_field,
    inverse,
    kernel_basis,
    lift_to_ints,
    parse_field_name,
    rank,
    rref,
    solve,
    solve_vec,
    vec_unit,
)


def test_field_spec_validation():
    assert QQ.kind == "rationals"
    assert GF(7).characteristic == 7
    with pytest.raises(MalformedInput):
        FieldSpec("prime-field", 6)
    with pytest.raises(MalformedInput):
        FieldSpec("reals")
    assert parse_field_name("Q") == QQ
    assert parse_field_name("GF(5)") == GF(5)
    with pytest.raises(MalformedInput):
        parse_field_name("GF(4)")


def test_scalar_parse_and_format():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.fmt(Fraction(1, 2)) == "1/2"
    assert QQ.fmt(Fraction(-3)) == "-3"
    with pytest.raises(MalformedInput):
        QQ.parse("1.5")
    with pytest.raises(MalformedInput):
        QQ.parse("1/0")
    f5 = GF(5)
    assert f5.parse("7") == Mod(2, 5)
    assert f5.fmt(Mod(7, 5)) == "2"


def test_mod_arithmetic():
    a, b = Mod(3, 5), Mod(4, 5)
    assert a + b == Mod(2, 5)
    assert a * b == Mod(2, 5)
    assert a - b == Mod(4, 5)
    assert a / b == Mod(3, 5) * Mod(4, 5)  # 1/4 = 4 mod 5
    assert -a == Mod(2, 5)
    assert not Mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        a / Mod(0, 5)


def test_mod_equals_only_its_canonical_int():
    a = Mod(1, 5)
    assert a == 1 and 1 in {a}
    assert (a == 6) is False
    assert (6 in {a}) == (a == 6)
    assert (Mod(4, 5) == -1) is False
    assert hash(Mod(7, 5)) == hash(2) and Mod(7, 5) == 2


def test_mixed_field_entries_rejected():
    with pytest.raises(MalformedInput):
        Matrix(QQ, [[Mod(1, 2), Fraction(0)]])
    with pytest.raises(MalformedInput):
        Matrix(GF(2), [[Fraction(1)]])


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == Matrix(QQ, [[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_gf2():
    # hand elimination mod 2: r2 += r1 gives (0,1), then r1 += r2
    m = Matrix(GF(2), [[1, 1], [1, 0]])
    red, pivots = rref(m)
    assert red == Matrix.identity(GF(2), 2)
    assert pivots == (0, 1)


def test_solve_identity():
    b = Matrix(QQ, [[3], [5]])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_zeroes_free_variables():
    x = solve(Matrix(QQ, [[1, 1]]), Matrix(QQ, [[1]]))
    assert x == Matrix(QQ, [[1], [0]])


def test_solve_no_solution():
    assert solve(Matrix(QQ, [[0]]), Matrix(QQ, [[1]])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(MalformedInput):
        solve(Matrix(QQ, [[1]]), Matrix(QQ, [[1], [2]]))


def quotient_basis(ambient_dim, relators):
    """(reps, projection, section) of k^ambient_dim modulo the relators, the
    field matrices of `_int_quotient` as `TensorComodule` reads them."""
    field = relators.field
    rows = [dict(enumerate(row)) for row in relators.ints()[0]]
    pivot_rows, reps, proj, scale = _int_quotient(field.characteristic, ambient_dim, rows)
    # the reduced rows, each over its pivot entry, are the echelon basis of the relators
    pivots = tuple(sorted(pivot_rows))
    reduced = [ints_to_field(field, tuple([pivot_rows[c].get(j, 0) for j in range(ambient_dim)]), pivot_rows[c][c])
               for c in pivots]
    assert (pivots, tuple(reduced)) == (relators.pivots, relators.basis)
    sect = Matrix.from_cols(field, [vec_unit(field, ambient_dim, f) for f in reps], rows=ambient_dim)
    return reps, Matrix.from_int_cols(field, proj, scale, len(reps)), sect


def test_quotient_trivial_relators():
    reps, proj, sect = quotient_basis(3, Subspace(QQ, 3))
    assert reps == (0, 1, 2)
    assert proj == Matrix.identity(QQ, 3)
    assert sect == Matrix.identity(QQ, 3)


def test_quotient_identifies_e0_e1():
    # relator e0 - e1 in dim 2: echelon pivot at 0, representative e1,
    # and both e0, e1 project to it
    relators = Subspace(QQ, 2, [(Fraction(1), Fraction(-1))])
    reps, proj, sect = quotient_basis(2, relators)
    assert reps == (1,)
    assert proj == Matrix(QQ, [[1, 1]])
    assert proj.mul(sect) == Matrix.identity(QQ, 1)


def test_quotient_full_space():
    relators = Subspace(QQ, 2, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    reps, proj, sect = quotient_basis(2, relators)
    assert reps == ()
    assert proj.rows == 0 and proj.cols == 2
    assert sect.rows == 2 and sect.cols == 0


def test_intersect_self():
    a = Subspace(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    assert intersect(a, a) == a


def test_intersect_transverse_lines():
    a = Subspace(QQ, 2, [(1, 0)])
    b = Subspace(QQ, 2, [(0, 1)])
    assert intersect(a, b).dim == 0


def test_intersect_planes():
    # stacked-kernel oracle computed by hand: the planes meet in span{e1}
    a = Subspace(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(a, b) == Subspace(QQ, 3, [(0, 1, 0)])


def test_intersect_ambient_mismatch():
    with pytest.raises(MalformedInput):
        intersect(Subspace(QQ, 2), Subspace(QQ, 3))


def _random_matrix(rng, field, rows, cols, span=5):
    return Matrix(
        field,
        [[field.of(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)],
    )


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_rref_properties_random(field):
    rng = random.Random(20240 + field.characteristic)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, rows, cols)
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert again == red and pivots2 == pivots
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert not any(m.apply(v))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_solve_is_exact_random(field):
    rng = random.Random(777 + field.characteristic)
    solved = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, field, rows, cols)
        b = _random_matrix(rng, field, rows, 1)
        x = solve(a, b)
        if x is not None:
            solved += 1
            assert a.mul(x) == b
    assert solved > 0


def test_quotient_projection_section_random():
    rng = random.Random(99)
    for _ in range(20):
        dim = rng.randint(1, 6)
        vecs = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            for _ in range(rng.randint(0, dim))
        ]
        relators = Subspace(QQ, dim, vecs)
        reps, proj, sect = quotient_basis(dim, relators)
        assert proj.mul(sect) == Matrix.identity(QQ, len(reps))
        for v in relators.basis:
            assert not any(proj.apply(v))


def test_inverse_round_trip():
    m = Matrix(QQ, [[1, 2], [3, 5]])
    inv = inverse(m)
    assert inv is not None
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    assert inverse(Matrix(QQ, [[1, 2], [2, 4]])) is None


def test_subspace_coords_and_membership():
    s = Subspace(QQ, 3, [(1, 0, 2), (0, 1, 1)])
    v = (Fraction(2), Fraction(-1), Fraction(3))
    coords = s.coords_of(v)
    assert coords == (Fraction(2), Fraction(-1))
    assert s.contains(v)
    assert not s.contains((Fraction(0), Fraction(0), Fraction(1)))


def test_solve_vec_matches_solve():
    a = Matrix(QQ, [[2, 0], [0, 3]])
    assert solve_vec(a, (Fraction(4), Fraction(9))) == (Fraction(2), Fraction(3))


def test_kron_row_major_convention():
    a = Matrix(QQ, [[1, 2]])
    b = Matrix(QQ, [[3], [4]])
    k = a.kron(b)
    # (i1, i2) -> i1 * rows(b) + i2 and (j1, j2) -> j1 * cols(b) + j2
    assert k.rows == 2 and k.cols == 2
    assert k == Matrix(QQ, [[3, 6], [4, 8]])


def test_large_prime_characteristics_are_decided_fast():
    t0 = time.perf_counter()
    assert GF(10**14 + 31).characteristic == 10**14 + 31
    assert GF(1000000000000000003).characteristic == 1000000000000000003
    # the largest prime under the cap
    assert GF(3317044064679887385961813).characteristic == MAX_CHARACTERISTIC - 167
    # a Carmichael number, then strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (561, 151 * 751 * 28351, 149491 * 747451 * 34233211, 399165290221 * 798330580441):
        with pytest.raises(MalformedInput, match="not prime"):
            GF(n)
    assert time.perf_counter() - t0 < 1.0


def test_is_prime_agrees_with_a_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_characteristic_cap_and_digit_limit():
    # the least strong pseudoprime to all 13 bases is the first integer above the cap
    assert MAX_CHARACTERISTIC + 1 == 1287836182261 * 2575672364521
    t0 = time.perf_counter()
    for p in (MAX_CHARACTERISTIC + 1, 2**89 - 1):
        with pytest.raises(MalformedInput, match="supported bound"):
            GF(p)
    # more digits than the interpreter converts to int
    with pytest.raises(MalformedInput, match="supported bound"):
        parse_field_name("GF(" + "7" * 5000 + ")")
    for field in (QQ, GF(5)):
        with pytest.raises(MalformedInput):
            field.parse("7" * 5000)
    with pytest.raises(MalformedInput):
        QQ.parse("1/" + "7" * 5000)
    assert time.perf_counter() - t0 < 1.0


def test_int_results_over_a_prime_field_divide_by_the_scale():
    f = GF(5)
    assert ints_to_field(f, (1, 2), 2) == (Mod(3, 5), Mod(1, 5))
    assert ints_to_field(f, ((1, 2), (4,)), 7) == ((Mod(3, 5), Mod(1, 5)), (Mod(2, 5),))
    assert ints_to_field(f, (1, 2), 6) == (Mod(1, 5), Mod(2, 5))  # 6 = 1 mod 5
    m = Matrix.from_int_cols(f, [{0: 1}], 2, 1)
    assert m.entries == ((Mod(3, 5),),)
    assert m.col_ints() == ((((0, 3),),), 1)
    m = Matrix.from_int_cols(f, [{0: 1, 1: 4}, {1: 2}], 3, 2)
    assert m == Matrix(f, [[2, 0], [3, 4]])
    assert m.col_ints() == ((((0, 2), (1, 3)), ((1, 4),)), 1)
    # the scale is a unit: two lifts of one matrix give one matrix
    assert Matrix.from_int_cols(f, [{0: 2}], 4, 1) == Matrix.from_int_cols(f, [{0: 1}], 2, 1)


@pytest.mark.parametrize("text", ["1\n", "1/2\n", "\u0661", "1/\u0662", "\uff11", " 1", "+1", "1_0", ""])
def test_scalar_grammar_is_ascii_digits_and_the_whole_string(text):
    for field in (QQ, GF(5)):
        with pytest.raises(MalformedInput):
            field.parse(text)
        with pytest.raises(MalformedInput):
            field.parse_ints(text)


def test_field_name_grammar_is_ascii_digits_and_the_whole_string():
    for name in ("GF(\u0663)", "GF(3)\n", "GF(\uff13)", "Q\n", "GF(+3)"):
        with pytest.raises(MalformedInput):
            parse_field_name(name)
    assert parse_field_name("GF(3)") == GF(3)


def test_parse_ints_keeps_the_written_representative():
    assert QQ.parse_ints("2/4") == (2, 4) and QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse_ints("-3") == (-3, 1)
    assert GF(5).parse_ints("7") == (7, 1) and GF(5).parse("7") == Mod(2, 5)
    assert GF(5).parse_ints("-1") == (-1, 1) and GF(5).parse("-1") == Mod(4, 5)


def _scalar(rng, field):
    if rng.random() < 0.4:
        return field.zero
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return field.of(rng.randrange(field.characteristic))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1009)], ids=str)
def test_every_constructor_gives_one_int_state(field):
    """Matrix(entries), from_cols, from_int_cols at a scale k times too large
    (entries shifted by multiples of p over GF(p)) and two kernel results are
    one matrix: equal, hashed alike, with the same ints and the dense repr."""
    rng = random.Random(f"one-int-state:{field}")
    p = field.characteristic
    for _ in range(80):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        entries = [[_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
        m = Matrix(field, entries, cols=cols)
        ints, scale = m.col_ints()
        k = rng.choice((2, 3, 4, 6, 7))
        blown_up = [{r: k * x + p * rng.randint(-3, 3) for r, x in col} for col in ints]
        same = [
            Matrix.from_cols(field, [tuple(row[j] for row in entries) for j in range(cols)], rows=rows),
            Matrix.from_int_cols(field, blown_up, k * scale, rows),
            Matrix.identity(field, rows).mul(m),
            solve(Matrix.identity(field, rows), m),
        ]
        for other in same:
            assert other == m and hash(other) == hash(m)
            assert other.col_ints() == (ints, scale)
            assert repr(other) == repr(m) == repr(DenseMatrix(field, entries, cols))
        assert scale > 0 and (p == 0 or scale == 1)
        space = Subspace(field, cols, entries)
        assert space.ints() == lift_to_ints(field, space.basis)


def test_int_state_makes_no_field_scalar(monkeypatch):
    """from_int_cols, col_ints(), == and hash read and write ints only."""
    calls = []
    monkeypatch.setattr(exactla, "ints_to_field", lambda *args: calls.append(args))
    for field, cols, scale in ((QQ, [{0: 2, 1: 4}, {1: -6}], 4), (GF(5), [{0: 7, 1: 4}, {1: 3}], 3)):
        a = Matrix.from_int_cols(field, cols, scale, 2)
        b = Matrix.from_int_cols(field, [{r: 3 * x for r, x in col.items()} for col in cols], 3 * scale, 2)
        assert a.col_ints() == b.col_ints()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Matrix.from_int_cols(QQ, [{0: 2, 1: 4}, {1: -6}], 4, 2).col_ints() == ((((0, 1), (1, 2)), ((1, -3),)), 2)
    assert calls == []


def test_ragged_input_is_malformed():
    with pytest.raises(MalformedInput, match="ragged"):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(MalformedInput, match="ragged"):
        Matrix.from_cols(QQ, [(1, 2), (3,)])
    with pytest.raises(MalformedInput):
        Matrix.from_cols(QQ, [(Mod(1, 5),)])
