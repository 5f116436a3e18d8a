"""Operator factory and block assembly tests."""

import numpy as np
import pytest

from foguel import (
    SeededGenerator,
    ValidationError,
    build_foguel,
    embed_corner,
    generalized_foguel,
    ginibre,
    haar_unitary,
    operator_norm,
    random_contraction,
    truncated_shift,
)
from foguel.linalg import adjoint


def test_haar_unitary_scalar_is_unimodular():
    u = haar_unitary(1, SeededGenerator(1))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_unitarity_and_determinant():
    u = haar_unitary(8, SeededGenerator(42))
    assert operator_norm(adjoint(u) @ u - np.eye(8)) <= 1e-12
    assert operator_norm(u @ adjoint(u) - np.eye(8)) <= 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_haar_unitary_determinism():
    a = haar_unitary(6, SeededGenerator(42, 0))
    b = haar_unitary(6, SeededGenerator(42, 0))
    assert np.array_equal(a, b)


def test_haar_unitary_streams_differ():
    a = haar_unitary(6, SeededGenerator(42, 0))
    b = haar_unitary(6, SeededGenerator(42, 1))
    assert not np.allclose(a, b)


def test_haar_unitary_large_dimensions():
    gen = SeededGenerator(9)
    for n in (64, 256):
        u = haar_unitary(n, gen)
        assert operator_norm(adjoint(u) @ u - np.eye(n)) <= 1e-12


def test_haar_unitary_rejects_zero_dimension():
    with pytest.raises(ValidationError):
        haar_unitary(0, SeededGenerator(1))


@pytest.mark.parametrize(
    "make, dim",
    [
        (lambda n: ginibre(n, SeededGenerator(1)), 2.5),
        (lambda n: ginibre(n, SeededGenerator(1)), "3"),
        (lambda n: haar_unitary(n, SeededGenerator(1)), 3.9),
        (lambda n: random_contraction(n, SeededGenerator(1)), 2.0),
        (truncated_shift, True),
        (lambda n: embed_corner(np.eye(2), n), 4.7),
    ],
    ids=["ginibre-float", "ginibre-str", "haar_unitary", "random_contraction",
         "truncated_shift-bool", "embed_corner"],
)
def test_a_non_integral_dimension_is_rejected(make, dim):
    with pytest.raises(ValidationError, match=f"dimension must be an integer, got {dim!r}"):
        make(dim)


def test_truncated_shift_small():
    np.testing.assert_array_equal(truncated_shift(2), [[0, 0], [1, 0]])
    np.testing.assert_array_equal(truncated_shift(1), [[0]])


def test_truncated_shift_isometry_defect():
    s = truncated_shift(3)
    np.testing.assert_array_equal(adjoint(s) @ s, np.diag([1.0, 1.0, 0.0]))
    assert operator_norm(adjoint(s) @ s - np.eye(3)) == 1.0


def test_random_contraction_norm_clipped():
    gen = SeededGenerator(0)
    for trial in range(20):
        a = random_contraction(6, gen)
        assert operator_norm(a) <= 1.0 + 1e-12
    # a 6x6 Ginibre draw essentially always has a singular value above 1,
    # so clipping pins the norm to exactly 1
    assert abs(operator_norm(random_contraction(6, SeededGenerator(1))) - 1.0) <= 1e-12


def test_random_contraction_scalar_modulus():
    gen = SeededGenerator(4)
    for trial in range(20):
        assert abs(random_contraction(1, gen)[0, 0]) <= 1.0 + 1e-15


def test_build_foguel_scalar_block():
    op = build_foguel([[1]], [[1]])
    np.testing.assert_array_equal(op.matrix.real, [[1, 1], [0, 1]])
    assert op.isometry_defect <= 1e-15


def test_build_foguel_rejects_a_shift_slot_that_generalized_foguel_accepts():
    with pytest.raises(ValidationError, match="defect"):
        build_foguel(truncated_shift(3), np.zeros((3, 3)))
    op = generalized_foguel(truncated_shift(3), np.zeros((3, 3)))
    assert abs(op.isometry_defect - 1.0) <= 1e-12


def test_build_foguel_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="matching"):
        build_foguel(np.eye(2), np.zeros((3, 3)))


def test_generalized_foguel_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="A and T must have matching shapes"):
        generalized_foguel(np.eye(2), np.zeros((3, 3)))


def test_zero_symbol_norm_is_one():
    v = haar_unitary(4, SeededGenerator(8))
    op = build_foguel(v, np.zeros((4, 4)))
    assert abs(operator_norm(op.matrix) - 1.0) <= 1e-12


def test_gram_scalar_oracle():
    op = build_foguel([[1]], [[1]])
    np.testing.assert_allclose(op.gram.real, [[2, 1], [1, 1]], atol=1e-15)


def test_gram_zero_symbol_is_identity():
    v = haar_unitary(3, SeededGenerator(21))
    op = build_foguel(v, np.zeros((3, 3)))
    np.testing.assert_allclose(op.gram, np.eye(6), atol=1e-14)


def test_gram_lower_right_block_identity_for_unitary():
    gen = SeededGenerator(22)
    op = build_foguel(haar_unitary(5, gen), ginibre(5, gen))
    np.testing.assert_allclose(op.gram[5:, 5:], np.eye(5), atol=1e-12)


def test_gram_matches_direct_product():
    gen = SeededGenerator(23)
    for trial in range(50):
        v = haar_unitary(4, gen.substream(trial))
        t = ginibre(4, gen.substream(trial + 1000))
        op = build_foguel(v, t)
        direct = op.matrix @ adjoint(op.matrix)
        scale = 1.0 + operator_norm(op.matrix) ** 2
        assert operator_norm(op.gram - direct) <= 1e-12 * scale


def test_shift_slot_respects_contraction_norm_bound():
    from foguel import foguel_norm_closed

    gen = SeededGenerator(25)
    for trial in range(20):
        t = ginibre(8, gen.substream(trial))
        op = generalized_foguel(truncated_shift(8), t)
        bound = foguel_norm_closed(operator_norm(t))
        assert operator_norm(op.matrix) <= bound + 1e-10


def test_embed_corner():
    out = embed_corner([[1.0]], 3)
    np.testing.assert_array_equal(out.real, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert operator_norm(out) == 1.0

    t = ginibre(2, SeededGenerator(3))
    np.testing.assert_array_equal(embed_corner(t, 2), t)

    big = embed_corner(t, 16)
    assert abs(operator_norm(big) - operator_norm(t)) <= 1e-12

    with pytest.raises(ValidationError):
        embed_corner(np.eye(3), 2)
