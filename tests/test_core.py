import numpy as np
import pytest

from blockdiag import (
    BlockMatrix,
    assemble,
    operator_norm,
    is_symmetric_offdiag,
    split,
)
from blockdiag.core import as_matrix, from_blocks
from blockdiag.errors import StructuralError
from conftest import random_block


def test_assemble_places_blocks():
    b = BlockMatrix([0], [2], [1], [1])
    np.testing.assert_array_equal(b.assemble(), np.array([[0, 1], [1, 2]], complex))


def test_assemble_identity_blocks():
    b = BlockMatrix(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(assemble(b), np.eye(4, dtype=complex))


def test_assemble_zero():
    b = BlockMatrix(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((2, 3)))
    assert not assemble(b).any()


@pytest.mark.parametrize("n0,n1,k0,k1", [(1, 1, 1, 1), (2, 3, 4, 1), (3, 2, 0, 2)])
def test_from_blocks_places_blocks_and_zeros(n0, n1, k0, k1):
    rng = np.random.default_rng(n0 + 10 * k0)
    a, b, c, d = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in ((n0, k0), (n0, k1), (n1, k0), (n1, k1))
    )
    np.testing.assert_array_equal(from_blocks(a, b, c, d), np.block([[a, b], [c, d]]))
    zero_b, zero_c = np.zeros_like(b), np.zeros_like(c)
    diagonal = from_blocks(a, None, None, d)
    np.testing.assert_array_equal(diagonal, np.block([[a, zero_b], [zero_c, d]]))
    assert diagonal.dtype == np.complex128
    anti = from_blocks(None, b, c, None)
    np.testing.assert_array_equal(
        anti, np.block([[np.zeros_like(a), b], [c, np.zeros_like(d)]])
    )


def test_split_identity():
    b = split(np.eye(4), 2)
    np.testing.assert_array_equal(b.A0, np.eye(2))
    np.testing.assert_array_equal(b.A1, np.eye(2))
    assert not b.W0.any() and not b.W1.any()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n0,n1", [(1, 1), (2, 3), (4, 1)])
def test_assemble_split_roundtrip_bitwise(seed, n0, n1):
    b = random_block(np.random.default_rng(seed), n0, n1)
    again = split(assemble(b), n0)
    for name in ("A0", "A1", "W0", "W1"):
        assert np.array_equal(getattr(b, name), getattr(again, name))


def test_split_out_of_range():
    with pytest.raises(StructuralError):
        split(np.eye(3), 3)
    with pytest.raises(StructuralError):
        split(np.eye(3), 0)


def test_split_requires_square():
    with pytest.raises(StructuralError):
        split(np.zeros((2, 3)), 1)


def test_adjoint_blocks_swap():
    # (B*)_00 = A0*, (B*)_01 = W0*, (B*)_10 = W1*, (B*)_11 = A1*
    rng = np.random.default_rng(11)
    b = random_block(rng, 3, 2)
    adj = split(assemble(b).conj().T, b.n0)
    assert np.array_equal(adj.A0, b.A0.conj().T)
    assert np.array_equal(adj.A1, b.A1.conj().T)
    assert np.array_equal(adj.W1, b.W0.conj().T)
    assert np.array_equal(adj.W0, b.W1.conj().T)


def test_signature_conjugation_flips_offdiag():
    rng = np.random.default_rng(5)
    b = random_block(rng, 2, 3)
    # the signature involution J = diag(I_2, -I_3)
    j = np.diag([1.0, 1.0, -1.0, -1.0, -1.0]).astype(complex)
    expected = assemble(BlockMatrix(b.A0, b.A1, -b.W0, -b.W1))
    np.testing.assert_allclose(j @ assemble(b) @ j, expected, atol=0)


def test_operator_norm_identity():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_diag():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)


def test_operator_norm_nilpotent():
    # singular values of [[0,1],[0,0]] are {1, 0}
    assert operator_norm(np.array([[0, 1], [0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_empty():
    assert operator_norm(np.zeros((3, 0))) == 0.0


def test_is_symmetric_offdiag():
    w1 = np.array([[1.0 + 2j, 0.5], [0.0, -1.0]])
    b = BlockMatrix(np.eye(2), np.eye(2), w1.conj().T, w1)
    assert is_symmetric_offdiag(b)
    perturbed = BlockMatrix(np.eye(2), np.eye(2), w1.conj().T + 1e-3, w1)
    assert not is_symmetric_offdiag(perturbed, tol=1e-12)


def test_is_symmetric_offdiag_zero_coupling():
    b = BlockMatrix(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    assert is_symmetric_offdiag(b)


def test_block_shapes_validated():
    with pytest.raises(StructuralError):
        BlockMatrix(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(StructuralError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(StructuralError):
        BlockMatrix([np.inf], [1], [0], [0])


def test_blocks_immutable():
    b = BlockMatrix([0], [2], [1], [1])
    with pytest.raises(ValueError):
        b.A0[0, 0] = 5.0


def test_swapped_roundtrip():
    rng = np.random.default_rng(1)
    b = random_block(rng, 2, 3)
    back = b.swapped().swapped()
    assert np.array_equal(assemble(back), assemble(b))
