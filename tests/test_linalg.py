import numpy as np
import pytest

from ngcost import herm_eig
from ngcost.linalg import kron, partial_trace_a, partial_trace_b


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def test_herm_eig_identity():
    w, v = herm_eig(np.eye(4))
    assert np.allclose(w, 1.0, atol=1e-14)
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12


def test_herm_eig_pauli_x():
    w, v = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_contract_on_random_matrices():
    rng = np.random.default_rng(7)
    for dim in range(2, 17):
        H = random_hermitian(rng, dim)
        w, v = herm_eig(H)
        assert np.all(np.diff(w) >= -1e-12)  # ascending
        assert np.max(np.abs(H @ v - v @ np.diag(w))) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10
        assert abs(w.sum() - np.trace(H).real) <= 1e-10 * max(1.0, dim)


def test_herm_eig_accepts_tiny_asymmetry():
    rng = np.random.default_rng(8)
    H = random_hermitian(rng, 5)
    H = H + 1e-12 * rng.normal(size=(5, 5))
    w, v = herm_eig(H)
    assert np.max(np.abs(H @ v - v @ np.diag(w))) <= 1e-10


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2,)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))  # clearly non-Hermitian
    with pytest.raises(ValueError):
        herm_eig(np.zeros((0, 0)))
    # non-finite entries fail the Hermitian test and are named as such, without a warning
    with pytest.raises(ValueError, match="finite"):
        herm_eig(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="finite"):
        herm_eig(np.diag([np.inf, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        herm_eig(np.array([[0.0, np.inf], [np.inf, 0.0]]))  # a symmetric +-inf pair
    with pytest.raises(ValueError, match="finite"):
        herm_eig(np.array([[0.0, -np.inf], [-np.inf, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        herm_eig(np.array([[0.0, complex(np.inf, np.inf)], [complex(np.inf, -np.inf), 0.0]]))
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        herm_eig(stack)
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[2, 1, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        herm_eig(stack)
    # huge finite entries that overflow the gap are not Hermitian, not non-finite
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_herm_eig_on_a_stack_matches_single_calls():
    rng = np.random.default_rng(9)
    for dim in range(2, 6):
        stack = np.array([random_hermitian(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        w, v = herm_eig(stack)
        assert w.shape == (2, 3, dim) and v.shape == (2, 3, dim, dim)
        for index in np.ndindex(2, 3):
            w1, v1 = herm_eig(stack[index])
            assert np.array_equal(w[index], w1)
            assert np.array_equal(v[index], v1)


def test_herm_eig_rejects_a_stack_with_one_non_hermitian_member():
    rng = np.random.default_rng(10)
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(stack)
    with pytest.raises(ValueError):
        herm_eig(np.zeros((3, 2, 3)))  # a stack of non-square matrices


def test_kron_basics():
    sz = np.diag([1.0, -1.0])
    assert np.array_equal(kron(sz, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))
    b = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(kron(np.eye(1), b), b)
    assert kron(np.ones((2, 3)), np.ones((4, 5))).shape == (8, 15)


def test_kron_algebra():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.max(np.abs(left - right)) <= 1e-12
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = kron(a, b)
    assert np.max(np.abs(partial_trace_b(m, 3, 2) - a * np.trace(b))) <= 1e-12
    assert np.max(np.abs(partial_trace_a(m, 3, 2) - b * np.trace(a))) <= 1e-12


def test_partial_trace_singlet_is_maximally_mixed():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    assert np.max(np.abs(partial_trace_b(rho, 2, 2) - np.eye(2) / 2)) <= 1e-12
    assert np.max(np.abs(partial_trace_a(rho, 2, 2) - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for d_a, d_b in [(2, 2), (2, 3), (4, 2), (3, 3)]:
        m = rng.normal(size=(d_a * d_b, d_a * d_b)) + 1j * rng.normal(size=(d_a * d_b, d_a * d_b))
        assert abs(np.trace(partial_trace_b(m, d_a, d_b)) - np.trace(m)) <= 1e-12
        assert abs(np.trace(partial_trace_a(m, d_a, d_b)) - np.trace(m)) <= 1e-12


def test_partial_trace_identity():
    assert np.array_equal(partial_trace_b(np.eye(4), 2, 2), 2.0 * np.eye(2))


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace_b(np.eye(4), 2, 3)
    with pytest.raises(ValueError):
        partial_trace_a(np.eye(5), 2, 2)


def test_herm_eig_checks_every_matrix_at_one_absolute_tolerance():
    # the check is max|H - H^dag| <= 1e-10 whatever the scale of the input:
    # the see-saw brings each game's table to unit scale before it gets here
    H = np.diag([1e8, -1e8, 3.0, 0.0]).astype(complex)
    H[1, 2], H[2, 1] = 1e-3, 1e-3 + 5e-11
    w, v = herm_eig(H)
    assert np.array_equal(w[[0, 3]], [-1e8, 1e8])
    assert np.max(np.abs(H @ v - v @ np.diag(w))) <= 1e-10 * 1e8
    skewed = H.copy()
    skewed[2, 1] += 1e-4  # 1e-12 of the largest entry, but above 1e-10
    small = np.array([[7e-9, 5e-9], [5e-9 + 4e-10, 2e-9]])
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), 1e8 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                skewed, np.array([small, 1e7 * np.eye(2)])):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within 1e-10$"):
            herm_eig(bad)


def test_herm_eig_decomposes_hermitian_matrices_whose_sum_with_the_adjoint_overflows():
    # H + H^dag overflows here; the Hermitian part halves such entries first
    w, _ = herm_eig(np.diag([1e308, 0.0]))
    assert w.tolist() == [0.0, 1e308]
    w, _ = herm_eig(np.array([[0.0, 1e308], [1e308, 0.0]]))
    assert w.tolist() == [-1e308, 1e308]


def test_herm_eig_refuses_a_small_non_hermitian_member_of_a_large_stack():
    # a large member no longer loosens the check of the others
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(np.array([[[0.0, 1e-2], [0.0, 0.0]], 1e9 * np.eye(2)]))
