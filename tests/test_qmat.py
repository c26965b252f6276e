import numpy as np
import pytest
from scipy.linalg import expm

from qresp import qmat


RNG = np.random.default_rng(1234)


def random_density(n_qubits, rng=RNG):
    dim = 2**n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_algebra():
    assert np.allclose(qmat.X @ qmat.X, np.eye(2))
    assert np.allclose(qmat.X @ qmat.Y - qmat.Y @ qmat.X, 2j * qmat.Z)
    for letter, op in qmat.PAULI.items():
        assert np.allclose(op, op.conj().T), letter


def test_n_qubits_of():
    assert qmat.n_qubits_of(np.eye(2)) == 1
    assert qmat.n_qubits_of(np.eye(16)) == 4
    with pytest.raises(ValueError):
        qmat.n_qubits_of(np.eye(3))
    with pytest.raises(ValueError):
        qmat.n_qubits_of(np.zeros((2, 4)))


def test_check_density_matrix_accepts_valid():
    qmat.check_density_matrix(random_density(2))


def test_check_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        qmat.check_density_matrix(2.0 * random_density(1))


def test_check_density_matrix_rejects_nonhermitian():
    rho = random_density(1)
    rho[0, 1] += 1e-3
    with pytest.raises(ValueError):
        qmat.check_density_matrix(rho)


def test_check_density_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = bad
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            qmat.check_density_matrix(rho)


def test_check_density_matrix_rejects_negative():
    rho = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        qmat.check_density_matrix(rho)


def test_partial_trace_product_state():
    # oracle: tracing one factor of a product state returns the other factor
    rho_a = random_density(1)
    rho_b = random_density(1)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(qmat.partial_trace(joint, [1]), rho_a)
    assert np.allclose(qmat.partial_trace(joint, [0]), rho_b)


def test_partial_trace_three_qubits():
    parts = [random_density(1) for _ in range(3)]
    joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert np.allclose(qmat.partial_trace(joint, [0, 2]), parts[1])
    assert np.allclose(qmat.partial_trace(joint, [1]), np.kron(parts[0], parts[2]))


def test_partial_trace_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert np.allclose(qmat.partial_trace(bell, [1]), np.eye(2) / 2)


def test_partial_trace_rejects_tracing_everything():
    with pytest.raises(ValueError):
        qmat.partial_trace(random_density(2), [0, 1])
    for traced in ([2], [-1]):
        with pytest.raises(ValueError, match=f"qubit indices \\[{traced[0]}\\] out of range for 2 qubits"):
            qmat.partial_trace(random_density(2), traced)


def test_permute_qubits_swap():
    rho_a = random_density(1)
    rho_b = random_density(1)
    swapped = qmat.permute_qubits(np.kron(rho_a, rho_b), [1, 0])
    assert np.allclose(swapped, np.kron(rho_b, rho_a))


def test_permute_qubits_identity():
    rho = random_density(3)
    assert np.allclose(qmat.permute_qubits(rho, [0, 1, 2]), rho)
    for src in ([0, 0, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            qmat.permute_qubits(rho, src)


def test_stack_ops_equal_their_rows():
    # a (B, d, d) stack goes through the same arithmetic as each matrix alone
    stack = np.stack([random_density(3) for _ in range(4)])
    for traced in ([1], [0, 2], [2]):
        rows = np.stack([qmat.partial_trace(r, traced) for r in stack])
        assert np.array_equal(qmat.partial_trace(stack, traced), rows)
    for src in ([2, 0, 1], [1, 0, 2]):
        rows = np.stack([qmat.permute_qubits(r, src) for r in stack])
        assert np.array_equal(qmat.permute_qubits(stack, src), rows)
    small = stack[:, :2, :2]
    assert np.array_equal(qmat.kron(stack, small), np.stack([np.kron(a, b) for a, b in zip(stack, small)]))
    assert np.array_equal(qmat.kron(stack[0], small[1]), np.kron(stack[0], small[1]))
    assert qmat.n_qubits_of(stack) == 3
    with pytest.raises(ValueError):
        qmat.n_qubits_of(np.zeros((3, 4, 2)))


def test_evolution_unitary_rejects_nonhermitian():
    with pytest.raises(ValueError):
        qmat.evolution_unitary(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))


def test_evolution_unitary_against_expm():
    h = random_density(2) + random_density(2).conj().T
    u = qmat.evolution_unitary(h)
    assert np.allclose(u, expm(-1j * h), atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_cnot_power_endpoints():
    assert np.allclose(qmat.cnot_power(0.0), np.eye(4), atol=1e-14)
    assert np.allclose(qmat.cnot_power(1.0), qmat.U_CX, atol=1e-14)
    for p in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="exponent must be finite"):
            qmat.cnot_power(p)


def test_cnot_power_group_law():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = rng.uniform(-2, 2, 2)
        lhs = qmat.cnot_power(p) @ qmat.cnot_power(q)
        assert np.allclose(lhs, qmat.cnot_power(p + q), atol=1e-12)


def test_haar_random_pure_state_properties():
    rho = qmat.haar_random_pure_state(2, np.random.default_rng(0))
    qmat.check_density_matrix(rho)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12  # purity
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            qmat.haar_random_pure_state(n, np.random.default_rng(0))


def test_haar_random_unitary_is_unitary():
    u = qmat.haar_random_unitary(4, np.random.default_rng(0))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_haar_random_unitary_seed_determinism():
    a = qmat.haar_random_unitary(2, np.random.default_rng(3))
    b = qmat.haar_random_unitary(2, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_all_pauli_strings():
    strings = qmat.all_pauli_strings(2)
    assert len(strings) == 16
    assert strings[0] == "II"
    assert len(set(strings)) == 16


def test_pauli_matrix_composite():
    assert np.allclose(qmat.pauli_matrix("XZ"), np.kron(qmat.X, qmat.Z))
    for letters in ("", "XQ", "xz"):
        with pytest.raises(ValueError, match=f"invalid Pauli string {letters!r}"):
            qmat.pauli_matrix(letters)


def test_pauli_basis_orthogonality():
    mats = qmat.pauli_basis_matrices(qmat.all_pauli_strings(2))
    gram = np.einsum("aij,bji->ab", mats, mats).real
    assert np.allclose(gram, 4 * np.eye(16), atol=1e-12)


def test_trace_distance_properties():
    a, b = random_density(2), random_density(2)
    assert qmat.trace_distance(a, a) < 1e-14
    d = qmat.trace_distance(a, b)
    assert 0 <= d <= 1 + 1e-12
    assert abs(d - qmat.trace_distance(b, a)) < 1e-12


def test_trace_distance_orthogonal_pure_states():
    a = np.diag([1, 0j])
    b = np.diag([0j, 1])
    assert abs(qmat.trace_distance(a, b) - 1.0) < 1e-14


def test_hilbert_schmidt_distance():
    a = np.diag([1, 0j])
    b = np.diag([0j, 1])
    assert abs(qmat.hilbert_schmidt_distance(a, b) - np.sqrt(2)) < 1e-14
