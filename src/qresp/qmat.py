"""Dense complex linear algebra for few-qubit density-matrix simulation.

Everything here operates on plain numpy arrays: operators are complex
square matrices of dimension 2**n, density matrices additionally satisfy
the Hermiticity / unit-trace / positivity tolerances enforced by
``check_density_matrix``.  Qubit 0 is the leftmost tensor factor.
``n_qubits_of``, ``partial_trace``, ``permute_qubits`` and ``kron`` also
take a stack of matrices, shape (..., d, d), and act on each one alike.
"""

from __future__ import annotations

import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

HERMITICITY_TOL = 1e-10
GENERATOR_HERMITICITY_TOL = 1e-8  # of the Hamiltonian handed to evolution_unitary
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9


def is_int(value) -> bool:
    """A Python integer, not a bool: the one check of every integer config field (a qubit index, a count or
    a seed), which a float or bool would pass until it fails deep in a run."""
    return isinstance(value, int) and not isinstance(value, bool)


def n_qubits_of(matrix: np.ndarray) -> int:
    """Qubit count of a matrix, or of each matrix in a (..., d, d) stack."""
    dim = matrix.shape[-1]
    n = int(round(np.log2(dim)))
    if matrix.shape[-2:] != (dim, dim) or 2**n != dim:
        raise ValueError(f"not a square power-of-two matrix: shape {matrix.shape}")
    return n


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, trace-one and PSD to tolerance."""
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: deviation {herm:.3e} > {HERMITICITY_TOL:.0e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL:.0e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"minimum eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR:.0e}")


def partial_trace(rho: np.ndarray, traced_qubits) -> np.ndarray:
    """Trace out the given qubits, returning the state of the remaining ones.

    Tracing out every qubit is rejected (the result would be a scalar).
    """
    n_qubits = n_qubits_of(rho)
    traced = sorted(set(int(q) for q in traced_qubits))
    if any(q < 0 or q >= n_qubits for q in traced):
        raise ValueError(f"qubit indices {traced} out of range for {n_qubits} qubits")
    if len(traced) == n_qubits:
        raise ValueError("cannot trace out every qubit")
    rho = np.asarray(rho)
    lead = rho.shape[:-2]  # batch axes come first
    t = rho.reshape(lead + (2,) * (2 * n_qubits))
    for removed, q in enumerate(traced):
        ax = len(lead) + q - removed
        t = np.trace(t, axis1=ax, axis2=ax + n_qubits - removed)
        # after the trace the tensor has one fewer row and column axis
    kept = n_qubits - len(traced)
    return t.reshape(lead + (2**kept, 2**kept))


def permute_qubits(rho: np.ndarray, source_positions) -> np.ndarray:
    """Reorder tensor factors so new qubit i is current qubit source_positions[i]."""
    n = n_qubits_of(rho)
    src = list(source_positions)
    if sorted(src) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {src}")
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    b = len(lead)
    t = rho.reshape(lead + (2,) * (2 * n))
    t = t.transpose(list(range(b)) + [b + p for p in src] + [b + n + p for p in src])
    return t.reshape(lead + (2**n, 2**n))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing two axes, broadcast over any leading ones.

    Each entry is the one product np.kron forms; np.kron itself would also
    take the product over the leading (batch) axes.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def evolution_unitary(h: np.ndarray) -> np.ndarray:
    """exp(-iH) for Hermitian H, via eigendecomposition (exact at these dimensions)."""
    dev = np.max(np.abs(h - h.conj().T))
    if dev > GENERATOR_HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: deviation {dev:.3e} > {GENERATOR_HERMITICITY_TOL:.0e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


U_CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def cnot_power(p: float) -> np.ndarray:
    """Fractional CNOT: identity at p=0, full CNOT at p=1, group law in p.

    Since U_CX squares to the identity, U_CX**p has the closed form
    (I + U_CX)/2 + exp(i*pi*p) (I - U_CX)/2.
    """
    if not np.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p}")
    eye = np.eye(4, dtype=complex)
    # exp(i*pi*p) is exactly +-1 at integer p; evaluate it that way so the
    # endpoints come out without floating-point phase residue
    phase = (-1.0) ** int(p) if p == int(p) else np.exp(1j * np.pi * p)
    return 0.5 * (eye + U_CX) + 0.5 * phase * (eye - U_CX)


def haar_random_pure_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state |psi><psi| from a normalized complex Gaussian vector."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    dim = 2**n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase-fixed diagonal."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def all_pauli_strings(n_qubits: int) -> list[str]:
    """All 4**n Pauli strings in lexicographic I,X,Y,Z order ('II' first)."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]


def pauli_matrix(letters: str) -> np.ndarray:
    """Operator for a Pauli string such as 'XZ' (qubit 0 leftmost)."""
    if not letters or any(c not in PAULI for c in letters):
        raise ValueError(f"invalid Pauli string {letters!r}")
    op = PAULI[letters[0]]
    for c in letters[1:]:
        op = np.kron(op, PAULI[c])
    return op


def pauli_basis_matrices(strings) -> np.ndarray:
    """Stacked (len(strings), d, d) array of Pauli-string operators."""
    return np.stack([pauli_matrix(s) for s in strings])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


def hilbert_schmidt_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two operators."""
    return float(np.linalg.norm(a - b))
