"""Reservoir models and trajectory execution.

Two quantum models are provided:

* ``NsReservoir`` -- an SK-Hamiltonian reservoir driven by reset-input
  encoding: one subsystem is replaced each step by an input-parametrized
  pure state, then the whole register evolves under exp(-iH).  The state
  of each reset qubit is sigma(u) = c c^dag, with c = U(u)|0> and
  U(u) = U3^dag Rz(arccos u) U3 built with one matmul.
* ``SubsetReservoir`` -- a two-qubit reservoir with local random
  unitaries, amplitude damping on qubit 0 and a fractional-CNOT
  entangler, driven by a product R_Y input rotation.

Every ``step``, and ``run_reservoir``, also acts on a stack of density
matrices, shape (..., d, d), driven by inputs of the stack's leading shape:
each trajectory of a stack goes through the numpy calls a single one does.
``run_reservoir`` returns the readout as a plain float array, one column per
Pauli string of ``qmat.all_pauli_strings``.  It has one loop for every model,
state <- evolve(state, encode(u)), with one ``encode`` and one readout per
64 steps.  The state is a density matrix, except on two real maps whose
``encode`` is their ``transfer``:

* ``SubsetReservoir``: the 16x16 maps T(u); the state is the Pauli vector,
  the readout itself.
* ``KeptMap``, an ``NsReservoir``'s ``kept``: the reset discards A each
  step, so the state is the Pauli vector of the kept qubits, 4**(n - |A|)
  numbers (4 at n = 2), and each step is read out from the state before it
  and its input.  Only ESP and NS-ESP ensembles step it (see
  ``espmetrics.stepped``); every other run of an ``NsReservoir`` steps rho.

Each density-matrix ``step`` stays the definition these maps agree with to
rounding.

``run_classical_reference`` runs contracting tanh echo-state networks
with optional per-step scaling (y_t = c^t x_t) or bias (y_t = x_t + b t),
and ``DepolarizingReservoir`` is the analytically solvable toy channel
used in the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import qmat


# ---------------------------------------------------------------------------
# single-qubit rotations (half-angle convention)

def ry(angle) -> np.ndarray:
    """Rotation about Y by `angle` on the Bloch sphere; (..., 2, 2) for an array of angles."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    out = np.empty(np.shape(angle) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    return out


def input_features(u, copies: int = 1) -> np.ndarray:
    """c(u) = (1, u, sqrt(1 - u^2)) on a new last axis, or for `copies` > 1 the products of one entry of each
    copy, 3**copies of them in product order: a transfer map is linear in these.  Inputs are not checked."""
    c = np.stack([np.ones_like(u), u, np.sqrt(1.0 - u * u)], axis=-1)
    features = c
    for _ in range(copies - 1):
        features = (features[..., :, None] * c[..., None, :]).reshape(c.shape[:-1] + (-1,))
    return features


def _check_inputs(u) -> None:
    """Raise ValueError naming the first input outside [-1, 1] (nan included)."""
    inside = np.abs(u) <= 1.0
    if not inside.all():
        raise ValueError(f"input {np.asarray(u)[~inside].flat[0]} outside [-1, 1]")


# ---------------------------------------------------------------------------
# configs

@dataclass(frozen=True)
class SkHamiltonianConfig:
    """All-to-all random XX couplings plus longitudinal fields."""

    n_qubits: int = 2
    j_scale: float = 1.0
    field_width: float = 0.312
    global_field: float = 0.013
    seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("n_qubits must be at least 2")
        for name in ("j_scale", "field_width", "global_field"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.j_scale <= 0:
            raise ValueError("j_scale must be positive")
        if self.field_width < 0:
            raise ValueError("field_width must be nonnegative")


@dataclass(frozen=True)
class AxisConfig:
    """Bloch-sphere rotation axis given by azimuth in [0, 2pi) and polar in [0, pi]."""

    azimuth: float = 0.0
    polar: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.azimuth):
            raise ValueError("azimuth must be finite")
        if not 0.0 <= self.polar <= np.pi + 1e-12:
            raise ValueError(f"polar angle {self.polar} outside [0, pi]")

    @property
    def unit_vector(self) -> np.ndarray:
        return np.array(
            [
                np.sin(self.polar) * np.cos(self.azimuth),
                np.sin(self.polar) * np.sin(self.azimuth),
                np.cos(self.polar),
            ]
        )

    @property
    def operator(self) -> np.ndarray:
        """The axis observable n . (X, Y, Z)."""
        nx, ny, nz = self.unit_vector
        return nx * qmat.X + ny * qmat.Y + nz * qmat.Z


@dataclass(frozen=True)
class NsModelConfig:
    hamiltonian: SkHamiltonianConfig = field(default_factory=SkHamiltonianConfig)
    axis: AxisConfig = field(default_factory=AxisConfig)
    reset_subsystem: tuple[int, ...] = (1,)

    def __post_init__(self):
        a = tuple(sorted(set(self.reset_subsystem)))
        object.__setattr__(self, "reset_subsystem", a)
        n = self.hamiltonian.n_qubits
        if not a:
            raise ValueError("reset subsystem must be nonempty")
        if len(a) >= n or any(q < 0 or q >= n for q in a):
            raise ValueError(f"reset subsystem {a} must be a strict subset of 0..{n - 1}")


@dataclass(frozen=True)
class SubsetModelConfig:
    damping_rate: float = 0.0
    cnot_exponent: float = 0.0
    u0_seed: int = 0
    u1_seed: int = 5

    def __post_init__(self):
        if not 0.0 <= self.damping_rate <= 1.0:
            raise ValueError(f"damping_rate {self.damping_rate} outside [0, 1]")
        if not np.isfinite(self.cnot_exponent):
            raise ValueError("cnot_exponent must be finite")


# ---------------------------------------------------------------------------
# SK Hamiltonian

def assemble_sk_hamiltonian(couplings: np.ndarray, local_fields: np.ndarray) -> np.ndarray:
    """H = sum_{i>j} J_ij X_i X_j + 1/2 sum_i f_i Z_i for explicit parameter arrays.

    `couplings` is an (n, n) array read on the strict lower triangle
    (J[i, j] for i > j); `local_fields` holds h + D_i per qubit.
    """
    n = len(local_fields)

    def string(letter: str, *qubits: int) -> np.ndarray:
        return qmat.pauli_matrix("".join(letter if q in qubits else "I" for q in range(n)))

    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i):
            if couplings[i, j] != 0.0:
                h += couplings[i, j] * string("X", i, j)
    for i in range(n):
        h += 0.5 * local_fields[i] * string("Z", i)
    return h


def build_sk_hamiltonian(cfg: SkHamiltonianConfig) -> np.ndarray:
    """Sample couplings and fields from the config seed and assemble the Hamiltonian."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_qubits
    half = cfg.j_scale / 2
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            couplings[i, j] = rng.uniform(-half, half)
    local = cfg.global_field + rng.uniform(-cfg.field_width * half, cfg.field_width * half, size=n)
    return assemble_sk_hamiltonian(couplings, local)


# ---------------------------------------------------------------------------
# reset-input encoding

def axis_frame_unitary(axis: AxisConfig) -> np.ndarray:
    """u3(Theta, Phi, Lambda) for the axis: satisfies U3 (n . sigma) U3^dag = Z.

    Theta is the polar angle; Lambda = pi - azimuth carries the azimuth
    (it acts innermost in the u3 factorization, so it is the angle that
    rotates the axis into the x-z plane); Phi = azimuth - pi is a gauge
    choice that makes u3 the identity at the north pole.
    """
    phi, lam = axis.azimuth - np.pi, np.pi - axis.azimuth
    c, s = np.cos(axis.polar / 2), np.sin(axis.polar / 2)
    return np.array([[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def input_unitary(u, axis) -> np.ndarray:
    """Rotation by theta = arccos(u) about the given axis, U3^dag Rz(theta) U3, shape np.shape(u) + (2, 2):
    the diagonal Rz(theta) = diag(e^{-i theta/2}, e^{i theta/2}) scales the columns of U3^dag, one matmul.
    `axis` is an AxisConfig, or a stack of `axis_frame_unitary` frames, shape (..., 2, 2), that broadcasts
    against u: each entry of u then turns about its own axis, bit for bit as with that axis alone."""
    _check_inputs(u)
    frame = axis_frame_unitary(axis) if isinstance(axis, AxisConfig) else axis
    theta = np.arccos(u)
    rz = np.stack([np.exp(-0.5j * theta), np.exp(0.5j * theta)], axis=-1)
    return (frame.conj().swapaxes(-1, -2) * rz[..., None, :]) @ frame


def encoded_state(u, axis, n_qubits: int = 1) -> np.ndarray:
    """sigma_A(u; axis) = U |0><0|^{tensor n} U^dag with the same U on each qubit: per qubit the
    outer product c c^dag of c = U|0>, the first column of U = `input_unitary(u, axis)`."""
    c = input_unitary(u, axis)[..., :, 0]
    single = c[..., :, None] * c.conj()[..., None, :]
    sigma = single
    for _ in range(n_qubits - 1):
        sigma = qmat.kron(sigma, single)
    return sigma


@cache
def sk_evolution(cfg: SkHamiltonianConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H, exp(-iH) and its adjoint for the config, built once per process, read-only: every point of
    an axis grid shares them."""
    h = build_sk_hamiltonian(cfg)
    unitary = qmat.evolution_unitary(h)
    matrices = h, unitary, unitary.conj().T
    for m in matrices:
        m.flags.writeable = False
    return matrices


class NsReservoir:
    """SK-Hamiltonian reservoir with reset-input encoding; exp(-iH) compiled once per Hamiltonian.
    `step(rho, u)` is `evolve(rho, encode(u))`, and `encode` depends on the input alone."""

    def __init__(self, config: NsModelConfig):
        self.config = config
        self.hamiltonian, self.unitary, self.unitary_dag = sk_evolution(config.hamiltonian)
        self.frame = axis_frame_unitary(config.axis)  # encode's U3; sweep._joint stacks those of several axes
        self.n_qubits = n = config.hamiltonian.n_qubits
        reset = config.reset_subsystem
        # tr_A sums the two slices diagonal in each qubit q of A, lowest first, r of A already gone
        self.traced_shapes = [(2 ** (q - r), 2, 2 ** (n - 1 - q)) * 2 for r, q in enumerate(reset)]
        self.kept_dim = 2 ** (n - len(reset))
        order = [q for q in range(n) if q not in reset] + list(reset)
        source = [order.index(q) for q in range(n)]  # the factors of tr_A(rho) (x) sigma_A in qubit order
        self.axes = None if source == sorted(source) else (0, *(1 + p for p in source), *(1 + n + p for p in source))

    def encode(self, u) -> np.ndarray:
        """The reset states sigma_A(u), shape np.shape(u) + (2**|A|, 2**|A|)."""
        return encoded_state(u, self.frame, n_qubits=len(self.config.reset_subsystem))

    def reset_encode(self, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """tr_A(rho) (x) sigma_A: the reset subsystem A replaced by sigma_A, in the original qubit order,
        by the sums and products of `qmat.partial_trace`, `kron` and `permute_qubits` without their checks."""
        lead = rho.shape[:-2]
        for shape in self.traced_shapes:
            t = rho.reshape(lead + shape)
            rho = t[..., 0, :, :, 0, :] + t[..., 1, :, :, 1, :]
        combined = rho.reshape(lead + (self.kept_dim,) * 2)[..., :, None, :, None] * sigma[..., None, :, None, :]
        lead = combined.shape[:-4]
        if self.axes is not None:
            combined = combined.reshape((-1,) + (2,) * (2 * self.n_qubits)).transpose(self.axes)
        return combined.reshape(lead + self.unitary.shape)

    def evolve(self, rho: np.ndarray, sigma: np.ndarray, out=None) -> np.ndarray:
        """U x U^dag for each x of the stack reset_encode(rho, sigma), (..., d, d), in two GEMMs: U [x_1 ... x_B],
        (d, d B), then its rows restacked, (d B, d), times U^dag.  No GEMM dimension falls below d >= 4, so
        each x keeps the bits of its own two d x d products.  `out`, if given, is C-contiguous."""
        x = self.reset_encode(rho, sigma)
        d = len(self.unitary)
        left = self.unitary @ x.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
        rows = left.reshape(d, -1, d).transpose(1, 0, 2).reshape(-1, d)
        product = np.matmul(rows, self.unitary_dag, out=None if out is None else out.reshape(-1, d))
        return product.reshape(x.shape)

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        return self.evolve(rho, self.encode(u))

    @cached_property
    def kept(self) -> KeptMap:
        """This reservoir on its kept subsystem, built on first use from the Pauli transfer matrix of
        exp(-iH) and the Bloch terms of sigma(u): `step` to rounding, on 4**(n - |A|) real numbers."""
        n, reset = self.n_qubits, self.config.reset_subsystem
        ops = pauli_operators(n)
        transfer = pauli_expectations(self.unitary @ ops @ self.unitary_dag, ops).T / 2**n
        # sigma(u) = (I + b.sigma) / 2, b = z rotated by arccos u about the axis a:
        # b = (a.z) a + u (z - (a.z) a) + sqrt(1 - u^2) a x z
        a = self.config.axis.unit_vector
        bloch = np.array([[1.0, *(a[2] * a)], [0.0, *(np.eye(3)[2] - a[2] * a)], [0.0, a[1], -a[0], 0.0]])
        sigma = bloch
        for _ in reset[1:]:  # the Pauli vector of sigma_A is the kron of its qubits', term by term
            sigma = (sigma[:, None, :, None] * bloch[None, :, None, :]).reshape(len(sigma) * 3, -1)
        # tr(P rho) of tr_A(rho) (x) sigma_A is k_K s_A, for P = K on the kept qubits and A on the reset ones
        order = [q for q in range(n) if q not in reset] + list(reset)
        by_factor = transfer.reshape((4**n,) + (4,) * n).transpose(0, *(1 + q for q in order))
        terms = by_factor.reshape(4**n, -1, len(sigma[0])) @ sigma.T
        columns = [i for i, s in enumerate(qmat.all_pauli_strings(n)) if all(s[q] == "I" for q in reset)]
        return KeptMap(np.moveaxis(terms, -1, 0), columns, n, len(reset))


class KeptMap:
    """An ``NsReservoir`` on its kept subsystem, the qubits outside the reset subsystem A.

    The reset discards A each step, so the kept Pauli vector k, the readout columns P (x) I_A in
    `columns`, carries the memory.  A step with input u reads out y = sum_f c_f(u) R_f k from the
    state before it, with c(u) = `input_features(u, |A|)` and R_f the 4**n x len(k) slices of
    `terms`; the next k is the kept rows of y, so the kept maps A_f are the kept rows of the R_f.
    Leading axes of `terms` broadcast against the batch: a stack of maps runs one per point.
    """

    def __init__(self, terms: np.ndarray, columns, n_qubits: int, reset_count: int):
        self.terms, self.columns, self.n_qubits, self.reset_count = terms, columns, n_qubits, reset_count
        lead, (count, rows, kept) = terms.shape[:-3], terms.shape[-3:]
        self.maps = terms[..., columns, :].reshape(lead + (count, kept * kept))
        self.readout_terms = terms.swapaxes(-1, -2).reshape(lead + (count * kept, rows))

    def transfer(self, u) -> np.ndarray:
        """The kept maps sum_f c_f(u) A_f, shape np.shape(u) + (K, K).  Inputs are not checked.  Axis 0 of
        u is time; each trajectory's maps come from a GEMM of its own, as alone, as in `SubsetReservoir`."""
        u = np.asarray(u, dtype=float)
        features = input_features(np.atleast_1d(u), self.reset_count)
        kept = len(self.columns)
        return np.moveaxis(np.moveaxis(features, 0, -2) @ self.maps, -2, 0).reshape(u.shape + (kept, kept))

    encode = transfer

    def evolve(self, k: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
        """A k on kept Pauli vectors held as (..., K, 1) columns."""
        return np.matmul(m, k, out=out)

    def read(self, k: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The readout (L, ..., 4**n) of L steps from the kept vectors k before them, (L, ..., K, 1), and their
        inputs u, (L, ...): sum_f c_f(u) R_f k as one GEMM per trajectory of the (L, |c| K) features c (x) k."""
        features = input_features(u, self.reset_count)
        features = features.reshape(features.shape[:1] + (1,) * (k.ndim - features.ndim - 1) + features.shape[1:])
        rows = np.moveaxis(features[..., :, None] * k[..., None, :, 0], 0, -3)
        return np.moveaxis(rows.reshape(rows.shape[:-2] + (-1,)) @ self.readout_terms, -2, 0)


# ---------------------------------------------------------------------------
# amplitude damping / fractional CNOT model

def damping_kraus(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the single-qubit amplitude damping channel."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return k0, k1


class SubsetReservoir:
    """Two-qubit reservoir: local Haar unitaries, damping on qubit 0, fractional CNOT."""

    def __init__(self, config: SubsetModelConfig):
        self.config = config
        u0 = qmat.haar_random_unitary(2, np.random.default_rng(config.u0_seed))
        u1 = qmat.haar_random_unitary(2, np.random.default_rng(config.u1_seed))
        self.local_unitary = np.kron(u0, u1)
        self.damping = tuple(np.kron(k, np.eye(2, dtype=complex)) for k in damping_kraus(config.damping_rate))
        self.entangler = qmat.cnot_power(config.cnot_exponent)
        self.n_qubits = 2
        # the Pauli transfer matrix S[j, k] = tr(P_j system_step(P_k)) / 4, and R_Y(arccos u)'s
        # R(u) = sum_i c_i R_i in I, X, Y, Z order, with c = (1, u, sqrt(1 - u^2))
        ops = pauli_operators(2)
        system = pauli_expectations(self.system_step(ops), ops).T / 4
        r_parts = np.array([np.diag([1.0, 0, 1, 0]), np.diag([0.0, 1, 0, 1]), np.zeros((4, 4))])
        r_parts[2, 1, 3], r_parts[2, 3, 1] = 1.0, -1.0
        terms = [np.kron(a, b) @ system for a in r_parts for b in r_parts]
        self.transfer_terms = np.reshape(terms, (9, 256))

    def system_step(self, rho: np.ndarray) -> np.ndarray:
        """Non-input-driven part: local unitaries, damping on qubit 0, then the entangler."""
        rho = self.local_unitary @ rho @ self.local_unitary.conj().T
        a0, a1 = self.damping
        rho = a0 @ rho @ a0.conj().T + a1 @ rho @ a1.conj().T
        return self.entangler @ rho @ self.entangler.conj().T

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        _check_inputs(u)
        rho = self.system_step(rho)
        r = ry(np.arccos(u))
        u_in = qmat.kron(r, r)
        return u_in @ rho @ u_in.conj().swapaxes(-1, -2)

    def transfer(self, u) -> np.ndarray:
        """The real maps T(u) = (R(u) (x) R(u)) S = sum_ij c_i c_j (R_i (x) R_j) S, shape (..., 16, 16):
        T(u) tr(P_k rho) is the readout of `step(rho, u)` to rounding.  Inputs are not checked.  Each column
        u[:, b] gets a GEMM of its own, as alone: a one-row product rounds unlike a row of a larger one."""
        u = np.asarray(u, dtype=float)
        cc = input_features(u, 2).reshape(len(u) if u.ndim else 1, -1, 9)
        return (cc.swapaxes(0, 1) @ self.transfer_terms).swapaxes(0, 1).reshape(u.shape + (16, 16))

    encode = transfer

    def evolve(self, x: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
        """T x on Pauli vectors kept as (..., 16, 1) columns: `step` on the readout, to rounding."""
        return np.matmul(m, x, out=out)


class DepolarizingReservoir:
    """Toy channel rho -> (1-eps) U rho U^dag + eps I/4 on two qubits, with U the
    Haar-random unitary of seed 0; trace distance to I/4 decays as (1-eps)^t."""

    def __init__(self, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon} outside [0, 1]")
        self.epsilon = epsilon
        self.n_qubits = 2
        self.unitary = qmat.haar_random_unitary(4, np.random.default_rng(0))
        self.mixed = np.eye(4, dtype=complex) / 4

    def encode(self, u):  # the channel does not depend on its input
        return u

    def evolve(self, rho: np.ndarray, _, out=None) -> np.ndarray:
        rotated = self.unitary @ rho @ self.unitary.conj().T
        return np.add((1 - self.epsilon) * rotated, self.epsilon * self.mixed, out=out)

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        return self.evolve(rho, self.encode(u))


# ---------------------------------------------------------------------------
# readout

@cache
def pauli_operators(n_qubits: int) -> np.ndarray:
    """The (4**n, d, d) operators of `qmat.all_pauli_strings(n)`, built once per process, read-only."""
    ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(n_qubits))
    ops.flags.writeable = False
    return ops


def pauli_expectations(rho: np.ndarray, basis_matrices: np.ndarray) -> np.ndarray:
    """Real expectation values tr(P rho), shape (..., B), for a stacked (B, d, d)
    operator array and a state or (..., d, d) stack of states."""
    return np.einsum("bij,...ji->...b", basis_matrices, rho).real


TRANSFER_BLOCK = 64  # steps encoded at once and kept for one readout, so memory does not grow with T


def run_reservoir(model, inputs, rho0: np.ndarray, washout: int = 0) -> np.ndarray:
    """Drive the model with the inputs, recording all 4**n Pauli expectations after each step.

    `inputs` has shape (..., T) and `rho0` (..., d, d); their leading shapes
    broadcast to the batch shape.  The readout is a float array of shape
    (..., T - washout, 4**n), time-major: entry [..., t, k] is
    tr(P_k rho_{washout+t+1}), with P_k the k-th string of
    `qmat.all_pauli_strings(n)` ("I...I" first).  The rows before `washout`
    are read out and checked but not kept.

    The first time index with an input outside [-1, 1], or a readout outside
    it by more than 1e-9 (nan included), raises.  Every model runs state <-
    evolve(state, encode(u)), with one `encode`, one readout and its range
    check per block of steps.  The state is rho, bit for bit with a loop over
    `step`, or on a model with a `transfer` map the Pauli vector
    (``SubsetReservoir``, read out as it stands) or its kept part
    (``KeptMap``, read out from the state before each step), equal to `step`
    to rounding; a batch equals its rows.
    """
    inputs = np.asarray(inputs, dtype=float)
    steps = inputs.shape[-1]
    if not 0 <= washout <= steps:
        raise ValueError(f"washout {washout} outside 0..{steps}")
    outside = ~(np.abs(inputs) <= 1.0)
    if outside.any():
        t = np.nonzero(outside)[-1].min()
        raise RuntimeError(f"reservoir step failed at time index {t}: "
                           f"input {inputs[..., t][outside[..., t]][0]} outside [-1, 1]")
    ops = pauli_operators(model.n_qubits)
    batch = np.broadcast_shapes(inputs.shape[:-1], np.shape(rho0)[:-2])
    before = hasattr(model, "read")  # the buffer then holds the state before each step, the block's first at 0
    if before:
        state, dtype, readout = pauli_expectations(rho0, ops[model.columns])[..., None], float, model.read
    elif hasattr(model, "transfer"):
        state, dtype, readout = pauli_expectations(rho0, ops)[..., None], float, lambda x, _: x[..., 0]
    else:
        state, dtype, readout = rho0, complex, lambda rho, _: pauli_expectations(rho, ops)
    # Before the readout: freed, the buffer leaves a hole the next call reuses, not a heap top malloc trims.
    states = np.empty((TRANSFER_BLOCK + before,) + batch + np.shape(state)[-2:], dtype=dtype)
    values = np.empty(batch + (steps - washout, len(ops)))
    for start in range(0, steps, TRANSFER_BLOCK):
        block = np.moveaxis(inputs[..., start:start + TRANSFER_BLOCK], -1, 0)
        encoded = model.encode(block)
        if before:
            states[0] = state
        for sigma, out in zip(encoded, states[before:]):
            state = model.evolve(state, sigma, out)
        read = readout(states[:len(block)], block)
        over = ~(np.maximum(read.max(axis=-1), -read.min(axis=-1)) <= 1.0 + 1e-9)
        if over.any():
            raise RuntimeError(f"readout out of range at time index {start + np.nonzero(over)[0].min()}")
        skip = max(washout - start, 0)  # the block's rows before the washout's end
        if skip < len(block):
            values[..., start + skip - washout:start + len(block) - washout, :] = np.moveaxis(read[skip:], 0, -2)
    return values


# ---------------------------------------------------------------------------
# classical reference systems

@dataclass(frozen=True)
class ClassicalRefConfig:
    """Contracting tanh ESN, optionally with explicit per-step scaling or bias."""

    kind: str = "plain"  # plain | scaled | biased
    rate: float = 1.0  # c for scaled, b for biased

    def __post_init__(self):
        if self.kind not in ("plain", "scaled", "biased"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not np.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.kind == "scaled" and self.rate <= 0:
            raise ValueError("scaled system requires a positive rate")


def run_classical_reference(config: ClassicalRefConfig, inputs, y0) -> np.ndarray:
    """Trajectory y_1..y_T (time-major) of x_{t+1} = tanh(W x_t + w_in u_t), wrapped by
    scaling c^t or bias b t: 20 nodes, W drawn with seed 0 at spectral radius 0.9."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((20, 20))
    w = w * (0.9 / np.max(np.abs(np.linalg.eigvals(w))))
    w_in = rng.standard_normal(20)

    def inner(x: np.ndarray, u: float) -> np.ndarray:
        return np.tanh(w @ x + w_in * u)

    inputs = np.asarray(inputs, dtype=float)
    out = np.empty((len(inputs), len(w)))
    y = np.asarray(y0, dtype=float)
    for t, u in enumerate(inputs):
        if config.kind == "scaled":
            y = config.rate ** (t + 1) * inner(y / config.rate**t, u)
        elif config.kind == "biased":
            y = inner(y - config.rate * t, u) + config.rate * (t + 1)
        else:
            y = inner(y, u)
        if not np.all(np.isfinite(y)):
            raise OverflowError(f"classical reference overflowed at step {t}")
        out[t] = y
    return out
