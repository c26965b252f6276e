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
64 steps.  The state is a density matrix, except on ``SubsetReservoir``:
its ``encode`` gives the real 16x16 transfer maps T(u) and its state is the
Pauli vector, the readout itself; its density-matrix ``step`` stays the
definition those maps agree with to rounding.

``run_classical_reference`` runs contracting tanh echo-state networks
with optional per-step scaling (y_t = c^t x_t) or bias (y_t = x_t + b t),
and ``DepolarizingReservoir`` is the analytically solvable toy channel
used in the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def input_unitary(u, axis: AxisConfig) -> np.ndarray:
    """Rotation by theta = arccos(u) about the given axis, U3^dag Rz(theta) U3, shape np.shape(u) + (2, 2):
    the diagonal Rz(theta) = diag(e^{-i theta/2}, e^{i theta/2}) scales the columns of U3^dag, one matmul."""
    _check_inputs(u)
    frame = axis_frame_unitary(axis)
    theta = np.arccos(u)
    rz = np.stack([np.exp(-0.5j * theta), np.exp(0.5j * theta)], axis=-1)
    return (frame.conj().T * rz[..., None, :]) @ frame


def encoded_state(u, axis: AxisConfig, n_qubits: int = 1) -> np.ndarray:
    """sigma_A(u; axis) = U |0><0|^{tensor n} U^dag with the same U on each qubit: per qubit the
    outer product c c^dag of c = U|0>, the first column of U = `input_unitary(u, axis)`."""
    c = input_unitary(u, axis)[..., :, 0]
    single = c[..., :, None] * c.conj()[..., None, :]
    sigma = single
    for _ in range(n_qubits - 1):
        sigma = qmat.kron(sigma, single)
    return sigma


class NsReservoir:
    """SK-Hamiltonian reservoir with reset-input encoding; exp(-iH) compiled once.
    `step(rho, u)` is `evolve(rho, encode(u))`, and `encode` depends on the input alone."""

    def __init__(self, config: NsModelConfig):
        self.config = config
        self.hamiltonian = build_sk_hamiltonian(config.hamiltonian)
        self.unitary = qmat.evolution_unitary(self.hamiltonian)
        self.unitary_dag = self.unitary.conj().T
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
        return encoded_state(u, self.config.axis, n_qubits=len(self.config.reset_subsystem))

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
        return np.matmul(self.unitary @ self.reset_encode(rho, sigma), self.unitary_dag, out=out)

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        return self.evolve(rho, self.encode(u))


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
        ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(2))
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
        c = np.stack([np.ones_like(u), u, np.sqrt(1.0 - u * u)], axis=-1)
        cc = (c[..., :, None] * c[..., None, :]).reshape(len(u) if u.ndim else 1, -1, 9)
        return (cc.swapaxes(0, 1) @ self.transfer_terms).swapaxes(0, 1).reshape(u.shape + (16, 16))

    encode = transfer

    def evolve(self, x: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
        """T x on Pauli vectors kept as (..., 16, 1) columns: `step` on the readout, to rounding."""
        return np.matmul(m, x, out=out)


class DepolarizingReservoir:
    """Toy channel rho -> (1-eps) U rho U^dag + eps I/d; trace distance to I/d decays as (1-eps)^t."""

    def __init__(self, epsilon: float, n_qubits: int = 2, seed: int = 0):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon} outside [0, 1]")
        self.epsilon = epsilon
        self.n_qubits = n_qubits
        dim = 2**n_qubits
        self.unitary = qmat.haar_random_unitary(dim, np.random.default_rng(seed))
        self.mixed = np.eye(dim, dtype=complex) / dim

    def encode(self, u):  # the channel does not depend on its input
        return u

    def evolve(self, rho: np.ndarray, _, out=None) -> np.ndarray:
        rotated = self.unitary @ rho @ self.unitary.conj().T
        return np.add((1 - self.epsilon) * rotated, self.epsilon * self.mixed, out=out)

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        return self.evolve(rho, self.encode(u))


# ---------------------------------------------------------------------------
# readout

def pauli_expectations(rho: np.ndarray, basis_matrices: np.ndarray) -> np.ndarray:
    """Real expectation values tr(P rho), shape (..., B), for a stacked (B, d, d)
    operator array and a state or (..., d, d) stack of states."""
    return np.einsum("bij,...ji->...b", basis_matrices, rho).real


TRANSFER_BLOCK = 64  # steps encoded at once and kept for one readout, so memory does not grow with T


def run_reservoir(model, inputs, rho0: np.ndarray) -> np.ndarray:
    """Drive the model with the inputs, recording all 4**n Pauli expectations after each step.

    `inputs` has shape (..., T) and `rho0` (..., d, d); their leading shapes
    broadcast to the batch shape.  The readout is a float array of shape
    (..., T, 4**n), time-major: entry [..., t, k] is tr(P_k rho_{t+1}), with
    P_k the k-th string of `qmat.all_pauli_strings(n)` ("I...I" first).

    The first time index with an input outside [-1, 1], or a readout outside
    it by more than 1e-9 (nan included), raises.  Every model runs state <-
    evolve(state, encode(u)), with one `encode` and one readout per block of
    steps.  The state is rho, bit for bit with a loop over `step`, or on a
    model with a `transfer` map (``SubsetReservoir``) the Pauli vector, read
    out as it stands and equal to `step` to rounding; a batch equals its rows.
    """
    inputs = np.asarray(inputs, dtype=float)
    outside = ~(np.abs(inputs) <= 1.0)
    if outside.any():
        t = np.nonzero(outside)[-1].min()
        raise RuntimeError(f"reservoir step failed at time index {t}: "
                           f"input {inputs[..., t][outside[..., t]][0]} outside [-1, 1]")
    ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(model.n_qubits))
    batch = np.broadcast_shapes(inputs.shape[:-1], np.shape(rho0)[:-2])
    if hasattr(model, "transfer"):
        state, dtype, readout = pauli_expectations(rho0, ops)[..., None], float, lambda x: x[..., 0]
    else:
        state, dtype, readout = rho0, complex, lambda rho: pauli_expectations(rho, ops)
    # Before the readout: freed, the buffer leaves a hole the next call reuses, not a heap top malloc trims.
    states = np.empty((TRANSFER_BLOCK,) + batch + np.shape(state)[-2:], dtype=dtype)
    values = np.empty(batch + (inputs.shape[-1], len(ops)))
    for start in range(0, inputs.shape[-1], TRANSFER_BLOCK):
        encoded = model.encode(np.moveaxis(inputs[..., start:start + TRANSFER_BLOCK], -1, 0))
        for sigma, out in zip(encoded, states):
            state = model.evolve(state, sigma, out)
        values[..., start:start + len(encoded), :] = np.moveaxis(readout(states[:len(encoded)]), 0, -2)
    over = ~(np.maximum(values.max(axis=-1), -values.min(axis=-1)) <= 1.0 + 1e-9)
    if over.any():
        raise RuntimeError(f"readout out of range at time index {np.nonzero(over)[-1].min()}")
    return values


# ---------------------------------------------------------------------------
# classical reference systems

@dataclass(frozen=True)
class ClassicalRefConfig:
    """Contracting tanh ESN, optionally with explicit per-step scaling or bias."""

    kind: str = "plain"  # plain | scaled | biased
    rate: float = 1.0  # c for scaled, b for biased
    size: int = 20
    spectral_radius: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("plain", "scaled", "biased"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not np.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.kind == "scaled" and self.rate <= 0:
            raise ValueError("scaled system requires a positive rate")
        if self.size < 1:
            raise ValueError("reservoir size must be positive")
        if not 0.0 < self.spectral_radius < 1.0:
            raise ValueError("inner map must be contracting (spectral radius in (0, 1))")


def run_classical_reference(config: ClassicalRefConfig, inputs, y0) -> np.ndarray:
    """Trajectory y_1..y_T (time-major) of x_{t+1} = tanh(W x_t + w_in u_t),
    wrapped by scaling c^t or bias b t."""
    rng = np.random.default_rng(config.seed)
    w = rng.standard_normal((config.size, config.size))
    w = w * (config.spectral_radius / np.max(np.abs(np.linalg.eigvals(w))))
    w_in = rng.standard_normal(config.size)

    def inner(x: np.ndarray, u: float) -> np.ndarray:
        return np.tanh(w @ x + w_in * u)

    inputs = np.asarray(inputs, dtype=float)
    out = np.empty((len(inputs), config.size))
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
