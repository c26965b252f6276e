"""Reservoir models and trajectory execution.

Two quantum models are provided:

* ``NsReservoir`` -- an SK-Hamiltonian reservoir driven by reset-input
  encoding: one subsystem is replaced each step by an input-parametrized
  pure state, then the whole register evolves under exp(-iH).
* ``SubsetReservoir`` -- a two-qubit reservoir with local random
  unitaries, amplitude damping on qubit 0 and a fractional-CNOT
  entangler, driven by R_Y(arccos u), ``input_unitary`` about y, on both.

Every model steps by one protocol, which ``run_reservoir`` drives in blocks
of 64 steps: ``initial(rho0)`` is the state of density matrices,
``encode(u)`` the part of a step the input alone fixes, ``evolve(state, enc,
out)`` one step, ``read(states, u)`` a block's 4**n Pauli expectations from
its first state and the state after each step, and ``stack(models)`` one
model for the points of several, axis 1 of its inputs running over them.
The state is an ``NsReservoir``'s density matrix (``ResetEncoding``), or a
``PauliMap``'s real Pauli vector, x <- sum_f c_f(u) T_f x with c(u) the
``input_features`` of the input and each T_f built by ``pauli_transfer``:
``SubsetReservoir`` and ``DepolarizingReservoir`` (a constant toy channel)
on the whole readout, an ``NsReservoir``'s ``kept`` on its 4**(n - |A|) kept
numbers.  Only ESP and NS-ESP ensembles step the kept map (see
``espmetrics.stepped``); each density-matrix ``step`` stays the definition
the maps agree with to rounding.  Each trajectory of a batch, states
(..., d, d) and inputs (..., T), gets the bits it gets alone: rows share
GEMMs, and each adds a row's terms in the order of that row's own product.

``run_classical_reference`` runs contracting tanh echo-state networks
with optional per-step scaling (y_t = c^t x_t) or bias (y_t = x_t + b t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import qmat


# ---------------------------------------------------------------------------
# inputs

def input_features(u, copies: int = 1) -> np.ndarray:
    """c(u) = (1, u, sqrt(1 - u^2)) on a new last axis, or for `copies` > 1 the products of one entry of each
    copy, 3**copies of them in product order: a transfer map is linear in these.  Inputs are not checked."""
    c = np.empty(np.shape(u) + (3,))
    c[..., 0] = 1.0
    c[..., 1] = u
    np.sqrt(1.0 - u * u, out=c[..., 2])
    features = c
    for _ in range(copies - 1):
        features = (features[..., :, None] * c[..., None, :]).reshape(c.shape[:-1] + (3 * features.shape[-1],))
    return features


# ---------------------------------------------------------------------------
# configs

def _check_seeds(config, *names: str) -> None:
    """Raise ValueError naming the first of the config's seed fields that is not a nonnegative integer."""
    for name in names:
        value = getattr(config, name)
        if not qmat.is_int(value) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class SkHamiltonianConfig:
    """All-to-all random XX couplings plus longitudinal fields."""

    n_qubits: int = 2
    j_scale: float = 1.0
    field_width: float = 0.312
    global_field: float = 0.013
    seed: int = 0

    def __post_init__(self):
        if not qmat.is_int(self.n_qubits) or self.n_qubits < 2:
            raise ValueError(f"n_qubits must be an integer of at least 2, got {self.n_qubits!r}")
        _check_seeds(self, "seed")
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
        if not all(qmat.is_int(q) for q in self.reset_subsystem):
            raise ValueError(f"reset subsystem qubits must be integers, got {tuple(self.reset_subsystem)!r}")
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
        _check_seeds(self, "u0_seed", "u1_seed")


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
    the diagonal Rz(theta) = diag(e^{-i theta/2}, e^{i theta/2}) scales the columns of U3^dag, and each
    frame U3 then multiplies the rows of all its inputs in one (rows, 2) @ (2, 2) GEMM.  `axis` is an
    AxisConfig, or a stack of `axis_frame_unitary` frames, shape (..., 2, 2), that broadcasts against u:
    each entry of u then turns about its own axis.  Either way each U(u) has the bits of its own 2 x 2
    product: no GEMM dimension falls below 2.  The first input outside [-1, 1] (nan included) raises ValueError."""
    inside = np.abs(u) <= 1.0
    if not inside.all():
        raise ValueError(f"input {np.asarray(u)[~inside].flat[0]} outside [-1, 1]")
    frame = axis_frame_unitary(axis) if isinstance(axis, AxisConfig) else axis
    theta = np.arccos(u)
    rz = np.stack([np.exp(-0.5j * theta), np.exp(0.5j * theta)], axis=-1)
    left = frame.conj().swapaxes(-1, -2) * rz[..., None, :]
    unitary = np.empty_like(left)
    # the axes that pick a frame go first, as views: copying one frame's rows at a time, not the whole
    # stack transposed, keeps the peak memory of a single stacked product
    own = [left.ndim - frame.ndim + i for i, size in enumerate(frame.shape[:-2]) if size > 1]
    rows, into = np.moveaxis(left, own, range(len(own))), np.moveaxis(unitary, own, range(len(own)))
    for index, f in zip(np.ndindex(rows.shape[:len(own)]), frame.reshape(-1, 2, 2)):
        into[index] = (rows[index].reshape(-1, 2) @ f).reshape(rows[index].shape)
    return unitary


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
def sk_evolution(cfg: SkHamiltonianConfig) -> tuple[np.ndarray, np.ndarray]:
    """exp(-iH) of the config's Hamiltonian and its adjoint, built once per process, read-only: every
    point of an axis grid shares them."""
    unitary = qmat.evolution_unitary(build_sk_hamiltonian(cfg))
    matrices = unitary, unitary.conj().T
    for m in matrices:
        m.flags.writeable = False
    return matrices


class ResetEncoding:
    """The stepping protocol of ``NsReservoir``: the reset qubits `reset` take sigma_A(u), turned in the axis frame
    U3 `frame`, (2, 2), then the register evolves under exp(-iH).  A stack (``NsReservoir.stack``) has one frame
    per point of axis 1 of the inputs, (P, 2, 2), and no point's config or kept map."""

    def __init__(self, hamiltonian: SkHamiltonianConfig, reset: tuple[int, ...], frame: np.ndarray):
        self.unitary, self.unitary_dag = sk_evolution(hamiltonian)
        self.reset, self.frame = reset, frame
        self.n_qubits = n = hamiltonian.n_qubits
        # tr_A sums the two slices diagonal in each qubit q of A, lowest first, r of A already gone
        self.traced_shapes = [(2 ** (q - r), 2, 2 ** (n - 1 - q)) * 2 for r, q in enumerate(reset)]
        self.kept_dim = 2 ** (n - len(reset))
        order = [q for q in range(n) if q not in reset] + list(reset)
        source = [order.index(q) for q in range(n)]  # the factors of tr_A(rho) (x) sigma_A in qubit order
        self.axes = None if source == sorted(source) else (0, *(1 + p for p in source), *(1 + n + p for p in source))

    def initial(self, rho0) -> np.ndarray:
        """The state of the density matrices rho0: rho0 itself, complex."""
        return np.asarray(rho0, dtype=complex)

    def encode(self, u) -> np.ndarray:
        """The reset states sigma_A(u), shape np.shape(u) + (2**|A|, 2**|A|); a stack's frame p turns u[:, p]."""
        frame = self.frame.reshape(self.frame.shape[:-2] + (1,) * (np.ndim(u) + 1 - self.frame.ndim) + (2, 2))
        return encoded_state(u, frame, n_qubits=len(self.reset))

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

    def read(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The readout (L, ..., 4**n) of the density matrices after each step, states[1:] of the L + 1 states."""
        return pauli_expectations(states[1:], pauli_operators(self.n_qubits))


class NsReservoir(ResetEncoding):
    """SK-Hamiltonian reservoir with reset-input encoding about one axis; exp(-iH) compiled once per Hamiltonian.
    `step(rho, u)` is `evolve(rho, encode(u))`, and `encode` depends on the input alone."""

    def __init__(self, config: NsModelConfig):
        self.config = config
        super().__init__(config.hamiltonian, config.reset_subsystem, axis_frame_unitary(config.axis))

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        return self.evolve(rho, self.encode(u))

    @staticmethod
    def stack(models) -> ResetEncoding:
        """One model whose inputs' axis 1 runs over `models` (of one H and A), each at its own axis; one is itself."""
        return models[0] if len(models) == 1 else ResetEncoding(
            models[0].config.hamiltonian, models[0].reset, np.stack([m.frame for m in models]))

    @cached_property
    def kept(self) -> PauliMap:
        """This reservoir on its kept subsystem, built on first use: `step` to rounding, on 4**(n - |A|) numbers.
        Term f is the Pauli transfer matrix of `evolve` at sigma_f, with sigma_A(u) = sum_f c_f(u) sigma_f, on
        the kept columns: only their operators are evolved."""
        reset, d = self.reset, 2 ** len(self.reset)
        # sigma(u) = (I + b.sigma) / 2, b = z rotated by arccos u about the axis a:
        # b = (a.z) a + u (z - (a.z) a) + sqrt(1 - u^2) a x z
        a = self.config.axis.unit_vector
        bloch = np.array([[1.0, *(a[2] * a)], [0.0, *(np.eye(3)[2] - a[2] * a)], [0.0, a[1], -a[0], 0.0]])
        sigma = bloch
        for _ in reset[1:]:  # the Pauli vector of sigma_A is the kron of its qubits', term by term
            sigma = (sigma[:, None, :, None] * bloch[None, :, None, :]).reshape(len(sigma) * 3, -1)
        states = (sigma @ pauli_operators(len(reset)).reshape(d * d, -1)).reshape(-1, d, d) / d
        columns = [i for i, s in enumerate(qmat.all_pauli_strings(self.n_qubits)) if all(s[q] == "I" for q in reset)]
        return PauliMap(pauli_transfer(lambda ops: self.evolve(ops[columns], states[:, None]), self.n_qubits), columns)


class PauliMap:
    """A reservoir as a real map on Pauli vectors with input-dependent coefficients.

    The state k is the readout columns `columns` of the Pauli vector, K of them.  A step with input u reads out
    y = sum_f c_f(u) T_f k, with c(u) = `input_features(u, copies)` and T_f the 4**n x K slices of `terms`,
    shape (..., 3**copies, 4**n, K), which gives n and `copies`; the next state is the rows `columns` of y, so
    the maps A_f are those rows of the T_f.  ``SubsetReservoir`` and ``DepolarizingReservoir`` are ones whose
    state is the whole readout; ``NsReservoir.kept`` one whose state is the kept subsystem, since the reset
    discards A each step.  Leading axes of `terms` broadcast against the batch: a stack of maps runs one per point.
    """

    def __init__(self, terms: np.ndarray, columns):
        self.terms, self.columns = terms, columns
        lead, (count, rows, kept) = terms.shape[:-3], terms.shape[-3:]
        self.n_qubits, self.copies = round(math.log(rows, 4)), round(math.log(count, 3))
        self.maps = terms[..., columns, :].reshape(lead + (count, kept * kept))
        self.readout_terms = None if kept == rows else terms.swapaxes(-1, -2).reshape(lead + (count * kept, rows))

    def initial(self, rho0) -> np.ndarray:
        """The state of the density matrices rho0: their readout columns `columns`, as (..., K, 1) Pauli vectors."""
        return pauli_expectations(rho0, pauli_operators(self.n_qubits))[..., self.columns, None]

    @staticmethod
    def stack(models) -> PauliMap:
        """One map whose inputs' axis 1 runs over `models` (of one shape), each by its own terms; one is itself."""
        return models[0] if len(models) == 1 else PauliMap(
            np.stack([m.terms for m in models])[:, None], models[0].columns)

    def encode(self, u) -> np.ndarray:
        """The transfer maps sum_f c_f(u) A_f, shape np.shape(u) + (K, K).  Inputs are not checked.  Axis 0 of
        u is time; each trajectory's maps come from a GEMM of its own, as alone: a one-row product rounds
        unlike a row of a larger one."""
        u = np.asarray(u, dtype=float)
        features = input_features(np.atleast_1d(u), self.copies)
        kept = len(self.columns)
        return np.moveaxis(np.moveaxis(features, 0, -2) @ self.maps, -2, 0).reshape(u.shape + (kept, kept))

    def evolve(self, k: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
        """A k on Pauli vectors held as (..., K, 1) columns."""
        return np.matmul(m, k, out=out)

    def read(self, k: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The readout (L, ..., 4**n) of L steps with inputs u, (L, ...), from the states k, (L + 1, ..., K, 1):
        the one before the first step, then the one after each.  A state that is the whole readout is read
        as it stands after each step; otherwise y = sum_f c_f(u) T_f k comes from the state before each
        step, the first L of k, one GEMM per trajectory of the (L, |c| K) features c (x) k."""
        if self.readout_terms is None:
            return k[1:, ..., 0]
        features = input_features(u, self.copies)
        features = features.reshape(features.shape[:1] + (1,) * (k.ndim - features.ndim - 1) + features.shape[1:])
        rows = np.moveaxis(features[..., :, None] * k[:len(u), ..., None, :, 0], 0, -3)
        return np.moveaxis(rows.reshape(rows.shape[:-2] + (math.prod(rows.shape[-2:]),)) @ self.readout_terms, -2, 0)


# ---------------------------------------------------------------------------
# amplitude damping / fractional CNOT model

def damping_kraus(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the single-qubit amplitude damping channel."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return k0, k1


class SubsetReservoir(PauliMap):
    """Two-qubit reservoir: local Haar unitaries, damping on qubit 0, fractional CNOT, then the input
    rotation R_Y(arccos u) on both qubits, `input_unitary` about the y axis of `frame`.  As a map its state
    is the whole 16-dim Pauli vector, stepped by T(u) = (R(u) (x) R(u)) S = sum_ij c_i c_j (R_i (x) R_j) S,
    built from `system_step` alone; the density-matrix `step` stays the definition it agrees with to
    rounding."""

    def __init__(self, config: SubsetModelConfig):
        self.config = config
        u0 = qmat.haar_random_unitary(2, np.random.default_rng(config.u0_seed))
        u1 = qmat.haar_random_unitary(2, np.random.default_rng(config.u1_seed))
        self.local_unitary = np.kron(u0, u1)
        self.damping = tuple(np.kron(k, np.eye(2, dtype=complex)) for k in damping_kraus(config.damping_rate))
        self.entangler = qmat.cnot_power(config.cnot_exponent)
        self.frame = axis_frame_unitary(AxisConfig(azimuth=np.pi / 2, polar=np.pi / 2))
        # the Pauli transfer matrix S of system_step, and R_Y(arccos u)'s R(u) = sum_i c_i R_i in I, X, Y, Z
        # order, with c = (1, u, sqrt(1 - u^2))
        system = pauli_transfer(self.system_step, 2)
        r_parts = np.array([np.diag([1.0, 0, 1, 0]), np.diag([0.0, 1, 0, 1]), np.zeros((4, 4))])
        r_parts[2, 1, 3], r_parts[2, 3, 1] = 1.0, -1.0
        super().__init__(np.array([np.kron(a, b) @ system for a in r_parts for b in r_parts]), list(range(16)))

    def system_step(self, rho: np.ndarray) -> np.ndarray:
        """Non-input-driven part: local unitaries, damping on qubit 0, then the entangler."""
        rho = self.local_unitary @ rho @ self.local_unitary.conj().T
        a0, a1 = self.damping
        rho = a0 @ rho @ a0.conj().T + a1 @ rho @ a1.conj().T
        return self.entangler @ rho @ self.entangler.conj().T

    def step(self, rho: np.ndarray, u) -> np.ndarray:
        """`system_step`, then R (x) R with R = `input_unitary(u, frame)`, which refuses inputs outside [-1, 1]."""
        r = input_unitary(u, self.frame)
        u_in = qmat.kron(r, r)
        return u_in @ self.system_step(rho) @ u_in.conj().swapaxes(-1, -2)


class DepolarizingReservoir(PauliMap):
    """Toy channel rho -> (1-eps) U rho U^dag + eps tr(rho) I/4 on two qubits, whatever the input, with U the
    Haar-random unitary of seed 0; trace distance to I/4 decays as (1-eps)^t.  As a map on the whole readout it
    is T = (1-eps) S_U + eps e_0 e_0^T, the term of the constant feature; the u and sqrt(1 - u^2) terms are 0."""

    def __init__(self, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon} outside [0, 1]")
        self.epsilon = epsilon
        self.unitary = qmat.haar_random_unitary(4, np.random.default_rng(0))
        super().__init__(np.stack([pauli_transfer(self.step, 2), *np.zeros((2, 16, 16))]), list(range(16)))

    def step(self, rho: np.ndarray, u=None) -> np.ndarray:
        rotated = self.unitary @ rho @ self.unitary.conj().T
        mixed = np.trace(rho, axis1=-2, axis2=-1)[..., None, None] * np.eye(4) / 4
        return (1 - self.epsilon) * rotated + self.epsilon * mixed


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
    operator array and a state or (..., d, d) stack of states.

    Re tr(P rho) = sum_ij Re P_ij Re rho_ji - Im P_ij Im rho_ji, one real GEMM: the rows vec(rho^T) as
    float pairs, (rows, 2 d^2), times the C-contiguous (2 d^2, B) weights [Re P, -Im P] (a transposed
    view would hand BLAS a transposed operand, which sums in another order).  On Pauli strings every
    entry is 0, +-1 or +-i, so each product is exact and the sum adds the terms of the per-matrix
    einsum ``np.einsum("bij,...ji->...b", P, rho).real`` in its (i, j) order: the bits are that
    einsum's.  Pass the full basis of `pauli_operators` and select columns of the result: a GEMM over a
    few strings rounds unlike the full one, and a batch would no longer equal its rows."""
    count, d = len(basis_matrices), basis_matrices.shape[-1]
    weights = np.empty((d, d, 2, count))
    weights[..., 0, :] = np.moveaxis(basis_matrices.real, 0, -1)
    weights[..., 1, :] = np.moveaxis(-basis_matrices.imag, 0, -1)
    pairs = np.ascontiguousarray(np.swapaxes(rho, -1, -2), dtype=complex).view(float)
    return (pairs.reshape(-1, 2 * d * d) @ weights.reshape(-1, count)).reshape(pairs.shape[:-2] + (count,))


def pauli_transfer(channel, n_qubits: int) -> np.ndarray:
    """The Pauli transfer matrix S[..., j, k] = tr(P_j channel(P_k)) / 2**n of a linear `channel` that takes the
    (4**n, d, d) stack of `pauli_operators(n)` to a (..., 4**n, d, d) stack: one matrix per leading index."""
    ops = pauli_operators(n_qubits)
    return np.swapaxes(pauli_expectations(channel(ops), ops), -1, -2) / 2**n_qubits


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
    evolve(state, encode(u)) from initial(rho0), with one `encode`, one
    readout and its range check per block of steps.  The check takes the
    block's max and min once; only a failing block is searched row by row
    for its first bad index.  The block buffer holds the block's first state
    and the state after each step, all of which `read` takes.  A batch
    equals its rows, and an empty batch gives an empty readout.
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
    batch = np.broadcast_shapes(inputs.shape[:-1], np.shape(rho0)[:-2])
    state = model.initial(rho0)
    # Before the readout: freed, the buffer leaves a hole the next call reuses, not a heap top malloc trims.
    states = np.empty((TRANSFER_BLOCK + 1,) + batch + state.shape[-2:], dtype=state.dtype)
    values = np.empty(batch + (steps - washout, 4**model.n_qubits))
    for start in range(0, steps, TRANSFER_BLOCK):
        block = np.moveaxis(inputs[..., start:start + TRANSFER_BLOCK], -1, 0)
        encoded = model.encode(block)
        states[0] = state
        for sigma, out in zip(encoded, states[1:]):
            state = model.evolve(state, sigma, out)
        read = model.read(states[:len(block) + 1], block)
        # the whole block at once: nan fails both tests, an empty batch passes
        if not (read.max(initial=0.0) <= 1.0 + 1e-9 and read.min(initial=0.0) >= -(1.0 + 1e-9)):
            over = ~(np.maximum(read.max(axis=-1), -read.min(axis=-1)) <= 1.0 + 1e-9)
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
    """Trajectory y_1..y_T (time-major) of x_{t+1} = tanh(W x_t + w_in u_t), wrapped by scaling c^t or bias b t:
    20 nodes, W drawn with seed 0 at spectral radius 0.9.  A c^t beyond the normal floats raises, naming its step."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((20, 20))
    w = w * (0.9 / np.max(np.abs(np.linalg.eigvals(w))))
    w_in = rng.standard_normal(20)

    def inner(x: np.ndarray, u: float) -> np.ndarray:
        return np.tanh(w @ x + w_in * u)

    inputs = np.asarray(inputs, dtype=float)
    out = np.empty((len(inputs), len(w)))
    y, scale = np.asarray(y0, dtype=float), 1.0  # scale is c^t
    for t, u in enumerate(inputs):
        if config.kind == "scaled":
            try:
                after = config.rate ** (t + 1)
            except OverflowError:
                raise OverflowError(f"classical reference scale rate**{t + 1} overflowed at step {t}") from None
            if after < sys.float_info.min:  # y / c^t would divide by 0 or a subnormal
                raise FloatingPointError(f"classical reference scale rate**{t + 1} underflowed at step {t}")
            y, scale = after * inner(y / scale, u), after
        elif config.kind == "biased":
            y = inner(y - config.rate * t, u) + config.rate * (t + 1)
        else:
            y = inner(y, u)
        if not np.all(np.isfinite(y)):
            raise OverflowError(f"classical reference overflowed at step {t}")
        out[t] = y
    return out
