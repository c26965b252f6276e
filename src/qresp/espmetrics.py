"""ESP diagnostics: windowed variance, ESP / non-stationary ESP indicators,
and their subset variants, with ensemble averaging over input sequences and
Haar-random initial-state pairs.  A subset indicator is the same indicator on
selected readout columns: every indicator here takes them as `columns`.

Time indices are 0-based row indices into a readout trajectory; a window of
size w is available from index w-1 onward, and the reference window for the
non-stationary indicator is the earliest valid one (index w-1).  Both
indicators at time t come from one kernel, `_indicators`, that reads the row
at t and two windows: the reference window and the window ending at t.
`indicator_ensemble` is the one ensemble path, for a list of models with one
generator each; the sweep's indicator cells are its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import qmat
from .reservoir import run_reservoir

VARIANCE_UNDERFLOW = 1e-30


def _selected(traj, columns=None) -> np.ndarray:
    values = np.asarray(traj, dtype=float)
    # np.take keeps the columns fastest, so one pair sums a selection in the order a batch does
    return values if columns is None else np.take(values, columns, axis=-1)


def _check_window(t: int, w: int, length: int) -> None:
    if w < 1:
        raise ValueError("window must be positive")
    if t < w - 1 or t >= length:
        raise ValueError(f"index {t} lacks a full window of {w} in history of {length}")


def _window_variance(x: np.ndarray, t: int, w: int) -> np.ndarray:
    """Norm over columns of the population variance of the w rows ending at index t, for x of
    shape (..., T, C); each window is reduced in two passes (mean, then squared deviations)."""
    block = x[..., t - w + 1 : t + 1, :]
    deviations = block - block.mean(axis=-2, keepdims=True)
    return np.linalg.norm(np.mean(np.square(deviations), axis=-2), axis=-1)


def _indicators(a: np.ndarray, b: np.ndarray, s0_dist, w: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """`esp_indicator` and `ns_esp_indicator` at time t of the trajectory pairs (a, b), each of
    shape (..., T, C), from the row at t and two windows: the earliest full one and the one ending
    at t.  `s0_dist` broadcasts against the leading shape."""
    _check_window(t, w, a.shape[-2])
    if not (np.isfinite(s0_dist) & (np.asarray(s0_dist) > 0.0)).all():
        raise ValueError(f"initial-state distances must be finite and positive, got {s0_dist}")
    esp = np.linalg.norm(a[..., t, :] - b[..., t, :], axis=-1) / s0_dist
    v_ref = np.minimum(_window_variance(a, w - 1, w), _window_variance(b, w - 1, w))
    v_t = np.minimum(_window_variance(a, t, w), _window_variance(b, t, w))
    ns = np.where(v_t < VARIANCE_UNDERFLOW, np.inf, esp * np.sqrt(v_ref / np.maximum(v_t, VARIANCE_UNDERFLOW)))
    return esp, ns


def variance_norm(series, t: int, w: int, columns=None) -> float:
    """Euclidean norm of the windowed variance vector of the w rows ending at
    index t, optionally on selected columns."""
    values = _selected(series, columns)
    _check_window(t, w, len(values))
    return float(_window_variance(values, t, w))


def esp_indicator(traj_a, traj_b, s0_dist: float, t: int, columns=None) -> float:
    """Readout distance at time t, normalized by the initial-state distance."""
    return float(_indicators(_selected(traj_a, columns), _selected(traj_b, columns), s0_dist, 1, t)[0])


def ns_esp_indicator(traj_a, traj_b, s0_dist: float, w: int, t: int, columns=None) -> float:
    """ESP indicator at time t rescaled by sqrt(v_ref / v_t).

    v is the smaller of the two trajectories' windowed-variance norms and
    v_ref its value at the earliest full window (index w-1).  A v_t below
    the underflow threshold yields +inf, the documented sentinel for
    variance collapse.
    """
    return float(_indicators(_selected(traj_a, columns), _selected(traj_b, columns), s0_dist, w, t)[1])


@dataclass(frozen=True)
class EnsembleIndicators:
    """ESP and NS-ESP indicators at the final time, averaged over an ensemble."""

    final_esp: float
    final_ns: float


def ensemble_draws(n_qubits: int, n_inputs: int, n_states: int, seq_len: int, rng: np.random.Generator):
    """Inputs (rows, seq_len) and initial states (rows, d, d) of an indicator ensemble: each of n_inputs
    Uniform[-1, 1] sequences with each of n_states Haar-random pure states, sequence-major."""
    if n_states < 2:
        raise ValueError("need at least two initial states")
    input_sets = rng.uniform(-1.0, 1.0, size=(n_inputs, seq_len))
    states = np.stack([qmat.haar_random_pure_state(n_qubits, rng) for _ in range(n_states)])
    return np.repeat(input_sets, n_states, axis=0), np.tile(states, (n_inputs, 1, 1))


def ensemble_trace(traj, rho0: np.ndarray, n_states: int, w: int, columns=None) -> EnsembleIndicators:
    """The indicators at the final time averaged over input sequences x unordered initial-state
    pairs, from the readout `traj` of the trajectories `ensemble_draws` gave, with their initial
    states `rho0`.  The initial-state distance is the Hilbert-Schmidt distance between the density
    matrices.  The averages sum input-major, then pair, in sequence: a pairwise sum rounds differently."""
    if columns is not None and len(columns) == 0:
        raise ValueError("subset selection must be nonempty")
    seq_len = traj.shape[-2]
    rows = _selected(traj, columns).reshape(len(rho0) // n_states, n_states, seq_len, -1)
    first, second = map(list, zip(*combinations(range(n_states), 2)))
    s0_dists = np.array([qmat.hilbert_schmidt_distance(rho0[i], rho0[j]) for i, j in zip(first, second)])
    esp, ns = _indicators(rows[:, first], rows[:, second], s0_dists, w, seq_len - 1)
    return EnsembleIndicators(*(float(np.cumsum(x)[-1]) / x.size for x in (esp, ns)))


def stepped(model):
    """What an ESP or NS-ESP ensemble of `model` steps: an ``NsReservoir``'s kept-subsystem map, its
    density-matrix `step` to rounding on the kept Pauli vector (4 real numbers at n = 2), or else the
    model.  The kept map is taken here alone.  NARMA, mc, ipc and rank runs step rho until the readout fit is
    well-posed (ROADMAP item 1): through the kept map, narma2 moves at the poles, where the pinv fit
    follows rounding (41 of the 720 `axis_narma2` benchmark cells of sweep seeds 0-9, up to 1.3%)."""
    return getattr(model, "kept", model)


def indicator_ensemble(models, n_inputs: int, n_states: int, seq_len: int, w: int, rngs,
                       columns=None) -> list[EnsembleIndicators]:
    """Each model's indicators averaged over input sequences x unordered initial-state pairs.

    Model i draws its ensemble from rngs[i] (`ensemble_draws`), and the `stack` of the `stepped`
    models runs them all in one batch, each bit for bit as alone.  `columns`, nonempty readout
    column indices, restricts the indicators to them (the subset indicators); None keeps all.
    At the paper defaults (4 sequences, 3 states) each averages 12 pairs at the final time.
    """
    inputs, rho0 = map(np.stack, zip(*(ensemble_draws(m.n_qubits, n_inputs, n_states, seq_len, rng)
                                       for m, rng in zip(models, rngs, strict=True))))
    steppers = [stepped(m) for m in models]
    trajs = run_reservoir(steppers[0].stack(steppers), inputs, rho0)
    return [ensemble_trace(traj, states, n_states, w, columns) for traj, states in zip(trajs, rho0)]


# ---------------------------------------------------------------------------
# standard subset selections over a Pauli-string basis

def subsystem_selection(basis, kept_qubits) -> list[int]:
    """Columns whose Pauli string is identity outside the kept qubits."""
    kept = set(kept_qubits)
    return [
        i
        for i, s in enumerate(basis)
        if all(c == "I" for q, c in enumerate(s) if q not in kept)
    ]


def damping_subsystem_selection(basis) -> list[int]:
    """Strings acting as identity on qubit 1 (read out qubit 0 only)."""
    return subsystem_selection(basis, {0})


def non_damping_subsystem_selection(basis) -> list[int]:
    """Strings acting as identity on qubit 0 (read out qubit 1 only)."""
    return subsystem_selection(basis, {1})


def entangling_selection(basis) -> list[int]:
    """Strings non-identity on every qubit."""
    return [i for i, s in enumerate(basis) if "I" not in s]
