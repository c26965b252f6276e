"""ESP diagnostics: windowed variance, ESP / non-stationary ESP indicators,
and their subset variants, with ensemble averaging over input sequences and
Haar-random initial-state pairs.  A subset indicator is the same indicator on
selected readout columns: every indicator here takes them as `columns`.

Time indices are 0-based row indices into a readout trajectory; a window of
size w is available from index w-1 onward, and the reference window for the
non-stationary indicator is the earliest valid one (index w-1).
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
    return values if columns is None else values[..., columns]


def _check_window(t: int, w: int, length: int) -> None:
    if w < 1:
        raise ValueError("window must be positive")
    if t < w - 1 or t >= length:
        raise ValueError(f"index {t} lacks a full window of {w} in history of {length}")


def _variance_norms(values: np.ndarray, w: int) -> np.ndarray:
    """Norm of the per-column population variance of each window of w rows.

    Entry i covers rows i..i+w-1, i.e. the window ending at index i+w-1;
    each window is reduced in two passes (mean, then squared deviations).
    """
    blocks = np.lib.stride_tricks.sliding_window_view(values, w, axis=0)
    mean = blocks.mean(axis=-1, keepdims=True)
    return np.linalg.norm(np.mean((blocks - mean) ** 2, axis=-1), axis=1)


def _esp_trace(a: np.ndarray, b: np.ndarray, s0_dist: float) -> np.ndarray:
    """Readout distance at every time, normalized by the initial-state distance."""
    if s0_dist <= 0.0:
        raise ValueError("initial states must differ (s0_dist > 0)")
    return np.linalg.norm(a - b, axis=1) / s0_dist


def _ns_trace(esp: np.ndarray, var_a: np.ndarray, var_b: np.ndarray) -> np.ndarray:
    """NS rescaling of an ESP trace (see `ns_esp_indicator`), from index w-1 on.

    `var_a` and `var_b` hold the two trajectories' windowed-variance norms,
    one per full window.
    """
    vmin = np.minimum(var_a, var_b)
    return np.where(
        vmin < VARIANCE_UNDERFLOW,
        np.inf,
        esp[len(esp) - len(vmin) :] * np.sqrt(vmin[0] / np.maximum(vmin, VARIANCE_UNDERFLOW)),
    )


def variance_norm(series, t: int, w: int, columns=None) -> float:
    """Euclidean norm of the windowed variance vector of the w rows ending at
    index t, optionally on selected columns."""
    values = _selected(series, columns)
    _check_window(t, w, len(values))
    return float(_variance_norms(values[t - w + 1 : t + 1], w)[0])


def esp_indicator(traj_a, traj_b, s0_dist: float, t: int, columns=None) -> float:
    """Readout distance at time t, normalized by the initial-state distance."""
    return float(_esp_trace(_selected(traj_a, columns), _selected(traj_b, columns), s0_dist)[t])


def ns_esp_indicator(traj_a, traj_b, s0_dist: float, w: int, t: int, columns=None) -> float:
    """ESP indicator at time t rescaled by sqrt(v_ref / v_t).

    v is the smaller of the two trajectories' windowed-variance norms and
    v_ref its value at the earliest full window (index w-1).  A v_t below
    the underflow threshold yields +inf, the documented sentinel for
    variance collapse.
    """
    a, b = _selected(traj_a, columns), _selected(traj_b, columns)
    _check_window(t, w, len(a))
    a, b = a[: t + 1], b[: t + 1]
    esp = _esp_trace(a, b, s0_dist)
    return float(_ns_trace(esp, _variance_norms(a, w), _variance_norms(b, w))[-1])


@dataclass
class IndicatorTrace:
    """Indicator traces averaged over an ensemble; ns values start at index w-1."""

    times: np.ndarray
    esp_values: np.ndarray
    ns_values: np.ndarray
    window: int

    @property
    def final_esp(self) -> float:
        return float(self.esp_values[-1])

    @property
    def final_ns(self) -> float:
        return float(self.ns_values[-1])


def indicator_ensemble(
    model,
    n_inputs: int,
    n_states: int,
    seq_len: int,
    w: int,
    rng: np.random.Generator,
    columns=None,
) -> IndicatorTrace:
    """Average indicators over input sequences x unordered initial-state pairs.

    `columns`, a nonempty sequence of readout column indices, restricts the
    indicators to those columns (the subset indicators); None keeps all.
    Inputs are Uniform[-1, 1]; initial states are Haar-random pure states.
    The initial-state distance is the Hilbert-Schmidt distance between the
    density matrices.  With the paper defaults (4 sequences, 3 states) this
    averages 12 indicator traces.  Every (sequence, state) trajectory runs
    in one batch, sequence-major.  The variance kernel runs per trajectory:
    on the whole batch its (sequence, state, time, column, window)
    temporaries would raise the peak memory of a sweep by about a tenth.
    """
    if n_states < 2:
        raise ValueError("need at least two initial states")
    if columns is not None and len(columns) == 0:
        raise ValueError("subset selection must be nonempty")
    input_sets = rng.uniform(-1.0, 1.0, size=(n_inputs, seq_len))
    states = np.stack([qmat.haar_random_pure_state(model.n_qubits, rng) for _ in range(n_states)])

    traj = run_reservoir(model, np.repeat(input_sets, n_states, axis=0), np.tile(states, (n_inputs, 1, 1)))
    rows = _selected(traj, columns).reshape(n_inputs, n_states, seq_len, -1)
    variances = [[_variance_norms(r, w) for r in row] for row in rows]
    pairs = list(combinations(range(n_states), 2))
    s0_dists = [qmat.hilbert_schmidt_distance(states[i], states[j]) for i, j in pairs]

    esp_sum = np.zeros(seq_len)
    ns_sum = np.zeros(seq_len - w + 1)
    count = 0
    for k in range(n_inputs):
        for (i, j), s0_dist in zip(pairs, s0_dists):
            esp = _esp_trace(rows[k, i], rows[k, j], s0_dist)
            esp_sum += esp
            ns_sum += _ns_trace(esp, variances[k][i], variances[k][j])
            count += 1
    return IndicatorTrace(
        times=np.arange(seq_len),
        esp_values=esp_sum / count,
        ns_values=ns_sum / count,
        window=w,
    )


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
