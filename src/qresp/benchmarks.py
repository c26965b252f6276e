"""Task-level evaluation: NARMA targets, linear readout training, RNMSE,
linear memory capacity, polynomial information processing capacity with
shuffle-surrogate thresholding, and trajectory rank.

Capacities follow Dambre et al. 2012 (Sci. Rep. 2, 514),
    C(v) = ||Q^T v_c||^2 / ||v_c||^2,
with v_c the mean-centered target and Q the left singular vectors of the
mean-centered post-washout features with s_i > 1e-5 s_0 (a 1e-10 eigenvalue
cut on their covariance).  This equals the squared-correlation form
cov(v, x)^T pinv(cov(x, x)) cov(v, x) / Var(v); a delay-line reservoir of
dimension d scores exactly 1 for each delay it stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NARMA_DIVERGENCE_LIMIT = 1e3
MAX_LINEAR_DELAY_THRESHOLD = 1e-4
CAPACITY_REL_CUT = 1e-5


# ---------------------------------------------------------------------------
# NARMA

def narma_generate(inputs, order: int) -> np.ndarray:
    """NARMA-k target sequence with zero initial history.

    y_t = 0.3 y_{t-1} + 0.05 y_{t-1} sum_{i=t-k}^{t-1} y_i
        + 1.5 u_{t-1} u_{t-k} + 0.1
    with y and u treated as zero at negative indices.  Raises on the known
    NARMA blow-up (|y| beyond 1e3), naming the step.
    """
    if order < 2:
        raise ValueError("NARMA order must be at least 2")
    u = np.asarray(inputs, dtype=float)
    if len(u) <= order:
        raise ValueError("input sequence must be longer than the order")
    if u.min() < 0.0 or u.max() > 0.5:
        raise ValueError("NARMA inputs must lie in [0, 0.5]")
    y = np.zeros(len(u))
    for t in range(1, len(u)):
        recent = y[max(0, t - order) : t].sum()
        drive = u[t - 1] * u[t - order] if t >= order else 0.0
        y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * recent + 1.5 * drive + 0.1
        if abs(y[t]) > NARMA_DIVERGENCE_LIMIT:
            raise ValueError(f"NARMA{order} diverged at step {t}")
    return y


# ---------------------------------------------------------------------------
# linear readout

@dataclass(frozen=True)
class SplitSpec:
    """Washout / train / test partition as fractions of the sequence."""

    washout_fraction: float = 0.5
    train_fraction_of_remainder: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.washout_fraction < 1.0:
            raise ValueError("washout_fraction must lie in (0, 1)")
        if not 0.0 < self.train_fraction_of_remainder < 1.0:
            raise ValueError("train_fraction_of_remainder must lie in (0, 1)")

    def boundaries(self, length: int) -> tuple[int, int]:
        """(train_start, test_start) indices."""
        washout_end = int(length * self.washout_fraction)
        remainder = length - washout_end
        train_end = washout_end + int(remainder * self.train_fraction_of_remainder)
        if washout_end == 0 or train_end <= washout_end or train_end >= length:
            raise ValueError(f"split produces an empty segment for length {length}")
        return washout_end, train_end


@dataclass
class ReadoutFit:
    weights: np.ndarray
    predictions: np.ndarray  # on the test segment
    test_target: np.ndarray
    test_slice: slice
    degenerate: bool  # rank-deficient design solved by minimum-norm pseudo-inverse


def train_linear_readout(features, target, split: SplitSpec) -> ReadoutFit:
    """Least-squares readout on the train segment, evaluated on the test segment.

    Ordinary least squares via the pseudo-inverse: the minimum-norm solution
    on degenerate designs, flagged on the result.  The constant all-identity
    readout column plays the role of the intercept.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if len(x) != len(y):
        raise ValueError(f"feature rows {len(x)} do not match target length {len(y)}")
    train_start, test_start = split.boundaries(len(y))
    x_train, y_train = x[train_start:test_start], y[train_start:test_start]

    degenerate = np.linalg.matrix_rank(x_train) < x.shape[1]
    weights = np.linalg.pinv(x_train) @ y_train
    test = slice(test_start, len(y))
    return ReadoutFit(
        weights=weights,
        predictions=x[test] @ weights,
        test_target=y[test],
        test_slice=test,
        degenerate=degenerate,
    )


def rnmse(target, prediction) -> float:
    """Root mean squared error normalized by the population variance of the target."""
    y = np.asarray(target, dtype=float)
    p = np.asarray(prediction, dtype=float)
    if len(y) == 0 or len(y) != len(p):
        raise ValueError("target and prediction must have equal nonzero lengths")
    var = y.var()
    if var == 0.0:
        raise ValueError("target is constant; RNMSE undefined")
    return float(np.sqrt(np.mean((p - y) ** 2) / var))


# ---------------------------------------------------------------------------
# capacity machinery

def _svd_basis(x: np.ndarray, rel_cut: float) -> np.ndarray:
    """Left singular vectors of x whose singular value exceeds rel_cut times the largest."""
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, s > rel_cut * s[0]]


def _capacity_basis(features, washout: int) -> np.ndarray:
    """Orthonormal basis Q of the mean-centered post-washout features."""
    x = np.asarray(features, dtype=float)
    if washout < 0 or washout >= len(x):
        raise ValueError(f"washout {washout} leaves no data in {len(x)} rows")
    x = x[washout:]
    return _svd_basis(x - x.mean(axis=0), CAPACITY_REL_CUT)


def _capacity(q: np.ndarray, target: np.ndarray, perms=None):
    """||Q^T v_c||^2 / ||v_c||^2 for the centered target v_c, or, given an
    (S, n) array of permutations, for each row order v_c[perms[s]] (the
    shuffle surrogates).  A constant target has capacity 0."""
    vc = target - target.mean()
    norm2 = vc @ vc
    rows = vc if perms is None else vc[perms]
    if norm2 == 0.0:
        return np.zeros(rows.shape[:-1])
    return np.sum((rows @ q) ** 2, axis=-1) / norm2


def memory_function(inputs, features, delay: int, washout: int) -> float:
    """Squared-correlation capacity of reconstructing u_{t-delay} from x_t."""
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    if washout < delay:
        raise ValueError("washout must cover the delay")
    q = _capacity_basis(features, washout)
    inputs = np.asarray(inputs, dtype=float)
    return float(_capacity(q, inputs[washout - delay : washout - delay + len(q)]))


@dataclass
class McResult:
    memory_functions: np.ndarray  # index = delay, starting at 0
    total: float
    max_linear_delay: int
    even_sum: float
    odd_sum: float
    tail_sum_2plus: float


def mc_report(inputs, features, max_delay: int, washout: int) -> McResult:
    """Memory functions for delays 0..max_delay plus the paper's aggregates."""
    if max_delay < 1:
        raise ValueError("max_delay must be at least 1")
    if washout < max_delay:
        raise ValueError("washout must cover the largest delay")
    inputs = np.asarray(inputs, dtype=float)
    q = _capacity_basis(features, washout)
    n = len(q)
    caps = np.array([_capacity(q, inputs[washout - k : washout - k + n]) for k in range(max_delay + 1)])
    above = np.nonzero(caps > MAX_LINEAR_DELAY_THRESHOLD)[0]
    return McResult(
        memory_functions=caps,
        total=float(caps.sum()),
        max_linear_delay=int(above[-1]) if len(above) else 0,
        even_sum=float(caps[0::2].sum()),
        odd_sum=float(caps[1::2].sum()),
        tail_sum_2plus=float(caps[2:].sum()),
    )


# ---------------------------------------------------------------------------
# IPC over a Legendre basis

@dataclass(frozen=True)
class IpcConfig:
    """Degree/delay budget, with (degree, max_delay) pairs covering each degree."""

    budget: tuple[tuple[int, int], ...] = ((1, 300), (2, 100), (3, 30), (4, 10), (5, 10))
    surrogate_count: int = 100
    input_low: float = -1.0
    input_high: float = 1.0

    def __post_init__(self):
        if not self.budget:
            raise ValueError("budget must contain at least one (degree, max_delay) pair")
        if any(d < 1 or m < 0 for d, m in self.budget):
            raise ValueError("degrees must be >= 1 and delays >= 0")
        if self.surrogate_count < 0:
            raise ValueError("surrogate_count must be nonnegative")
        if self.input_high <= self.input_low:
            raise ValueError("empty input support")


def normalized_legendre(degree: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial on [-1, 1] scaled to unit second moment under Uniform."""
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    return np.polynomial.legendre.legval(x, coeffs) * np.sqrt(2 * degree + 1)


def ipc_targets(inputs, terms, input_low: float = -1.0, input_high: float = 1.0) -> np.ndarray:
    """Product of normalized Legendre factors at delayed inputs.

    `terms` is a sequence of (delay, degree) pairs with distinct delays.
    Inputs are affinely mapped from [input_low, input_high] onto [-1, 1];
    entries before the largest delay are padded with zeros, matching the
    washout-discarded region.
    """
    u = np.asarray(inputs, dtype=float)
    scaled = 2.0 * (u - input_low) / (input_high - input_low) - 1.0
    delays = [k for k, _ in terms]
    if len(set(delays)) != len(delays):
        raise ValueError("delays within a product must be distinct")
    out = np.ones(len(u))
    for delay, degree in terms:
        if degree < 1 or delay < 0:
            raise ValueError(f"invalid term (delay={delay}, degree={degree})")
        shifted = np.zeros(len(u))
        if delay == 0:
            shifted[:] = scaled
        else:
            shifted[delay:] = scaled[:-delay]
        out *= normalized_legendre(degree, shifted)
    return out


def enumerate_degree_terms(degree: int, max_delay: int) -> list[tuple[tuple[int, int], ...]]:
    """All products of total degree `degree` over distinct delays in 0..max_delay."""

    def rec(remaining: int, min_delay: int):
        if remaining == 0:
            yield ()
            return
        for delay in range(min_delay, max_delay + 1):
            for part in range(1, remaining + 1):
                for rest in rec(remaining - part, delay + 1):
                    yield ((delay, part),) + rest

    return list(rec(degree, 0))


@dataclass
class IpcResult:
    components: list  # (terms, capacity) after thresholding
    degree_totals: dict
    total: float
    threshold_count: int  # components zeroed by the surrogate


def ipc_report(inputs, features, cfg: IpcConfig, washout: int, rng: np.random.Generator) -> IpcResult:
    """Capacity per degree/delay product, thresholded by a random shuffle surrogate.

    Each component is compared against the maximum capacity of its
    time-shuffled target (surrogate_count permutations, drawn once and
    shared across components for determinism); components at or below the
    threshold are zeroed.  surrogate_count = 0 disables
    thresholding.
    """
    inputs = np.asarray(inputs, dtype=float)
    q = _capacity_basis(features, washout)
    perms = np.empty((cfg.surrogate_count, len(q)), dtype=np.intp)
    for row in perms:
        row[:] = rng.permutation(len(q))

    components = []
    degree_totals: dict[int, float] = {}
    zeroed = 0
    for degree, max_delay in cfg.budget:
        for terms in enumerate_degree_terms(degree, max_delay):
            if max(k for k, _ in terms) > washout:
                continue
            target_full = ipc_targets(inputs, terms, cfg.input_low, cfg.input_high)
            target = target_full[washout:]
            value = float(_capacity(q, target))
            if len(perms) and value <= _capacity(q, target, perms).max():
                value = 0.0
                zeroed += 1
            components.append((terms, value))
            degree_totals[degree] = degree_totals.get(degree, 0.0) + value
    return IpcResult(
        components=components,
        degree_totals=degree_totals,
        total=float(sum(degree_totals.values())),
        threshold_count=zeroed,
    )


# ---------------------------------------------------------------------------
# trajectory rank

@dataclass(frozen=True)
class RankResult:
    raw: int
    centered: int


def trajectory_rank(features, rel_threshold: float = 1e-6, washout: int = 0) -> RankResult:
    """Count of significant singular values of the post-washout feature matrix.

    `raw` uses the matrix as recorded; `centered` subtracts column means
    first (a constant trajectory has raw rank 1 but centered rank 0).

    A singular value counts when it exceeds `rel_threshold` times the
    largest one, so a relative cut well above round-off counts weakly
    excited directions as absent. At the default 1e-6, 4 of the 20 generic
    axes of acceptance criterion 4 read rank 7 or 11, although their exact
    rank is 12. For the exact rank, pass `max(rows, cols) * eps`, the
    `numpy.linalg.matrix_rank` tolerance.
    """
    x = np.asarray(features, dtype=float)[washout:]
    if len(x) == 0:
        raise ValueError("no rows after washout")
    return RankResult(
        raw=_svd_basis(x, rel_threshold).shape[1],
        centered=_svd_basis(x - x.mean(axis=0), rel_threshold).shape[1],
    )
