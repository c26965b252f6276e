"""Task-level evaluation: NARMA targets, linear readout training, RNMSE,
linear memory capacity, polynomial information processing capacity with
shuffle-surrogate thresholding, and trajectory rank.

Capacities follow Dambre et al. 2012 (Sci. Rep. 2, 514),
    C(v) = ||Q^T v_c||^2 / ||v_c||^2,
with v_c the mean-centered target and Q the left singular vectors of the
mean-centered post-washout features with s_i > 1e-5 s_0 (a 1e-10 eigenvalue
cut on their covariance).  This equals the squared-correlation form
cov(v, x)^T pinv(cov(x, x)) cov(v, x) / Var(v); a delay-line reservoir of
dimension d scores exactly 1 for each delay it stores.  IPC targets are
products of normalized Legendre polynomials of delayed inputs, an
orthonormal basis under Uniform[-1, 1] inputs, so inputs must lie in
[-1, 1].  `mc_report` and `ipc_report` check their inputs in one place: the
inputs must align with the feature rows, one per row, the inputs and the
post-washout feature rows must be finite, and every delay a capacity asks for
must lie within the washout.  Both build their targets
term-major in blocks of CAPACITY_BLOCK_BYTES, never fewer than Q has columns,
one GEMM per block; a shuffle surrogate permutes the rows of Q instead of the
targets (Q^T v[perm] = Q_perm^T v, Q_perm[perm] = Q), one scatter per surrogate.
The first surrogate is evaluated in the value pass, on the raw targets it has
just built.  Trajectory rank counts singular values alone.  A feature row that
is not finite raises a ValueError naming it, in the readout fit, the
capacities and the rank alike, before an SVD could fail to converge on it; so
does a target row that the readout fit or RNMSE reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import is_int

NARMA_DIVERGENCE_LIMIT = 1e3
MAX_LINEAR_DELAY_THRESHOLD = 1e-4
CAPACITY_REL_CUT = 1e-5
CAPACITY_BLOCK_BYTES = 1 << 18  # targets stacked per GEMM, which bounds the capacity code's extra memory


# ---------------------------------------------------------------------------
# NARMA

def narma_generate(inputs, order: int) -> np.ndarray:
    """NARMA-k target sequence with zero initial history.

    y_t = 0.3 y_{t-1} + 0.05 y_{t-1} sum_{i=t-k}^{t-1} y_i
        + 1.5 u_{t-1} u_{t-k} + 0.1
    with y and u treated as zero at negative indices; a stack of sequences,
    shape (..., T), gives their targets, each bit for bit as alone.  Raises on
    the known NARMA blow-up (|y| beyond 1e3), naming the first step of any.

    The loop runs time-major, so that each step's operands are contiguous
    rows, on bare ufunc calls: the products and sums of the time-last
    recursion ``0.3 * last + 0.05 * last * window.sum(axis=-1) + drive + 0.1``
    in its order, bit for bit.  That window sum adds fewer than 8 terms in
    order, as a reduce over the time axis does; from 8 terms on it is numpy's
    pairwise sum, taken on a copy of the window with time last.
    """
    if order < 2:
        raise ValueError("NARMA order must be at least 2")
    u = np.asarray(inputs, dtype=float)
    if u.shape[-1] <= order:
        raise ValueError("input sequence must be longer than the order")
    if not ((u >= 0.0) & (u <= 0.5)).all():  # nan fails both comparisons
        raise ValueError("NARMA inputs must lie in [0, 0.5]")
    drive = np.zeros((u.shape[-1],) + u.shape[:-1])
    drive[order:] = np.moveaxis(1.5 * (u[..., order - 1 : -1] * u[..., : -order]), -1, 0)
    y = np.zeros(drive.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # past a blow-up, which raises below
        for t in range(1, len(y)):
            last, window = y[t - 1], y[max(0, t - order):t]
            if len(window) < 8:
                total = np.add.reduce(window, axis=0)
            else:
                total = np.add.reduce(np.moveaxis(window, 0, -1).copy(), axis=-1)
            np.add(np.add(np.add(np.multiply(0.3, last), np.multiply(np.multiply(0.05, last), total)), drive[t]),
                   0.1, out=y[t, ...])  # a view, 0-d for one sequence, where y[t] would be a scalar
    y = np.ascontiguousarray(np.moveaxis(y, 0, -1))
    diverged = np.nonzero(np.abs(y) > NARMA_DIVERGENCE_LIMIT)[-1]
    if len(diverged):
        raise ValueError(f"NARMA{order} diverged at step {diverged.min()}")
    return y


# ---------------------------------------------------------------------------
# linear readout

@dataclass(frozen=True)
class SplitSpec:
    """Washout / train / test partition: the washout is a fraction of the
    sequence, and training takes 0.8 of what follows it."""

    washout_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.washout_fraction < 1.0:
            raise ValueError("washout_fraction must lie in (0, 1)")

    def boundaries(self, length: int) -> tuple[int, int]:
        """(train_start, test_start) indices."""
        washout_end = int(length * self.washout_fraction)
        remainder = length - washout_end
        train_end = washout_end + int(remainder * 0.8)
        if washout_end == 0 or train_end <= washout_end or train_end >= length:
            raise ValueError(f"split produces an empty segment for length {length}")
        return washout_end, train_end


def _check_rows(x: np.ndarray, offset: int, kind: str = "feature") -> None:
    """Raise ValueError naming the first `kind` row of x that is not finite, counted from `offset`, before
    an SVD of it fails to converge or a nan passes for a score.  Column sums of finite rows are finite
    unless they overflow, so only then are the rows searched."""
    rows = x[:, None] if x.ndim == 1 else x
    if not np.isfinite(rows.sum(axis=0)).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=-1))
        if len(bad):
            raise ValueError(f"{kind} row {offset + bad[0]} is not finite")


@dataclass
class ReadoutFit:
    weights: np.ndarray
    predictions: np.ndarray  # on the test segment
    test_target: np.ndarray
    degenerate: bool  # rank-deficient design solved by minimum-norm pseudo-inverse


def train_linear_readout(features, target, split: SplitSpec) -> ReadoutFit:
    """Least-squares readout on the train segment, evaluated on the test segment.

    Ordinary least squares via the pseudo-inverse: the minimum-norm solution
    on degenerate designs, flagged on the result.  The constant all-identity
    readout column plays the role of the intercept.  `features` has one row
    per target row, or leaves out the washout rows before the train start,
    which the fit never reads.  A feature row it reads that is not finite
    raises, named by its index in `features`, as does a target row from the
    train start on, named by its index in `target`.

    One thin SVD of the training block gives both.  The weights are
    ``np.linalg.pinv(x_train) @ y_train`` by pinv's own arithmetic, bit for
    bit: singular values up to numpy's default cut, 1e-15 times the largest,
    are dropped.  The flag is ``np.linalg.matrix_rank(x_train) < columns``,
    from the same singular values at matrix_rank's cut, max(rows, columns)
    times eps times the largest.  The weights keep numpy's cut because moving
    it moves the pole narma2 cells of the benchmark's reference fields.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    train_start, test_start = split.boundaries(len(y))
    skipped = len(y) - len(x)
    if skipped not in (0, train_start):
        raise ValueError(f"feature rows {len(x)} match neither target length {len(y)} "
                         f"nor its {len(y) - train_start} rows after the washout")
    _check_rows(x[train_start - skipped:], train_start - skipped)
    _check_rows(y[train_start:], train_start, "target")
    x_train, y_train = x[train_start - skipped:test_start - skipped], y[train_start:test_start]

    u, s, vt = np.linalg.svd(x_train.conj(), full_matrices=False)
    largest = s.max(initial=0.0)
    degenerate = np.count_nonzero(s > largest * (max(x_train.shape) * np.finfo(float).eps)) < x.shape[1]
    large = s > 1e-15 * largest
    np.divide(1, s, where=large, out=s)
    s[~large] = 0
    weights = vt.T @ (s[:, None] * u.T) @ y_train
    return ReadoutFit(
        weights=weights,
        predictions=x[test_start - skipped:] @ weights,
        test_target=y[test_start:],
        degenerate=degenerate,
    )


def rnmse(target, prediction) -> float:
    """Root mean squared error normalized by the population variance of the target.  A target or
    prediction row that is not finite raises, named by its kind and index."""
    y = np.asarray(target, dtype=float)
    p = np.asarray(prediction, dtype=float)
    if len(y) == 0 or len(y) != len(p):
        raise ValueError("target and prediction must have equal nonzero lengths")
    _check_rows(y, 0, "target")
    _check_rows(p, 0, "prediction")
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


def _capacity_basis(inputs, features, washout: int, max_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """The float inputs and an orthonormal basis Q of the mean-centered
    post-washout features, after checking that the inputs and those feature
    rows are finite, that the inputs align with the feature rows, and that
    the washout holds every delay's history."""
    inputs = np.asarray(inputs, dtype=float)
    x = np.asarray(features, dtype=float)
    if len(inputs) != len(x):
        raise ValueError(f"{len(inputs)} inputs do not match {len(x)} feature rows")
    bad = np.flatnonzero(~np.isfinite(inputs))
    if len(bad):
        raise ValueError(f"input {inputs[bad[0]]} at index {bad[0]} is not finite")
    if washout < 0 or washout >= len(x):
        raise ValueError(f"washout {washout} leaves no data in {len(x)} rows")
    if washout < max_delay:
        raise ValueError("washout must cover the largest delay")
    x = x[washout:]
    _check_rows(x, washout)
    return inputs, _svd_basis(x - x.mean(axis=0), CAPACITY_REL_CUT)


def _capacities(q: np.ndarray, table: dict, terms: list, washout: int, perms) -> tuple[np.ndarray, ...]:
    """Capacities of the targets of `terms`, zeroed where a shuffle surrogate
    (a row order from the iterable `perms`, taken only while some target is
    unreached) reaches them, and the mask of zeroed ones.  Centers `q` in place.

    The target of a term, a tuple of (delay k, degree d) factors, is at row t
    the product of table[d][washout + t - k].  A pass builds its targets,
    term-major, in blocks of CAPACITY_BLOCK_BYTES but never fewer than Q has
    columns, one GEMM per block.  A surrogate takes the raw targets no earlier
    one has reached against Q_perm, where Q_perm[perm] = Q - mean(Q):
    Q_perm^T v = Q^T (v[perm] - mean v).  The first surrogate reaches every
    target, so the value pass projects each raw block for it before centering
    the block; Q is then centered once, and each later surrogate is one scatter.
    """
    n, r = q.shape
    cols = max(1, r, CAPACITY_BLOCK_BYTES // (8 * n))
    work = np.empty(cols * n + n * r)  # block and permuted basis: as two allocations they raised peak RSS
    buffer, shuffled = work[: cols * n].reshape(cols, n), work[cols * n :].reshape(n, r)

    def blocks(rows):
        """(slice of `rows`, the targets of those terms) a block at a time."""
        for start in range(0, len(rows), cols):
            chunk = rows[start : start + cols]
            block = buffer[: len(chunk)]
            for target, row in zip(block, chunk):
                (delay, part), *rest = terms[row]
                source = table[part][washout - delay : washout - delay + n]
                if not rest:
                    target[:] = source
                for delay, part in rest:
                    np.multiply(source, table[part][washout - delay : washout - delay + n], out=target)
                    source = target
            yield slice(start, start + len(block)), block

    def ratio(proj, norm2):
        """||Q^T v_c||^2 / ||v_c||^2, and 0 for a constant target (norm2 0)."""
        return np.divide(proj, norm2, out=np.zeros_like(proj), where=norm2 != 0.0)

    alive, perms, means = np.arange(len(terms)), iter(perms), q.mean(axis=0)
    perm = next(perms, None)
    if perm is not None:
        shuffled[perm] = q
        shuffled -= means
    proj, norm2, reached = np.empty(len(terms)), np.empty(len(terms)), np.empty(len(terms))
    for part, block in blocks(alive):
        if perm is not None:
            reached[part] = np.sum((block @ shuffled) ** 2, axis=-1)
        block -= block.mean(axis=1, keepdims=True)
        norm2[part] = np.einsum("ij,ij->i", block, block)
        proj[part] = np.sum((block @ q) ** 2, axis=-1)
    values = ratio(proj, norm2)
    q -= means
    while perm is not None:  # `reached` holds this surrogate's projections of the alive targets
        alive = alive[ratio(reached, norm2[alive]) < values[alive]]
        perm = next(perms, None) if len(alive) else None
        if perm is not None:
            shuffled[perm] = q
            reached = np.empty(len(alive))
            for part, block in blocks(alive):
                reached[part] = np.sum((block @ shuffled) ** 2, axis=-1)
    zeroed = np.ones(len(terms), dtype=bool)
    zeroed[alive] = False  # every target when there are no surrogates
    values[zeroed] = 0.0
    return values, zeroed


@dataclass
class McResult:
    memory_functions: np.ndarray  # index = delay, starting at 0
    total: float
    max_linear_delay: int
    even_sum: float
    odd_sum: float
    tail_sum_2plus: float


def mc_report(inputs, features, max_delay: int, washout: int) -> McResult:
    """Memory functions for delays 0..max_delay plus the paper's aggregates.

    memory_functions[k] is the capacity of reconstructing u_{t-k} from x_t.
    Inputs and feature rows are aligned in time and must be equally many,
    and the washout must cover max_delay.
    """
    if max_delay < 1:
        raise ValueError("max_delay must be at least 1")
    inputs, q = _capacity_basis(inputs, features, washout, max_delay)
    caps, _ = _capacities(q, {1: inputs}, [((k, 1),) for k in range(max_delay + 1)], washout, perms=())
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
    """Degree/delay budget, one (degree, max_delay) pair for each degree it covers."""

    budget: tuple[tuple[int, int], ...] = ((1, 300), (2, 100), (3, 30), (4, 10), (5, 10))
    surrogate_count: int = 100

    def __post_init__(self):
        if not self.budget:
            raise ValueError("budget must contain at least one (degree, max_delay) pair")
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in self.budget):
            raise ValueError(f"budget entries must be (degree, max_delay) pairs, got {self.budget}")
        if not all(is_int(x) for pair in self.budget for x in pair):
            raise ValueError(f"budget degrees and delays must be integers, got {self.budget}")
        if any(d < 1 or m < 0 for d, m in self.budget):
            raise ValueError("degrees must be >= 1 and delays >= 0")
        if len({d for d, _ in self.budget}) != len(self.budget):  # its components would count twice
            raise ValueError(f"budget repeats a degree: {self.budget}")
        if not is_int(self.surrogate_count):
            raise ValueError(f"surrogate_count must be an integer, got {self.surrogate_count!r}")
        if self.surrogate_count < 0:
            raise ValueError("surrogate_count must be nonnegative")


def normalized_legendre(degree: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomial on [-1, 1] scaled to unit second moment under Uniform."""
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    return np.polynomial.legendre.legval(x, coeffs) * np.sqrt(2 * degree + 1)


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

    The target of a product of (delay k, degree d) terms is, at post-washout
    row t, the product of P_d(u_{washout + t - k}) over its terms, with P_d
    the normalized Legendre polynomial.  That basis is orthonormal only under
    Uniform[-1, 1] inputs, so inputs outside [-1, 1] (nan included) raise,
    and so does a budget delay beyond the washout, whose history is missing.
    Inputs and feature rows are aligned in time and must be equally many.

    A component is zeroed when its time-shuffled target reaches its
    capacity under some surrogate.  The surrogates are row permutations
    shared by all components, drawn from `rng` in order as the passes need
    them: at most surrogate_count, never held as a (surrogate_count, n)
    table.  surrogate_count = 0 disables thresholding.
    """
    inputs = np.asarray(inputs, dtype=float)
    outside = ~(np.abs(inputs) <= 1.0)
    if outside.any():
        raise ValueError(f"IPC input {inputs[outside][0]} outside [-1, 1]")
    inputs, q = _capacity_basis(inputs, features, washout, max(m for _, m in cfg.budget))
    perms = (rng.permutation(len(q)) for _ in range(cfg.surrogate_count))
    table = {d: normalized_legendre(d, inputs) for d in range(1, max(d for d, _ in cfg.budget) + 1)}

    terms = [(d, t) for d, max_delay in cfg.budget for t in enumerate_degree_terms(d, max_delay)]
    values, zeroed = _capacities(q, table, [t for _, t in terms], washout, perms)

    components = []
    degree_totals: dict[int, float] = {}
    for (degree, t), value in zip(terms, values.tolist()):
        components.append((t, value))
        degree_totals[degree] = degree_totals.get(degree, 0.0) + value
    return IpcResult(
        components=components,
        degree_totals=degree_totals,
        total=float(sum(degree_totals.values())),
        threshold_count=int(zeroed.sum()),
    )


# ---------------------------------------------------------------------------
# trajectory rank

def trajectory_rank(features, rel_threshold: float = 1e-6, washout: int = 0) -> int:
    """Count of significant singular values of the post-washout feature matrix, as recorded: a
    constant trajectory has rank 1.  For the rank about the column means, pass `x - x.mean(axis=0)`.

    A singular value counts when it exceeds `rel_threshold` times the
    largest one, so a relative cut well above round-off counts weakly
    excited directions as absent. At the default 1e-6, 4 of the 20 generic
    axes of acceptance criterion 4 read rank 7 or 11, although their exact
    rank is 12. For the exact rank, pass `max(rows, cols) * eps`, the
    `numpy.linalg.matrix_rank` tolerance.  A threshold outside [0, 1)
    raises: below 0 every column counts, and at 1 or above none does.  So
    does a negative washout, which would keep only the last rows, and a
    feature row after the washout that is not finite.
    """
    if not 0.0 <= rel_threshold < 1.0:
        raise ValueError(f"rel_threshold {rel_threshold} outside [0, 1)")
    if washout < 0:
        raise ValueError(f"washout {washout} must be nonnegative")
    x = np.asarray(features, dtype=float)[washout:]
    if len(x) == 0:
        raise ValueError("no rows after washout")
    _check_rows(x, washout)
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.count_nonzero(s > rel_threshold * s[0]))
