import numpy as np
import pytest

from qresp import benchmarks as bm
from qresp import reservoir as rv


def delay_line_features(inputs, taps):
    """Classical delay line: column k holds the input delayed by k+1 steps."""
    cols = [np.concatenate([np.zeros(k + 1), inputs[: -(k + 1)]]) for k in range(taps)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# NARMA


def test_narma2_zero_input_fixed_point():
    # with u = 0: y' = 0.3 y + 0.05 y (y + y_prev) + 0.1; the stable fixed point
    # solves 0.1 y^2 - 0.7 y + 0.1 = 0
    y = bm.narma_generate(np.zeros(4000), 2)
    expected = (0.7 - np.sqrt(0.49 - 0.04)) / 0.2
    assert abs(y[-1] - expected) < 1e-10


def test_narma_recursion_by_hand():
    u = np.array([0.1, 0.2, 0.3, 0.4, 0.05])
    y = bm.narma_generate(u, 2)
    manual = np.zeros(5)
    for t in range(1, 5):
        s = manual[max(t - 2, 0) : t].sum()
        drive = u[t - 1] * u[t - 2] if t >= 2 else 0.0
        manual[t] = 0.3 * manual[t - 1] + 0.05 * manual[t - 1] * s + 1.5 * drive + 0.1
    assert np.allclose(y, manual)


def test_narma_input_domain_validation():
    with pytest.raises(ValueError):
        bm.narma_generate(np.array([0.1, 0.9, 0.1, 0.1]), 2)
    with pytest.raises(ValueError):
        bm.narma_generate(np.full(10, 0.25), 1)
    with pytest.raises(ValueError):
        bm.narma_generate(np.full(3, 0.25), 5)
    for bad in (np.nan, np.inf, -np.inf):  # nan passes a min/max range test
        u = np.full((2, 3, 50), 0.25)
        u[1, 2, 10] = bad
        with pytest.raises(ValueError, match=r"inputs must lie in \[0, 0.5\]"):
            bm.narma_generate(u, 2)


def test_narma_divergence_reports_step():
    # order-10 NARMA with adversarially large admissible inputs blows up
    u = np.full(2000, 0.5)
    with pytest.raises(ValueError, match="step"):
        bm.narma_generate(u, 10)


@pytest.mark.parametrize("order", [2, 7, 8, 10, 17])
def test_narma_stack_equals_its_rows(order):
    # a scalar loop over one sequence at a time, the recursion as first written; orders from 8 on
    # take numpy's pairwise window sum, and from 16 on its blocks of 8
    def one(u):
        y = np.zeros(len(u))
        for t in range(1, len(u)):
            recent = y[max(0, t - order) : t].sum()
            drive = u[t - 1] * u[t - order] if t >= order else 0.0
            y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * recent + 1.5 * drive + 0.1
        return y

    high = 0.5 if order <= 10 else 0.3  # NARMA17 blows up within 300 steps of inputs up to 0.5
    u = np.random.default_rng(order).uniform(0.0, high, (2, 4, 300))
    stacked = bm.narma_generate(u, order)
    assert stacked.shape == u.shape
    for row, target in zip(u.reshape(8, -1), stacked.reshape(8, -1)):
        assert np.array_equal(bm.narma_generate(row, order), target)  # bit for bit, not to a tolerance
        assert np.array_equal(one(row), target)


def test_narma_stack_names_first_diverging_step():
    u = np.full((3, 2000), 0.5)
    u[0] = 0.1  # stays bounded
    with pytest.raises(ValueError, match="step") as alone:
        bm.narma_generate(u[2], 10)
    u[1, :40] = 0.0  # the same blow-up, later
    with pytest.raises(ValueError) as stacked:
        bm.narma_generate(u, 10)
    assert str(stacked.value) == str(alone.value) == "NARMA10 diverged at step 32"


# ---------------------------------------------------------------------------
# readout and RNMSE


def test_split_boundaries():
    split = bm.SplitSpec(washout_fraction=0.5)
    train_start, test_start = split.boundaries(1000)
    assert train_start == 500
    assert test_start == 900
    for fraction in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match=r"washout_fraction must lie in \(0, 1\)"):
            bm.SplitSpec(washout_fraction=fraction)
    for length in (1, 2):  # no washout row, or no training row
        with pytest.raises(ValueError, match=f"split produces an empty segment for length {length}"):
            split.boundaries(length)


def test_linear_readout_recovers_exact_map():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((500, 4))
    w_true = np.array([0.5, -1.0, 2.0, 0.25])
    target = feats @ w_true
    fit = bm.train_linear_readout(feats, target, bm.SplitSpec())
    assert np.allclose(fit.weights, w_true, atol=1e-10)
    assert bm.rnmse(fit.test_target, fit.predictions) < 1e-10
    assert not fit.degenerate


def test_linear_readout_reads_features_from_the_train_start():
    # features without the washout rows give the fit of the full features, bit for bit
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(301, 4))
    target = feats @ np.array([0.5, -1.0, 2.0, 0.25]) + 0.01 * rng.normal(size=301)
    split = bm.SplitSpec()
    train_start, _ = split.boundaries(len(target))
    full = bm.train_linear_readout(feats, target, split)
    kept = bm.train_linear_readout(feats[train_start:].copy(), target, split)
    for name in ("weights", "predictions", "test_target"):
        assert np.array_equal(getattr(kept, name), getattr(full, name))
    with pytest.raises(ValueError, match="feature rows 300 match neither target length 301 nor its 151 rows"):
        bm.train_linear_readout(feats[1:], target, split)


def test_linear_readout_flags_degenerate_features():
    feats = np.ones((200, 3))  # rank 1
    target = np.linspace(0, 1, 200)
    fit = bm.train_linear_readout(feats, target, bm.SplitSpec())
    assert fit.degenerate


def _polar0_narma_design(rng):
    model = rv.NsReservoir(rv.NsModelConfig(axis=rv.AxisConfig(azimuth=0.7, polar=0.0)))
    u = rng.uniform(0.0, 0.5, 1200)
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    return rv.run_reservoir(model, u, rho0), bm.narma_generate(u, 2)


@pytest.mark.parametrize(
    "design", ["full-rank", "constant", "duplicate", "near-duplicate", "small-column", "polar-0-narma"])
def test_linear_readout_is_pinv_and_matrix_rank_bit_for_bit(design):
    # one SVD gives pinv's weights and matrix_rank's flag
    rng = np.random.default_rng(31)
    feats = rng.standard_normal((400, 6))
    if design == "constant":
        feats[:, 2] = 1.0
    elif design == "duplicate":
        feats[:, 4] = feats[:, 1]
    elif design == "near-duplicate":  # its last singular value lies between the two cuts: pinv keeps it
        feats[:, 4] = feats[:, 1] + 1e-14 * rng.standard_normal(len(feats))
    elif design == "small-column":
        feats[:, 3] *= 1e-7
    target = feats @ rng.standard_normal(6) + 0.1 * rng.standard_normal(len(feats))
    if design == "polar-0-narma":
        feats, target = _polar0_narma_design(rng)
    split = bm.SplitSpec()
    train_start, test_start = split.boundaries(len(target))
    x_train, y_train = feats[train_start:test_start], target[train_start:test_start]
    fit = bm.train_linear_readout(feats, target, split)
    assert np.array_equal(fit.weights, np.linalg.pinv(x_train) @ y_train)
    assert fit.degenerate == (np.linalg.matrix_rank(x_train) < feats.shape[1])
    assert fit.degenerate == (design in ("duplicate", "near-duplicate", "polar-0-narma"))


def test_rnmse_oracle():
    target = np.array([1.0, 2.0, 3.0, 4.0])
    pred = target + 0.5
    expected = np.sqrt(0.25 / target.var())
    assert abs(bm.rnmse(target, pred) - expected) < 1e-14


def test_rnmse_rejects_constant_target():
    with pytest.raises(ValueError):
        bm.rnmse(np.ones(10), np.zeros(10))
    for target, prediction in ((np.arange(5.0), np.zeros(4)), (np.zeros(0), np.zeros(0))):
        with pytest.raises(ValueError, match="target and prediction must have equal nonzero lengths"):
            bm.rnmse(target, prediction)


# ---------------------------------------------------------------------------
# memory capacity


def test_memory_function_perfect_recall():
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, 20000)
    feats = delay_line_features(u, 3)
    caps = bm.mc_report(u, feats, max_delay=4, washout=50).memory_functions
    assert abs(caps[1] - 1.0) < 1e-10
    assert abs(caps[3] - 1.0) < 1e-10
    assert caps[4] < 1e-3


def test_memory_function_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, 500)
    feats = delay_line_features(u, 2)
    for c in bm.mc_report(u, feats, max_delay=3, washout=20).memory_functions:
        assert -1e-12 <= c <= 1 + 1e-6


def test_mc_report_aggregates():
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, 100000)
    feats = delay_line_features(u, 4)
    rep = bm.mc_report(u, feats, max_delay=8, washout=100)
    caps = rep.memory_functions
    assert caps.shape == (9,)
    assert abs(rep.total - caps.sum()) < 1e-12
    assert abs(rep.odd_sum - caps[1::2].sum()) < 1e-12
    assert abs(rep.even_sum - caps[0::2].sum()) < 1e-12
    assert abs(rep.tail_sum_2plus - caps[2:].sum()) < 1e-12
    assert rep.max_linear_delay == 4
    with pytest.raises(ValueError, match="washout"):  # delays 6-10 would lack their history
        bm.mc_report(u, feats, max_delay=10, washout=5)
    for bad in (np.nan, np.inf, -np.inf):  # would read a nan total
        v = u.copy()
        v[[70, 300]] = bad
        with pytest.raises(ValueError, match=f"input {bad} at index 70 is not finite"):
            bm.mc_report(v, feats, max_delay=8, washout=100)
    with pytest.raises(ValueError, match="max_delay must be at least 1"):
        bm.mc_report(u, feats, max_delay=0, washout=100)
    for washout in (len(u), len(u) + 5):
        with pytest.raises(ValueError, match=f"washout {washout} leaves no data in {len(u)} rows"):
            bm.mc_report(u, feats, max_delay=8, washout=washout)


# ---------------------------------------------------------------------------
# IPC


def test_normalized_legendre_orthonormality():
    # integral over U[-1, 1] of P_i P_j with the sqrt(2d+1) normalization is delta_ij
    x = np.linspace(-1, 1, 200001)
    for i in range(4):
        for j in range(4):
            prod = bm.normalized_legendre(i, x) * bm.normalized_legendre(j, x)
            integral = np.trapezoid(prod, x) / 2
            assert abs(integral - (1.0 if i == j else 0.0)) < 1e-6, (i, j)


def test_enumerate_degree_terms_counts():
    # delays run over 0..max_delay and must be distinct within a product
    terms2 = bm.enumerate_degree_terms(2, 4)
    # degree 2 = (2) on one of 5 delays, or (1,1) on a pair of distinct delays
    assert len(terms2) == 5 + 10
    for term in terms2:
        assert sum(d for _, d in term) == 2
        delays = [k for k, _ in term]
        assert len(set(delays)) == len(delays)


def test_degree1_ipc_equals_mc():
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, 30000)
    feats = delay_line_features(u, 3)
    rep = bm.mc_report(u, feats, max_delay=6, washout=50)
    cfg = bm.IpcConfig(budget=((1, 6),), surrogate_count=0)
    ipc = bm.ipc_report(u, feats, cfg, 50, np.random.default_rng(6))
    assert abs(ipc.degree_totals[1] - rep.total) < 1e-6


def test_ipc_surrogates_suppress_noise():
    rng = np.random.default_rng(7)
    u = rng.uniform(-1, 1, 20000)
    noise = rng.standard_normal((20000, 3))  # memoryless features
    cfg = bm.IpcConfig(budget=((1, 10), (2, 5)), surrogate_count=50)
    ipc = bm.ipc_report(u, noise, cfg, 50, np.random.default_rng(8))
    raw = bm.ipc_report(
        u, noise, bm.IpcConfig(budget=((1, 10), (2, 5)), surrogate_count=0), 50,
        np.random.default_rng(8),
    )
    assert ipc.total < 0.005
    assert ipc.total < raw.total
    assert ipc.threshold_count > 0


def covariance_capacity(features, target, washout):
    """cov(v, x)^T pinv(cov(x, x)) cov(v, x) / Var(v) on the post-washout rows,
    with pinv dropping covariance eigenvalues below 1e-10 of the largest."""
    x = features[washout:]
    xc = x - x.mean(axis=0)
    vc = target - target.mean()
    a = xc.T @ vc / len(x)
    return a @ np.linalg.pinv(xc.T @ xc / len(x), rcond=1e-10) @ a / np.mean(vc**2)


def test_capacities_match_covariance_pinv_form():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, 3000)
    delays = delay_line_features(u, 3)
    feats = np.column_stack([
        delays,
        np.tanh(delays @ rng.standard_normal(3)) ** 2,  # a nonlinear feature
        np.ones(len(u)),  # constant column
        delays[:, 1],  # duplicated column
        1e-7 * rng.standard_normal(len(u)),  # a direction below both cuts
    ])
    washout = 40
    n = len(u) - washout
    delayed = [u[washout - k : washout - k + n] for k in range(7)]
    expected = [covariance_capacity(feats, v, washout) for v in delayed]
    rep = bm.mc_report(u, feats, max_delay=6, washout=washout)
    assert np.max(np.abs(rep.memory_functions - expected)) < 1e-12

    budget = ((1, 4), (2, 3), (3, 2))
    for surrogates in (0, 15):
        ipc = bm.ipc_report(
            u, feats, bm.IpcConfig(budget=budget, surrogate_count=surrogates), washout,
            np.random.default_rng(12),
        )
        draw = np.random.default_rng(12)
        perms = [draw.permutation(n) for _ in range(surrogates)]
        terms = [t for d, m in budget for t in bm.enumerate_degree_terms(d, m)]
        assert [t for t, _ in ipc.components] == terms
        zeroed = 0
        for t, value in ipc.components:
            # the zero-padded shift-and-product target, post-washout
            v = np.ones(len(u))
            for delay, degree in t:
                shifted = np.zeros(len(u))
                shifted[delay:] = u[: len(u) - delay]
                v *= bm.normalized_legendre(degree, shifted)
            v = v[washout:]
            c = covariance_capacity(feats, v, washout)
            threshold = max((covariance_capacity(feats, v[p], washout) for p in perms), default=-1.0)
            if c <= threshold:
                c, zeroed = 0.0, zeroed + 1
            assert abs(value - c) < 1e-12, t
        assert ipc.threshold_count == zeroed
        assert (zeroed > 0) == (surrogates > 0)


def per_target_ipc(inputs, features, cfg, washout, rng):
    """Reference for ipc_report: one target at a time, zeroed when the largest of
    all its surrogates, taken in one GEMM, reaches it.  Returns the thresholded
    components and the zeroed count."""
    x = np.asarray(features, dtype=float)[washout:]
    q = bm._svd_basis(x - x.mean(axis=0), bm.CAPACITY_REL_CUT)
    n = len(q)
    perms = np.empty((cfg.surrogate_count, n), dtype=np.intp)
    for row in perms:
        row[:] = rng.permutation(n)

    def capacity(target, perms=None):
        vc = target - target.mean()
        norm2 = vc @ vc
        rows = vc if perms is None else vc[perms]
        if norm2 == 0.0:
            return np.zeros(rows.shape[:-1])
        return np.sum((rows @ q) ** 2, axis=-1) / norm2

    components, zeroed = [], 0
    for degree, max_delay in cfg.budget:
        for terms in bm.enumerate_degree_terms(degree, max_delay):
            target = np.ones(n)
            for delay, part in terms:
                target *= bm.normalized_legendre(part, inputs)[washout - delay : washout - delay + n]
            value = float(capacity(target))
            if len(perms) and value <= capacity(target, perms).max():
                value, zeroed = 0.0, zeroed + 1
            components.append(value)
    return np.array(components), zeroed


def subset_case(surrogates):
    # a damping/entangling trajectory at n = 4000 with the sweep-default budget
    model = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.5, cnot_exponent=0.5))
    u = np.random.default_rng(3).uniform(-1, 1, 5000)
    feats = rv.run_reservoir(model, u, np.eye(4, dtype=complex) / 4)
    return u, feats, bm.IpcConfig(budget=((1, 50), (2, 20), (3, 10)), surrogate_count=surrogates), 1000


def delay_line_case():
    # n so large that one target fills a block
    washout = 10
    u = np.random.default_rng(4).uniform(-1, 1, bm.CAPACITY_BLOCK_BYTES // 8 + 1 + washout)
    assert bm.CAPACITY_BLOCK_BYTES // (8 * (len(u) - washout)) == 0
    return u, delay_line_features(u, 3), bm.IpcConfig(budget=((1, 6), (2, 3)), surrogate_count=5), washout


def constant_target_case():
    # inputs 0 after the washout: the delay-0 target is P1(0) = 0 at every row, the others are not constant
    washout = 20
    rng = np.random.default_rng(6)
    u = np.concatenate([rng.uniform(-1, 1, washout), np.zeros(600)])
    return u, rng.standard_normal((len(u), 4)), bm.IpcConfig(budget=((1, 8),), surrogate_count=10), washout


def first_surrogate_case():
    # memoryless features, on a seed where the first surrogate reaches all 3 components
    washout = 5
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, 300)
    return u, rng.standard_normal((len(u), 3)), bm.IpcConfig(budget=((1, 2),), surrogate_count=6), washout


def permutations_drawn(rng, seed, n, most):
    """How many permutations of n a generator seeded with `seed` has drawn to reach rng's state."""
    fresh = np.random.default_rng(seed)
    for drawn in range(most + 1):
        if fresh.bit_generator.state == rng.bit_generator.state:
            return drawn
        fresh.permutation(n)
    raise AssertionError("rng drew more than the surrogate count")


@pytest.mark.parametrize(
    "case",
    [
        lambda: subset_case(20),
        lambda: subset_case(0),
        lambda: subset_case(7),
        lambda: subset_case(1),  # its one surrogate is evaluated inside the value pass
        delay_line_case,
        constant_target_case,
        first_surrogate_case,
    ],
    ids=[
        "subset-n4000", "subset-no-surrogates", "subset-7-surrogates", "subset-1-surrogate",
        "delay-line-one-target-per-block", "constant-target", "all-reached-by-first-surrogate",
    ],
)
def test_ipc_report_matches_per_target_loop(case):
    u, feats, cfg, washout = case()
    expected, zeroed = per_target_ipc(u, feats, cfg, washout, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    ipc = bm.ipc_report(u, feats, cfg, washout, rng)
    values = np.array([v for _, v in ipc.components])
    assert np.array_equal(values == 0.0, expected == 0.0)  # the same components zeroed
    assert ipc.threshold_count == zeroed
    assert np.abs(values - expected).max() <= 1e-12
    assert (zeroed > 0) == (cfg.surrogate_count > 0)
    drawn = permutations_drawn(rng, 9, len(u) - washout, cfg.surrogate_count)
    if zeroed < len(values):  # a kept component meets every surrogate
        assert drawn == cfg.surrogate_count


def test_ipc_report_stops_drawing_once_every_component_is_reached():
    u, feats, cfg, washout = first_surrogate_case()
    rng = np.random.default_rng(9)
    ipc = bm.ipc_report(u, feats, cfg, washout, rng)
    assert ipc.threshold_count == len(ipc.components) == 3
    assert permutations_drawn(rng, 9, len(u) - washout, cfg.surrogate_count) == 1


def test_capacities_of_features_constant_after_washout():
    # the features vary in the washout only, so the basis Q has no columns
    rng = np.random.default_rng(13)
    u = rng.uniform(-1, 1, 300)
    feats = np.ones((len(u), 3))
    feats[:40] = rng.standard_normal((40, 3))
    budget = ((1, 5), (2, 3))
    components = sum(len(bm.enumerate_degree_terms(d, m)) for d, m in budget)
    ipc = bm.ipc_report(u, feats, bm.IpcConfig(budget=budget, surrogate_count=5), 40, np.random.default_rng(1))
    assert [v for _, v in ipc.components] == [0.0] * components
    assert ipc.threshold_count == components
    raw = bm.ipc_report(u, feats, bm.IpcConfig(budget=budget, surrogate_count=0), 40, np.random.default_rng(1))
    assert raw.threshold_count == 0 and raw.total == 0.0
    mc = bm.mc_report(u, feats, max_delay=5, washout=40)
    assert np.array_equal(mc.memory_functions, np.zeros(6)) and mc.total == 0.0


def test_ipc_report_refuses_delays_past_washout():
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, 400)
    feats = delay_line_features(u, 60)
    cfg = bm.IpcConfig(budget=((1, 50),), surrogate_count=0)
    with pytest.raises(ValueError, match="washout must cover the largest delay"):  # delays 21-50 lack history
        bm.ipc_report(u, feats, cfg, 20, np.random.default_rng(1))
    assert len(bm.ipc_report(u, feats, cfg, 50, np.random.default_rng(1)).components) == 51


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_ipc_report_refuses_inputs_outside_legendre_domain(bad):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((200, 3))
    u = rng.uniform(-1, 1, 200)
    u[120] = bad
    cfg = bm.IpcConfig(budget=((1, 5),), surrogate_count=0)
    with pytest.raises(ValueError, match=r"input .* outside \[-1, 1\]"):
        bm.ipc_report(u, feats, cfg, 10, np.random.default_rng(1))


@pytest.mark.parametrize(
    "report",
    [
        lambda u, feats: bm.mc_report(u, feats, max_delay=5, washout=10),
        lambda u, feats: bm.ipc_report(
            u, feats, bm.IpcConfig(budget=((1, 5),), surrogate_count=0), 10, np.random.default_rng(1)
        ),
    ],
    ids=["mc_report", "ipc_report"],
)
def test_ipc_report_refuses_misaligned_inputs(report):
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, 500)
    with pytest.raises(ValueError, match="500 inputs do not match 400 feature rows"):
        report(u, rng.standard_normal((400, 3)))


def test_ipc_config_validation():
    with pytest.raises(ValueError):
        bm.IpcConfig(budget=())
    with pytest.raises(ValueError):
        bm.IpcConfig(budget=((0, 5),))
    with pytest.raises(ValueError):
        bm.IpcConfig(budget=((1, 5),), surrogate_count=-1)
    for budget in (((1, 5), (1, 5)), ((1, 5), (2, 3), (1, 3))):  # would count degree 1 twice
        with pytest.raises(ValueError, match="budget repeats a degree"):
            bm.IpcConfig(budget=budget)
    for budget in (((1,),), ((1, 5, 2),), (1, 5), ((1, 5), 2)):  # not unpacked: refused naming budget
        with pytest.raises(ValueError, match=r"budget entries must be \(degree, max_delay\) pairs"):
            bm.IpcConfig(budget=budget)
    for budget in (((1.5, 2),), ((1.0, 2),), ((1, 2.0),), ((True, 2),), ((1, np.int64(2)),)):
        with pytest.raises(ValueError, match="budget degrees and delays must be integers"):
            bm.IpcConfig(budget=budget)
    for count in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="surrogate_count must be an integer"):
            bm.IpcConfig(surrogate_count=count)


# ---------------------------------------------------------------------------
# rank


def test_trajectory_rank_exact_low_rank():
    rng = np.random.default_rng(9)
    basis = rng.standard_normal((3, 8))
    coeffs = rng.standard_normal((100, 3))
    m = coeffs @ basis
    assert bm.trajectory_rank(m) == 3
    assert bm.trajectory_rank(m - m.mean(axis=0)) == 3


def test_trajectory_rank_centering_removes_constant():
    m = np.ones((50, 4))
    assert bm.trajectory_rank(m) == 1
    assert bm.trajectory_rank(m - m.mean(axis=0)) == 0


def test_trajectory_rank_washout_drops_transient():
    rows = np.zeros((100, 2))
    rows[:, 0] = 1.0
    rows[:10, 1] = np.linspace(1, 0, 10)  # transient confined to the washout
    assert bm.trajectory_rank(rows, washout=10) == 1
    assert bm.trajectory_rank(rows, washout=0) == 2
    with pytest.raises(ValueError, match="washout -95 must be nonnegative"):  # not the last 95 rows
        bm.trajectory_rank(rows, washout=-95)
    for washout in (100, 120):
        with pytest.raises(ValueError, match="no rows after washout"):
            bm.trajectory_rank(rows, washout=washout)


@pytest.mark.parametrize("threshold", [-1.0, 1.0, np.nan])
def test_trajectory_rank_refuses_threshold_outside_unit_interval(threshold):
    # at -1 every column would count, at 1 none would
    with pytest.raises(ValueError, match=r"rel_threshold .* outside \[0, 1\)"):
        bm.trajectory_rank(np.eye(4), rel_threshold=threshold)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda u, x: bm.mc_report(u, x, 5, 20),
    lambda u, x: bm.ipc_report(u, x, bm.IpcConfig(budget=((1, 5), (2, 3)), surrogate_count=2), 20,
                               np.random.default_rng(0)),
    lambda u, x: bm.trajectory_rank(x, washout=20),
    lambda u, x: bm.train_linear_readout(x, u, bm.SplitSpec()),
], ids=["mc_report", "ipc_report", "trajectory_rank", "train_linear_readout"])
def test_non_finite_feature_rows_are_refused_by_name(call, value):
    # one bad entry in a 300 x 4 design: without the check, the SVD does not converge
    rng = np.random.default_rng(71)
    u = rng.uniform(-1, 1, 300)
    x = rng.standard_normal((300, 4))
    x[160, 2] = x[200, 0] = value  # both read by every fit; the message names the first
    with pytest.raises(ValueError, match="^feature row 160 is not finite$"):
        call(u, x)


def test_non_finite_target_rows_are_refused_by_name():
    # a finite 300 x 4 design; the fit reads target rows 150-299 (150-269 to train, the rest to test)
    rng = np.random.default_rng(72)
    x = rng.standard_normal((300, 4))
    y = rng.standard_normal(300)
    y[200], y[290] = np.nan, np.inf
    with pytest.raises(ValueError, match="^target row 200 is not finite$"):
        bm.train_linear_readout(x, y, bm.SplitSpec())
    with pytest.raises(ValueError, match="^target row 200 is not finite$"):
        bm.rnmse(y, np.zeros(300))
    y[200] = 0.0
    with pytest.raises(ValueError, match="^target row 290 is not finite$"):
        bm.train_linear_readout(x, y, bm.SplitSpec())
    with pytest.raises(ValueError, match="^target row 20 is not finite$"):  # the test segment's own index
        bm.rnmse(y[270:], np.zeros(30))
    for bad in (np.nan, np.inf):  # a prediction row too, which would read a nan score
        with pytest.raises(ValueError, match="^prediction row 2 is not finite$"):
            bm.rnmse(np.arange(5.0), [0, 1, bad, 3, 4])
