from itertools import combinations

import numpy as np
import pytest

from qresp import qmat
from qresp import espmetrics as em
from qresp import reservoir as rv


def test_windowed_stats_against_numpy():
    rng = np.random.default_rng(0)
    series = rng.standard_normal((50, 3))
    block = series[14:21]  # the window of 7 rows ending at index 20
    expected = np.linalg.norm(block.var(axis=0))  # population convention
    assert abs(em.variance_norm(series, t=20, w=7) - expected) < 1e-12


def test_windowed_stats_window_validation():
    series = np.zeros((10, 2))
    with pytest.raises(ValueError):
        em.variance_norm(series, t=3, w=5)  # no full window yet
    with pytest.raises(ValueError):
        em.variance_norm(series, t=10, w=5)  # past the end
    with pytest.raises(ValueError):
        em.variance_norm(series, t=5, w=0)


def test_variance_norm_columns_subset():
    rng = np.random.default_rng(1)
    series = rng.standard_normal((30, 4))
    full = em.variance_norm(series, 29, 10)
    sub = em.variance_norm(series, 29, 10, columns=[0, 2])
    expected = np.linalg.norm(series[20:30, [0, 2]].var(axis=0))
    assert abs(sub - expected) < 1e-12
    assert sub <= full + 1e-12


def sliding_variance_norms(values, w):
    # the variance kernel over every window of one trajectory, with fresh temporaries
    blocks = np.lib.stride_tricks.sliding_window_view(values, w, axis=0)
    mean = blocks.mean(axis=-1, keepdims=True)
    return np.linalg.norm(np.mean((blocks - mean) ** 2, axis=-1), axis=1)


@pytest.mark.parametrize("selected", [False, True])
def test_variance_norms_into_reused_buffer(selected):
    # the two windows the indicators read, on a batch, against the sliding-window kernel per trajectory;
    # selected columns change the memory layout of the windows, and with it the order in which a mean sums
    rng = np.random.default_rng(2)
    series = rng.standard_normal((3, 60, 16))
    if selected:
        series = series[..., [0, 5, 10, 15]]
    for w in (1, 10, 60):
        first, last = em._window_variance(series, w - 1, w), em._window_variance(series, 59, w)
        for k, values in enumerate(series):
            every = sliding_variance_norms(values, w)
            assert np.array_equal(first[k], every[0])
            assert np.array_equal(last[k], every[-1])


def test_esp_indicator_scales_with_distance():
    a = np.ones((20, 2))
    b = np.ones((20, 2)) + 0.5
    # ||row difference|| is sqrt(2)*0.5 at every t
    val = em.esp_indicator(a, b, s0_dist=0.25, t=10)
    assert abs(val - np.sqrt(2) * 0.5 / 0.25) < 1e-12


def test_esp_indicator_rejects_zero_distance():
    a = np.zeros((5, 2))
    for s0_dist in (0.0, float("nan"), float("inf"), -1.0):  # nan read nan, and inf read 0.0
        with pytest.raises(ValueError, match="finite and positive"):
            em.esp_indicator(a, a, s0_dist=s0_dist, t=2)
        with pytest.raises(ValueError, match="finite and positive"):
            em.ns_esp_indicator(a, a + 1, s0_dist, w=2, t=4)


def test_ns_indicator_variance_collapse_sentinel():
    rng = np.random.default_rng(2)
    start = rng.standard_normal((10, 2))
    flat = np.concatenate([start, np.ones((30, 2))])  # variance exactly zero late
    other = flat + 1e-3
    val = em.ns_esp_indicator(flat, other, s0_dist=1.0, w=5, t=35)
    assert np.isinf(val)


def test_ns_indicator_stationary_series_close_to_esp():
    # for a variance-stationary pair the NS rescaling is ~1
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 3))
    b = rng.standard_normal((400, 3))
    esp = em.esp_indicator(a, b, 1.0, 380)
    ns = em.ns_esp_indicator(a, b, 1.0, 50, 380)
    assert 0.2 < ns / esp < 5.0


def test_ns_indicator_matches_written_out_formula():
    # esp_t * sqrt(v_ref / v_t), v the smaller windowed-variance norm, v_ref at index w-1
    rng = np.random.default_rng(9)
    a = rng.standard_normal((60, 3)) * np.linspace(2.0, 0.5, 60)[:, None]
    b = rng.standard_normal((60, 3))
    w = 8

    def vnorm(x, t):
        return np.linalg.norm(x[t - w + 1 : t + 1].var(axis=0))

    for t in (w - 1, 20, 59):
        v_ref = min(vnorm(a, w - 1), vnorm(b, w - 1))
        v_now = min(vnorm(a, t), vnorm(b, t))
        esp = np.linalg.norm(a[t] - b[t]) / 0.5
        assert abs(em.esp_indicator(a, b, 0.5, t) - esp) < 1e-12
        assert abs(em.ns_esp_indicator(a, b, 0.5, w, t) - esp * np.sqrt(v_ref / v_now)) < 1e-12 * esp


def test_ns_indicator_matches_full_trace_at_every_time():
    # the indicators as whole traces, from the variance of every window, read at each time
    rng = np.random.default_rng(10)
    a = rng.standard_normal((50, 4)) * np.linspace(2.0, 0.5, 50)[:, None]
    b = rng.standard_normal((50, 4))
    for w in (1, 7, 50):
        esp = np.linalg.norm(a - b, axis=1) / 0.5
        vmin = np.minimum(sliding_variance_norms(a, w), sliding_variance_norms(b, w))
        ns = np.where(vmin < em.VARIANCE_UNDERFLOW, np.inf,
                      esp[w - 1 :] * np.sqrt(vmin[0] / np.maximum(vmin, em.VARIANCE_UNDERFLOW)))
        for t in range(w - 1, 50):
            assert em.esp_indicator(a, b, 0.5, t) == esp[t]
            assert em.ns_esp_indicator(a, b, 0.5, w, t) == ns[t - w + 1]


def test_ns_indicator_time_validation():
    a = np.zeros((20, 2))
    with pytest.raises(ValueError):
        em.ns_esp_indicator(a, a + 1, 1.0, w=10, t=5)


def test_indicator_ensemble_contracting_model_decays():
    model = rv.DepolarizingReservoir(0.5)
    [short], [long] = (
        em.indicator_ensemble([model], n_inputs=2, n_states=2, seq_len=seq_len, w=10, rngs=[np.random.default_rng(4)])
        for seq_len in (10, 60)
    )
    assert long.final_esp < 1e-6
    assert short.final_esp > 1e3 * long.final_esp


def test_indicator_ensemble_pair_count_independence_of_order():
    # same rng seed gives identical indicators (pure function of the draw)
    model = rv.DepolarizingReservoir(0.3)
    [t1] = em.indicator_ensemble([model], 2, 2, 40, 10, [np.random.default_rng(5)])
    [t2] = em.indicator_ensemble([model], 2, 2, 40, 10, [np.random.default_rng(5)])
    assert t1.final_esp == t2.final_esp
    assert t1.final_ns == t2.final_ns


@pytest.mark.parametrize("columns", [None, [0, 3, 6, 9, 12], em.entangling_selection(qmat.all_pauli_strings(2))])
def test_indicator_ensemble_matches_per_trajectory_loop(columns):
    # one trajectory at a time and one pair at a time, summed in sequence, written out;
    # with 4 inputs and 3 states, pairing sequences and states the other way round fails, and so does
    # a pairwise sum of the 12 pair values; on the 9 entangling columns, seeds 1 (esp) and 2 (ns) fail
    # if a pair and a batch sum their selected columns in different orders
    model = rv.NsReservoir(rv.NsModelConfig(axis=rv.AxisConfig(azimuth=1.3, polar=0.9)))
    n_inputs, n_states, seq_len, w = 4, 3, 40, 6
    for seed in (12, 1, 2):
        rng = np.random.default_rng(seed)
        input_sets = rng.uniform(-1.0, 1.0, size=(n_inputs, seq_len))
        states = [qmat.haar_random_pure_state(model.n_qubits, rng) for _ in range(n_states)]
        esp_sum, ns_sum, count = 0.0, 0.0, 0
        for inputs in input_sets:
            rows = [rv.run_reservoir(em.stepped(model), inputs, rho) for rho in states]  # the kept map
            for i, j in combinations(range(n_states), 2):
                s0_dist = qmat.hilbert_schmidt_distance(states[i], states[j])
                esp_sum += em.esp_indicator(rows[i], rows[j], s0_dist, seq_len - 1, columns)
                ns_sum += em.ns_esp_indicator(rows[i], rows[j], s0_dist, w, seq_len - 1, columns)
                count += 1
        [trace] = em.indicator_ensemble([model], n_inputs, n_states, seq_len, w, [np.random.default_rng(seed)], columns)
        assert trace.final_esp == esp_sum / count, seed
        assert trace.final_ns == ns_sum / count, seed


def test_ensemble_trace_rejects_window_longer_than_trajectory():
    inputs, rho0 = em.ensemble_draws(2, 1, 2, 8, np.random.default_rng(0))
    traj = rv.run_reservoir(rv.DepolarizingReservoir(0.3), inputs, rho0)
    with pytest.raises(ValueError, match="lacks a full window"):
        em.ensemble_trace(traj, rho0, 2, 9)
    for n_states in (0, 1):  # the indicators compare state pairs
        with pytest.raises(ValueError, match="need at least two initial states"):
            em.ensemble_draws(2, 1, n_states, 8, np.random.default_rng(0))


def test_subset_indicator_ensemble_rejects_empty_selection():
    model = rv.SubsetReservoir(rv.SubsetModelConfig())
    with pytest.raises(ValueError):
        em.indicator_ensemble(
            [model], n_inputs=1, n_states=2, seq_len=30, w=5, rngs=[np.random.default_rng(0)], columns=[]
        )


def test_subsystem_selections():
    basis = qmat.all_pauli_strings(2)
    damp = em.damping_subsystem_selection(basis)
    nond = em.non_damping_subsystem_selection(basis)
    ent = em.entangling_selection(basis)
    assert [basis[i] for i in damp] == ["II", "XI", "YI", "ZI"]
    assert [basis[i] for i in nond] == ["II", "IX", "IY", "IZ"]
    assert len(ent) == 9
    assert all("I" not in basis[i] for i in ent)


def test_subsystem_selection_multiqubit():
    basis = qmat.all_pauli_strings(3)
    kept = em.subsystem_selection(basis, {0, 2})
    # identity required on qubit 1 only
    assert all(basis[i][1] == "I" for i in kept)
    assert len(kept) == 16
