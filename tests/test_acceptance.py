"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -v via the
test outcome, and in captured output on failure) before asserting.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from qresp import benchmarks as bm
from qresp import espmetrics as em
from qresp import qmat
from qresp import reservoir as rv
from qresp import sweep


MIXED2 = np.eye(4, dtype=complex) / 4


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def delay_line_features(inputs, taps):
    cols = [np.concatenate([np.zeros(k + 1), inputs[: -(k + 1)]]) for k in range(taps)]
    return np.stack(cols, axis=1)


def test_criterion_1_pole_degeneracy():
    t0 = time.monotonic()
    ham = rv.SkHamiltonianConfig(seed=156)
    esp_vals, ns_vals, var50 = [], [], []
    for polar in (0.0, np.pi):
        model = rv.NsReservoir(rv.NsModelConfig(hamiltonian=ham, axis=rv.AxisConfig(polar=polar)))
        trace = em.indicator_ensemble(
            model, n_inputs=4, n_states=3, seq_len=200, w=10, rng=np.random.default_rng(123)
        )
        esp_vals.append(trace.final_esp)
        ns_vals.append(trace.final_ns)
        traj = rv.run_reservoir(model, np.random.default_rng(7).uniform(-1, 1, 60), MIXED2)
        var50.append(em.variance_norm(traj, 49, 10))
    elapsed = time.monotonic() - t0
    ok = (
        max(var50) < 1e-10
        and max(esp_vals) < 1e-3
        and all(v >= 1.0 or np.isinf(v) for v in ns_vals)
        and elapsed < 10.0
    )
    assert report(
        1,
        ok,
        f"var50={max(var50):.2e} esp200={max(esp_vals):.2e} "
        f"ns={min(ns_vals):.3g} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_depolarization_law():
    eps = 0.1
    model = rv.DepolarizingReservoir(eps)
    rho = qmat.haar_random_pure_state(2, np.random.default_rng(0))
    d0 = qmat.trace_distance(rho, MIXED2)
    worst = 0.0
    for t in range(1, 101):
        rho = model.step(rho, 0.0)
        worst = max(worst, abs(qmat.trace_distance(rho, MIXED2) - (1 - eps) ** t * d0))
    assert report(2, worst < 1e-12, f"max law deviation {worst:.2e}")


def test_criterion_3_entangling_example():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho_p0 = np.kron(plus, np.diag([1, 0j]))
    out = qmat.cnot_power(1) @ rho_p0 @ qmat.cnot_power(1).conj().T
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    exact = np.array_equal(out, expected)
    identity = np.allclose(qmat.cnot_power(0), np.eye(4), atol=1e-14)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        p, q = rng.uniform(-2, 2, 2)
        worst = max(
            worst,
            np.max(np.abs(qmat.cnot_power(p) @ qmat.cnot_power(q) - qmat.cnot_power(p + q))),
        )
    ok = exact and identity and worst < 1e-12
    assert report(3, ok, f"corners exact={exact} group law dev {worst:.2e}")


@pytest.mark.slow
def test_criterion_4_rank_dichotomy():
    t0 = time.monotonic()
    ham = rv.SkHamiltonianConfig(seed=620)
    rng = np.random.default_rng(4)
    washout = 3000
    eps = np.finfo(float).eps
    basis = qmat.all_pauli_strings(2)
    ops = qmat.pauli_basis_matrices(basis)
    kept = [basis.index(a + "I") for a in "IXYZ"]  # Pauli components of kept qubit 0

    def rank_at(axis):
        model = rv.NsReservoir(rv.NsModelConfig(hamiltonian=ham, axis=axis))
        u = rng.uniform(-1, 1, 13000)
        traj = rv.run_reservoir(model, u, qmat.haar_random_pure_state(2, rng))
        # One step gives U (rho0 (x) sigma(u)) U^dag, rho0 = sum_a <P_a>_{t-1} P_a / 2 and
        # sigma(u) = sigma_0 + u sigma_1 + sqrt(1 - u^2) sigma_2, so the readout is F M^T
        # with F the 4 x 3 products of those coefficients: rank(readout) <= rank(F) <= 12.
        s_plus, s_minus, s_zero = (rv.encoded_state(v, axis) for v in (1.0, -1.0, 0.0))
        sigmas = [(s_plus + s_minus) / 2, (s_plus - s_minus) / 2, s_zero - (s_plus + s_minus) / 2]
        w = model.unitary
        m = np.array(
            [
                rv.pauli_expectations(w @ np.kron(p / 2, sigma) @ w.conj().T, ops)
                for p in qmat.pauli_basis_matrices("IXYZ")
                for sigma in sigmas
            ]
        ).T
        v = u[washout:]
        coeffs = np.stack([np.ones_like(v), v, np.sqrt(1 - v**2)], axis=1)
        prev = traj[washout - 1 : -1, kept]
        f = (prev[:, :, None] * coeffs[:, None, :]).reshape(len(v), -1)
        x = traj[washout:]
        residual = np.max(np.abs(f @ m.T - x))
        expected = bm.trajectory_rank(f, rel_threshold=max(f.shape) * eps).raw
        rank = bm.trajectory_rank(x, rel_threshold=max(x.shape) * eps).raw
        s = np.linalg.svd(x, compute_uv=False)
        s = s / s[0]
        dropped = s[rank] if rank < len(s) else 0.0
        return rank, expected, residual, s[rank - 1], dropped

    poles = [rank_at(rv.AxisConfig(polar=0.0)), rank_at(rv.AxisConfig(polar=np.pi))]
    generic = [
        rank_at(
            rv.AxisConfig(
                azimuth=rng.uniform(0, 2 * np.pi),
                polar=rng.uniform(0.15, np.pi - 0.15),
            )
        )
        for _ in range(20)
    ]
    elapsed = time.monotonic() - t0
    pole_ranks = [r[0] for r in poles]
    generic_hits = sum(1 for r in generic if r[0] == r[1])
    residual = max(r[2] for r in poles + generic)
    kept_min = min(r[3] for r in poles + generic)
    dropped_max = max(r[4] for r in poles + generic)
    ok = pole_ranks == [2, 2] and residual <= 1e-12 and generic_hits >= 18 and elapsed < 120.0
    assert report(
        4,
        ok,
        f"poles={pole_ranks} generic ranks={sorted({r[0] for r in generic})} "
        f"expected={sorted({r[1] for r in poles + generic})} hits={generic_hits}/20 "
        f"residual={residual:.1e} kept_min={kept_min:.1e} dropped_max={dropped_max:.1e} "
        f"elapsed={elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_5_ns_esp_narma2_correspondence():
    t0 = time.monotonic()
    ham = rv.SkHamiltonianConfig(seed=156)
    u_raw = np.random.default_rng(11).uniform(0, 0.5, 20000)
    target = bm.narma_generate(u_raw, 2)
    u_enc = 4.0 * u_raw - 1.0  # reservoir drive on [-1, 1]
    split = bm.SplitSpec(washout_fraction=0.25)
    ns_field, err_field = [], []
    for polar in np.linspace(0, np.pi, 6):
        for azimuth in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            model = rv.NsReservoir(
                rv.NsModelConfig(hamiltonian=ham, axis=rv.AxisConfig(azimuth=azimuth, polar=polar))
            )
            trace = em.indicator_ensemble(
                model, n_inputs=2, n_states=2, seq_len=200, w=10, rng=np.random.default_rng(7)
            )
            ns_field.append(min(trace.final_ns, 1e6))  # cap sentinel for ranking
            traj = rv.run_reservoir(model, u_enc, MIXED2)
            fit = bm.train_linear_readout(traj, target, split)
            err_field.append(bm.rnmse(fit.test_target, fit.predictions))
    ns_field = np.array(ns_field).reshape(6, 12)
    err_field = np.array(err_field).reshape(6, 12)
    corr, _ = spearmanr(ns_field.ravel(), err_field.ravel())
    pole_min = min(err_field[0].min(), err_field[-1].min())
    best = err_field.min()
    elapsed = time.monotonic() - t0
    ok = corr > 0.3 and pole_min >= 0.9 and best <= 0.5 and elapsed < 1800.0
    assert report(
        5,
        ok,
        f"spearman={corr:.3f} pole_min_rnmse={pole_min:.3g} best={best:.3f} "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_6_subset_esp_structure():
    basis = qmat.all_pauli_strings(2)
    damp = em.damping_subsystem_selection(basis)
    nond = em.non_damping_subsystem_selection(basis)
    damp_ns, nond_ns = {}, {}
    for gamma in (0.0, 0.5, 0.9):
        for p in (0.0, 0.5, 1.0):
            model = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=gamma, cnot_exponent=p))
            args = dict(n_inputs=2, n_states=2, seq_len=200, w=10)
            damp_ns[gamma, p] = em.indicator_ensemble(
                model, rng=np.random.default_rng(3), columns=damp, **args
            ).final_ns
            nond_ns[gamma, p] = em.indicator_ensemble(
                model, rng=np.random.default_rng(3), columns=nond, **args
            ).final_ns
    damped_ok = all(v < 1e-2 for (g, _), v in damp_ns.items() if g >= 0.5)
    undamped_ok = all(v > 0.1 for (g, _), v in damp_ns.items() if g == 0.0)
    nondamp_ok = all(v > 0.1 for (g, p), v in nond_ns.items() if p == 0.0)
    ok = damped_ok and undamped_ok and nondamp_ok
    assert report(
        6,
        ok,
        f"damping(g>=.5) max={max(v for (g, _), v in damp_ns.items() if g >= 0.5):.2e} "
        f"damping(g=0) min={min(v for (g, _), v in damp_ns.items() if g == 0.0):.2f} "
        f"nondamp(p=0) min={min(v for (g, p), v in nond_ns.items() if p == 0.0):.2f}",
    )


def test_criterion_7_even_odd_memory_alternation():
    model = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.2, cnot_exponent=1.0))
    u = np.random.default_rng(17).uniform(-1, 1, 100000)
    traj = rv.run_reservoir(model, u, MIXED2)
    cols = em.damping_subsystem_selection(qmat.all_pauli_strings(2))
    rep = bm.mc_report(u, traj[:, cols], max_delay=10, washout=1000)
    caps = rep.memory_functions
    even_excl0 = rep.even_sum - caps[0]
    ok = caps[1] > 2 * caps[2] and rep.odd_sum > even_excl0
    assert report(
        7,
        ok,
        f"C1={caps[1]:.3f} C2={caps[2]:.4f} odd={rep.odd_sum:.3f} even(k>0)={even_excl0:.3f}",
    )


@pytest.mark.slow
def test_criterion_8_capacity_oracles():
    u = np.random.default_rng(0).uniform(-1, 1, 100000)
    feats = delay_line_features(u, 5)
    rep = bm.mc_report(u, feats, max_delay=10, washout=100)
    caps = rep.memory_functions
    line_ok = all(abs(caps[k] - 1.0) <= 0.02 for k in range(1, 6))
    total_ok = abs(rep.total - 5.0) <= 0.1
    delay_ok = rep.max_linear_delay == 5
    ipc1 = bm.ipc_report(
        u, feats, bm.IpcConfig(budget=((1, 10),), surrogate_count=0), 100,
        np.random.default_rng(1),
    )
    equiv_ok = abs(ipc1.degree_totals[1] - rep.total) < 1e-6

    def saturation(inputs, features, washout):
        cfg = bm.IpcConfig(budget=((1, 20), (2, 10), (3, 5)), surrogate_count=50)
        ipc = bm.ipc_report(inputs, features, cfg, washout, np.random.default_rng(23))
        rank = bm.trajectory_rank(features, washout=washout).raw
        return ipc.total, rank

    tested = [saturation(u, feats, 100)]
    qmodel = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.2, cnot_exponent=1.0))
    qu = np.random.default_rng(17).uniform(-1, 1, 100000)
    qtraj = rv.run_reservoir(qmodel, qu, MIXED2)
    tested.append(saturation(qu, qtraj, 1000))
    sat_ok = all(total <= rank + 0.1 for total, rank in tested)

    ok = line_ok and total_ok and delay_ok and equiv_ok and sat_ok
    assert report(
        8,
        ok,
        f"C1..C5 dev={max(abs(caps[k] - 1) for k in range(1, 6)):.3f} total={rep.total:.3f} "
        f"max_delay={rep.max_linear_delay} |ipc1-mc|={abs(ipc1.degree_totals[1] - rep.total):.1e} "
        f"ipc/rank={[(round(t, 2), r) for t, r in tested]}",
    )


def test_criterion_9_classical_reference_identities():
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, 500)
    y0a = rng.standard_normal(20) * 0.1
    y0b = rng.standard_normal(20) * 0.1
    t = np.arange(1, 501)
    plain_a = rv.run_classical_reference(rv.ClassicalRefConfig(kind="plain"), u, y0a)
    plain_b = rv.run_classical_reference(rv.ClassicalRefConfig(kind="plain"), u, y0b)
    worst = 0.0
    for c in (0.9, 1.1):
        scaled = rv.run_classical_reference(rv.ClassicalRefConfig(kind="scaled", rate=c), u, y0a)
        worst = max(worst, np.max(np.abs(scaled / c ** t[:, None] - plain_a)))
    biased = rv.run_classical_reference(rv.ClassicalRefConfig(kind="biased", rate=0.05), u, y0a)
    worst = max(worst, np.max(np.abs(biased - 0.05 * t[:, None] - plain_a)))

    # NS scale cancellation, evaluated before the c=0.9 variance underflows
    d0 = float(np.linalg.norm(y0a - y0b))
    ns_plain = em.ns_esp_indicator(plain_a, plain_b, d0, 10, 199)
    ns_dev = 0.0
    for c in (0.9, 1.1):
        cfg = rv.ClassicalRefConfig(kind="scaled", rate=c)
        sa = rv.run_classical_reference(cfg, u, y0a)
        sb = rv.run_classical_reference(cfg, u, y0b)
        ns_dev = max(ns_dev, abs(em.ns_esp_indicator(sa, sb, d0, 10, 199) - ns_plain))
    ok = worst < 1e-9 and ns_dev < 1e-6
    assert report(9, ok, f"trajectory dev {worst:.2e}, NS cancellation dev {ns_dev:.2e}")


def test_criterion_10_channel_properties_and_determinism(tmp_path):
    rng = np.random.default_rng(77)
    models = [
        rv.NsReservoir(
            rv.NsModelConfig(
                hamiltonian=rv.SkHamiltonianConfig(seed=156),
                axis=rv.AxisConfig(azimuth=0.7, polar=1.2),
            )
        ),
        rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.3, cnot_exponent=0.8)),
    ]
    trace_dev = herm_dev = 0.0
    min_eig = 1.0
    for model in models:
        rho = qmat.haar_random_pure_state(2, rng)
        for _ in range(10000):
            rho = model.step(rho, rng.uniform(-1, 1))
            tr = np.trace(rho)
            trace_dev = max(trace_dev, abs(tr.real - 1.0) + abs(tr.imag))
            herm_dev = max(herm_dev, np.max(np.abs(rho - rho.conj().T)))
        min_eig = min(min_eig, np.linalg.eigvalsh(rho).min())
    k0, k1 = rv.damping_kraus(0.37)
    kraus_exact = np.array_equal(k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2))

    cfg_kwargs = dict(
        experiment="ns_esp_axis_grid",
        metrics=("esp", "ns_esp"),
        azimuth_count=4,
        polar_count=3,
        indicator_len=100,
        indicator_window=10,
        indicator_inputs=2,
        indicator_states=2,
        seed=5,
    )
    out1, out8 = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
    r1 = sweep.run_sweep(sweep.SweepConfig(workers=1, out_path=out1, **cfg_kwargs), resume=False)
    r8 = sweep.run_sweep(sweep.SweepConfig(workers=8, out_path=out8, **cfg_kwargs), resume=False)
    sweep.emit_field(r1, out1)
    sweep.emit_field(r8, out8)
    with open(out1, "rb") as f1, open(out8, "rb") as f8:
        identical = f1.read() == f8.read()

    ok = (
        trace_dev < 1e-10
        and herm_dev < 1e-10
        and min_eig > -1e-9
        and kraus_exact
        and identical
    )
    assert report(
        10,
        ok,
        f"trace_dev={trace_dev:.1e} herm_dev={herm_dev:.1e} min_eig={min_eig:.1e} "
        f"kraus_exact={kraus_exact} csv_identical={identical}",
    )
