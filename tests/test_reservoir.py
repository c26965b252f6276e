import numpy as np
import pytest

from qresp import qmat
from qresp import reservoir as rv


RNG = np.random.default_rng(777)


# ---------------------------------------------------------------------------
# Hamiltonian construction


def test_assemble_sk_hamiltonian_two_qubit_oracle():
    # H = J X(x)X + (f0/2) Z(x)I + (f1/2) I(x)Z, written out by hand
    j = 0.3
    f0, f1 = 0.1, -0.2
    couplings = np.zeros((2, 2))
    couplings[1, 0] = j
    h = rv.assemble_sk_hamiltonian(couplings, np.array([f0, f1]))
    expected = (
        j * np.kron(qmat.X, qmat.X)
        + 0.5 * f0 * np.kron(qmat.Z, qmat.I2)
        + 0.5 * f1 * np.kron(qmat.I2, qmat.Z)
    )
    assert np.allclose(h, expected, atol=1e-14)


def test_build_sk_hamiltonian_hermitian_and_deterministic():
    cfg = rv.SkHamiltonianConfig(seed=9)
    h1 = rv.build_sk_hamiltonian(cfg)
    h2 = rv.build_sk_hamiltonian(cfg)
    assert np.array_equal(h1, h2)
    assert np.allclose(h1, h1.conj().T)


def test_build_sk_hamiltonian_respects_bounds():
    cfg = rv.SkHamiltonianConfig(n_qubits=3, j_scale=2.0, field_width=0.5, global_field=0.0, seed=4)
    h = rv.build_sk_hamiltonian(cfg)
    # the XX couplings and Z fields are bounded, so is every matrix entry
    assert np.max(np.abs(h)) <= 3 * 1.0 + 1.5 * 0.5


def test_sk_config_validation():
    with pytest.raises(ValueError):
        rv.SkHamiltonianConfig(n_qubits=0)
    with pytest.raises(ValueError):
        rv.SkHamiltonianConfig(j_scale=-1.0)
    # a non-finite value is refused up front, by name, not by the sampler or the eigensolver later
    for name in ("j_scale", "field_width", "global_field"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                rv.SkHamiltonianConfig(**{name: value})


def test_axis_config_validation():
    rv.AxisConfig(azimuth=6.0, polar=np.pi)  # both ends of the polar range are axes
    for polar in (-0.1, np.pi + 1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="polar angle"):
            rv.AxisConfig(polar=polar)
    for azimuth in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            rv.AxisConfig(azimuth=azimuth)


# ---------------------------------------------------------------------------
# axis frame and input encoding


def test_axis_frame_diagonalizes_axis_operator():
    rng = np.random.default_rng(3)
    for _ in range(20):
        axis = rv.AxisConfig(azimuth=rng.uniform(0, 2 * np.pi), polar=rng.uniform(0, np.pi))
        frame = rv.axis_frame_unitary(axis)
        diag = frame @ axis.operator @ frame.conj().T
        assert np.allclose(diag, qmat.Z, atol=1e-12), axis


def test_axis_frame_identity_at_north_pole():
    for az in (0.0, 1.0, 4.5):
        frame = rv.axis_frame_unitary(rv.AxisConfig(azimuth=az, polar=0.0))
        assert np.allclose(frame, np.eye(2), atol=1e-12)


def test_axis_unit_vector():
    axis = rv.AxisConfig(azimuth=np.pi / 2, polar=np.pi / 2)
    assert np.allclose(axis.unit_vector, [0, 1, 0], atol=1e-12)


def test_input_unitary_trivial_at_u_one():
    # arccos(1) = 0: no rotation at all
    axis = rv.AxisConfig(azimuth=0.9, polar=1.3)
    u = rv.input_unitary(1.0, axis)
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_input_unitary_rejects_out_of_range():
    with pytest.raises(ValueError):
        rv.input_unitary(1.2, rv.AxisConfig())
    # on an array the message names the first offending entry, nan included
    with pytest.raises(ValueError, match=r"^input 1.5 outside \[-1, 1\]$"):
        rv.input_unitary(np.array([[0.1, 1.5], [-2.0, 0.0]]), rv.AxisConfig())
    with pytest.raises(ValueError, match="input nan outside"):
        rv.input_unitary(np.array([0.1, np.nan]), rv.AxisConfig())


def test_encoding_is_its_matrix_product_definition_bit_for_bit():
    # oracle: U = U3^dag Rz(arccos u) U3 with Rz a full diagonal matrix, and sigma = U diag(1, 0) U^dag;
    # the column scaling and the outer product c c^dag take the same products, bar the signs of zeros
    def oracle(u, axis):
        frame = rv.axis_frame_unitary(axis)
        theta = np.arccos(u)
        rz = np.zeros(np.shape(u) + (2, 2), dtype=complex)
        rz[..., 0, 0], rz[..., 1, 1] = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        unitary = frame.conj().T @ rz @ frame
        return unitary, unitary @ np.diag([1.0 + 0j, 0.0]) @ unitary.conj().swapaxes(-1, -2)

    rng = np.random.default_rng(14)
    polars = np.linspace(0.0, np.pi, 6)  # the 12x6 benchmark grid, both poles included
    azimuths = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    for polar in polars:
        for azimuth in azimuths:
            axis = rv.AxisConfig(azimuth=azimuth, polar=polar)
            for shape in ((), (64,), (64, 12)):
                u = rng.uniform(-1.0, 1.0, shape)
                u.flat[:3] = (-1.0, 0.0, 1.0)[:u.size]
                unitary, sigma = oracle(u, axis)
                assert np.array_equal(rv.input_unitary(u, axis), unitary)
                assert np.array_equal(rv.encoded_state(u, axis), sigma)
                if shape == (64,):  # a 2-qubit reset: the same state on each qubit
                    assert np.array_equal(rv.encoded_state(u, axis, n_qubits=2), qmat.kron(sigma, sigma))
    axis = rv.AxisConfig(azimuth=2.1, polar=0.7)
    for u in (-1.0, 0.0, 1.0):  # a float input gives a single matrix
        unitary, sigma = oracle(u, axis)
        assert np.array_equal(rv.input_unitary(u, axis), unitary)
        assert np.array_equal(rv.encoded_state(u, axis), sigma)


def test_encoded_state_expectation_along_z_axis():
    # at the +Z axis the rotation is about Z and leaves |0><0| untouched
    axis = rv.AxisConfig(polar=0.0)
    for u in (-0.8, 0.0, 0.3):
        sigma = rv.encoded_state(u, axis)
        assert np.allclose(sigma, np.diag([1, 0j]), atol=1e-12)


def test_encoded_state_is_pure_and_traces_input():
    rng = np.random.default_rng(8)
    axis = rv.AxisConfig(azimuth=0.4, polar=2.0)
    for u in rng.uniform(-1, 1, 5):
        sigma = rv.encoded_state(u, axis)
        qmat.check_density_matrix(sigma)
        assert abs(np.trace(sigma @ sigma).real - 1.0) < 1e-12
        # rotation by arccos(u) about the axis tilts <n.sigma> of |0> by u... the
        # component along the rotation axis never moves:
        n_op = axis.operator
        fixed = np.trace(n_op @ rv.encoded_state(1.0, axis)).real
        assert abs(np.trace(n_op @ sigma).real - fixed) < 1e-12


def test_reset_encode_keeps_marginal_and_replaces_subsystem():
    rho = qmat.haar_random_pure_state(2, RNG)
    axis = rv.AxisConfig(azimuth=1.1, polar=0.7)
    u = 0.25
    model = rv.NsReservoir(rv.NsModelConfig(axis=axis, reset_subsystem=(1,)))
    out = model.reset_encode(rho, model.encode(u))
    assert np.allclose(qmat.partial_trace(out, [1]), qmat.partial_trace(rho, [1]), atol=1e-12)
    assert np.allclose(qmat.partial_trace(out, [0]), rv.encoded_state(u, axis), atol=1e-12)


def test_reset_encode_leading_subsystem():
    rho = qmat.haar_random_pure_state(2, RNG)
    axis = rv.AxisConfig(azimuth=0.3, polar=1.9)
    model = rv.NsReservoir(rv.NsModelConfig(axis=axis, reset_subsystem=(0,)))
    out = model.reset_encode(rho, model.encode(-0.4))
    assert np.allclose(qmat.partial_trace(out, [0]), qmat.partial_trace(rho, [0]), atol=1e-12)
    assert np.allclose(qmat.partial_trace(out, [1]), rv.encoded_state(-0.4, axis), atol=1e-12)


@pytest.mark.parametrize("n, reset", [(2, (1,)), (2, (0,)), (3, (0,)), (3, (1, 2)), (3, (0, 2))])
def test_reset_encode_is_the_qmat_composition(n, reset):
    # the kernel written out with the checked qmat operations, on a single state and on a stack
    model = rv.NsReservoir(
        rv.NsModelConfig(
            hamiltonian=rv.SkHamiltonianConfig(n_qubits=n, seed=n),
            axis=rv.AxisConfig(azimuth=2.3, polar=1.1),
            reset_subsystem=reset,
        )
    )
    order = [q for q in range(n) if q not in reset] + list(reset)
    rng = np.random.default_rng(17)
    for lead in ((), (3,)):
        rho = np.stack([qmat.haar_random_pure_state(n, rng) for _ in range(3)])[(0,) if lead == () else ...]
        sigma = model.encode(rng.uniform(-1, 1, lead))
        expected = qmat.kron(qmat.partial_trace(rho, reset), sigma)
        if order != sorted(order):
            expected = qmat.permute_qubits(expected, [order.index(q) for q in range(n)])
        assert np.array_equal(model.reset_encode(rho, sigma), expected)
        assert np.array_equal(model.evolve(rho, sigma), model.unitary @ expected @ model.unitary_dag)


# ---------------------------------------------------------------------------
# reservoir step maps


def test_ns_reservoir_step_is_cptp_on_samples():
    model = rv.NsReservoir(rv.NsModelConfig(hamiltonian=rv.SkHamiltonianConfig(seed=2)))
    rho = qmat.haar_random_pure_state(2, RNG)
    for u in (-0.9, 0.0, 0.7):
        rho = model.step(rho, u)
        qmat.check_density_matrix(rho)


def test_ns_reservoir_unitary_matches_hamiltonian():
    cfg = rv.NsModelConfig(hamiltonian=rv.SkHamiltonianConfig(seed=2))
    model = rv.NsReservoir(cfg)
    h = rv.build_sk_hamiltonian(cfg.hamiltonian)
    assert np.allclose(model.unitary, qmat.evolution_unitary(h), atol=1e-12)


def test_damping_kraus_completeness_exact():
    for gamma in (0.0, 0.3, 1.0):
        k0, k1 = rv.damping_kraus(gamma)
        total = k0.conj().T @ k0 + k1.conj().T @ k1
        assert np.array_equal(total, np.eye(2))


def test_amplitude_damping_fixed_point():
    # gamma = 1 sends any qubit-0 marginal to |0><0|
    a0, a1 = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=1.0)).damping
    rho = qmat.haar_random_pure_state(2, RNG)
    out = a0 @ rho @ a0.conj().T + a1 @ rho @ a1.conj().T
    assert np.allclose(qmat.partial_trace(out, [1]), np.diag([1, 0j]), atol=1e-12)


def test_amplitude_damping_identity_at_zero():
    a0, a1 = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.0)).damping
    rho = qmat.haar_random_pure_state(2, RNG)
    assert np.allclose(a0 @ rho @ a0.conj().T + a1 @ rho @ a1.conj().T, rho, atol=1e-14)


def test_subset_reservoir_matches_manual_composition():
    cfg = rv.SubsetModelConfig(damping_rate=0.35, cnot_exponent=0.6)
    model = rv.SubsetReservoir(cfg)
    rho = qmat.haar_random_pure_state(2, RNG)
    u = 0.1
    manual = model.local_unitary @ rho @ model.local_unitary.conj().T
    a0, a1 = (np.kron(k, np.eye(2, dtype=complex)) for k in rv.damping_kraus(cfg.damping_rate))
    manual = a0 @ manual @ a0.conj().T + a1 @ manual @ a1.conj().T
    manual = model.entangler @ manual @ model.entangler.conj().T
    r = rv.ry(np.arccos(u))
    u_in = np.kron(r, r)
    manual = u_in @ manual @ u_in.conj().T
    assert np.array_equal(model.step(rho, u), manual)


def test_subset_config_validation():
    with pytest.raises(ValueError):
        rv.SubsetModelConfig(damping_rate=1.5)


def test_depolarizing_reservoir_contracts_to_identity():
    model = rv.DepolarizingReservoir(0.25)
    rho = qmat.haar_random_pure_state(2, RNG)
    maxmix = np.eye(4) / 4
    d_prev = qmat.trace_distance(rho, maxmix)
    for _ in range(5):
        rho = model.step(rho, 0.0)
        d = qmat.trace_distance(rho, maxmix)
        assert abs(d - 0.75 * d_prev) < 1e-12
        d_prev = d


# ---------------------------------------------------------------------------
# trajectories and readout


def test_run_reservoir_shapes():
    model = rv.NsReservoir(rv.NsModelConfig(hamiltonian=rv.SkHamiltonianConfig(seed=1)))
    inputs = RNG.uniform(-1, 1, 12)
    traj = rv.run_reservoir(model, inputs, np.eye(4, dtype=complex) / 4)
    assert traj.shape == (12, 16)
    assert np.allclose(traj[:, 0], 1.0, atol=1e-10)  # identity expectation


def test_run_reservoir_names_failing_step():
    model = rv.SubsetReservoir(rv.SubsetModelConfig())
    with pytest.raises(RuntimeError, match="time index 2"):
        rv.run_reservoir(model, [0.0, 0.5, 3.0], np.eye(4, dtype=complex) / 4)
    # in a batch, one bad entry in row 1 names its time index and its value only
    inputs = np.zeros((3, 4))
    inputs[1, 2] = 3.0
    for model in (rv.SubsetReservoir(rv.SubsetModelConfig()), rv.NsReservoir(rv.NsModelConfig())):
        with pytest.raises(RuntimeError, match=r"time index 2: input 3.0 outside \[-1, 1\]$"):
            rv.run_reservoir(model, inputs, np.eye(4, dtype=complex) / 4)
    # a readout of nan is out of range too, from its first step
    broken = rv.DepolarizingReservoir(0.2)
    broken.unitary = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(RuntimeError, match="readout out of range at time index 0$"):
        rv.run_reservoir(broken, np.zeros((3, 4)), np.eye(4, dtype=complex) / 4)


SUBSET = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=0.3, cnot_exponent=0.7))
NS_2Q = rv.NsReservoir(rv.NsModelConfig(axis=rv.AxisConfig(azimuth=0.8, polar=1.2)))
NS_3Q_RESET0 = rv.NsReservoir(
    rv.NsModelConfig(
        hamiltonian=rv.SkHamiltonianConfig(n_qubits=3, seed=3),
        axis=rv.AxisConfig(azimuth=2.1, polar=0.6),
        reset_subsystem=(0,),  # kept qubits go first, so the factors are permuted back
    )
)
NS_3Q_RESET12 = rv.NsReservoir(
    rv.NsModelConfig(
        hamiltonian=rv.SkHamiltonianConfig(n_qubits=3, seed=4),
        axis=rv.AxisConfig(azimuth=1.1, polar=2.6),
        reset_subsystem=(1, 2),  # a two-qubit reset state, no permutation
    )
)


@pytest.mark.parametrize("model", [NS_2Q, NS_3Q_RESET0, NS_3Q_RESET12], ids=["2q", "3q-reset0", "3q-reset12"])
def test_evolve_equals_each_matrix_own_product(model):
    # the two whole-stack GEMMs give each matrix the bits of its own U x U^dag, x = reset_encode(rho, sigma);
    # this fails on a BLAS that rounds a wide GEMM unlike its d x d blocks
    rng = np.random.default_rng(41)
    d = 2**model.n_qubits
    for lead in ((), (1,), (2,), (8,), (4, 2), (72,)):
        rho = rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d))
        sigma = model.encode(rng.uniform(-1, 1, lead))
        x = model.reset_encode(rho, sigma).reshape(-1, d, d)
        expected = np.stack([np.matmul(model.unitary @ m, model.unitary_dag) for m in x]).reshape(lead + (d, d))
        assert np.array_equal(model.evolve(rho, sigma), expected)
        out = np.empty(lead + (d, d), dtype=complex)
        model.evolve(rho, sigma, out)
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("model", [NS_2Q, SUBSET, NS_2Q.kept], ids=["ns-2q", "subset", "kept-2q"])
def test_run_reservoir_washout_keeps_the_rows_after_it(model):
    rng = np.random.default_rng(43)
    steps = 2 * rv.TRANSFER_BLOCK + 5
    inputs = rng.uniform(-1, 1, (3, steps))
    states = np.stack([qmat.haar_random_pure_state(model.n_qubits, rng) for _ in range(3)])
    full = rv.run_reservoir(model, inputs, states)
    # inside the first block, at a block edge, inside the last block, and every row
    for washout in (37, rv.TRANSFER_BLOCK, 2 * rv.TRANSFER_BLOCK + 2, steps):
        assert np.array_equal(rv.run_reservoir(model, inputs, states, washout=washout), full[:, washout:])
    for washout in (-1, steps + 1):
        with pytest.raises(ValueError, match=f"washout {washout} outside 0..{steps}"):
            rv.run_reservoir(model, inputs, states, washout=washout)


def test_run_reservoir_checks_readout_inside_washout():
    class Kicked(rv.DepolarizingReservoir):  # the state triples at each input 0.5
        def evolve(self, rho, u, out=None):
            return np.multiply(super().evolve(rho, u), np.where(u == 0.5, 3.0, 1.0)[..., None, None], out=out)

    inputs = np.zeros(3 * rv.TRANSFER_BLOCK)
    inputs[70] = 0.5  # in the second block, before the washout's end
    with pytest.raises(RuntimeError, match="readout out of range at time index 70$"):
        rv.run_reservoir(Kicked(0.2), inputs, np.eye(4, dtype=complex) / 4, washout=100)


@pytest.mark.parametrize(
    "model, n_rows, last_block",
    [
        (NS_2Q, 3, 5),
        (NS_3Q_RESET0, 3, 5),
        (NS_3Q_RESET12, 3, 5),
        (SUBSET, 3, 5),
        # the batch of a subset indicator ensemble; a one-step block, whose map a row alone
        # builds with a one-row product, which rounds unlike a row of a larger one
        (SUBSET, 12, 1),
        (rv.DepolarizingReservoir(0.2), 3, 5),
        # the kept maps that indicator ensembles step, with the same one-step block
        (NS_2Q.kept, 3, 5),
        (NS_2Q.kept, 12, 1),
        (NS_3Q_RESET0.kept, 3, 5),
        (NS_3Q_RESET12.kept, 12, 1),
    ],
    ids=["ns-2q", "ns-3q-reset0", "ns-3q-reset12", "subset", "subset-12rows", "depolarizing",
         "kept-2q", "kept-2q-12rows", "kept-3q-reset0", "kept-3q-reset12-12rows"],
)
def test_run_reservoir_batch_equals_its_rows(model, n_rows, last_block):
    rng = np.random.default_rng(21)
    steps = 2 * rv.TRANSFER_BLOCK + last_block  # two whole blocks and a partial one
    inputs = rng.uniform(-1, 1, (n_rows, steps))
    states = np.stack([qmat.haar_random_pure_state(model.n_qubits, rng) for _ in range(n_rows)])
    batch = rv.run_reservoir(model, inputs, states)
    rows = np.stack([rv.run_reservoir(model, u, rho) for u, rho in zip(inputs, states)])
    assert batch.shape == (n_rows, steps, 4**model.n_qubits)
    assert np.array_equal(batch, rows)  # bit for bit, not to a tolerance
    # a batch of states under one shared input sequence broadcasts the same way
    shared = rv.run_reservoir(model, inputs[0], states)
    assert np.array_equal(shared[2], rv.run_reservoir(model, inputs[0], states[2]))
    if hasattr(model, "transfer"):
        return  # agrees with its step to rounding: test_*_matches_density_matrix_step
    # otherwise the readout is that of a plain loop over `step`, bit for bit, batched or broadcast
    ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(model.n_qubits))
    for drive, result in ((inputs, batch), (inputs[0], shared)):
        rho, expected = states, []
        for t in range(steps):
            rho = model.step(rho, drive[..., t])
            expected.append(rv.pauli_expectations(rho, ops))
        assert np.array_equal(result, np.stack(expected, axis=-2))


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_subset_transfer_matches_density_matrix_step(gamma, p):
    model = rv.SubsetReservoir(rv.SubsetModelConfig(damping_rate=gamma, cnot_exponent=p))
    ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(2))
    rng = np.random.default_rng(13)
    mixed = 0.3 * qmat.haar_random_pure_state(2, rng) + 0.7 * qmat.haar_random_pure_state(2, rng)
    for rho in (qmat.haar_random_pure_state(2, rng), mixed):
        for u in (-1.0, 0.0, 1.0, *rng.uniform(-1, 1, 4)):
            one_step = model.transfer(u) @ rv.pauli_expectations(rho, ops)
            assert np.abs(one_step - rv.pauli_expectations(model.step(rho, u), ops)).max() <= 1e-12
    # 2000 steps of run_reservoir against a loop over the density-matrix step
    inputs = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, 1997)])
    rho = rho0 = qmat.haar_random_pure_state(2, rng)
    expected = []
    for u in inputs:
        rho = model.step(rho, u)
        expected.append(rv.pauli_expectations(rho, ops))
    assert np.abs(rv.run_reservoir(model, inputs, rho0) - expected).max() <= 1e-11


@pytest.mark.parametrize("n, reset", [(2, (1,)), (2, (0,)), (3, (1,)), (3, (0, 2))])
def test_kept_map_matches_density_matrix_step(n, reset):
    rng = np.random.default_rng(31 + n + reset[0])
    ops = qmat.pauli_basis_matrices(qmat.all_pauli_strings(n))
    for polar in (0.0, np.pi, rng.uniform(0.0, np.pi)):  # both poles and a generic axis, random SK seeds
        model = rv.NsReservoir(rv.NsModelConfig(
            hamiltonian=rv.SkHamiltonianConfig(n_qubits=n, seed=int(rng.integers(1000))),
            axis=rv.AxisConfig(azimuth=rng.uniform(0.0, 2 * np.pi), polar=polar), reset_subsystem=reset))
        kept = model.kept
        assert kept is model.kept and len(kept.columns) == 4 ** (n - len(reset))  # built once
        mixed = 0.3 * qmat.haar_random_pure_state(n, rng) + 0.7 * qmat.haar_random_pure_state(n, rng)
        for rho in (qmat.haar_random_pure_state(n, rng), mixed):
            k = rv.pauli_expectations(rho, ops[kept.columns])[:, None]
            for u in (-1.0, 0.0, 1.0, *rng.uniform(-1, 1, 4)):
                after = rv.pauli_expectations(model.step(rho, u), ops)
                assert np.abs(kept.transfer(u) @ k - after[kept.columns, None]).max() <= 1e-12
                assert np.abs(kept.read(k[None], np.array([u]))[0] - after).max() <= 1e-12
        # 2000 steps of run_reservoir on the kept map against a loop over the density-matrix step
        inputs = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, 1997)])
        rho = rho0 = qmat.haar_random_pure_state(n, rng)
        expected = []
        for u in inputs:
            rho = model.step(rho, u)
            expected.append(rv.pauli_expectations(rho, ops))
        assert np.abs(rv.run_reservoir(kept, inputs, rho0) - expected).max() <= 1e-12


def test_pauli_expectations_roundtrip():
    basis = qmat.all_pauli_strings(2)
    rho = qmat.haar_random_pure_state(2, RNG)
    ops = qmat.pauli_basis_matrices(basis)
    vals = rv.pauli_expectations(rho, ops)
    back = np.einsum("b,bij->ij", vals, ops) / 4  # rho = sum_P <P> P / d
    assert np.allclose(back, rho, atol=1e-12)


# ---------------------------------------------------------------------------
# classical references


def test_classical_plain_converges_from_two_starts():
    cfg = rv.ClassicalRefConfig(kind="plain")
    u = RNG.uniform(-1, 1, 300)
    ya = rv.run_classical_reference(cfg, u, np.full(20, 0.4))
    yb = rv.run_classical_reference(cfg, u, -np.full(20, 0.4))
    assert np.linalg.norm(ya[-1] - yb[-1]) < 1e-8


def test_classical_scaled_identity():
    u = RNG.uniform(-1, 1, 200)
    y0 = RNG.standard_normal(20) * 0.1
    plain = rv.run_classical_reference(rv.ClassicalRefConfig(kind="plain"), u, y0)
    t = np.arange(1, 201)
    for c in (0.9, 1.1):
        scaled = rv.run_classical_reference(rv.ClassicalRefConfig(kind="scaled", rate=c), u, y0)
        assert np.max(np.abs(scaled / c ** t[:, None] - plain)) < 1e-9


def test_classical_biased_identity():
    u = RNG.uniform(-1, 1, 200)
    y0 = RNG.standard_normal(20) * 0.1
    plain = rv.run_classical_reference(rv.ClassicalRefConfig(kind="plain"), u, y0)
    t = np.arange(1, 201)
    biased = rv.run_classical_reference(rv.ClassicalRefConfig(kind="biased", rate=0.05), u, y0)
    assert np.max(np.abs(biased - 0.05 * t[:, None] - plain)) < 1e-9


def test_classical_config_validation():
    with pytest.raises(ValueError):
        rv.ClassicalRefConfig(kind="warped")
    for kind in ("biased", "scaled"):
        for rate in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="rate"):
                rv.ClassicalRefConfig(kind=kind, rate=rate)
