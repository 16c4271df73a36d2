import numpy as np
import pytest

from sigmalcu.matrices import frobenius_distance
from sigmalcu.pde import HeatParams, heat_1d, ode_extended_a1, poisson_1d, wave_1d
from sigmalcu.sigma import decompose_numerical, merge_terms, reconstruct


# Direct dense assemblies of the difference operators, built independently
# of the sigma recursions.

def poisson_dense(n_x):
    return (2 * np.eye(n_x) - np.eye(n_x, k=1) - np.eye(n_x, k=-1)).astype(complex)


def diffusion_dense(n_x, corner):
    a = (-2 * np.eye(n_x) + np.eye(n_x, k=1) + np.eye(n_x, k=-1)).astype(complex)
    a[0, 0] += corner
    a[-1, -1] += corner
    return a


def stepping_dense(blocks, block_dim):
    eye = np.eye(block_dim)
    return (
        np.kron(np.eye(blocks), eye) - np.kron(np.eye(blocks, k=-1), eye)
    ).astype(complex)


def heat_dense(p: HeatParams):
    gamma = p.alpha * p.dt / p.dx**2
    a_p = diffusion_dense(p.n_x, p.corner_value)
    selector = np.diag([0.0] + [1.0] * (p.n_t - 1))
    return stepping_dense(p.n_t, p.n_x) - gamma * np.kron(selector, a_p)


def wave_dense(s, t, c=1.0, length=None, T=None):
    n_x, n_t = 1 << s, 1 << t
    dx = (length if length is not None else float(n_x)) / n_x
    dt = (T if T is not None else float(n_t - 1)) / (n_t - 1)
    a_p = diffusion_dense(n_x, 1.0)
    gen = np.zeros((2 * n_x, 2 * n_x), dtype=complex)
    gen[:n_x, n_x:] = np.eye(n_x)
    gen[n_x:, :n_x] = (c**2 / dx**2) * a_p
    selector = np.diag([0.0] + [1.0] * (n_t - 1))
    return stepping_dense(n_t, 2 * n_x) - dt * np.kron(selector, gen)


def test_poisson_base_case():
    system = poisson_1d(1)
    assert np.array_equal(system.matrix.to_dense(), np.array([[2, -1], [-1, 2]], dtype=complex))
    assert {(t.factors, t.coeff) for t in system.decomposition.terms} == {
        ("I", 2.0),
        ("M", -1.0),
        ("P", -1.0),
    }
    assert system.predicted_term_count == 3
    assert system.rhs is None


@pytest.mark.parametrize("s,count", [(4, 9), (7, 15)])
def test_poisson_term_counts(s, count):
    system = poisson_1d(s)
    assert len(system.decomposition) == count == system.predicted_term_count


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_poisson_matches_direct_assembly(s):
    system = poisson_1d(s)
    assert np.array_equal(system.matrix.to_dense(), poisson_dense(1 << s))
    assert reconstruct(system.decomposition) == system.matrix


def test_poisson_rejects_bad_size():
    with pytest.raises(ValueError):
        poisson_1d(0)


def test_ode_extended_base_case():
    d = ode_extended_a1(1, 0)
    assert {(t.factors, t.coeff) for t in d.terms} == {("I", 1.0), ("M", -1.0)}
    assert np.array_equal(
        reconstruct(d).to_dense(), np.array([[1, 0], [-1, 1]], dtype=complex)
    )


def test_ode_extended_term_count():
    assert len(ode_extended_a1(3, 0)) == 4


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_ode_extended_matches_block_assembly(t, s):
    d = ode_extended_a1(t, s)
    assert len(d) == t + 1
    direct = stepping_dense(1 << t, 1 << s)
    assert np.array_equal(reconstruct(d).to_dense(), direct)


def test_ode_extended_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ode_extended_a1(0, 1)
    with pytest.raises(ValueError):
        ode_extended_a1(1, -1)


def test_heat_default_counts_and_assembly():
    p = HeatParams(s=2, t=2)
    system = heat_1d(p)
    assert system.predicted_term_count == 17
    assert len(system.decomposition) <= 17
    assert np.array_equal(system.matrix.to_dense(), heat_dense(p))
    assert reconstruct(system.decomposition) == system.matrix


def test_heat_neumann_corners():
    p = HeatParams(s=2, t=1, robin_w1=0.0, robin_w2=1.0)
    assert p.corner_value == 1.0
    system = heat_1d(p)
    dense = system.matrix.to_dense()
    # second diagonal block holds I - gamma * A_p with A_p corners -1
    gamma = p.alpha * p.dt / p.dx**2
    assert dense[p.n_x, p.n_x] == 1.0 + gamma


def test_heat_dirichlet_limit():
    p = HeatParams(s=2, t=1, robin_w1=1.0, robin_w2=0.0)
    assert p.corner_value == 0.0
    system = heat_1d(p)
    gamma = p.alpha * p.dt / p.dx**2
    block = system.matrix.to_dense()[p.n_x : 2 * p.n_x, p.n_x : 2 * p.n_x]
    assert np.array_equal(block, np.eye(p.n_x) + gamma * poisson_dense(p.n_x))


def test_heat_robin_correction_value():
    p = HeatParams(s=1, t=1, robin_w1=3.0, robin_w2=2.0, length=2.0)
    assert p.corner_value == pytest.approx(2.0 / (3.0 * p.dx + 2.0))
    system = heat_1d(p)
    assert frobenius_distance(system.matrix.to_dense(), heat_dense(p)) < 1e-12


def test_heat_rhs_layout():
    p = HeatParams(s=2, t=2, q_flux=3.0, k_cond=2.0)
    system = heat_1d(p)
    flux = p.q_flux * p.dt / (p.k_cond * p.dx)
    rhs = system.rhs
    assert rhs.shape == (p.n_t * p.n_x,)
    assert np.array_equal(rhs[: p.n_x], np.ones(p.n_x))
    for k in range(1, p.n_t):
        block = rhs[k * p.n_x : (k + 1) * p.n_x]
        assert block[0] == flux
        assert np.array_equal(block[1:], np.zeros(p.n_x - 1))


def test_heat_rejects_degenerate_robin():
    with pytest.raises(ValueError, match="robin"):
        HeatParams(s=1, t=1, robin_w1=0.0, robin_w2=0.0)


@pytest.mark.parametrize("k_cond", [0.0, -1.0, float("nan")])
def test_heat_rejects_non_positive_conductivity(k_cond):
    with pytest.raises(ValueError, match="k_cond must be positive"):
        HeatParams(s=1, t=1, k_cond=k_cond)


# The last conductivity is positive, but k * dx underflows to zero.
@pytest.mark.parametrize("q_flux, k_cond", [(float("nan"), 1.0), (1e308, 1e-10), (1.0, 5e-324)])
def test_heat_rejects_boundary_flux_that_is_not_finite(q_flux, k_cond):
    with pytest.raises(ValueError, match="boundary flux .* is not finite"):
        heat_1d(HeatParams(s=1, t=1, q_flux=q_flux, k_cond=k_cond, length=1.0))


# dx**2 underflows to zero for the tiny length and overflows for the huge one.
@pytest.mark.parametrize("length", [1e-200, 1e200])
def test_heat_rejects_grid_spacing_squared_outside_float_range(length):
    with pytest.raises(ValueError, match="grid spacing dx = .* outside floating-point range"):
        heat_1d(HeatParams(s=2, t=2, length=length))


@pytest.mark.parametrize("s,t", [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4)])
def test_heat_exact_for_integer_defaults(s, t):
    p = HeatParams(s=s, t=t)
    system = heat_1d(p)
    assert np.array_equal(system.matrix.to_dense(), heat_dense(p))


def test_heat_random_parameters_close():
    rng = np.random.default_rng(19)
    for _ in range(5):
        p = HeatParams(
            s=2,
            t=2,
            alpha=float(rng.uniform(0.1, 2.0)),
            length=float(rng.uniform(0.5, 3.0)),
            T=float(rng.uniform(0.5, 3.0)),
            robin_w1=float(rng.uniform(0.0, 2.0)),
            robin_w2=float(rng.uniform(0.5, 2.0)),
        )
        system = heat_1d(p)
        scale = max(1.0, np.abs(heat_dense(p)).max())
        assert frobenius_distance(system.matrix.to_dense(), heat_dense(p)) < 1e-12 * scale
        assert reconstruct(system.decomposition) == system.matrix


def test_wave_counts_and_block_structure():
    system = wave_1d(2, 2)
    assert system.predicted_term_count == 23
    assert len(system.decomposition) <= 23
    dense = system.matrix.to_dense()
    n_x = 4
    # generator block inside time step 1: top-right identity, bottom-left
    # scaled diffusion, zero diagonal blocks
    row = slice(2 * n_x, 4 * n_x)
    block = -dense[row, row] + np.eye(2 * n_x)
    assert np.array_equal(block[:n_x, n_x:], np.eye(n_x))
    assert np.array_equal(block[n_x:, :n_x], diffusion_dense(n_x, 1.0))
    assert np.array_equal(block[:n_x, :n_x], np.zeros((n_x, n_x)))


@pytest.mark.parametrize("s,t", [(1, 1), (2, 2), (3, 3)])
def test_wave_matches_direct_assembly(s, t):
    system = wave_1d(s, t)
    assert np.array_equal(system.matrix.to_dense(), wave_dense(s, t))
    assert reconstruct(system.decomposition) == system.matrix


def test_wave_rhs_layout():
    system = wave_1d(2, 2)
    rhs = system.rhs
    assert rhs.shape == (4 * 8,)
    assert np.array_equal(rhs[:8], np.ones(8))
    assert np.array_equal(rhs[8:], np.zeros(24))


def test_wave_rejects_bad_params():
    with pytest.raises(ValueError):
        wave_1d(0, 1)
    with pytest.raises(ValueError):
        wave_1d(1, 1, c=-1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"length": 1e-200}, "grid spacing dx"), ({"length": 1e200}, "grid spacing dx"), ({"c": 1e200}, "wave speed c")],
)
def test_wave_rejects_squares_outside_float_range(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} = .* outside floating-point range"):
        wave_1d(2, 2, **kwargs)


def test_counts_survive_merge():
    for s, t in [(2, 2), (2, 3), (3, 3)]:
        heat = heat_1d(HeatParams(s=s, t=t))
        merged = merge_terms(heat.decomposition)
        assert len(merged) <= (t + 1) + (4 * s + 6)
        wave = wave_1d(s, t)
        merged_wave = merge_terms(wave.decomposition)
        assert len(merged_wave) <= (t + 1) + 2 * (2 * (s + 1) + 4)
    for s in range(1, 5):
        poisson = poisson_1d(s)
        assert len(merge_terms(poisson.decomposition)) <= 2 * s + 1


def test_numerical_path_agrees_with_analytic():
    system = poisson_1d(3)
    numeric = merge_terms(decompose_numerical(system.matrix))
    assert reconstruct(numeric) == system.matrix
    assert len(numeric) <= len(system.decomposition)
