import numpy as np
import pytest
import scipy.sparse as sparse

from oracles import sup_norm_traj

from torusfp.grid import (
    Field,
    TorusGrid,
    Trajectory,
    VectorField,
    divergence,
    gradient,
    integrate,
    load_field_csv,
    save_field_csv,
    sup_norm,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 16)
    with pytest.raises(ValueError):
        TorusGrid(1, 4)
    g = TorusGrid(2, 16)
    assert g.n_cells == 256
    assert g.h * g.n_per_axis == 1.0


def test_field_rejects_nonfinite():
    g = TorusGrid(1, 8)
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, np.nan, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(ValueError):
        Field(g, np.ones(7))


def test_gradient_of_constant_is_zero():
    g = TorusGrid(1, 32)
    grad = gradient(Field.constant(g, 4.2))
    assert np.max(np.abs(grad.components[0])) == 0.0


def test_gradient_sine_matches_analytic():
    g = TorusGrid(1, 64)
    f = Field.from_function(g, lambda x: np.sin(2 * np.pi * x))
    grad = gradient(f)
    exact = 2 * np.pi * np.cos(2 * np.pi * g.coords1d())
    # central-difference error bound (2 pi)^3 h^2 / 6 = 1.01e-2 at n = 64
    assert np.max(np.abs(grad.components[0] - exact)) <= 2e-2


def test_gradient_2d_axis_independence():
    g = TorusGrid(2, 16)
    f = Field.from_function(g, lambda x1, x2: np.sin(2 * np.pi * x1))
    grad = gradient(f)
    assert np.max(np.abs(grad.components[1])) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_neighbors_is_the_roll_permutation(dim):
    g = TorusGrid(dim, 8)
    n = g.n_per_axis
    k = np.arange(g.n_cells)
    cell = [k % n, k // n]  # (i1, i2) of each flat index, axis-1-fastest
    values = np.random.default_rng(dim).standard_normal(g.n_cells)
    for axis in range(dim):
        for shift in (+1, -1):
            nbr = g.neighbors(shift, axis)
            moved = list(cell)
            moved[axis] = (cell[axis] + shift) % n
            expected = moved[0] if dim == 1 else moved[0] + n * moved[1]
            assert np.array_equal(nbr, expected)
            rolled = np.roll(values.reshape(g.shape), -shift, axis=g.numpy_axis(axis)).ravel()
            assert np.array_equal(values[nbr], rolled)
            assert not nbr.flags.writeable
            assert g.neighbors(shift, axis) is nbr


@pytest.mark.parametrize("n", [8, 9, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_matrix_matches_a_coo_reference(dim, n):
    g = TorusGrid(dim, n)
    rng = np.random.default_rng(10 * n + dim)
    diag = rng.standard_normal(g.n_cells)
    pairs = [(rng.standard_normal(g.n_cells), rng.standard_normal(g.n_cells)) for _ in range(dim)]
    eye = np.arange(g.n_cells)
    rows, cols, data = [eye], [eye], [diag]
    for axis, (up, down) in enumerate(pairs):
        rows += [eye, eye]
        cols += [g.neighbors(+1, axis), g.neighbors(-1, axis)]
        data += [up, down]
    ref = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.n_cells, g.n_cells),
    ).tocsc()
    m = g.stencil_matrix(diag, pairs)
    assert m.format == "csc" and m.has_sorted_indices
    for attr in ("indices", "indptr", "data"):
        got, want = getattr(m, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the layout is built once per grid and shared read-only
    again = g.stencil_matrix(2.0 * diag, pairs)
    assert np.shares_memory(again.indices, m.indices) and not m.indices.flags.writeable
    assert np.shares_memory(again.indptr, m.indptr) and not m.indptr.flags.writeable


def _roll_central(values, g, axis):
    v = values.reshape(g.shape)
    ax = g.numpy_axis(axis)
    return ((np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2.0 * g.h)).ravel()


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
def test_gradient_and_divergence_match_roll_formulas(dim, n, rng):
    g = TorusGrid(dim, n)
    f = Field(g, rng.standard_normal(g.n_cells))
    grad = gradient(f)
    for axis in range(dim):
        assert np.array_equal(grad.components[axis], _roll_central(f.values, g, axis))
    comps = tuple(rng.standard_normal(g.n_cells) for _ in range(dim))
    expected = np.zeros(g.n_cells)
    for axis, comp in enumerate(comps):
        expected += _roll_central(comp, g, axis)
    assert np.array_equal(divergence(VectorField(g, comps)).values, expected)


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
def test_gradient_and_divergence_keep_the_signed_zeros_of_roll_formulas(dim, n):
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not
    g = TorusGrid(dim, n)
    pattern = np.array([0.0, -0.0, -0.0, 1.5, 0.0, -2.0, 0.0])
    signed = [np.resize(np.roll(pattern, k), g.n_cells) for k in range(dim + 1)]
    f = Field(g, signed[0])
    for axis in range(dim):
        assert gradient(f).components[axis].tobytes() == _roll_central(f.values, g, axis).tobytes()
    comps = tuple(signed[1:])
    terms = [_roll_central(comp, g, axis) for axis, comp in enumerate(comps)]
    # each term holds -0.0 entries, which the sum from +0.0 turns into +0.0
    assert all(np.any((t == 0) & np.signbit(t)) for t in terms)
    expected = np.zeros(g.n_cells)
    for term in terms:
        expected += term
    assert divergence(VectorField(g, comps)).values.tobytes() == expected.tobytes()


def test_divergence_zero_field():
    g = TorusGrid(1, 32)
    z = VectorField(g, (np.zeros(32),))
    assert np.max(np.abs(divergence(z).values)) == 0.0


def test_divergence_integral_telescopes(rng):
    for dim, n in ((1, 64), (2, 16)):
        g = TorusGrid(dim, n)
        comps = tuple(rng.standard_normal(g.n_cells) for _ in range(dim))
        assert abs(integrate(divergence(VectorField(g, comps)))) <= 1e-13


def test_divergence_of_gradient_sine():
    # composing the two pinned central operators gives the wide Laplacian;
    # its mode-1 error at n = 64 is 4 pi^2 (1 - sinc(2 pi h)^2) = 0.1267
    g = TorusGrid(1, 64)
    f = Field.from_function(g, lambda x: np.sin(2 * np.pi * x))
    lap = divergence(gradient(f))
    err = np.max(np.abs(lap.values + 4 * np.pi**2 * np.sin(2 * np.pi * g.coords1d())))
    assert err <= 0.13
    assert err >= 0.12  # pins the wide-stencil behavior


def test_integrate_examples():
    g = TorusGrid(1, 64)
    assert integrate(Field.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-15)
    f = Field.from_function(g, lambda x: np.cos(2 * np.pi * x))
    assert abs(integrate(f)) <= 1e-14


def test_integrate_exp_cos_bessel():
    from scipy.special import i0

    g = TorusGrid(1, 128)
    f = Field.from_function(g, lambda x: np.exp(-np.cos(2 * np.pi * x)))
    val = integrate(f)
    assert val == pytest.approx(i0(1.0), abs=1e-12)  # quadrature oracle
    assert abs(val - 1.26607) <= 1e-5  # printed constant is I0(1) to 6 digits


def test_sup_norm_examples():
    g = TorusGrid(1, 64)
    assert sup_norm(Field.constant(g, -3.0)) == 3.0
    f = Field.from_function(g, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
    assert sup_norm(f) == pytest.approx(1.5, abs=1e-14)  # attained at x = 0


def test_sup_norm_trajectory():
    g = TorusGrid(1, 8)
    tr = Trajectory(
        g, np.array([0.0, 1.0]), [Field.constant(g, 1.0), Field.constant(g, -2.0)]
    )
    assert sup_norm_traj(tr) == 2.0


def test_trajectory_validation():
    g = TorusGrid(1, 8)
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 0.0]), [Field.constant(g, 1.0)] * 2)


def test_gradient_commutes_with_cyclic_shift(rng):
    g = TorusGrid(1, 64)
    vals = rng.standard_normal(64)
    for k in (1, 7, 33):
        shifted = gradient(Field(g, np.roll(vals, k))).components[0]
        direct = np.roll(gradient(Field(g, vals)).components[0], k)
        assert np.array_equal(shifted, direct)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_adjointness_of_gradient_and_divergence(dim, n, rng):
    g = TorusGrid(dim, n)
    for _ in range(20):
        u = Field(g, rng.standard_normal(g.n_cells))
        comps = tuple(rng.standard_normal(g.n_cells) for _ in range(dim))
        vec = VectorField(g, comps)
        lhs = integrate(Field(g, u.values * divergence(vec).values))
        grad_u = gradient(u)
        dot = np.zeros(g.n_cells)
        for gu, vc in zip(grad_u.components, vec.components):
            dot += gu * vc
        rhs = -integrate(Field(g, dot))
        assert abs(lhs - rhs) <= 1e-12


def test_quadrature_kills_single_fourier_modes():
    g = TorusGrid(1, 64)
    x = g.coords1d()
    for k in range(1, 32):
        assert abs(integrate(Field(g, np.cos(2 * np.pi * k * x)))) <= 1e-13
        assert abs(integrate(Field(g, np.sin(2 * np.pi * k * x)))) <= 1e-13
    g2 = TorusGrid(2, 16)
    x1, x2 = g2.meshgrid()
    for k1, k2 in ((1, 0), (0, 3), (2, 5), (7, 7)):
        assert abs(integrate(Field(g2, np.cos(2 * np.pi * (k1 * x1 + k2 * x2))))) <= 1e-13


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_field_csv_roundtrip(dim, n, tmp_path, rng):
    g = TorusGrid(dim, n)
    f = Field(g, rng.standard_normal(g.n_cells))
    path = tmp_path / "field.csv"
    save_field_csv(f, path, header_comment="test")
    back = load_field_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)  # 17 significant digits round-trip


def test_field_values_are_immutable():
    g = TorusGrid(1, 8)
    f = Field.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
