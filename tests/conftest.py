import tracemalloc

import numpy as np
import pytest

from torusfp import expressions as ex
from torusfp.coeff import ProblemSpec, build_coefficients, sample_initial_data


def make_spec(
    n=64,
    dim=1,
    d="1",
    pi="1",
    phi="0",
    f0="1",
    t_final=1.0,
    mu=None,
    lam=None,
    beta=0.5,
):
    return ProblemSpec(
        dim=dim,
        n_per_axis=n,
        d_coeff=ex.parse_expr(d),
        pi_coeff=ex.parse_expr(pi),
        phi_coeff=ex.parse_expr(phi),
        f0=ex.parse_expr(f0),
        T_final=t_final,
        mu=mu,
        lam=lam,
        beta_declared=beta,
    )


@pytest.fixture(scope="session")
def heat64():
    """Heat case: D = pi = 1, phi = 0 on n = 64."""
    spec = make_spec(n=64)
    return spec, build_coefficients(spec)


@pytest.fixture(scope="session")
def cosine128():
    """The cosine potential problem: D = pi = 1, phi = cos(2 pi x), f0 = 1."""
    spec = make_spec(n=128, phi="cos(2*pi*x1)", t_final=10.0)
    return spec, build_coefficients(spec)


@pytest.fixture(scope="session")
def cosine_d64():
    """Variable temperature: D = 2 + cos(2 pi x), phi = 0 (nonzero V)."""
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", f0="1+0.25*cos(2*pi*x1)")
    return spec, build_coefficients(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def kernel_lu_factors(monkeypatch):
    """A list that holds one entry per sparse LU factorization made by
    ``torusfp.kernel`` while the test runs."""
    import types

    import torusfp.kernel as kernel

    factors = []
    real = kernel.spla

    def splu(*args, **kwargs):
        factors.append(args[0].shape)
        return real.splu(*args, **kwargs)

    monkeypatch.setattr(kernel, "spla", types.SimpleNamespace(splu=splu))
    return factors


def sample_f0(spec):
    return sample_initial_data(spec)


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
