"""Constants ledger: exact hand values, independent re-derivations, properties.

The module under test evaluates several formulas in a refactored (log-domain /
factored) form to survive extreme parameters.  At moderate parameters the
naive textbook transcription does not overflow, so it serves as an
independent oracle here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import (
    ConstantsLedger,
    ModelParams,
    apriori_lambda,
    c_delta_k_n,
    compute_ledger,
    contraction_coefficients,
    local_ball,
    local_step,
)
from mfbsde.constants import FORMULAS

from conftest import log_inequality_gap


def params(n=1, gamma=1.0, K=0.0, delta=0.0, C0=0.0, C1=1.0, C2=0.0, T=1.0, phi=None):
    return ModelParams(
        n=n, d=1, T=T, gamma=gamma, K=K, delta=delta,
        phi=phi if phi is not None else (lambda r: 0.0),
        a=lambda t: C0 / T,
        alpha=lambda t: 0.0,
        beta=lambda t: C2 / T if C2 else 0.0,
        eta=lambda t: 0.0,
        C0=C0, C1=C1, C2=C2,
    )


# ---------------------------------------------------------------- hand values


def test_coupling_constant_hand_values():
    assert c_delta_k_n(0.0, 1.0, 2) == 2.0
    # delta = 1/2: 0.25 * (3/2)^3 * 1 = 27/32
    assert c_delta_k_n(0.5, 1.0, 1) == pytest.approx(27.0 / 32.0, rel=1e-15)
    assert c_delta_k_n(0.3, 0.0, 4) == 0.0


def test_k1_hand_value():
    k1, _ = local_ball(params(C0=0.0, C1=1.0))
    assert abs(k1 - (math.log(2.0) + 1.5)) <= 1e-12


def test_apriori_hand_value():
    c3, lam = apriori_lambda(params(C1=0.0, C2=0.0))
    c3_exact = math.log(4.0) + 12.0
    assert c3 == pytest.approx(c3_exact, rel=1e-9)
    assert lam == pytest.approx(c3_exact * math.exp(4.0), rel=1e-9)


# --------------------------------------------- independent naive re-derivation


def naive_k2(n, gamma, C0, C1):
    k1 = (n / gamma) * math.log(2.0) + 0.5 + n * (C0 + C1)
    return (n / gamma**2) * math.exp(2 * gamma * C1) + (n / gamma) * math.exp(
        4 * gamma * k1
    ) * (2 + 2 * C0)


@pytest.mark.parametrize(
    "n,gamma,C0,C1",
    [(1, 1.0, 0.0, 1.0), (2, 0.7, 0.3, 0.5), (3, 1.5, 0.01, 0.2), (1, 2.0, 0.5, 0.0)],
)
def test_local_ball_matches_naive_formula(n, gamma, C0, C1):
    k1, k2 = local_ball(params(n=n, gamma=gamma, C0=C0, C1=C1))
    k1_naive = (n / gamma) * math.log(2.0) + 0.5 + n * (C0 + C1)
    assert k1 == pytest.approx(k1_naive, rel=1e-13)
    assert k2 == pytest.approx(naive_k2(n, gamma, C0, C1), rel=1e-12)


@pytest.mark.parametrize(
    "n,gamma,K,delta,C0,C1",
    [(1, 1.0, 0.0, 0.0, 0.01, 1.0), (2, 0.8, 0.1, 0.25, 0.05, 0.5)],
)
def test_local_step_matches_naive_formula(n, gamma, K, delta, C0, C1):
    p = params(n=n, gamma=gamma, K=K, delta=delta, C0=C0, C1=C1, phi=lambda r: 0.5)
    k1 = (n / gamma) * math.log(2.0) + 0.5 + n * (C0 + C1)
    k2 = naive_k2(n, gamma, C0, C1)
    q = (1 + delta) / (1 - delta)
    cdkn = c_delta_k_n(delta, K, n)
    b1 = k1 / (n * 0.5 + (n * gamma**q + 1) * cdkn * (2 * k2) ** q)
    b2 = (gamma / n) * math.exp(-4 * gamma * k1) * k2 / (2 * 0.5 + 4 * cdkn * (2 * k2) ** q)
    assert local_step(p) == pytest.approx(min(b1, b2), rel=1e-10)


def test_apriori_matches_naive_formula():
    for n, gamma, C1, C2, T in [(1, 1.0, 0.5, 0.1, 1.0), (2, 0.6, 1.5, 0.02, 2.0)]:
        p = params(n=n, gamma=gamma, C1=C1, C2=C2, T=T)
        c3, lam = apriori_lambda(p)
        c3_naive = (
            (n / gamma) * math.log(2 * math.exp(gamma * C1) + 2)
            + 2 * n * (1 + 2 * n / gamma) * (C2 + 2 * T)
            + 4 * n * C2
        )
        lam_naive = c3_naive * math.exp(2 * n * C2 * (gamma + 1) + 4 * n * gamma * T)
        assert c3 == pytest.approx(c3_naive, rel=1e-12)
        assert lam == pytest.approx(lam_naive, rel=1e-12)


def test_contraction_coefficients_hand_value():
    # eps=1e-3, k1 chosen so phi(2 k1)=5, k2 tiny: coef_u ~ 64*n*eps*phi^2*(T + ...)
    p = params(n=1, gamma=1.0, C1=1.0, phi=lambda r: 5.0, T=1.0)
    eps, k1, k2 = 1e-3, 2.0, 1e-9
    coef_u, coef_v = contraction_coefficients(eps, k1, k2, p)
    expect_u = 64 * 1 * eps * 25.0 * (1.0 + 16 * k2 + 8 * k2)
    assert coef_u == pytest.approx(expect_u, rel=1e-12)
    expect_v = (
        96 * math.sqrt(3.0) * 1 * eps * 25.0 * (1 + 1) * (1.0 + 8 + 12 * k2 + 4 * k2)
    )
    assert coef_v == pytest.approx(expect_v, rel=1e-12)


# ------------------------------------------------------------------ properties


def test_coupling_constant_validation():
    with pytest.raises(ValueError):
        c_delta_k_n(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        c_delta_k_n(-0.1, 1.0, 1)
    with pytest.raises(ValueError):
        c_delta_k_n(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        c_delta_k_n(0.0, 1.0, 0)


@given(
    delta=st.floats(0.0, 0.95),
    K=st.floats(1e-6, 50.0),
    n=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_coupling_constant_positive_and_monotone_in_k(delta, K, n):
    v = c_delta_k_n(delta, K, n)
    assert v > 0.0 and math.isfinite(v)
    assert c_delta_k_n(delta, K * 2.0, n) >= v


def test_larger_terminal_bound_grows_ball_and_shrinks_step():
    small = params(C1=0.5, phi=lambda r: 0.5)
    big = params(C1=5.0, phi=lambda r: 0.5)
    assert local_ball(big)[0] > local_ball(small)[0]
    assert local_ball(big)[1] > local_ball(small)[1]
    assert local_step(big) <= local_step(small)


def test_local_step_terminal_override_matches_substitution():
    p = params(C1=0.5, phi=lambda r: 0.5)
    import dataclasses

    p_sub = dataclasses.replace(p, C1=3.0)
    assert local_step(p, terminal_bound=3.0) == local_step(p_sub)


def test_local_step_underflows_to_zero_for_huge_terminal_bound():
    p = params(K=0.05, delta=0.0, C1=1.0, phi=lambda r: 0.5)
    assert local_step(p, terminal_bound=1e6) == 0.0


def test_local_step_degenerate_envelope_raises():
    p = params(K=0.0, C1=1.0, phi=lambda r: 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        local_step(p)


def test_ledger_roundtrip_and_validation():
    p = params(C0=0.01, C1=1.0, C2=0.05, phi=lambda r: 0.5)
    led = compute_ledger(p)
    d = led.to_dict()
    assert set(d) == {"c_dkn", "k1", "k2", "eps0", "c3", "lambda", "t_lambda"}
    assert d["lambda"] == led.lam
    assert led.validate() == []          # c_dkn = 0 exempt when K = 0
    assert isinstance(led, ConstantsLedger)


def test_formulas_cover_ledger_fields():
    for key in ("c_dkn", "k1", "k2", "eps0", "c3", "lambda", "t_lambda"):
        assert key in FORMULAS and FORMULAS[key]


# ---------------------------------------------------------- log-gap inequality


def test_log_gap_vectorized_and_scalar():
    g = log_inequality_gap(1.0, 1.0, 1.0)
    assert isinstance(g, float)
    arr = log_inequality_gap(np.ones(4), np.ones(4), np.full(4, 2.0))
    assert arr.shape == (4,)
    assert np.all(arr >= -1e-12)


def test_log_gap_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_inequality_gap(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        log_inequality_gap(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        log_inequality_gap(1.0, 1.0, 0.0)


@given(
    x=st.floats(1e-6, 1e3),
    y=st.floats(1e-6, 1e3),
    C=st.floats(1e-6, 1e3),
)
@settings(max_examples=500, deadline=None)
def test_log_gap_nonnegative_property(x, y, C):
    assert log_inequality_gap(x, y, C) >= -1e-12


def test_log_gap_minimized_at_stationary_point():
    # The gap x^2/y + C log(1+Cy) - C log(1+x) has an interior minimum at
    # x(1+x) = Cy/2; the gap there must be the smallest and still nonnegative.
    y, C = 2.0, 3.0
    x_star = 0.5 * (-1.0 + math.sqrt(1.0 + 2.0 * C * y))
    g_star = log_inequality_gap(x_star, y, C)
    assert -1e-12 <= g_star
    assert g_star <= log_inequality_gap(2.0 * x_star, y, C)
    assert g_star <= log_inequality_gap(0.5 * x_star, y, C)
