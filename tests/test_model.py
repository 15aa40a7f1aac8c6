"""Distribution and parameter-bundle checks for the hazard model."""

import importlib
import importlib.util
import math
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extrisk import (
    ConsumptionPath,
    DegenerateHazardError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
    sample_date_counts,
    sample_extinction_times,
    sample_lifetimes,
)
from extrisk import model
from extrisk.model import _CHUNK, _dense_bins, _remainders


@pytest.mark.parametrize("module", ["model", "series", "analysis", "simulate"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"extrisk.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    # bench/spans.py patches these by name, so a traced bench run breaks on a missing one
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load bench/ without writing to it
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ext = lambda module: importlib.import_module(f"extrisk.{module}")
    missing = [(m, f) for m, f in spans.FUNCTIONS if not hasattr(ext(m), f)]
    missing += [(m, c, f) for m, c, f in spans.METHODS if not hasattr(getattr(ext(m), c, None), f)]
    assert len(spans.FUNCTIONS) > 0 and len(spans.METHODS) > 0 and missing == []


hazard_floats = st.floats(min_value=0.0005, max_value=0.95)
birth_floats = st.floats(min_value=0.0, max_value=1.0)


# --- HazardParams -------------------------------------------------------------


def test_growth_rate_is_derived_exactly():
    p = HazardParams(m=0.02, M=0.01, b=0.03)
    assert 1.0 + p.n == (1.0 + 0.03) * (1.0 - 0.02)


@given(m=hazard_floats, b=birth_floats)
@settings(max_examples=100, deadline=None)
def test_growth_identity_holds_for_random_params(m, b):
    p = HazardParams(m=m, M=0.01, b=b)
    g = (1.0 + b) * (1.0 - m)
    # bitwise exact whenever g - 1 is representable exactly (g in [0.5, 2]);
    # one ulp of slack covers the round trip for heavily shrinking populations
    if 0.5 <= g <= 2.0:
        assert 1.0 + p.n == g
    else:
        assert 1.0 + p.n == pytest.approx(g, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=-0.1, M=0.0),
        dict(m=1.2, M=0.0),
        dict(m=0.1, M=-0.5),
        dict(m=0.1, M=0.1, b=-0.01),
        dict(m=0.1, M=0.1, theta=1.5),
        dict(m=0.1, M=0.1, alpha=0.0),
        dict(m=0.1, M=0.1, alpha=1.0),
        dict(m=0.1, M=0.1, N0=0.0),
        dict(m=0.1, M=0.1, b=math.nan),
        dict(m=0.1, M=0.1, b=math.inf),
        dict(m=0.1, M=0.1, N0=math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        HazardParams(**kwargs)


@pytest.mark.parametrize("value", [True, "0.1", None, pytest.param(10**400, id="past-float-range")])
@pytest.mark.parametrize("field", ["m", "M", "b", "theta", "alpha", "N0"])
def test_every_field_rejects_a_bool_or_a_non_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
        HazardParams(**{"m": 0.1, "M": 0.1, field: value})


def test_unit_hazards_are_allowed():
    assert HazardParams(m=1.0, M=0.0).death_hazard == 1.0
    assert HazardParams(m=0.0, M=1.0).death_hazard == 1.0


def test_degenerate_flag():
    assert HazardParams(m=0.0, M=0.0).is_degenerate
    assert not HazardParams(m=0.0, M=0.001).is_degenerate


def test_with_n_zero_pins_growth_to_one():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    assert p.gross_growth == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        HazardParams(m=1.0, M=0.1).with_n_zero()


# --- sampling ----------------------------------------------------------------------


def test_certain_immediate_death():
    rng = np.random.default_rng(0)
    p = HazardParams(m=1.0, M=0.0)
    draws = sample_lifetimes(p, 1000, rng)
    assert np.all(draws == 0)
    assert sample_lifetimes(p, 1, rng)[0] == 0


def test_degenerate_sampling_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateHazardError):
        sample_lifetimes(HazardParams(m=0.0, M=0.0), 10, rng)


def _max_cdf_deviation(params, draws):
    n = draws.size
    hi = int(draws.max())
    counts = np.bincount(draws, minlength=hi + 1)
    ecdf = np.cumsum(counts) / n
    cdf = 1.0 - params.joint_survival ** (np.arange(hi + 1) + 1)  # P(D <= t)
    return float(np.max(np.abs(ecdf - cdf)))


def test_sampled_lifetimes_match_pmf_dkw():
    # Dvoretzky-Kiefer-Wolfowitz style bound at a million draws
    rng = np.random.default_rng(20240601)
    p = HazardParams(m=0.02, M=0.01)
    draws = sample_lifetimes(p, 1_000_000, rng)
    assert _max_cdf_deviation(p, draws) < 4.0 / math.sqrt(1_000_000)


def test_extinction_only_lifetimes_are_geometric():
    rng = np.random.default_rng(7)
    p = HazardParams(m=0.0, M=0.5)
    draws = sample_lifetimes(p, 200_000, rng)
    assert _max_cdf_deviation(p, draws) < 4.0 / math.sqrt(200_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)  # geometric from 0, mean (1-M)/M


def test_empirical_pmf_at_zero():
    rng = np.random.default_rng(99)
    p = HazardParams(m=0.02, M=0.01)
    draws = sample_lifetimes(p, 1_000_000, rng)
    p0 = np.mean(draws == 0)
    se = math.sqrt(0.0298 * (1 - 0.0298) / 1_000_000)
    assert abs(p0 - 0.0298) < 3 * se


# --- date histograms ------------------------------------------------------------------


def _geometric_chi2_pvalue(counts, p):
    """Pearson chi-square p-value of date counts against the pmf (1-p)**k p.

    Bins are kept while each expects at least 5 dates; the rest are pooled into
    one bin. The p-value uses the Wilson-Hilferty normal approximation, which
    is close at the hundreds to thousands of degrees of freedom used here.
    """
    reps = int(counts.sum())
    expected = reps * p * (1.0 - p) ** np.arange(len(counts))
    k = int(np.argmax(expected < 5.0))
    obs = np.append(counts[:k], counts[k:].sum())
    exp = np.append(expected[:k], reps * (1.0 - p) ** k)
    stat, dof = float(np.sum((obs - exp) ** 2 / exp)), len(obs) - 1
    z = ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    return 0.5 * math.erfc(z / math.sqrt(2))


@pytest.mark.parametrize("p, reps, seed, block", [
    (0.01, 1_000_000, 11, _CHUNK),  # dense bins up to about bin 500 in one block, then the tail
    (0.01, 100_000_000, 14, _CHUNK),  # dense bins up to about bin 960: a chi-square over 1,200 bins
    (0.01, 1_000_000, 15, 37),  # the dense bins in blocks of 37, the last one short
    (1e-4, 2 * _CHUNK + 3, 12, _CHUNK),  # sparse tail only, across two batch boundaries
])
def test_date_counts_follow_the_geometric_law(p, reps, seed, block, monkeypatch):
    monkeypatch.setattr(model, "_CHUNK", block)
    cap = 400_000
    counts = sample_date_counts(p, reps, cap, np.random.default_rng(seed))
    assert counts.shape == (cap + 2,) and counts.dtype == np.int64
    assert counts.sum() == reps
    assert _geometric_chi2_pvalue(counts, p) > 1e-4


def test_extinction_times_follow_the_geometric_law():
    draws = sample_extinction_times(0.05, 200_000, np.random.default_rng(13))
    assert draws.dtype == np.int64 and draws.min() == 0
    assert _geometric_chi2_pvalue(np.bincount(draws, minlength=1_000), 0.05) > 1e-4


def test_extinction_times_need_an_extinction_hazard():
    with pytest.raises(NoExtinctionError, match="^M = 0: the extinction date is never drawn$"):
        sample_extinction_times(0.0, 10, np.random.default_rng(0))


def test_date_counts_at_certain_failure_fill_bin_zero():
    for size in (10, 1_000):  # below and above the dense-bin switch
        counts = sample_date_counts(1.0, size, 5, np.random.default_rng(0))
        assert counts.tolist() == [size, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("p, size, dense", [
    (1.0, 1_000, 1),  # every date in bin 0: the single-bin pmf [1], no log1p(-1)
    (1 - 2**-53, 10**6, 1),  # 1 - hazard is 2**-53: bin 1 expects about 1e-10 dates
    (0.5, 10**6, 13),
    (0.5, 128, 1),  # size * hazard is exactly 64: bin 0 is dense, bin 1 is not
    (0.25, 10**18, 51),  # the last dense bin reaches the cap
])
def test_date_counts_at_edge_hazards_keep_every_date_and_warn_nothing(p, size, dense):
    cap = 50
    assert _dense_bins(p, size, cap) == dense
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = sample_date_counts(p, size, cap, np.random.default_rng(8))
    assert counts.sum() == size and counts.min() >= 0


@pytest.mark.parametrize("p", [1.0, 1 - 2**-53, 0.75, 0.5, 0.3, 0.01, 2e-3, 1e-4])
def test_numpy_draws_each_dense_bin_at_the_hazard(p):
    # numpy's multinomial draws bin k as Binomial(left, pvals[k] / remaining), remaining being
    # 1.0 minus pvals[0], ..., pvals[k-1] in turn; replay that over every bin the largest count
    # makes dense
    length = min(_dense_bins(p, 2**63 - 1, 1 << 21), _CHUNK)
    rem = _remainders(p, length)
    pvals = p * rem[:length]
    remaining = 1.0
    for k, pk in enumerate(pvals.tolist()):
        ratio = pk / remaining
        assert ratio <= 1.0 and abs(ratio - p) <= math.ulp(p), (k, ratio)
        remaining -= pk
        assert remaining == rem[k + 1]


@pytest.mark.parametrize("block", [_CHUNK, 37])
def test_dense_bins_are_the_chain_of_conditional_binomials(block, monkeypatch):
    # the scalar loop the multinomial replaces: per dense bin one Binomial(left, pvals[j] /
    # remaining), each block starting again from pvals[0] and remaining 1.0; same seed, same draws
    monkeypatch.setattr(model, "_CHUNK", block)
    p, size, cap = 0.01, 10**6, 10_000
    dense = _dense_bins(p, size, cap)
    counts = sample_date_counts(p, size, cap, np.random.default_rng(21))
    rng, rem, left, chain = np.random.default_rng(21), _remainders(p, min(dense, block)), size, []
    for k in range(dense):
        j = k % block
        remaining = 1.0 if j == 0 else remaining - p * rem[j - 1]
        chain.append(int(rng.binomial(left, p * rem[j] / remaining)))
        left -= chain[-1]
    assert dense == 503 and counts[:dense].tolist() == chain


@pytest.mark.parametrize("size, cap, expected", [
    (0, 3, [0, 0, 0, 0, 0]),  # no dates: no draws
    (10, 0, [2, 8]),  # one bin and the bin beyond it
    (np.int64(10), np.int64(0), [2, 8]),  # numpy integers are integers
], ids=["size-zero", "cap-zero", "numpy-integers"])
def test_date_counts_accept_the_edges_of_their_domain(size, cap, expected):
    assert sample_date_counts(0.3, size, cap, np.random.default_rng(0)).tolist() == expected


def test_date_counts_of_one_date():
    counts = sample_date_counts(0.3, 1, 40, np.random.default_rng(3))
    assert counts.sum() == 1 and len(counts) == 42


def test_date_counts_below_the_switch_bin_put_the_rest_in_the_last_bin():
    p, reps, cap = 0.01, 1_000_000, 100  # dense bins would run to about bin 500
    short = sample_date_counts(p, reps, cap, np.random.default_rng(4))
    full = sample_date_counts(p, reps, 10_000, np.random.default_rng(4))
    assert short[:-1].tolist() == full[:cap + 1].tolist()
    assert short[-1] == reps - full[:cap + 1].sum() > 0


def test_date_counts_draw_the_sparse_tail_in_bounded_batches():
    # 3e6 dates at 2e-5 expect 60 per bin: every date is a geometric draw
    tracemalloc.start()
    try:
        counts = sample_date_counts(2e-5, 3_000_000, 100, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 3_000_000
    assert peak < 8 * 2**20


def test_date_counts_draw_the_dense_bins_in_bounded_blocks():
    # 1e12 dates at 1e-7 expect 9e4 in bin 2**20: every bin is dense, eight blocks of _CHUNK
    cap = 1 << 20
    assert _dense_bins(1e-7, 10**12, cap) == cap + 1 > 8 * _CHUNK
    tracemalloc.start()
    try:
        counts = sample_date_counts(1e-7, 10**12, cap, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**12 and counts[:-1].min() > 0
    assert peak < counts.nbytes + 8 * 2**20


# --- consumption paths and utility ---------------------------------------------------


def test_constant_path_values():
    path = ConsumptionPath.constant(2.0)
    assert path.value(0) == 2.0
    assert path.value(100) == 2.0
    np.testing.assert_allclose(path.values(0, 5), np.full(5, 2.0))


def test_geometric_tail_values():
    path = ConsumptionPath(prefix=(1.0, 2.0), tail="geometric", ratio=0.5)
    assert path.value(1) == 2.0
    assert path.value(3) == 2.0 * 0.25
    np.testing.assert_allclose(path.values(1, 4), [2.0, 1.0, 0.5])


@given(start=st.integers(min_value=0, max_value=30), length=st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_vectorised_values_match_scalar(start, length):
    path = ConsumptionPath(prefix=(1.0, 3.0, 2.5, 0.7), tail="geometric", ratio=0.9)
    vec = path.values(start, start + length)
    ref = [path.value(t) for t in range(start, start + length)]
    assert list(map(float.hex, vec.tolist())) == list(map(float.hex, ref))


@given(prefix=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
       ratio=st.floats(0.5, 0.9999), start=st.integers(min_value=0, max_value=500))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_value_reads_values_bit_for_bit_on_geometric_tails(prefix, ratio, start):
    path = ConsumptionPath(prefix=tuple(prefix), tail="geometric", ratio=ratio)
    dates = range(start, start + 100)
    assert [path.value(t).hex() for t in dates] == \
        [path.values(t, t + 1)[0].hex() for t in dates] == \
        list(map(float.hex, path.values(start, start + 100).tolist()))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(prefix=()),
        dict(prefix=(1.0, -2.0)),
        dict(prefix=(1.0, 0.0)),
        dict(prefix=(1.0, math.inf)),
        dict(prefix=(1.0,), tail="geometric"),
        dict(prefix=(1.0,), tail="geometric", ratio=1.0),
        dict(prefix=(1.0,), tail="weird"),
        dict(prefix=(1.0,), tail="constant", ratio=0.5),
        dict(prefix=(1.0, 10**400)),  # an integer no float holds
    ],
)
def test_invalid_paths_rejected(kwargs):
    with pytest.raises(ValueError):
        ConsumptionPath(**kwargs)


def test_utility_families():
    assert UtilitySpec.linear()(3.0) == 3.0
    assert UtilitySpec.log()(1.0) == 0.0
    u = UtilitySpec.crra(2.0)
    assert u(2.0) == pytest.approx((2.0**-1 - 1.0) / -1.0, rel=1e-15)
    np.testing.assert_allclose(UtilitySpec.log()(np.array([1.0, math.e])), [0.0, 1.0])


# points where c**(1-sigma) - 1 cancels (c near 1) and two away from it
NEAR_ONE = (1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 - 1e-9, 1 + 1e-6, 1 - 1e-6, 0.5, 2.0)


@pytest.mark.parametrize("sigma", [0.5, 3.0, 5.0])
def test_crra_utility_keeps_every_digit_near_one(sigma):
    u = UtilitySpec.crra(sigma)
    with localcontext() as ctx:
        ctx.prec = 50
        s1 = 1 - Decimal(sigma)
        exact = [(Decimal(c) ** s1 - 1) / s1 for c in NEAR_ONE]
    got = [u(c) for c in NEAR_ONE]
    assert u(np.array(NEAR_ONE)).tolist() == got
    worst = max(abs(Decimal(g) - e) / abs(e) for g, e in zip(got, exact))
    assert worst <= Decimal("1e-15"), f"relative error {worst:.3e}"


def test_crra_sigma_one_redirects_to_log():
    with pytest.raises(ValueError):
        UtilitySpec.crra(1.0)
    with pytest.raises(ValueError):
        UtilitySpec.crra(-0.5)
    with pytest.raises(ValueError):
        UtilitySpec.crra(math.nan)


def test_log_rejects_nonpositive_consumption():
    with pytest.raises(ValueError):
        UtilitySpec.log()(0.0)
    with pytest.raises(ValueError):
        UtilitySpec.crra(2.0)(np.array([1.0, -1.0]))
    assert UtilitySpec.linear()(0.0) == 0.0


RNG = np.random.default_rng(0)  # the sampler rows below are rejected before any draw


@pytest.mark.parametrize("call, message", [
    (lambda: ConsumptionPath.constant(1.0).value(-1), "t must be >= 0"),
    (lambda: ConsumptionPath.constant(1.0).values(3, 2), "need 0 <= start <= stop"),
    (lambda: UtilitySpec("cubic"), "unknown utility family 'cubic'"),
    (lambda: UtilitySpec("log", sigma=2.0), "log utility takes no sigma"),
    (lambda: sample_date_counts(0.5, 10, -1, RNG), "cap must be an integer >= 0, got -1"),
    (lambda: sample_date_counts(0.5, 10, 2.0, RNG), "cap must be an integer >= 0, got 2.0"),
    (lambda: sample_date_counts(0.5, True, 5, RNG), "size must be an integer >= 0, got True"),
    (lambda: sample_date_counts(0.5, 10.0, 5, RNG), "size must be an integer >= 0, got 10.0"),
    (lambda: sample_date_counts(0.5, -1, 5, RNG), "size must be an integer >= 0, got -1"),
], ids=["negative-date", "reversed-range", "unknown-family", "log-with-sigma", "negative-cap",
        "float-cap", "bool-size", "float-size", "negative-size"])
def test_paths_and_utilities_reject_what_they_cannot_evaluate(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# a bool, a str or nan is not a hazard or a sigma, as HazardParams already says of its fields
@pytest.mark.parametrize("call, message", [
    (lambda: sample_date_counts(True, 10, 5, RNG), "hazard must lie in (0, 1], got True"),
    (lambda: sample_date_counts("0.5", 10, 5, RNG), "hazard must lie in (0, 1], got '0.5'"),
    (lambda: sample_date_counts(math.nan, 10, 5, RNG), "hazard must lie in (0, 1], got nan"),
    (lambda: sample_date_counts(0.0, 10, 5, RNG), "hazard must lie in (0, 1], got 0.0"),
    (lambda: sample_date_counts(1.5, 10, 5, RNG), "hazard must lie in (0, 1], got 1.5"),
    (lambda: UtilitySpec.crra("2"), "crra needs a finite sigma > 0"),
    (lambda: UtilitySpec.crra(True), "crra needs a finite sigma > 0"),
    (lambda: UtilitySpec.crra(10**400), "crra needs a finite sigma > 0"),
], ids=["hazard-bool", "hazard-str", "hazard-nan", "hazard-zero", "hazard-above-one",
        "sigma-str", "sigma-bool", "sigma-past-float-range"])
def test_hazards_and_sigma_must_be_numbers(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

