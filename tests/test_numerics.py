"""Special-function accuracy against frozen high-precision values.

Reference values were computed with mpmath at 40 significant digits:
Phi via 0.5*erfc(-x/sqrt(2)), the chi-square survival function via the
regularized upper incomplete gamma.
"""

import math

import pytest

from pcfdr.numerics import chi_square_survival, std_normal_cdf, std_normal_quantile

# (x, Phi(x)) from the mpmath oracle
PHI_ORACLE = [
    (-8.0, 6.220960574271784123516e-16),
    (-6.0, 9.865876450376981407009e-10),
    (-4.0, 3.167124183311992125377e-05),
    (-2.0, 0.02275013194817920720028),
    (-1.0, 0.1586552539314570514148),
    (-0.5, 0.3085375387259868963623),
    (0.1234, 0.549104821463014530388),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (2.0, 0.9772498680518207927997),
    (3.3333, 0.999570888254647117669),
    (4.0, 0.9999683287581668800787),
    (6.0, 0.9999999990134123549623),
    (8.0, 0.9999999999999993779039),
]

# ((x, df), survival) from the mpmath oracle
CHI2_ORACLE = [
    ((0.5, 1), 0.4795001221869534623173),
    ((0.001, 1), 0.9747728793699603885423),
    ((1.386294361119890619, 2), 0.5),
    ((2.772589, 4), 0.5965735421477954593433),
    ((10.0, 3), 0.01856613546304323330317),
    ((25.5, 10), 0.004474169242351530802143),
    ((3.2, 7), 0.8659047417360984189226),
    ((100.0, 50), 3.454931382984863942145e-05),
    ((950.0, 200), 6.823207285655488149146e-98),
    ((1000.0, 200), 1.500879411925089434488e-106),
]


@pytest.mark.parametrize("x,expected", PHI_ORACLE)
def test_cdf_oracle(x, expected):
    assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-12)


def test_cdf_trivial_cases():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-math.inf) == 0.0
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_cdf_rejects_nan():
    with pytest.raises(ValueError):
        std_normal_cdf(float("nan"))


def test_cdf_monotone_on_grid():
    grid = [x / 100.0 for x in range(-800, 801)]
    values = [std_normal_cdf(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_quantile_examples():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-6)
    assert std_normal_quantile(0.0) == -math.inf
    assert std_normal_quantile(1.0) == math.inf


@pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.77,
                               0.99, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12])
def test_quantile_roundtrip(p):
    assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-9)


def test_quantile_cdf_roundtrip_on_x_grid():
    # Above x ~ 5.6 the double rounding of Phi(x) near 1 alone costs
    # ~1e-16 / pdf(x) > 1e-9 in x, so the tolerance widens there.
    for i in range(-60, 61):
        x = i / 10.0
        tol = 1e-9 if x <= 5.6 else 2e-8
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=tol)


def test_quantile_rejects_out_of_range():
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


@pytest.mark.parametrize("args,expected", CHI2_ORACLE)
def test_chi2_oracle(args, expected):
    x, df = args
    assert chi_square_survival(x, df) == pytest.approx(expected, abs=1e-12)


def test_chi2_trivial_and_errors():
    assert chi_square_survival(0.0, 2) == 1.0
    with pytest.raises(ValueError):
        chi_square_survival(-1.0, 2)
    with pytest.raises(ValueError):
        chi_square_survival(1.0, 0)


@pytest.mark.parametrize("df", [math.inf, math.nan, 2.5, -math.inf])
def test_chi2_rejects_df_that_is_not_a_positive_integer(df):
    # inf and NaN once escaped as int(df)'s OverflowError and bare ValueError.
    with pytest.raises(ValueError, match=r"^chi_square_survival: df=.* must be a positive integer$"):
        chi_square_survival(1.0, df)


def test_chi2_monotone_in_x_and_df():
    for df in (1, 2, 5, 20):
        values = [chi_square_survival(x / 2.0, df) for x in range(0, 100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
    for x in (0.5, 3.0, 12.0):
        values = [chi_square_survival(x, df) for df in range(1, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))
