"""Stage-2 pooling: REML, DerSimonian-Laird, t quantiles, prediction intervals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catemeta import (
    EstimationError,
    InsufficientStudiesError,
    dl_theta2,
    pool_profiles,
    t_quantile,
)
from catemeta import meta
from catemeta.meta import (
    _GRID_FRAC,
    _half_width,
    _pool_rows,
    _profile_log_likelihood,
    _score,
    ndtri,
    reml_theta2_batch,
)


def theta2_of(tau, v):
    """The REML theta2 of one profile's K estimates."""
    return float(pool_profiles(np.c_[tau], np.c_[v]).theta2[0])


def one_profile(tau, v):
    """One profile's K estimates as a Stage-2 layout (tau, v, m): a (K, 1) column."""
    tau = np.asarray(tau, dtype=np.float64)[:, None]
    return tau, np.asarray(v, dtype=np.float64)[:, None], np.ones(tau.size, dtype=np.intp)


def loglik(theta2, tau, v):
    """Restricted log likelihood of one profile at each of the theta2 values."""
    return _profile_log_likelihood(np.atleast_1d(np.asarray(theta2, dtype=np.float64))[None],
                                   *one_profile(tau, v))[0]


def pool_at(tau, v, theta2):
    """(tau_pooled, var_pooled) of one profile pooled at a fixed theta2."""
    equal = np.array([min(tau) == max(tau)])
    center, var = _pool_rows(*one_profile(tau, v), np.array([theta2]), equal)
    return float(center[0]), float(var[0])


def interval_at(tau, v, theta2, alpha):
    """(lower, center, upper) of the level 1 - alpha prediction interval of one
    profile pooled at a fixed theta2."""
    center, var = pool_at(tau, v, theta2)
    half = float(_half_width(var, theta2, alpha, len(tau)))
    return center - half, center, center + half


def grid_argmax(tau, v, upper, coarse=1e-3, fine=1e-6):
    """Brute-force grid maximizer of the restricted log likelihood.

    Coarse scan over [0, upper], then a dense scan at the fine step around
    the coarse winner; equivalent to a full fine grid when the coarse scan
    brackets the global maximum.
    """
    coarse_grid = np.arange(0.0, upper + coarse, coarse)
    vals = loglik(coarse_grid, tau, v)
    center = coarse_grid[int(np.argmax(vals))]
    lo = max(center - 2 * coarse, 0.0)
    fine_grid = np.arange(lo, min(center + 2 * coarse, upper) + fine, fine)
    vals = loglik(fine_grid, tau, v)
    return float(fine_grid[int(np.argmax(vals))])


class TestRestrictedLogLikelihood:
    def test_hand_value_two_equal_studies(self):
        value = loglik(0.0, [1.0, 1.0], [1.0, 1.0])[0]
        assert value == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)

    def test_decreases_as_theta2_grows_large(self):
        tau, v = [0.0, 1.0, 3.0], [0.5, 1.0, 2.0]
        values = loglik([10.0, 100.0, 1000.0, 10000.0], tau, v)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_identical_estimates_maximized_at_zero(self):
        tau, v = [2.0, 2.0, 2.0], [0.3, 0.6, 0.9]
        at_zero = loglik(0.0, tau, v)[0]
        for t2 in (0.01, 0.1, 1.0):
            assert loglik(t2, tau, v)[0] < at_zero


class TestRemlTheta2:
    def test_identical_estimates_give_zero(self):
        assert theta2_of([3.0, 3.0, 3.0], [0.5, 1.0, 2.0]) == 0.0

    def test_matches_grid_oracle_on_stated_example(self):
        tau, v = [0.0, 1.0, 2.0], [0.5, 0.5, 0.5]
        oracle = grid_argmax(tau, v, upper=20.0)
        assert theta2_of(tau, v) == pytest.approx(oracle, abs=1e-4)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            k = int(rng.integers(3, 13))
            tau = rng.normal(0.0, rng.uniform(0.2, 2.0), size=k)
            v = rng.uniform(0.05, 1.5, size=k)
            upper = 10.0 * float(np.var(tau, ddof=1)) + float(v.max())
            assert theta2_of(tau, v) == pytest.approx(
                grid_argmax(tau, v, upper=upper), abs=1e-4
            ), f"instance {trial}"

    def test_nonnegative_always(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            assert theta2_of(rng.normal(size=k), rng.uniform(0.1, 2.0, size=k)) >= 0.0

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        k, n_prof = 6, 40
        tau = rng.normal(0.0, 1.0, size=(k, n_prof))
        v = rng.uniform(0.05, 1.0, size=(k, n_prof))
        batch = reml_theta2_batch(tau, v)
        for j in range(n_prof):  # each profile solved alone gives the same bits
            assert batch[j] == reml_theta2_batch(tau[:, j:j + 1], v[:, j:j + 1])[0]

    def test_solves_the_score_equation(self):
        # Interior maximizers are roots of the REML score to machine precision,
        # which comparing likelihood values alone cannot reach.
        rng = np.random.default_rng(5)
        tau = rng.normal(0.0, 1.5, size=(8, 50))
        v = rng.uniform(0.05, 1.0, size=(8, 50))
        theta2 = reml_theta2_batch(tau, v)
        inside = theta2 > 0.0
        assert inside.sum() > 25
        # Profiles of one K are a layout as they stand: study k of each in row k
        k, n = tau[:, inside].shape
        score, slope = _score(theta2[inside], tau[:, inside], v[:, inside], np.full(k, n))
        assert np.all(np.abs(score / slope) <= 1e-11 * (1.0 + theta2[inside]))

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            reml_theta2_batch(np.zeros((1, 4)), np.ones((1, 4)))
        with pytest.raises(ValueError, match="K >= 2"):  # pooling needs two studies
            pool_profiles(np.zeros((1, 4)), np.ones((1, 4)))


# (tau_hat, se2) of profiles whose restricted likelihood has more than one
# local maximum on [0, 10 * var(tau_hat) + max(se2)].  Drawn by a seeded
# search over 40,000 profiles: K uniform on 3..7, tau_hat ~ N(0, sd) with
# sd ~ U(0.1, 10), and log10 se2 ~ U(-6, 4) for half the draws, U(-3, 2) for
# the other half.  Kept: the 81 of the 97 multimodal draws whose global
# maximum a 65-point uniform scan plus Newton reaches within 1e-9, rounded to
# 6 significant digits (every case stays multimodal).
MULTIMODAL_CASES = (
    ((-1.00432, -1.67288, -1.66018, -1.8322, 1.4225, -3.12729, -0.843844),
     (18.961, 0.00243311, 0.000143767, 1.94676, 1.13544, 0.266382, 171.13)),
    ((-2.40335, -0.559132, -0.622343),
     (0.298326, 0.00186676, 2.13857e-05)),
    ((-5.20852, 11.5219, -10.7461, -8.92078),
     (1411.97, 62.3071, 0.0186447, 0.240278)),
    ((-2.44157, 5.73517, -0.105223, -2.33639),
     (0.00795591, 565.001, 0.682142, 1.20581e-06)),
    ((-2.21142, 6.87042, -5.4525, -12.8725, -8.1658, -2.24712),
     (3.41743e-06, 1097.45, 2246.16, 22.5855, 3.13408, 0.0227677)),
    ((2.27246, -1.71231, 0.0654907, -1.65271, -2.21035, 0.301317),
     (2.16759, 7.08186e-06, 1.43526, 0.00131753, 1809.44, 1812.63)),
    ((1.73146, 2.88562, -3.3087, 4.30718, -3.12041),
     (99.2527, 2.32873, 2.41877e-05, 23.2956, 0.000180414)),
    ((0.827575, -3.65994, 0.639135, -0.790904, -2.61623),
     (0.00335195, 3.16337, 0.102116, 18.2493, 108.989)),
    ((12.484, 0.52775, 1.26493),
     (22.0217, 0.279853, 0.000290093)),
    ((-3.28369, -2.53103, -13.4208, -3.42569, 6.76205, 9.89566, -2.2693),
     (0.0200973, 0.000512799, 399.56, 8.73357e-06, 1047.79, 9.71864, 14.0144)),
    ((-2.77722, 10.0129, -2.55489),
     (0.137529, 14.1243, 0.00351495)),
    ((-11.1728, -4.13477, 3.26387, -4.1779),
     (4.04039, 0.00225252, 2.54817, 7.29944e-05)),
    ((-1.7361, 2.85026, 2.7005, -2.78828, 1.43706),
     (16.7277, 0.0298592, 0.151873, 4.4703, 72.74)),
    ((-7.90016, 0.630678, -24.2398, 0.655359),
     (4451.29, 2.98579e-06, 47.2048, 0.000162846)),
    ((-0.31402, 3.84867, 3.45339, -4.89359),
     (91.7715, 0.151964, 0.00090636, 5.53383)),
    ((-7.14738, 9.52899, 9.92213, 4.23381),
     (18.0274, 0.0855114, 0.0164078, 2936.86)),
    ((5.75807, -0.871594, 6.12371, -0.667324, -0.85147),
     (30.3365, 0.0477864, 1.63033, 2.99578e-05, 0.00950145)),
    ((3.10069, 2.89539, 19.7466),
     (4.31917e-06, 0.0026246, 23.6709)),
    ((2.16337, -0.555311, 2.2233, 2.45194, 3.17062),
     (0.000157091, 0.773727, 0.00508424, 177.755, 0.651261)),
    ((1.40398, 5.63842, -2.665, 1.76894),
     (0.00415952, 2.47603, 108.778, 0.0771455)),
    ((6.62814, 4.10821, 2.22237, 6.32099, -5.57376, -3.85593),
     (0.00640766, 27.3389, 2038.52, 2.19118e-06, 808.18, 12.5977)),
    ((-0.409396, 0.315043, -0.448982, 0.557173),
     (0.000204155, 0.0802377, 4.78651e-05, 0.200631)),
    ((0.536714, 0.788935, 0.533415, -0.392345, -2.79071, 1.40682),
     (0.0464819, 0.000242201, 0.0143358, 55.7674, 0.979254, 9.76851)),
    ((0.537367, 7.51098, 5.61553, -5.17135, -7.71347, 0.504256),
     (0.00281723, 30.1483, 9424.91, 3.48754, 17.1615, 3.57325e-06)),
    ((-4.7684, 3.81813, 3.60377),
     (5.61506, 0.0267424, 1.42086e-06)),
    ((3.09045, 2.87993, -8.90777, 4.9182, 2.73858),
     (0.07589, 1.22388e-05, 14.8176, 2.8046, 19.0693)),
    ((-2.31315, 0.681775, -0.715019, -1.01204, 2.84338, -7.99847),
     (712.851, 2129.31, 1.09413e-06, 0.0032555, 18.6109, 6.52559)),
    ((-1.00167, -13.2035, 6.15465, 10.493, -1.49798),
     (0.402872, 3415.52, 1049.1, 16.3512, 0.000120568)),
    ((0.23112, -0.69157, 5.74377, 5.12896, -6.68783, 0.226678),
     (0.000658286, 1826.4, 5.15411, 654.938, 2.09027, 3.91706e-05)),
    ((18.2295, 5.66519, 6.75247, 5.68925),
     (15.858, 1.50924, 1066.54, 0.000282483)),
    ((0.711831, 2.77326, -0.711446, -1.09302),
     (158.752, 2.18259, 4.46759e-06, 0.000426306)),
    ((-2.01732, -2.01884, -9.73893),
     (0.00207379, 0.00318022, 6.40661)),
    ((21.5318, -6.26632, 21.1373),
     (0.0231814, 25.9212, 0.125867)),
    ((0.08695, 0.22904, 0.978822, -1.44754),
     (0.00362249, 0.00230122, 0.144376, 0.475644)),
    ((-9.03569, 1.69505, 1.42925, -7.23885, -3.68568),
     (93.4365, 0.0187427, 0.00138521, 7.80303, 6.94138)),
    ((-9.92209, 0.763147, -1.45827),
     (18.2439, 5.41218, 0.00107674)),
    ((-0.0351102, -0.198535, -0.00427712, 6.98591, 0.592314),
     (7.51492, 0.252174, 0.220948, 5.36209, 4.20632)),
    ((-2.07228, -6.57902, -2.22013, 8.22862),
     (0.0015863, 3.79607, 0.0388076, 10.3084)),
    ((9.93293, -5.18582, -6.72776),
     (35.6478, 0.0316333, 3.56718)),
    ((-6.27445, -5.94484, 4.9396),
     (0.0810772, 0.209172, 7.93534)),
    ((0.453863, -0.180306, -8.59904, 0.553851, -0.00755586, 4.92154, 3.3139),
     (0.013322, 86.8654, 6.71959, 0.0693081, 0.0704601, 18.6036, 14.5991)),
    ((4.06755, 3.86196, 5.27741, -6.03747),
     (0.72182, 0.0011082, 22.0413, 8.22886)),
    ((-4.3238, 5.00902, -5.86746, 5.03595),
     (46.7056, 0.0145784, 20.8875, 0.570001)),
    ((2.67673, -9.72098, -9.70737, -1.76916),
     (65.7096, 0.113121, 0.103981, 10.1881)),
    ((-1.41319, 0.0538147, -7.80747, -1.38532),
     (0.0485637, 94.4297, 3.84407, 0.027787)),
    ((-0.196289, 1.08426, -6.61984, 2.81354, 2.59971, -2.80543, 4.01402),
     (7.75914, 6.80187, 53.5922, 0.0327891, 0.0452911, 2.38259, 4.61505)),
    ((-0.630335, 2.13612, -0.61781),
     (0.0049848, 0.392749, 0.00263242)),
    ((2.20497, -1.92271, -1.33834, 2.07592, -0.541641),
     (0.0059326, 3.5858, 2.01228, 0.00671302, 29.2857)),
    ((-4.35073, 12.8897, -5.2448),
     (0.00118416, 50.3224, 3.61855)),
    ((1.29741, 1.47749, -9.78341),
     (0.00247527, 0.11504, 8.41392)),
    ((-14.5474, 7.09543, -6.4699, -6.4031),
     (5.90129, 11.4486, 0.0510162, 0.219539)),
    ((1.68779, 0.19534, 0.627395, 1.78861, -3.01764, 1.7091),
     (0.00140591, 25.2395, 40.0416, 0.774164, 0.964482, 0.0270768)),
    ((3.50415, 0.0512535, 0.296735),
     (1.30686, 0.00723518, 0.00123484)),
    ((5.89906, 13.4657, -8.32346, -5.77236, 6.2081, -5.7524),
     (22.1579, 36.9267, 23.5037, 0.0021677, 66.6872, 0.549284)),
    ((-0.141753, 0.0555677, 0.283784, -1.9312, 0.799305, 0.228393, -0.1557),
     (0.00327476, 80.7732, 1.45567, 0.448805, 12.7966, 7.76015, 0.0210039)),
    ((-4.71888, 0.180398, 5.00398, 0.128959, -8.59599, -0.0555593, -1.13627),
     (5.16454, 0.0689269, 3.32825, 0.00592384, 20.0736, 16.6945, 10.8137)),
    ((0.327332, -0.0588862, 0.323792),
     (0.00287814, 0.0261984, 0.0024764)),
    ((-5.57245, -0.516603, -0.692901, -0.566204, 3.52255),
     (3.55513, 0.00720992, 0.00193499, 16.4471, 29.5667)),
    ((-6.39407, 8.64496, 7.02637),
     (29.0039, 3.5437, 0.563907)),
    ((-7.07968, -7.23808, 12.9538, 3.97464),
     (0.0369732, 1.90997, 90.7061, 44.775)),
    ((1.52721, -0.054746, -0.457799, -4.19618),
     (1.49367, 0.32699, 1.44268, 3.83945)),
    ((-0.109904, 0.0148179, 5.54475, -0.300227),
     (0.0649212, 14.3655, 4.36956, 0.175253)),
    ((-5.49524, -0.593803, -5.60939, 14.688),
     (0.680894, 21.9396, 0.0353683, 37.6502)),
    ((3.13789, -0.59739, 3.17361, -1.3863),
     (0.124135, 51.638, 0.00329611, 3.03612)),
    ((-2.57218, -2.44559, 4.89422),
     (0.051675, 0.00274554, 5.37786)),
    ((1.20384, 6.80632, -7.48387, 5.28152),
     (42.2067, 2.04057, 18.9247, 0.0327324)),
    ((-2.39263, 0.816031, -0.962587, 0.0539489),
     (2.95651, 0.362469, 0.484442, 0.00293422)),
    ((0.642741, -0.331475, -3.0072, -1.43427, 0.788173),
     (2.02451, 0.00433085, 1.69104, 44.0139, 0.924015)),
    ((0.767916, 2.21499, 2.97738, 3.01855, -2.05971, -1.74102, 1.45046),
     (40.4343, 1.29128, 0.00102753, 0.0103116, 4.83766, 6.09884, 0.608823)),
    ((2.06214, -5.3937, 1.42609),
     (0.992339, 7.99534, 0.00183067)),
    ((-5.43533, -8.89694, -5.47666, 6.21662, -7.69484),
     (0.0991332, 39.6358, 0.0447275, 5.86763, 6.73521)),
    ((1.77131, 0.675248, 5.35576, -5.26791, 0.783161),
     (1.32692, 0.00107288, 8.4831, 3.85847, 0.182784)),
    ((-3.89594, 4.09506, -2.91197, -3.11862, -2.55795, -4.09417),
     (7.82382, 4.00838, 0.314379, 60.7959, 0.245829, 1.30754)),
    ((1.01211, -2.34169, 1.50344, -2.35378),
     (96.4592, 0.0494174, 2.34135, 0.0181929)),
    ((7.4516, -9.49897, 4.59499, 2.80874),
     (23.3777, 22.4755, 3.87443, 0.00116999)),
    ((-8.47531, -0.882328, -8.66644, 2.19933),
     (0.0220743, 58.3475, 0.00178214, 5.42978)),
    ((13.6065, -14.3899, -3.66976, -3.09614),
     (36.4673, 18.7901, 0.0143969, 0.510662)),
    ((15.0766, 4.78477, 3.52215, 4.3913, 5.89958, -4.39359),
     (8.09594, 0.0114486, 1.50821, 0.00975928, 5.66033, 65.5449)),
    ((-0.426332, 0.121293, -8.94777, 2.12769, 5.25399, -0.246112),
     (0.00252165, 3.15977, 4.44204, 8.28423, 42.9113, 0.00229186)),
    ((-0.804222, 9.23943, -0.0631973, -0.381244, -4.95419),
     (0.315728, 11.1231, 0.00160355, 19.0203, 23.2047)),
    ((-3.46027, 3.78962, -2.93516, -9.80313),
     (0.215255, 5.03576, 0.00139213, 74.1592)),
)


def n_local_maxima(values):
    """Local maxima of a scan, ends included, over steps larger than rounding."""
    step = np.diff(values)
    sign = np.sign(step[np.abs(step) > 1e-12 * (1.0 + np.abs(values).max())])
    return (int(sign[0] < 0) + int(sign[-1] > 0)
            + int(np.count_nonzero((sign[:-1] > 0) & (sign[1:] < 0))))


class TestMultimodalLikelihood:
    def test_grid_holds_both_ends_and_increases(self):
        # The scan covers the whole search interval, and the theta2 = 0
        # comparison reads its first point.
        assert _GRID_FRAC[0] == 0.0
        assert _GRID_FRAC[-1] == 1.0
        assert np.all(np.diff(_GRID_FRAC) > 0.0)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_reaches_the_fine_scan_maximum(self, k):
        cases = [case for case in MULTIMODAL_CASES if len(case[0]) == k]
        assert cases
        tau, v = (np.array(arrays, dtype=np.float64).T for arrays in zip(*cases))
        theta2 = pool_profiles(tau, v).theta2
        for j in range(len(cases)):
            bound = 10.0 * np.var(tau[:, j], ddof=1) + v[:, j].max()
            fine = loglik(bound * np.linspace(0.0, 1.0, 4097), tau[:, j], v[:, j])
            assert n_local_maxima(fine) >= 2, f"case {cases[j]}"
            reached = loglik(theta2[j], tau[:, j], v[:, j])[0]
            assert reached >= fine.max() - 1e-9, f"case {cases[j]}"


def own_units(tau, v):
    """A profile's tau_hat and se2 in its own units, as ``_reml_rows`` scales
    them, and the exponent e of the scale 2^e."""
    e = int(np.frexp(0.5 * tau.max() - 0.5 * tau.min())[1]) + 1
    return np.ldexp(tau, -e), np.minimum(np.ldexp(v, -2 * e), np.finfo(np.float64).max), e


def spread(tau):
    """sum((tau_hat - mean(tau_hat))^2), in Python floats."""
    tau = [float(t) for t in tau]
    mean = math.fsum(tau) / len(tau)
    return math.fsum((t - mean) ** 2 for t in tau)


def reml_bound(tau, v):
    """``_reml_rows``' bound on theta2, T = max(0, u* - min(se2)), u* the
    positive root of (K - 1) u^2 - (S + d) u - S d, with S the spread of
    tau_hat and d = max(se2) - min(se2).  u* is taken as
    (S + d) / (2 (K - 1)) (1 + sqrt(1 + 4 (K - 1) a b)), a = S / (S + d) and
    b = d / (S + d), whose terms stay in range where S d and (S + d)^2
    overflow."""
    k, s, d = len(tau), spread(tau), float(v.max() - v.min())
    if s + d == 0.0:  # equal estimates and equal se2
        return 0.0
    a, b = s / (s + d), d / (s + d)
    root = (s + d) / (2.0 * (k - 1)) * (1.0 + math.sqrt(1.0 + 4.0 * (k - 1) * a * b))
    return max(0.0, root - float(v.min()))


@st.composite
def extreme_profiles(draw):
    """(tau, v) of one profile: K from 2 to 40, tau_hat up to 1e100 in size,
    se2 from 1e-30 to 1e30, all equal or not, and some infinite, but at least
    two finite."""
    k = draw(st.integers(2, 40), label="k")
    scale = 10.0 ** draw(st.floats(-30.0, 100.0), label="scale")
    units = draw(st.lists(st.integers(-10**6, 10**6), min_size=k, max_size=k), label="units")
    assume(len(set(units)) > 1)
    tau = scale * np.array(units) / 10**6
    exponents = draw(st.lists(st.floats(-30.0, 30.0), min_size=k, max_size=k), label="se2")
    if draw(st.booleans(), label="equal se2"):
        exponents = [exponents[0]] * k
    v = 10.0 ** np.array(exponents)
    infinite = draw(st.integers(0, k - 2), label="infinite")
    v[draw(st.permutations(range(k)), label="where")[:infinite]] = np.inf
    return tau, v


class TestSearchBound:
    @pytest.mark.slow
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(extreme_profiles(), st.integers(0, 1100))
    def test_theta2_stays_below_the_proven_bound(self, profile, halvings):
        # The bound T of ``_reml_rows``' docstring, over the studies of
        # finite se2: theta2 never exceeds it (at equal se2, T is the
        # estimate itself), and beyond it the score is negative.
        tau, v = profile
        finite = np.isfinite(v)
        t, s, e = own_units(tau, v)
        bound = reml_bound(t[finite], s[finite])
        assert theta2_of(tau, v) <= np.ldexp(bound, 2 * e) * (1.0 + 1e-12)
        # A point in [T (1 + 1e-6), B], nearer T the more halvings.
        search = 10.0 * np.var(t, ddof=1) + s.max()
        low = bound * (1.0 + 1e-6)
        if low < search:
            point = low + np.ldexp(search - low, -halvings)
            with np.errstate(over="ignore"):  # an infinite se2 plus theta2
                score, _ = _score(np.array([point]), *one_profile(t, s))
            assert score[0] < 0.0

    @pytest.mark.parametrize("se2", [1e60, 1e100, 1e200, 1e300])
    def test_a_weightless_study_leaves_the_estimate(self, se2):
        # The fourth study carries no information, but inflates the search
        # bound: the grid's best point sits near bound / 4096, and bisection
        # comes down from there, up to 1,000 halvings for se2 = 1e300.
        theta2 = theta2_of([0.0, 1.0, 2.0, 3.0], [1e-6, 1e-6, 1e-6, se2])
        assert theta2 == pytest.approx(1.0 - 1e-6, rel=1e-10)

    def test_a_search_still_moving_at_the_step_cap_is_an_error(self, monkeypatch):
        monkeypatch.setattr(meta, "_MAX_STEPS", 100)
        with pytest.raises(EstimationError, match="did not converge in 100 steps"):
            theta2_of([0.0, 1.0, 2.0, 3.0], [1e-6, 1e-6, 1e-6, 1e100])

    @pytest.mark.parametrize("tau, v, expected", [
        pytest.param([0.0, 100.0, 200.0, 50.0], [1e-8, 1e-8, 1e-8, np.inf], 1e4 - 1e-8,
                     id="newton-stop-near-zero", marks=pytest.mark.xfail(
                         strict=True, reason="Newton's stop, 1e-12 (1 + theta2), is "
                         "absolute near 0: theta2 = 5e-9")),
        pytest.param([0.0, 1.0, 2.0, 3.0], [1e-20, 1.0, 1.0, 1e6], 0.71364,
                     id="score-cancels-at-zero", marks=pytest.mark.xfail(
                         strict=True, reason="the score at theta2 = 0 computes as 0.0 "
                         "against an exact 80.0 in its own units: theta2 = 0")),
    ])
    def test_a_huge_se2_hides_the_maximum_in_the_first_cell(self, tau, v, expected):
        # The huge se2 inflates the search bound, so the grid's first cell,
        # [0, bound / 4096], holds the maximizer, and the search stops near 0.
        assert theta2_of(tau, v) == pytest.approx(expected, rel=1e-4)


def assert_near(theta2, expected, se2):
    """theta2 within 1e-10 of ``expected``, relative, or within 1e-6 of the
    se2 scale ``se2`` where ``expected`` is below that: there the theta2 = 0
    comparison decides, on likelihoods that differ by less than rounding."""
    if expected > 1e-6 * se2:
        assert abs(theta2 - expected) <= 1e-10 * expected
    else:
        assert abs(theta2 - expected) <= 1e-6 * se2


SMALL_TAU = st.floats(-10.0, 10.0)
SE2 = st.floats(-4.0, 2.0).map(lambda x: 10.0 ** x)


class TestClosedForms:
    """REML theta2 where it has a closed form, worked out in Python floats."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.tuples(SMALL_TAU, SMALL_TAU), st.tuples(SE2, SE2))
    def test_two_studies(self, tau, v):
        expected = max(0.0, ((tau[0] - tau[1]) ** 2 - v[0] - v[1]) / 2.0)
        assert_near(theta2_of(list(tau), list(v)), expected, (v[0] + v[1]) / 2.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(SMALL_TAU, min_size=2, max_size=40), SE2)
    def test_equal_se2(self, tau, v):
        expected = max(0.0, spread(tau) / (len(tau) - 1) - v)
        assert_near(theta2_of(tau, np.full(len(tau), v)), expected, v)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(SMALL_TAU, min_size=2, max_size=40), SE2,
           st.lists(st.tuples(SMALL_TAU, st.floats(40.0, 300.0).map(lambda x: 10.0 ** x)),
                    min_size=1, max_size=5))
    def test_weightless_studies_leave_the_equal_se2_estimate(self, tau, v, extra):
        # Studies with se2 of 1e40 or more carry no information: theta2 is
        # the equal-se2 studies' own.
        expected = max(0.0, spread(tau) / (len(tau) - 1) - v)
        theta2 = theta2_of(tau + [t for t, _ in extra], [v] * len(tau) + [w for _, w in extra])
        assert_near(theta2, expected, v)


class TestDlTheta2:
    def test_two_study_hand_example(self):
        assert dl_theta2([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_three_study_hand_example(self):
        assert dl_theta2([0.0, 1.0, 2.0], [0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_identical_estimates_clamp_to_zero(self):
        assert dl_theta2([1.3, 1.3, 1.3], [0.4, 0.8, 1.2]) == 0.0

    @pytest.mark.parametrize("tau, se2, says", [
        ([0.0, 1.0], [0.0, 1.0], "se2 must be > 0 and finite"),
        ([0.0, 1.0, 2.0], [-1.0, 1.0, 1.0], "se2 must be > 0 and finite"),
        ([0.0, 1.0], [np.nan, 1.0], "se2 must be > 0 and finite"),
        ([0.0, 1.0], [np.inf, 1.0], "se2 must be > 0 and finite"),
        ([np.nan, 1.0], [1.0, 1.0], "tau_hat must be finite"),
    ], ids=["zero-se2", "negative-se2", "nan-se2", "inf-se2", "nan-tau"])
    def test_invalid_input_is_error(self, tau, se2, says):
        # Before the checks, negative se2 gave 3.0 and NaN se2 or tau gave 0.0.
        with pytest.raises(EstimationError, match=says):
            dl_theta2(tau, se2)

    def test_needs_two_studies_of_matching_shape(self):
        with pytest.raises(InsufficientStudiesError):
            dl_theta2([1.0], [0.5])
        with pytest.raises(ValueError):
            dl_theta2([0.0, 1.0, 2.0], [0.5, 0.5])


class TestPoolCate:
    def test_hand_example(self):
        center, var = pool_at([0.0, 2.0], [1.0, 1.0], theta2=1.0)
        assert center == pytest.approx(1.0)
        assert var == pytest.approx(1.0)
        assert var == 1.0 / (1.0 / (1.0 + 1.0) + 1.0 / (1.0 + 1.0))

    def test_dominant_study_takes_over(self):
        center, _ = pool_at([5.0, 0.0, 0.0], [1e-8, 1.0, 1.0], theta2=0.0)
        assert center == pytest.approx(5.0, abs=1e-4)

    def test_huge_theta2_approaches_unweighted_mean(self):
        tau = [0.0, 1.0, 5.0]
        center, _ = pool_at(tau, [0.1, 1.0, 3.0], theta2=1e12)
        assert center == pytest.approx(np.mean(tau), abs=1e-6)

    def test_degenerate_all_zero_variance_equal_estimates(self):
        center, var = pool_at([2.0, 2.0], [0.0, 0.0], theta2=0.0)
        assert center == 2.0
        assert var == 0.0

    def test_degenerate_all_zero_variance_unequal_estimates_is_error(self):
        with pytest.raises(EstimationError):
            pool_at([1.0, 2.0], [0.0, 0.0], theta2=0.0)

    def test_pooled_estimate_is_convex_combination(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(2, 9))
            tau = rng.normal(size=k)
            se2, theta2 = rng.uniform(0.1, 2.0, size=k), float(rng.uniform(0.0, 2.0))
            center, var = pool_at(tau, se2, theta2)
            assert tau.min() - 1e-12 <= center <= tau.max() + 1e-12
            assert var == pytest.approx(1.0 / sum(1.0 / (s + theta2) for s in se2), abs=1e-12)


class TestTQuantile:
    def test_cauchy_quartile(self):
        assert t_quantile(1, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_general_closed_form(self):
        for p in (0.6, 0.9, 0.99):
            assert t_quantile(1, p) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-12)

    def test_known_df2_value(self):
        assert t_quantile(2, 0.975) == pytest.approx(4.3026527, abs=1e-5)

    def test_median_is_zero(self):
        for df in (1, 2, 7, 100):
            assert t_quantile(df, 0.5) == 0.0

    def test_symmetry(self):
        for df in (1, 3, 9):
            for p in (0.6, 0.9, 0.999):
                assert t_quantile(df, 1.0 - p) == pytest.approx(-t_quantile(df, p), rel=1e-12)

    def test_monotone_in_p_and_decreasing_in_df(self):
        assert t_quantile(5, 0.9) < t_quantile(5, 0.95) < t_quantile(5, 0.99)
        assert t_quantile(1, 0.975) > t_quantile(10, 0.975) > t_quantile(200, 0.975)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            t_quantile(0, 0.9)
        with pytest.raises(ValueError):
            t_quantile(3, 0.0)
        with pytest.raises(ValueError):
            t_quantile(3, 1.0)


class TestQuantilesAgainstScipy:
    def test_t_quantile(self):
        # SciPy's value at each tail: sqrt(df (1 - x) / x) with
        # x = betaincinv(df/2, 1/2, 2 tail).  Once t^2 << df, 1 - x keeps
        # only a few digits (7e-11 relative at df = 10^6 and 7e-7 at
        # 2^31 - 1, against 60-digit mpmath), and at df = 1, tail 1e-300,
        # x underflows to 0.  There the reference is SciPy's t quantile
        # stdtrit, within 1e-15 of mpmath at those points.
        from scipy.special import betaincinv, stdtrit

        misses = []
        for df in [*range(1, 201), 10**3, 10**6, 2**31 - 1]:
            for tail in (0.4, 0.1, 0.025, 1e-3, 1e-8, 1e-30, 1e-300):
                x = float(betaincinv(0.5 * df, 0.5, 2.0 * tail))
                if df <= 10**3 and x > 0.0:
                    expected = math.sqrt(df * (1.0 - x) / x)
                else:
                    expected = -float(stdtrit(df, tail))
                got = -t_quantile(df, tail)
                if not abs(got - expected) <= 1e-12 * expected:
                    misses.append((df, tail, got, expected))
        assert not misses

    def test_ndtri(self):
        from scipy.special import ndtri as scipy_ndtri

        rng = np.random.default_rng(2026)
        ps = [*rng.random(2000), *10.0 ** rng.uniform(-300.0, 0.0, 1000),
              1e-300, 1e-20, 0.5 + 1e-17, 0.5 - 1e-17, math.nextafter(0.5, 0.0),
              math.nextafter(0.5, 1.0), 1.0 - 2.0**-53]
        for p in ps:
            expected = float(scipy_ndtri(p))
            assert ndtri(p) == pytest.approx(expected, rel=1e-14, abs=0.0), p

    def test_df_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            t_quantile(2.5, 0.9)
        for df in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                t_quantile(df, 0.9)
        assert t_quantile(8.0, 0.975) == t_quantile(8, 0.975)


class TestPredictionInterval:
    def test_hand_example_k4(self):
        # var_pooled = 0.5; K = 4 gives t_2
        lower, center, upper = interval_at([1.0] * 4, [2.0] * 4, theta2=0.0, alpha=0.05)
        half = t_quantile(2, 0.975) * math.sqrt(0.5)
        assert center == 1.0
        assert lower == pytest.approx(1.0 - half, abs=1e-10)
        assert upper == pytest.approx(1.0 + half, abs=1e-10)

    def test_stated_numeric_example(self):
        # center 1, var_pooled 1, theta2 1, K = 4
        half = t_quantile(2, 0.975) * math.sqrt(2.0)
        assert 1.0 - half == pytest.approx(-5.0853, abs=1e-3)
        assert 1.0 + half == pytest.approx(7.0853, abs=1e-3)

    def test_degenerate_interval_is_a_point(self):
        lower, center, upper = interval_at([2.0] * 3, [0.0] * 3, theta2=0.0, alpha=0.05)
        assert lower == center == upper == 2.0

    def test_more_studies_narrower_interval(self):
        # t_1 > t_28 and var_pooled shrinks with K at matched per-study variances
        lower3, _, upper3 = interval_at([0.0, 0.5, 1.0], [1.0] * 3, 1.0, 0.05)
        lower30, _, upper30 = interval_at([0.0, 0.5, 1.0] * 10, [1.0] * 30, 1.0, 0.05)
        assert upper3 - lower3 > upper30 - lower30

    def test_halfwidth_monotone_in_theta2(self):
        widths = [upper - lower for lower, _, upper in (
            interval_at([0.0, 1.0, 2.0, 3.0], [0.5] * 4, t2, 0.05) for t2 in (0.0, 0.5, 2.0))]
        assert widths[0] < widths[1] < widths[2]

    def test_too_few_studies_is_error(self):
        # K = 2 leaves the t distribution no degrees of freedom: no interval.
        lower, center, upper = interval_at([0.0, 1.0], [1.0, 1.0], theta2=0.5, alpha=0.05)
        assert center == 0.5 and math.isnan(lower) and math.isnan(upper)


class TestPoolProfiles:
    def test_views_equal_kernel_columns(self):
        # One profile pooled alone, or at the batch's theta2 by the pooling
        # and interval steps, gives the batch's bits.
        rng = np.random.default_rng(9)
        k, n_prof = 5, 30
        tau = rng.normal(0.0, 1.0, size=(k, n_prof))
        v = rng.uniform(0.05, 1.0, size=(k, n_prof))
        tau[:, 0] = 0.7  # equal estimates: theta2 = 0 without a search
        batch = pool_profiles(tau, v, alpha=0.1)
        for j in range(n_prof):
            alone = pool_profiles(tau[:, j:j + 1], v[:, j:j + 1], alpha=0.1)
            for name in ("theta2", "tau_pooled", "var_pooled", "half_width"):
                assert getattr(alone, name)[0] == getattr(batch, name)[j]
            lower, center, upper = interval_at(tau[:, j], v[:, j], batch.theta2[j], 0.1)
            assert center == batch.tau_pooled[j]
            assert lower == batch.tau_pooled[j] - batch.half_width[j]
            assert upper == batch.tau_pooled[j] + batch.half_width[j]
        assert batch.diagnostics["reml_boundary_hits"] == (batch.theta2 == 0.0).sum() >= 1

    def test_degenerate_all_zero_variance_equal_estimates(self):
        batch = pool_profiles(np.full((3, 2), 2.0), np.zeros((3, 2)), alpha=0.05)
        assert batch.theta2.tolist() == [0.0, 0.0]
        assert batch.tau_pooled.tolist() == [2.0, 2.0]
        assert batch.var_pooled.tolist() == [0.0, 0.0]
        assert batch.half_width.tolist() == [0.0, 0.0]

    def test_some_zero_variance_is_error(self):
        # An infinite weight is an error on unequal estimates only: every
        # weighting of equal estimates gives that estimate, with variance 0.
        tau = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        v = np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5]])
        batch = pool_profiles(tau, v)
        assert (batch.tau_pooled[0], batch.var_pooled[0], batch.half_width[0]) == (1.0, 0.0, 0.0)
        with pytest.raises(EstimationError, match="degenerate variance"):
            pool_at([1.0, 2.0], [0.0, 1.0], theta2=0.0)

    @pytest.mark.parametrize("c", [1e-150, 1e-6, 1e-5, 1e80, 1e120, 1e150])
    def test_theta2_scales_with_the_square_of_the_units(self, c):
        # The Newton stop was absolute for a small theta2 (6% off at c = 1e-5),
        # and the score's w^2 underflowed for a large one (some theta2 fell to
        # 0 at c = 1e120).
        rng = np.random.default_rng(21)
        tau = rng.normal(0.0, rng.uniform(0.3, 2.0, 400), size=(8, 400))
        v = rng.uniform(0.05, 1.5, size=(8, 400))
        base = pool_profiles(tau, v).theta2
        scaled = pool_profiles(tau * c, v * c * c).theta2 / (c * c)
        assert np.array_equal(scaled == 0.0, base == 0.0)
        np.testing.assert_allclose(scaled, base, rtol=1e-10)

    def test_interval_needs_three_studies(self):
        for alpha in (0.05, 0.2):
            batch = pool_profiles(np.array([[0.0], [1.0]]), np.ones((2, 1)), alpha=alpha)
            assert batch.half_width.shape == (1,) and np.isnan(batch.half_width[0])
            assert batch.tau_pooled.tolist() == [0.5]

    def test_alpha_outside_unit_interval_is_error(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                pool_profiles(np.zeros((3, 1)), np.ones((3, 1)), alpha=alpha)

    TAU = np.array([[0.1], [0.5], [0.9]])

    def test_negative_se2_is_error(self):
        # Used to pool to theta2 0 and tau_pooled 0.2647 with no error.
        with pytest.raises(EstimationError, match="se2 must be >= 0"):
            pool_profiles(self.TAU, np.array([[0.1], [-0.5], [0.3]]), alpha=0.05)

    def test_all_negative_se2_is_error(self):
        # Used to give a NaN half-width and a numpy RuntimeWarning from sqrt.
        with pytest.raises(EstimationError, match="se2 must be >= 0"):
            pool_profiles(self.TAU, np.array([[-0.1], [-0.5], [-0.3]]), alpha=0.05)

    @pytest.mark.parametrize("study", [0, 1, 2])
    def test_nan_se2_is_error(self, study):
        # Used to raise "the pooled estimate overflows", which names the wrong cause.
        v = np.array([[0.1], [0.2], [0.3]])
        v[study] = np.nan
        with pytest.raises(EstimationError, match="se2 must be >= 0 and not NaN"):
            pool_profiles(self.TAU, v, alpha=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_is_error(self, bad):
        tau = self.TAU.copy()
        tau[1] = bad
        with pytest.raises(EstimationError, match="tau_hat must be finite"):
            pool_profiles(tau, np.full((3, 1), 0.1), alpha=0.05)

    def test_infinite_se2_has_weight_zero(self):
        # The study drops out: the other two studies pool as they do alone.
        pooled = pool_profiles(self.TAU, np.array([[0.1], [np.inf], [0.3]]), alpha=0.05)
        alone = pool_profiles(self.TAU[[0, 2]], np.array([[0.1], [0.3]]))
        np.testing.assert_allclose(pooled.theta2, [0.12], rtol=1e-12)
        np.testing.assert_allclose(pooled.theta2, alone.theta2, rtol=1e-12)
        np.testing.assert_allclose(pooled.tau_pooled, alone.tau_pooled, rtol=1e-12)
        np.testing.assert_allclose(pooled.tau_pooled, [0.375], rtol=1e-12)
        assert np.isfinite(pooled.half_width).all()

    def test_all_infinite_se2_is_error(self):
        # No study would carry weight; this used to warn and pool to NaN.
        v = np.array([[np.inf, 0.1], [np.inf, 0.2], [np.inf, 0.3]])
        with pytest.raises(EstimationError, match="at least one finite se2"):
            pool_profiles(np.hstack([self.TAU, self.TAU]), v, alpha=0.05)


@st.composite
def stage2_inputs(draw, max_profiles=4):
    k = draw(st.integers(3, 12))
    n_prof = draw(st.integers(1, max_profiles))
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    variances = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)
    tau = draw(st.lists(values, min_size=k * n_prof, max_size=k * n_prof))
    v = draw(st.lists(variances, min_size=k * n_prof, max_size=k * n_prof))
    return np.reshape(tau, (k, n_prof)), np.reshape(v, (k, n_prof))


def theta2_tol(tau, v):
    """Slack for theta2 after a perturbation of the inputs by rounding.

    The theta2 = 0 comparison can flip for a maximizer within about 1e-8 of
    the likelihood's scale from the boundary; elsewhere the kernel is exact
    to about 1e-12.
    """
    return 1e-6 * (v.max(axis=0) + np.ptp(tau, axis=0) ** 2)


def normal_scalings(tau, v, pooled):
    """The k for which tau * 2**k, v * 4**k, the outputs and the squares of
    the tau-scale values are all zero or normal floats, as (lowest, highest)."""
    tau_scale = np.concatenate([tau.ravel(), pooled.tau_pooled, pooled.half_width])
    v_scale = np.concatenate([v.ravel(), pooled.theta2, pooled.var_pooled])
    log2 = np.concatenate([2.0 * np.log2(np.abs(tau_scale[tau_scale != 0.0])),
                           np.log2(v_scale[v_scale != 0.0])])
    return math.ceil((-1021.0 - log2.min()) / 2.0), math.floor((1023.0 - log2.max()) / 2.0)


class TestStage2Properties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs())
    def test_theta2_nonnegative(self, inputs):
        assert np.all(pool_profiles(*inputs).theta2 >= 0.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(-50.0, 50.0))
    def test_shift_moves_center_and_keeps_theta2(self, inputs, c):
        tau, v = inputs
        base = pool_profiles(tau, v)
        moved = pool_profiles(tau + c, v)
        assert np.all(np.abs(moved.theta2 - base.theta2) <= theta2_tol(tau, v))
        scale = 1.0 + abs(c) + np.abs(tau).max(axis=0)
        assert np.all(np.abs(moved.tau_pooled - (base.tau_pooled + c)) <= 1e-6 * scale)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(0.1, 10.0))
    def test_scale_equivariance(self, inputs, s):
        tau, v = inputs
        base = pool_profiles(tau, v)
        scaled = pool_profiles(tau * s, v * s * s)
        assert np.all(np.abs(scaled.theta2 - s * s * base.theta2)
                      <= s * s * theta2_tol(tau, v))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs())
    def test_center_within_estimates(self, inputs):
        tau, v = inputs
        center = pool_profiles(tau, v).tau_pooled
        slack = 1e-12 * (1.0 + np.abs(tau).max(axis=0))
        assert np.all(tau.min(axis=0) - slack <= center)
        assert np.all(center <= tau.max(axis=0) + slack)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs(), st.floats(0.001, 0.49), st.floats(0.5, 0.999))
    def test_interval_symmetric_and_widens_as_alpha_falls(self, inputs, small, large):
        tau, v = inputs
        narrow = pool_profiles(tau, v, alpha=large)
        wide = pool_profiles(tau, v, alpha=small)
        assert np.all(narrow.half_width >= 0.0)
        assert np.all(wide.half_width > narrow.half_width)
        for j in range(tau.shape[1]):
            lower, center, upper = interval_at(tau[:, j], v[:, j], float(wide.theta2[j]), small)
            assert upper - center == pytest.approx(center - lower, rel=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(stage2_inputs(), st.data())
    def test_power_of_two_scaling_is_exact(self, inputs, data):
        # Scaling by powers of two changes only exponents, so while every
        # value stays a normal float the outputs scale without rounding;
        # the widest k take theta2 far past 1e154, where its square overflows.
        tau, v = inputs
        tau = np.where(np.abs(tau) < 1e-150, 0.0, tau)  # a tiny tau_hat's square is subnormal
        base = pool_profiles(tau, v, alpha=0.05)
        lowest, highest = normal_scalings(tau, v, base)
        assume(lowest <= 0 <= highest)
        k = data.draw(st.integers(lowest, highest), label="k")
        scaled = pool_profiles(np.ldexp(tau, k), np.ldexp(v, 2 * k), alpha=0.05)
        assert np.array_equal(scaled.theta2, np.ldexp(base.theta2, 2 * k))
        assert np.array_equal(scaled.var_pooled, np.ldexp(base.var_pooled, 2 * k))
        assert np.array_equal(scaled.tau_pooled, np.ldexp(base.tau_pooled, k))
        assert np.array_equal(scaled.half_width, np.ldexp(base.half_width, k))
        assert scaled.diagnostics == base.diagnostics

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(stage2_inputs(max_profiles=8), st.data())
    def test_permuting_profiles_permutes_outputs_exactly(self, inputs, data):
        tau, v = inputs
        order = data.draw(st.permutations(range(tau.shape[1])), label="order")
        base = pool_profiles(tau, v, alpha=0.05)
        moved = pool_profiles(tau[:, order], v[:, order], alpha=0.05)
        for name in ("theta2", "tau_pooled", "var_pooled", "half_width"):
            assert np.array_equal(getattr(moved, name), getattr(base, name)[order])
        assert moved.diagnostics == base.diagnostics

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stage2_inputs(max_profiles=8))
    def test_reml_theta2_batch_equals_pool_profiles_exactly(self, inputs):
        tau, v = inputs
        assert np.array_equal(reml_theta2_batch(tau, v), pool_profiles(tau, v).theta2)


@st.composite
def pooling_blocks(draw):
    """(profiles, n_a): (tau, v) profiles of three kinds, at least one of each,
    to be split after the first n_a, all with one K from 2 to 30 or each with
    its own, and at times one part of K = 2 profiles only: all-equal
    estimates (theta2 = 0 without a search; with some or all se2 0, the
    degenerate pooling to the estimate), estimates close together next to
    their se2 (theta2 = 0 by the boundary comparison) and spread estimates
    with small equal se2, whose theta2 is about a tenth of the search bound."""
    kinds = ["equal", "zero", "spread"] + draw(
        st.lists(st.sampled_from(["equal", "zero", "spread"]), max_size=9), label="kinds")
    kinds = draw(st.permutations(kinds), label="order")
    k_studies = st.integers(2, 30)
    ks = draw(st.one_of(k_studies.map(lambda k: [k] * len(kinds)),
                        st.lists(k_studies, min_size=len(kinds), max_size=len(kinds))),
              label="ks")
    n_a = draw(st.integers(1, len(kinds) - 1), label="n_a")
    two_only = draw(st.sampled_from([None, slice(None, n_a), slice(n_a, None)]),
                    label="part of K = 2 only")
    if two_only is not None:
        ks[two_only] = [2] * len(ks[two_only])
    center = st.floats(-10.0, 10.0, allow_nan=False)
    profiles = []
    for kind, k in zip(kinds, ks):
        mid = draw(center)
        if kind == "equal":
            tau = np.full(k, mid)
            v = np.array(draw(st.lists(st.floats(1e-3, 5.0), min_size=k, max_size=k)))
            v[:draw(st.integers(0, k), label="zero se2")] = 0.0  # none, some or all
        elif kind == "zero":
            jitter = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=k, max_size=k))
            tau = mid + np.array(jitter)
            v = np.array(draw(st.lists(st.floats(1.0, 5.0), min_size=k, max_size=k)))
        else:
            scale = draw(st.floats(0.1, 100.0))
            unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=k - 2, max_size=k - 2))
            tau = mid + scale * np.array([-1.0, 1.0, *unit])
            v = np.full(k, scale * scale * draw(st.floats(1e-6, 1e-3)))
        profiles.append((tau, v))
    return profiles, n_a


def flat(profiles):
    """(tau, v, k) of profiles for ``pool_profiles(tau, v, alpha, k=k)``."""
    return (np.concatenate([tau for tau, _ in profiles]),
            np.concatenate([v for _, v in profiles]), np.array([len(tau) for tau, _ in profiles]))


def pool_mixed(profiles, alpha=0.05):
    """``pool_profiles`` on a list of (tau, v) profiles."""
    tau, v, k = flat(profiles)
    return pool_profiles(tau, v, alpha, k=k)


FIELDS = ("theta2", "tau_pooled", "var_pooled", "half_width")


class TestRowIndependence:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pooling_blocks())
    def test_two_blocks_pool_as_one_call(self, case):
        # The simulation harness pools a block of replications in one call,
        # and predict all of its profiles, and both rely on each profile
        # getting the bits it gets alone.
        profiles, n_a = case
        whole = pool_mixed(profiles)
        parts = [pool_mixed(part) for part in (profiles[:n_a], profiles[n_a:])]
        if len({len(tau) for tau, _ in profiles}) == 1:  # the (K, P) form: the same bits
            columns = pool_profiles(np.column_stack([tau for tau, _ in profiles]),
                                    np.column_stack([v for _, v in profiles]), alpha=0.05)
            for name in FIELDS:
                assert np.array_equal(getattr(columns, name), getattr(whole, name),
                                      equal_nan=True)
        for name in FIELDS:
            assert np.array_equal(getattr(whole, name),
                                  np.concatenate([getattr(part, name) for part in parts]),
                                  equal_nan=True)
        for key, count in whole.diagnostics.items():
            assert count == sum(part.diagnostics[key] for part in parts)
        assert whole.diagnostics["reml_boundary_hits"] >= 2


@st.composite
def mixed_profiles(draw, max_profiles=10):
    """(tau, v) profiles with K from 2 to 40, at least one with K >= 3."""
    ks = draw(st.lists(st.integers(2, 40), min_size=1, max_size=max_profiles), label="ks")
    ks[0] = max(ks[0], 3)
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    variances = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)
    return [(np.array(draw(st.lists(values, min_size=k, max_size=k))),
             np.array(draw(st.lists(variances, min_size=k, max_size=k)))) for k in ks]


def bits(values):
    """The bytes of float64 values, every NaN alike."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def python_sums(theta2, tau, v):
    """S(w), S(w tau), S(w^2 r^2), S(w^3 r^2), S(w^2 r), S(w^2), S(w^3) of one
    profile at theta2, each summed left to right in Python floats."""
    w = [1.0 / (vs + theta2) for vs in v]
    sw = swt = 0.0
    for ws, ts in zip(w, tau):
        sw += ws
        swt += ws * ts
    r = [ts - swt / sw for ts in tau]
    s2r2 = s3r2 = s2r = s2 = s3 = 0.0
    for ws, rs in zip(w, r):
        w2 = ws * ws
        w3 = w2 * ws
        s2r2 += w2 * rs * rs
        s3r2 += w3 * rs * rs
        s2r += w2 * rs
        s2 += w2
        s3 += w3
    return sw, swt, s2r2, s3r2, s2r, s2, s3


class TestMixedK:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(mixed_profiles(), st.data())
    def test_a_profile_pools_alone_as_in_any_batch_and_order(self, profiles, data):
        order = data.draw(st.permutations(range(len(profiles))), label="order")
        batch = pool_mixed(profiles)
        moved = pool_mixed([profiles[i] for i in order])
        assert moved.diagnostics == batch.diagnostics
        for j, (tau, v) in enumerate(profiles):
            alone = pool_profiles(tau[:, None], v[:, None])
            for name in FIELDS:
                got = getattr(batch, name)[j]
                assert bits(got) == bits(getattr(moved, name)[order.index(j)])
                assert bits(got) == bits(getattr(alone, name)[0])

    def test_overflow_and_degenerate_profiles_pool_alone_as_in_a_batch(self):
        # Profiles whose unscaled weight sums overflow, and the equal-weight
        # degenerate path, on a few columns of a mixed layout.
        profiles = [(np.ones(3), np.full(3, 1e-308)), (np.full(2, 2.0), np.zeros(2)),
                    (np.array([0.1, 0.5, 0.9, 0.3]), np.array([0.1, 0.2, 0.3, 0.1])),
                    (np.full(3, 1e300), np.full(3, 1e-10)), (np.full(4, 5.0), np.zeros(4))]
        batch = pool_mixed(profiles)
        for j, (tau, v) in enumerate(profiles):
            alone = pool_profiles(tau[:, None], v[:, None])
            for name in FIELDS:
                assert bits(getattr(batch, name)[j]) == bits(getattr(alone, name)[0])
        assert batch.tau_pooled[1] == 2.0 and batch.var_pooled[4] == 0.0

    def test_two_study_profiles_have_no_half_width(self):
        # NaN whether the other profiles have K = 2 or not: a call of K = 2
        # profiles only used to raise InsufficientStudiesError.
        batch = pool_profiles([0.0, 1.0, 0.0, 1.0, 2.0], np.ones(5), alpha=0.05, k=[2, 3])
        assert np.isnan(batch.half_width[0]) and np.isfinite(batch.half_width[1])
        for k in ([2], [2, 2]):
            alone = pool_profiles(np.zeros(2 * len(k)), np.ones(2 * len(k)), alpha=0.05, k=k)
            assert alone.half_width.shape == (len(k),) and np.isnan(alone.half_width).all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_counts_of_any_integer_type(self, dtype):
        tau, v = [0.0, 1.0, 0.0, 1.0, 2.0], np.ones(5)
        base = pool_profiles(tau, v, alpha=0.05, k=[2, 3])
        other = pool_profiles(tau, v, alpha=0.05, k=np.array([2, 3], dtype=dtype))
        for name in FIELDS:
            assert bits(getattr(other, name)) == bits(getattr(base, name))

    @pytest.mark.parametrize("k", [[], np.array([]), np.array([], dtype=np.uint8)],
                             ids=["list", "float", "uint8"])
    def test_no_profiles_of_any_dtype(self, k):
        # An empty list is float64, and used to be refused as not integer counts.
        pooled = pool_profiles(np.zeros(0), np.zeros(0), k=k)
        assert all(getattr(pooled, name).shape == (0,) for name in FIELDS)

    @pytest.mark.parametrize("alpha, k, df", [
        (5e-324, [3], 1), (5e-324, [4, 30], 2), (1e-310, [3, 4], 1),
    ], ids=["underflow-df1", "underflow-df2", "overflow-df1"])
    def test_alpha_without_a_finite_t_quantile(self, alpha, k, df):
        # alpha / 2 underflows to 0 at 5e-324, and t_1 overflows at 1e-310:
        # these used to raise "p must be in (0, 1)" or give infinite widths.
        tau = np.arange(sum(k), dtype=float)
        with pytest.raises(ValueError, match=f"alpha = {alpha!r} .*df = {df} "):
            pool_profiles(tau, np.ones(tau.size), alpha=alpha, k=k)

    @pytest.mark.parametrize("alpha, k", [(1e-300, [3, 4]), (1e-310, [4]), (1e-323, [30])])
    def test_smallest_alphas_with_a_finite_t_quantile(self, alpha, k):
        tau = np.arange(sum(k), dtype=float)
        pooled = pool_profiles(tau, np.ones(tau.size), alpha=alpha, k=k)
        assert np.isfinite(pooled.half_width).all()

    @pytest.mark.parametrize("k, message", [
        ([2, 1], "k must hold"), ([2.0, 2.0], "k must hold"), ([2, 3], "k must hold"),
        ([[2, 2]], "k must hold"),
    ], ids=["one-study", "float", "wrong-total", "2-d"])
    def test_counts_must_match_the_values(self, k, message):
        with pytest.raises(ValueError, match=message):
            pool_profiles(np.zeros(4), np.ones(4), k=k)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(stage2_inputs(max_profiles=8))
    def test_memory_layout_leaves_the_bits(self, inputs):
        tau, v = inputs
        base = pool_profiles(tau, v, alpha=0.05)
        k = np.full(tau.shape[1], tau.shape[0])

        def strided(values):
            """``values`` as every other row and every third column of a larger array."""
            spread = np.zeros((2 * values.shape[0], 3 * values.shape[1]))
            spread[::2, ::3] = values
            return spread[::2, ::3]

        for layout in ((np.asfortranarray(tau), np.asfortranarray(v), None),
                       (strided(tau), strided(v), None),
                       (tau.T.ravel(), v.T.ravel(), k),
                       (np.repeat(tau.T.ravel(), 2)[::2], np.repeat(v.T.ravel(), 2)[::2], k)):
            other = pool_profiles(*layout[:2], alpha=0.05, k=layout[2])
            for name in FIELDS:
                assert bits(getattr(other, name)) == bits(getattr(base, name))

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(mixed_profiles(max_profiles=20), stage2_inputs(max_profiles=8))
    def test_chunk_boundaries_leave_the_bits(self, profiles, inputs):
        # Runs of at most 3 profiles and 20 cells: runs of mixed K with
        # padding cells, and runs of one profile wider than the cap.
        tau, v = inputs
        empty = [(np.zeros((3, 0)), np.zeros((3, 0)), None),
                 (np.zeros(0), np.zeros(0), np.array([], dtype=np.intp))]
        default = [pool_mixed(profiles), pool_profiles(tau, v)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(meta, "_CHUNK_PROFILES", 3)
            patch.setattr(meta, "_CHUNK_VALUES", 20)
            small = [pool_mixed(profiles), pool_profiles(tau, v)]
            none = [pool_profiles(tau_e, v_e, k=k_e) for tau_e, v_e, k_e in empty]
        for base, other in zip(default, small):
            assert other.diagnostics == base.diagnostics
            for name in FIELDS:
                assert bits(getattr(other, name)) == bits(getattr(base, name))
        for pooled in none:
            assert all(getattr(pooled, name).shape == (0,) for name in FIELDS)
            assert sum(pooled.diagnostics.values()) == 0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(mixed_profiles())
    def test_study_sums_run_left_to_right(self, profiles):
        # The kernel's sums equal Python's running sums for any K, where
        # numpy's pairwise row sums differ from K = 8 on.
        tau, v, k = flat(profiles)
        pooled = pool_profiles(tau, v, k=k)
        values_tau, values_v, first, stride, ks, order = meta._sorted_profiles(tau, v, k)
        study = np.arange(ks[0])[:, None]
        index = first + stride * np.where(study < ks, study, 0)
        m = np.array([np.count_nonzero(ks > s) for s in range(ks[0])])
        layout = values_tau[index], values_v[index], m  # (K, P), columns by K
        theta2 = pooled.theta2[order]
        score, slope = _score(theta2, *layout)
        equal = np.array([profiles[p][0].min() == profiles[p][0].max() for p in order.tolist()])
        center, var = _pool_rows(*layout, theta2, equal)
        for j, profile in enumerate(order.tolist()):
            tau_j, v_j = profiles[profile]
            sw, swt, s2r2, s3r2, s2r, s2, s3 = python_sums(float(theta2[j]), tau_j.tolist(),
                                                          v_j.tolist())
            assert (center[j], var[j]) == (swt / sw, 1.0 / sw)
            ratio = s2 / sw
            assert score[j] == 0.5 * (s2r2 - sw + ratio)
            assert slope[j] == 0.5 * (-2.0 * s3r2 + 2.0 * (s2r * s2r) / sw + s2
                                      - 2.0 * s3 / sw + ratio * ratio)


UNIT, ETA = Fraction(1, 2**53), Fraction(1, 2**1075)  # unit roundoff; half the least subnormal


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * UNIT / (1 - n * UNIT)


def pooling_bounds(tau, v, theta2):
    """``(T, V, dT, dV)``: the exact pooled estimate T and variance V of one
    profile at ``theta2``, and bounds on the errors of ``_pool_rows``' float
    values, all as Fractions.

    ``_pool_rows`` forms w_i = fl(1 / fl(se2_i + theta2)), scales them by
    2^-e, e the exponent of the largest, and returns fl(S_p / S_w) and
    2^-e fl(1 / S_w), S_w and S_p being the running sums of the scaled
    weights and of their rounded products with tau_i.  Every operation rounds
    to nearest, so with u = 2^-53 and eta = 2^-1075 (Higham 2002, *Accuracy
    and Stability of Numerical Algorithms*, ch. 2-4):
    - fl(se2 + theta2) is off by at most u relative (a subnormal sum is
      exact), and its inverse, being at least 2^-1024, by at most 4u, so
      w_i = W_i (1 + phi_i) with W_i = 1/(se2_i + theta2) and
      |phi_i| <= c = (1 + 4u)/(1 - u) - 1;
    - the scaling is exact except below 2^-1022, where it is off by at most
      eta, and a product is off by at most u relative plus eta;
    - a running sum of K terms x_i is sum x_i (1 + s_i), |s_i| <= g =
      gamma_{K-1}, and adds no underflow error.
    In units of 2^-e, with Omega = sum W_i 2^-e and A = sum W_i 2^-e |tau_i|:
      |S_w - Omega| <= D_w = ((1 + c)(1 + g) - 1) Omega + K eta (1 + g),
      |S_p - T Omega| <= D_p = ((1 + c)(1 + u)(1 + g) - 1) A
                               + eta (1 + u)(1 + g) sum |tau_i| + K eta (1 + g).
    So S_p / S_w is within E = (D_p + |T| D_w) / (Omega - D_w) of T, and the
    returned tau_pooled within dT = E + u (|T| + E) + eta.  1 / S_w is within
    F = D_w / (Omega (Omega - D_w)) of 1 / Omega, so var_pooled is within
    dV = 2^-e (F + u (1 / Omega + F)) + eta of V = 2^-e / Omega.
    """
    with np.errstate(divide="ignore", over="ignore"):
        e = int(np.frexp((1.0 / (v + theta2)).max())[1])
    scale = Fraction(2) ** -e
    weights = [scale / (Fraction(s) + Fraction(theta2)) for s in v.tolist()]
    taus = [Fraction(t) for t in tau.tolist()]
    k, c, g = len(taus), (1 + 4 * UNIT) / (1 - UNIT) - 1, gamma(len(taus) - 1)
    omega = sum(weights)
    exact = sum(w * t for w, t in zip(weights, taus)) / omega
    d_w = ((1 + c) * (1 + g) - 1) * omega + k * ETA * (1 + g)
    d_p = (((1 + c) * (1 + UNIT) * (1 + g) - 1) * sum(w * abs(t) for w, t in zip(weights, taus))
           + ETA * (1 + UNIT) * (1 + g) * sum(abs(t) for t in taus) + k * ETA * (1 + g))
    spread = (d_p + abs(exact) * d_w) / (omega - d_w)
    inverse = d_w / (omega * (omega - d_w))
    return (exact, scale / omega, spread + UNIT * (abs(exact) + spread) + ETA,
            scale * (inverse + UNIT * (1 / omega + inverse)) + ETA)


@st.composite
def scaled_profiles(draw):
    """1 to 4 profiles of K = 3 to 8 studies: tau_hat in [-1, 1] times 2^a
    and se2 in [2^-10, 4] times 2^b, a in [-1074, 500] and b in
    [-1000, 1000] drawn for each profile, so that the products of weights and
    estimates span the float range and beyond."""
    profiles = []
    for _ in range(draw(st.integers(1, 4), label="profiles")):
        k = draw(st.integers(3, 8), label="k")
        tau = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
        v = np.array(draw(st.lists(st.floats(2.0**-10, 4.0), min_size=k, max_size=k)))
        a, b = draw(st.integers(-1074, 500), label="a"), draw(st.integers(-1000, 1000), label="b")
        profiles.append((np.ldexp(tau, a), np.ldexp(v, b)))
    return profiles


class TestScaledWeights:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(scaled_profiles())
    def test_pooled_values_within_the_summation_bound(self, profiles):
        # Unscaled weights times estimates underflowed or overflowed here:
        # tau_pooled came out 0, NaN or 1e6 ulp and more off.
        pooled = pool_mixed(profiles)
        for j, (tau, v) in enumerate(profiles):
            exact, var, d_tau, d_var = pooling_bounds(tau, v, pooled.theta2[j])
            assert abs(Fraction(pooled.tau_pooled[j]) - exact) <= d_tau
            assert abs(Fraction(pooled.var_pooled[j]) - var) <= d_var
