import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from fallcascade import edge_threshold as et
from fallcascade import preprocess as pp
from fallcascade.dataset import Trace
from fallcascade.evaluate import fit_scaler


def make_trace(samples, rate=200, label="FALL"):
    return Trace("S1", "T1", label, rate, np.asarray(samples, dtype=float))


class TestNorms:
    def test_norm_xyz_345(self):
        assert pp.norm_xyz((3, 4, 0)) == pytest.approx(5.0)

    def test_norm_xyz_zero(self):
        assert pp.norm_xyz((0, 0, 0)) == 0.0

    def test_norm_xyz_ones(self):
        assert pp.norm_xyz((1, 1, 1)) == pytest.approx(1.7320508, abs=1e-6)

    # the horizontal-plane norm is the last row of sample_norms
    def test_norm_hori_yz(self):
        assert pp.sample_norms((7, 3, 4))[2] == pytest.approx(5.0)

    def test_norm_hori_vertical_only(self):
        assert pp.sample_norms((5, 0, 0))[2] == 0.0

    def test_norm_hori_bounded_by_norm_xyz(self):
        rng = np.random.default_rng(0)
        for s in rng.normal(size=(50, 3)):
            assert pp.sample_norms(s)[2] <= pp.norm_xyz(s) + 1e-12


class TestFindImpact:
    def test_unique_max(self):
        trace = make_trace([[1, 0, 0], [1, 0, 0], [5, 0, 0], [1, 0, 0]])
        assert pp.find_impact(trace.samples) == 2

    def test_tie_breaks_earliest(self):
        trace = make_trace([[5, 0, 0], [0, 5, 0], [1, 0, 0]])
        assert pp.find_impact(trace.samples) == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            samples = rng.normal(size=(rng.integers(5, 200), 3))
            norms = [pp.norm_xyz(s) for s in samples]
            oracle = int(np.argmax(norms))
            assert pp.find_impact(samples) == oracle


class TestWindowSpec:
    @pytest.mark.parametrize("kw", [dict(vertical_axis="w"), dict(ws_f_s=0.0)],
                             ids=["axis", "duration"])
    def test_bad_value_fails_when_built(self, kw):
        with pytest.raises(ValueError):
            pp.WindowSpec(**kw)


class TestWindowSamples:
    @pytest.mark.parametrize("samples, error, message", [
        (np.zeros((5, 2)), pp.BadSamples, "samples must have shape (n, 3), got (5, 2)"),
        (np.zeros(3), pp.BadSamples, "samples must have shape (n, 3), got (3,)"),
        (np.zeros((0, 3)), pp.NoSamples, "samples must have at least one row"),
        (np.full((4, 3), np.nan), pp.BadSamples, "samples must be finite"),
        ([[0.0, 1.0, np.inf]], pp.BadSamples, "samples must be finite"),
        # a fourth power of 1e100 overflows, so its kurtosis would be NaN
        (np.pad([[0.0, 1e100, 0.0]], ((27, 28), (0, 0))), pp.BadSamples,
         "samples must lie in [-1e+06, 1e+06] g, got a reading of magnitude 1e+100"),
    ], ids=["two_axes", "one_sample_flat", "no_rows", "all_nan", "inf", "huge"])
    def test_bad_samples_fail_when_built(self, samples, error, message):
        # the kernel and the gate read (n >= 1, 3) finite samples; any other
        # window fails deep inside them or is decided on NaN features
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            pp.Window(samples, "ADL")

    def test_samples_are_read_only_floats(self):
        window = pp.Window([[1, 2, 3]], "FALL")
        assert window.samples.dtype == np.float64
        assert not window.samples.flags.writeable


class TestExtractWindow:
    def test_published_window_lengths(self):
        assert pp.WindowSpec(2.0, 1.23).length(200) == 647
        assert pp.WindowSpec(2.0, 1.44).length(200) == 689

    def test_zero_padding_at_front(self):
        samples = np.ones((400, 3)) * 0.1
        samples[10] = [9, 0, 0]
        trace = make_trace(samples)
        window = pp.extract_window(trace, pp.WindowSpec(ws_f_s=0.5, ws_b_s=1.44))
        # WS_b * rate = 288, impact at 10 -> first 278 slots zero-filled
        assert np.all(window.samples[:278] == 0.0)
        assert np.any(window.samples[278] != 0.0)
        assert window.samples[288].tolist() == [9.0, 0.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(rate=st.integers(1, 400), n=st.integers(1, 500), at=st.floats(0.0, 1.0),
           ws_f=st.floats(0.01, 2.0), ws_b=st.floats(0.01, 2.0))
    def test_impact_lands_at_before(self, rate, n, at, ws_f, ws_b):
        spec = pp.WindowSpec(ws_f_s=ws_f, ws_b_s=ws_b)
        impact = min(int(at * n), n - 1)
        samples = np.arange(1.0, 3 * n + 1).reshape(n, 3) / (3 * n)
        samples[impact] = [9.0, 0.0, 0.0]
        window = pp.extract_window(make_trace(samples, rate=rate), spec)
        before = spec.before(rate)
        assert window.samples[before].tolist() == [9.0, 0.0, 0.0]
        assert len(window.samples) == spec.length(rate)
        # oracle: row j is trace row impact - before + j, zero off the trace
        for j, row in enumerate(window.samples):
            src = impact - before + j
            assert row.tolist() == (samples[src].tolist() if 0 <= src < n else [0.0] * 3)

    def test_impact_attains_window_max(self, small_dataset):
        spec = pp.WindowSpec(0.6, 0.5)
        for trace in small_dataset.traces:
            window = pp.extract_window(trace, spec)
            norms = np.linalg.norm(window.samples, axis=1)
            assert norms[spec.before(trace.sample_rate_hz)] == norms.max()

    def test_length_is_pure_function_of_spec_and_rate(self, small_dataset):
        spec = pp.WindowSpec(0.6, 0.5)
        lengths = {len(pp.extract_window(t, spec).samples)
                   for t in small_dataset.traces}
        assert lengths == {spec.length(50)}


def scale(seq, mode):
    """One column fit and scaled by evaluate.fit_scaler, the scaler runs use."""
    x = np.asarray(seq, dtype=np.float64)[:, None]
    return fit_scaler(x, mode)(x)[:, 0]


class TestNormalization:
    def test_minmax_affine(self):
        assert scale([2, 4, 6], "minmax").tolist() == [0.0, 0.5, 1.0]

    def test_minmax_constant(self):
        assert scale([5, 5, 5], "minmax").tolist() == [0.0, 0.0, 0.0]

    def test_minmax_range_and_idempotence(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        out = scale(x, "minmax")
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.allclose(scale(out, "minmax"), out)

    def test_minmax_order_preserving(self):
        x = np.array([3.0, -1.0, 2.0, 10.0])
        out = scale(x, "minmax")
        assert np.array_equal(np.argsort(out), np.argsort(x))

    def test_zscore_two_points(self):
        assert scale([1, 3], "zscore").tolist() == [-1.0, 1.0]

    def test_zscore_constant(self):
        assert scale([0, 0, 0], "zscore").tolist() == [0.0, 0.0, 0.0]

    def test_zscore_moments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.5, size=500)
        out = scale(x, "zscore")
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9


def _oracle_features(window):
    """Independent re-implementation from textbook formulas (scipy moments)."""
    ch = pp.channel_matrix(window.samples, window.vertical_axis)
    out = []
    out.extend(np.mean(ch, axis=0))
    out.extend(np.std(ch, axis=0))
    out.extend(np.var(ch, axis=0))
    out.extend(np.max(ch, axis=0))
    out.extend(np.min(ch, axis=0))
    out.extend(np.ptp(ch, axis=0))
    for j in range(6):
        col = ch[:, j]
        if np.var(col) == 0:
            out.append(0.0)
        else:
            out.append(stats.kurtosis(col, fisher=True, bias=True))
    for j in range(6):
        col = ch[:, j]
        if np.var(col) == 0:
            out.append(0.0)
        else:
            out.append(stats.skew(col, bias=True))
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    for i, j in pairs:
        a, b = ch[:, i], ch[:, j]
        if np.var(a) == 0 or np.var(b) == 0:
            out.append(0.0)
        else:
            out.append(np.corrcoef(a, b)[0, 1])
    return np.array(out)


def tiny_spread_samples():
    """56 zero rows but one ay reading of 3.6e-118: the channels holding it
    have a positive second moment whose square underflows to 0."""
    samples = np.zeros((56, 3))
    samples[20, 1] = 3.6e-118
    return samples


class TestFeatures:
    def test_feature_count_and_names(self):
        assert pp.N_FEATURES == 54
        assert len(pp.FEATURE_NAMES) == 54

    def test_constant_window(self):
        samples = np.tile([1.0, 0.0, 0.0], (20, 1))
        window = pp.Window(samples, "ADL")
        f = pp.extract_features(window)
        assert f[0] == 1.0       # mean ax
        assert f[6] == 0.0       # sd ax
        assert f[12] == 0.0      # var ax
        assert f[18] == 1.0 and f[24] == 1.0  # max/min ax
        assert f[30] == 0.0      # range ax
        assert np.all(f[36:48] == 0.0)  # shape stats of constant channels

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_inexact_constant_channels_read_flat(self, axis):
        # 0.1 is not dyadic: the float mean of 50 copies misses it by a
        # rounding residue, which must not pass for spread
        samples = np.zeros((50, 3))
        samples[:, 1] = 0.1
        f = pp.extract_features(pp.Window(samples, "ADL", axis))
        assert np.all(f[36:48] == 0.0)  # kurtosis and skewness of every channel
        assert np.all(f[48:54] == 0.0)  # every correlation has a constant channel

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_underflowing_spread_reads_flat(self, axis):
        f = pp.extract_features(pp.Window(tiny_spread_samples(), "ADL", axis))
        assert np.isfinite(f).all()
        assert np.all(f[36:48] == 0.0)  # kurtosis and skewness of every channel

    def test_equal_axes_perfect_correlation(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=30)
        samples = np.column_stack([col, col, rng.normal(size=30)])
        window = pp.Window(samples, "ADL")
        f = pp.extract_features(window)
        assert f[48] == pytest.approx(1.0)  # corr(ax, ay)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(scale=2.0, size=(64, 3))
        window = pp.Window(samples, "FALL")
        f = pp.extract_features(window)
        oracle = _oracle_features(window)
        np.testing.assert_allclose(f, oracle, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_vertical_axis_configurable(self, axis):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=(32, 3))
        window = pp.Window(samples, "FALL", axis)
        f = pp.extract_features(window)
        np.testing.assert_allclose(f, _oracle_features(window), rtol=1e-9)


class TestChannelMatrix:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_columns_match_hand_formulas(self, axis):
        rng = np.random.default_rng(11)
        samples = rng.normal(scale=2.0, size=(40, 3))
        ax, ay, az = samples.T
        verti, hori = {
            "x": (np.sqrt(ax**2 + ay**2), np.sqrt(ay**2 + az**2)),
            "y": (np.sqrt(ay**2 + az**2), np.sqrt(ax**2 + az**2)),
            "z": (np.sqrt(az**2 + ax**2), np.sqrt(ax**2 + ay**2)),
        }[axis]
        expected = np.column_stack(
            [ax, ay, az, np.sqrt(ax**2 + ay**2 + az**2), verti, hori])
        ch = pp.channel_matrix(samples, axis)
        assert ch.shape == (40, 6)
        np.testing.assert_allclose(ch, expected, rtol=1e-15, atol=0)

    def test_unknown_vertical_axis(self):
        with pytest.raises(ValueError, match="vertical_axis"):
            pp.channel_matrix(np.zeros((4, 3)), "w")


DYADIC_READINGS = st.integers(-32, 32).map(lambda k: k / 8.0)


@st.composite
def feature_windows(draw, readings=DYADIC_READINGS):
    """Random windows of length 1-300: gravity-offset noise, optionally a
    zero-padded run at either end and axes held at a constant reading.
    Constant readings are dyadic by default and at most one is non-zero, so
    every constant channel (the norms included) has a mean the float sum
    reproduces exactly."""
    length = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.floats(-2.0, 2.0))
    scale = draw(st.floats(0.01, 5.0))
    samples = offset + scale * rng.normal(size=(length, 3))
    held = draw(st.lists(st.integers(0, 2), unique=True, max_size=3))
    reading = draw(readings)
    for i, axis in enumerate(held):
        samples[:, axis] = reading if i == 0 else 0.0
    pad = draw(st.integers(0, length))
    if draw(st.booleans()):
        samples[:pad] = 0.0
    else:
        samples[length - pad:] = 0.0
    return pp.Window(samples, "FALL")


class TestFeatureProperties:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(window=feature_windows())
    def test_matches_scipy_oracle(self, axis, window):
        window = dataclasses.replace(window, vertical_axis=axis)
        f = pp.extract_features(window)
        np.testing.assert_allclose(f, _oracle_features(window),
                                   rtol=1e-9, atol=1e-12)
        constant = np.ptp(pp.channel_matrix(window.samples, axis), axis=0) == 0
        assert np.all(f[36:42][constant] == 0.0)  # kurtosis
        assert np.all(f[42:48][constant] == 0.0)  # skewness
        pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        for k, (i, j) in enumerate(pairs):
            if constant[i] or constant[j]:
                assert f[48 + k] == 0.0


# the feature kernel and gate peaks as they were before the lean rewrite,
# kept verbatim as the oracles of the bit-identity property below
_CORR_PAIRS = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def reference_norm_xyz(s):
    s = np.asarray(s, dtype=np.float64)
    return np.sqrt(np.sum(s * s, axis=-1))


def reference_plane_norm(s, axes):
    a, b = s[..., axes[0]], s[..., axes[1]]
    return np.sqrt(a * a + b * b)


def reference_norm_hori(s, vertical_axis="x"):
    return reference_plane_norm(np.asarray(s, dtype=np.float64),
                                pp.PLANE_AXES[vertical_axis][1])


def reference_channel_matrix(samples, vertical_axis="x"):
    samples = np.asarray(samples, dtype=np.float64)
    verti, hori = pp.PLANE_AXES[vertical_axis]
    return np.column_stack([samples, reference_norm_xyz(samples),
                            reference_plane_norm(samples, verti),
                            reference_plane_norm(samples, hori)])


def reference_extract_features(window):
    ch = reference_channel_matrix(window.samples, window.vertical_axis)
    f = np.empty(pp.N_FEATURES)
    f[0:6] = ch.mean(axis=0)
    f[6:12] = ch.std(axis=0)
    f[12:18] = ch.var(axis=0)
    hi, lo = ch.max(axis=0), ch.min(axis=0)
    f[18:24] = hi
    f[24:30] = lo
    f[30:36] = hi - lo
    rows = np.ascontiguousarray(ch.T)
    d = rows - rows.mean(axis=1, keepdims=True)
    d[hi == lo] = 0.0
    ss = np.sum(d * d, axis=1)
    m2 = ss / len(ch)
    flat = m2 == 0
    m2 = np.where(flat, 1.0, m2)
    f[36:42] = np.where(flat, 0.0, np.mean(d ** 4, axis=1) / np.float_power(m2, 2) - 3.0)
    f[42:48] = np.where(flat, 0.0, np.mean(d ** 3, axis=1) / np.float_power(m2, 1.5))
    i, j = _CORR_PAIRS.T
    denom = np.sqrt(ss[i] * ss[j])
    f[48:54] = np.divide(np.sum(d[i] * d[j], axis=1), denom,
                         out=np.zeros(len(denom)), where=denom != 0)
    return f


def reference_window_peaks(window):
    return (float(reference_norm_xyz(window.samples).max()),
            float(reference_norm_hori(window.samples, window.vertical_axis).max()))


class TestLeanKernel:
    """The feature kernel and the gate's peaks equal their references bit for
    bit, -0.0 included, wherever the reference features are finite: every
    report byte rests on it."""

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    # any float held reading: a constant channel's float mean can miss it
    @given(window=st.one_of(feature_windows(),
                            feature_windows(readings=st.floats(-8.0, 8.0))))
    @example(window=pp.Window(tiny_spread_samples(), "FALL"))
    def test_features_and_peaks_equal_the_reference_bytes(self, axis, window):
        window = dataclasses.replace(window, vertical_axis=axis)
        got = pp.extract_features(window)
        # a tiny held reading underflows the square of a channel's second
        # moment: the reference divides by 0 there, the kernel reads the
        # channel flat
        with np.errstate(all="ignore"):
            want = reference_extract_features(window)
        if np.isfinite(want).all():
            assert got.tobytes() == want.tobytes()
        else:
            assert np.isfinite(got).all()
            shape = np.zeros((9, 6), dtype=bool)
            # the kurtosis and skewness rows of the flattened channels
            shape[6:8] = ~np.isfinite(want[36:42])
            assert np.all(got[shape.ravel()] == 0.0)
            assert got[~shape.ravel()].tobytes() == want[~shape.ravel()].tobytes()
        assert np.array(et.window_peaks(window)).tobytes() == \
            np.array(reference_window_peaks(window)).tobytes()

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("samples", [np.zeros((56, 3)), np.tile([0.1, -0.3, 1.0], (56, 1)),
                                         np.zeros((1, 3)), [[0.1, 0.2, 0.3]]],
                             ids=["zeros", "constant", "one_zero_row", "one_row"])
    def test_degenerate_windows_equal_the_reference_bytes(self, axis, samples):
        window = pp.Window(samples, "ADL", axis)
        assert pp.extract_features(window).tobytes() == \
            reference_extract_features(window).tobytes()
        assert et.window_peaks(window) == reference_window_peaks(window)

    def test_norms_equal_the_reference_norms(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(scale=3.0, size=(500, 3))
        assert pp.norm_xyz(samples).tobytes() == reference_norm_xyz(samples).tobytes()
        for axis in pp.PLANE_AXES:
            assert (pp.sample_norms(samples, axis)[2].tobytes()
                    == reference_norm_hori(samples, axis).tobytes())
