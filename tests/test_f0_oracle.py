"""extract_f0 against the per-lag tracker it replaced, on generated input."""

import numpy as np
import pytest

from voxanon import Waveform, extract_f0

from _oracles import extract_f0_per_lag

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

FS = 16000


def _tone_plus_noise(n, freq, amplitude, noise, seed):
    t = np.arange(n) / FS
    rng = np.random.default_rng(seed)
    samples = amplitude * np.sin(2.0 * np.pi * freq * t) + noise * rng.standard_normal(n)
    return np.clip(samples, -1.0, 1.0)


_TONES = st.builds(
    _tone_plus_noise,
    st.integers(400, 2400),
    st.floats(30.0, 800.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
_RAW = hnp.arrays(np.float64, st.integers(400, 1200), elements=st.floats(-1.0, 1.0))


# Both trackers compute r to within a few ulp of each other, not bit for
# bit, so a frame whose r lies that close to the threshold (a window that
# is constant after mean removal has r = 1 at many lags) may be voiced by
# one and not the other. Every other frame must agree.
AMBIGUOUS_R = 1e-12


@settings(max_examples=60, deadline=None)
@given(st.one_of(_TONES, _RAW), st.floats(0.0, 1.0))
def test_matches_per_lag_tracker(samples, threshold):
    got = extract_f0(Waveform(samples, FS), threshold=threshold).values
    want, strength = extract_f0_per_lag(samples, FS, threshold=threshold)
    clear = np.abs(strength - threshold) > AMBIGUOUS_R
    assert np.array_equal(got[clear] > 0, want[clear] > 0)
    both = (got > 0) & (want > 0)
    assert np.all(np.abs(got[both] - want[both]) <= 1e-9)
