import math

import numpy as np
import pytest

from voxanon import (
    F0Contour,
    FeatureMatrix,
    SpeakerEmbedding,
    Waveform,
    align_streams,
    extract_f0,
    load_f0,
    load_features,
    mel_features,
    read_wav,
    save_f0,
    save_features,
    write_wav,
)
from voxanon.errors import DataError
from voxanon.features import LOG_FLOOR, _hann_periodic, _mel_basis, frame_count, mel_filterbank

from _oracles import extract_f0_per_lag, fft_peak_hz, mel_center_frequencies, nccf_peak
from conftest import make_noise, make_tone


class TestWavIo:
    def test_roundtrip_within_one_lsb(self, rng, tmp_path):
        samples = np.clip(rng.uniform(-1.0, 1.0, 4000), -1.0, 1.0)
        samples[:3] = [1.0, -1.0, 0.0]  # exercise the extremes
        path = tmp_path / "x.wav"
        write_wav(path, Waveform(samples, 16000))
        loaded = read_wav(path)
        assert loaded.sample_rate == 16000
        assert np.max(np.abs(loaded.samples - samples)) <= 1.0 / 32768.0

    def test_stereo_rejected_with_channel_count(self, tmp_path):
        import struct

        data = np.zeros(64, dtype="<i2").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
        header += b"data" + struct.pack("<I", len(data))
        path = tmp_path / "stereo.wav"
        path.write_bytes(header + data)
        with pytest.raises(DataError, match="2 channels"):
            read_wav(path)

    def test_truncated_header_reports_byte_offset(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(DataError, match="byte offset"):
            read_wav(path)

    def test_truncated_chunk_reports_byte_offset(self, tmp_path):
        import struct

        path = tmp_path / "cut.wav"
        blob = b"RIFF" + struct.pack("<I", 100) + b"WAVE" + b"fmt " + struct.pack("<I", 16)
        path.write_bytes(blob + b"\x00" * 4)  # fmt chunk body cut short
        with pytest.raises(DataError, match="byte offset 12"):
            read_wav(path)

    @pytest.mark.parametrize("tail", [1, 3, 7])
    def test_trailing_bytes_rejected_with_offset(self, tmp_path, tail):
        path = tmp_path / "tail.wav"
        write_wav(path, Waveform(np.zeros(1600) + 0.1, 16000))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00" * tail)
        with pytest.raises(DataError, match=f"{tail} dangling bytes.*byte offset {size}"):
            read_wav(path)

    def test_non_pcm16_rejected(self, tmp_path):
        import struct

        data = b"\x00" * 32
        header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)
        header += b"data" + struct.pack("<I", len(data))
        path = tmp_path / "pcm8.wav"
        path.write_bytes(header + data)
        with pytest.raises(DataError, match="PCM16"):
            read_wav(path)

    def test_unexpected_rate_instructs_resampling(self, tmp_path):
        path = tmp_path / "rate.wav"
        write_wav(path, Waveform(np.zeros(100) + 0.1, 8000))
        with pytest.raises(DataError, match="resample"):
            read_wav(path, expected_rate=16000)
        assert read_wav(path, expected_rate=8000).sample_rate == 8000


class TestMelFeatures:
    def test_frame_count_arithmetic(self):
        wav = make_tone(300.0, seconds=1.0)
        assert mel_features(wav, 24, 0.005).n_frames == (16000 - 400) // 80 + 1 == 196
        assert mel_features(wav, 24, 0.010).n_frames == (16000 - 400) // 160 + 1 == 98

    def test_all_zero_waveform_hits_log_floor(self):
        wav = Waveform(np.zeros(1600), 16000)
        features = mel_features(wav, 80, 0.005)
        assert np.all(features.frames == math.log(LOG_FLOOR))

    @pytest.mark.parametrize("n_mels", [24, 80])
    def test_tone_peaks_in_nearest_channel(self, n_mels):
        wav = make_tone(1000.0, seconds=0.5)
        features = mel_features(wav, n_mels, 0.010)
        centers = mel_center_frequencies(n_mels, 20.0, 7600.0)
        expected_channel = int(np.argmin(np.abs(centers - 1000.0)))
        peak_channels = np.argmax(features.frames, axis=1)
        assert np.all(peak_channels == expected_channel)

    def test_kinds_by_width(self):
        wav = make_tone(200.0, seconds=0.2)
        assert mel_features(wav, 24, 0.01).kind == "fbank24"
        assert mel_features(wav, 40, 0.01).kind == "mel40"
        assert mel_features(wav, 80, 0.005).kind == "melspec80"

    def test_unsupported_width(self):
        with pytest.raises(ValueError, match="n_mels"):
            mel_features(make_tone(200.0, seconds=0.2), 32, 0.01)

    def test_too_short_waveform(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            mel_features(Waveform(np.zeros(100) + 0.1, 16000), 24, 0.01)

    def test_determinism(self):
        wav = make_noise(seconds=0.3, seed=4)
        a = mel_features(wav, 24, 0.01)
        b = mel_features(wav, 24, 0.01)
        assert np.array_equal(a.frames, b.frames)

    def test_finite_for_noise(self):
        features = mel_features(make_noise(seconds=0.3, seed=9), 80, 0.005)
        assert np.all(np.isfinite(features.frames))

    def test_filterbank_and_window_built_once_read_only(self):
        basis = _mel_basis(40, 16000)
        assert _mel_basis(40, 16000) is basis and _hann_periodic(400) is _hann_periodic(400)
        assert not basis.flags.writeable and not _hann_periodic(400).flags.writeable
        assert np.array_equal(basis, mel_filterbank(40, 16000))


class TestExtractF0:
    def test_pure_tone_recovered(self):
        wav = make_tone(220.0, seconds=1.0)
        contour = extract_f0(wav)
        assert contour.hop == 0.005
        interior = contour.values[3:-3]
        voiced = interior[interior > 0]
        assert voiced.size / interior.size >= 0.95
        assert np.all(np.abs(voiced - 220.0) <= 2.0)
        # Corroborate against an FFT-peak oracle on the same frames.
        frames = np.lib.stride_tricks.sliding_window_view(wav.samples, 400)[::80]
        oracle = np.array([fft_peak_hz(f, 16000) for f in frames[3:-3]])
        mask = interior > 0
        assert np.all(np.abs(interior[mask] - oracle[mask]) <= 2.0)

    def test_silence_is_unvoiced(self):
        contour = extract_f0(Waveform(np.zeros(8000), 16000))
        assert np.all(contour.values == 0.0)

    def test_white_noise_mostly_unvoiced_and_matches_oracle(self):
        wav = make_noise(seconds=1.0, seed=21)
        contour = extract_f0(wav)
        assert (contour.values == 0.0).mean() >= 0.80
        # The voicing decision must agree with a direct per-frame
        # normalized-correlation peak statistic.
        frames = np.lib.stride_tricks.sliding_window_view(wav.samples, 400)[::80]
        lag_min, lag_max = math.ceil(16000 / 600), 16000 // 50
        for t in range(0, frames.shape[0], 7):
            peak = nccf_peak(frames[t], lag_min, lag_max)
            assert (contour.values[t] > 0) == (peak >= 0.45), (t, peak)

    def test_framing_matches_mel_at_synthesis_hop(self):
        wav = make_tone(180.0, seconds=0.73)
        contour = extract_f0(wav)
        assert contour.n_frames == frame_count(len(wav), 400, 80)
        assert contour.n_frames == mel_features(wav, 80, 0.005).n_frames

    def test_low_rate_rejected(self):
        with pytest.raises(ValueError, match="8 kHz"):
            extract_f0(Waveform(np.zeros(4000) + 0.1, 4000))

    def test_voiced_values_within_range(self):
        contour = extract_f0(make_tone(599.0, seconds=0.5))
        voiced = contour.values[contour.values > 0]
        assert np.all((voiced >= 50.0) & (voiced <= 600.0))


def _click_then_silence(fs=16000):
    samples = np.zeros(fs)
    samples[fs // 2 : fs // 2 + 2] = [0.5, -0.5]
    return samples


class TestExtractF0MatchesPerLag:
    """Fixed inputs on which the array tracker must reproduce the per-lag one."""

    @pytest.mark.parametrize("samples", [
        pytest.param(_click_then_silence(), id="click-then-silence"),
        pytest.param(np.zeros(8000), id="silence"),
        pytest.param(np.full(4000, 0.3), id="dc-offset"),
        pytest.param(make_tone(200.0, seconds=400 / 16000).samples, id="400-samples"),
        pytest.param(make_tone(200.0, seconds=401 / 16000).samples, id="401-samples"),
        pytest.param(make_tone(599.0, seconds=0.5).samples, id="599-hz"),
        pytest.param(make_noise(seconds=0.5, seed=4).samples, id="noise"),
    ])
    def test_default_range(self, samples):
        got = extract_f0(Waveform(samples, 16000)).values
        want, _ = extract_f0_per_lag(samples, 16000)
        assert np.array_equal(got > 0, want > 0)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_click_then_silence_unvoiced(self):
        assert np.all(extract_f0(Waveform(_click_then_silence(), 16000)).values == 0.0)

    @pytest.mark.parametrize("offset", [0.3, -0.7, 0.1, 0.25])
    def test_constant_offset_unvoiced(self, offset):
        # Mean removal leaves about one ulp of most offsets (0.25 is exact and
        # leaves none), and that residue's correlation is 1 at every lag; the
        # energy floor keeps it unvoiced in both trackers.
        samples = np.full(4000, offset)
        assert np.all(extract_f0(Waveform(samples, 16000)).values == 0.0)
        assert np.all(extract_f0_per_lag(samples, 16000)[0] == 0.0)
        # A tone riding on the same offset is still voiced.
        tone = offset + 0.2 * make_tone(200.0, seconds=0.25).samples
        assert np.all(extract_f0(Waveform(tone, 16000)).values > 0.0)

    def test_two_lag_range(self):
        # fs / fmax = 80 and fs / fmin = 81: no lag has two neighbours.
        samples = make_tone(200.0, seconds=0.25).samples
        fmin, fmax = 16000 / 81, 200.0
        got = extract_f0(Waveform(samples, 16000), fmin=fmin, fmax=fmax).values
        want, _ = extract_f0_per_lag(samples, 16000, fmin=fmin, fmax=fmax)
        assert np.any(want > 0)
        assert np.array_equal(got > 0, want > 0)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_threshold_is_inclusive(self):
        # A 200 Hz square wave framed on whole periods has r exactly 1 at
        # lag 80 in both trackers, so threshold 1.0 still voices it.
        samples = np.where(np.arange(4000) % 80 < 40, 0.5, -0.5)
        got = extract_f0(Waveform(samples, 16000), threshold=1.0).values
        want, strength = extract_f0_per_lag(samples, 16000, threshold=1.0)
        assert np.all(strength == 1.0) and np.all(got > 0)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            extract_f0(make_tone(200.0, seconds=0.1), threshold=threshold)


def _fake_ppg(n_frames, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(0.1, 1.0, (n_frames, dim)), hop=0.010, kind="ppg")


def _fake_f0(n_frames, seed=1):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(n_frames) < 0.7, rng.uniform(80, 300, n_frames), 0.0)
    return F0Contour(values)


class TestAlignStreams:
    def test_double_replication(self):
        ppg = _fake_ppg(100)
        f0 = _fake_f0(200)
        xvec = SpeakerEmbedding("x", np.arange(1, 9, dtype=float))
        aligned = align_streams(ppg, f0, xvec)
        assert aligned.n_frames == 200
        assert aligned.hop == f0.hop
        for k in range(100):
            assert np.array_equal(aligned.frames[2 * k, :6], ppg.frames[k])
            assert np.array_equal(aligned.frames[2 * k + 1, :6], ppg.frames[k])

    def test_xvector_broadcast_bitwise(self, rng):
        xvec = SpeakerEmbedding("x", rng.standard_normal(16))
        aligned = align_streams(_fake_ppg(40), _fake_f0(80), xvec)
        block = aligned.frames[:, -16:]
        for row in block:
            assert np.array_equal(row, xvec.vector)

    def test_width_is_content_plus_two_plus_embedding(self, rng):
        xvec = SpeakerEmbedding("x", rng.standard_normal(32))
        aligned = align_streams(_fake_ppg(10, dim=13), _fake_f0(20), xvec)
        assert aligned.dim == 13 + 2 + 32

    def test_trims_to_shorter_stream(self):
        xvec = SpeakerEmbedding("x", [1.0, 2.0])
        aligned = align_streams(_fake_ppg(100), _fake_f0(199), xvec)
        assert aligned.n_frames == 199

    def test_large_mismatch_rejected(self):
        xvec = SpeakerEmbedding("x", [1.0, 2.0])
        with pytest.raises(ValueError, match="desynchronized|disagree"):
            align_streams(_fake_ppg(100), _fake_f0(197), xvec)

    def test_f0_channels(self):
        ppg = _fake_ppg(30)
        f0 = _fake_f0(60)
        xvec = SpeakerEmbedding("x", [3.0, 4.0])
        aligned = align_streams(ppg, f0, xvec)
        log_f0 = aligned.frames[:, 6]
        flag = aligned.frames[:, 7]
        assert set(np.unique(flag)) <= {0.0, 1.0}
        voiced = f0.values[:60] > 0
        assert np.array_equal(flag.astype(bool), voiced)
        assert np.all(log_f0[~voiced] == 0.0)
        assert np.allclose(log_f0[voiced], np.log(f0.values[:60][voiced]))

    def test_requires_ppg_kind(self):
        mel = FeatureMatrix(np.ones((10, 24)), hop=0.010, kind="fbank24")
        with pytest.raises(ValueError, match="ppg"):
            align_streams(mel, _fake_f0(20), SpeakerEmbedding("x", [1.0]))


class TestFeatureFiles:
    def test_feature_roundtrip_exact(self, rng, tmp_path):
        features = FeatureMatrix(rng.standard_normal((17, 5)), hop=0.01, kind="ppg")
        path = tmp_path / "f.ppg"
        save_features(path, features)
        assert [p.name for p in tmp_path.iterdir()] == ["f.ppg"]
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == ["kind", "hop", "values"]
        loaded = load_features(path)
        assert loaded.kind == "ppg"
        assert loaded.hop == features.hop
        assert np.array_equal(loaded.frames, features.frames)

    def test_f0_roundtrip_exact(self, tmp_path):
        contour = _fake_f0(33)
        path = tmp_path / "f0.npz"
        save_f0(path, contour)
        loaded = load_f0(path)
        assert np.array_equal(loaded.values, contour.values)
        assert loaded.hop == contour.hop

    def test_malformed_feature_file(self, tmp_path):
        # A feature file in the retired one-record-per-frame JSON format.
        path = tmp_path / "bad.ppg.jsonl"
        path.write_text('{"kind": "ppg", "hop": 0.01, "dim": 3, "frames": 1}\n{"t": 0}\n')
        with pytest.raises(DataError, match="not an .npz archive") as info:
            load_features(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("loader, write, problem", [
        pytest.param(load_features, None, "cannot read", id="missing-file"),
        pytest.param(load_features, b"", "not an .npz archive", id="empty-file"),
        pytest.param(load_features, "half", "not an .npz archive", id="truncated"),
        pytest.param(load_features, "npy", "bare .npy", id="bare-npy"),
        pytest.param(load_features, {"hop": None}, "missing entries", id="missing-hop"),
        pytest.param(load_features, {"values": None}, "missing entries", id="missing-values"),
        pytest.param(load_features, {"values": np.ones((4, 3), np.float32)}, "float64",
                     id="float32-values"),
        pytest.param(load_features, {"values": np.array([[None, 1.0]], dtype=object)},
                     "Object arrays", id="object-values"),
        pytest.param(load_features, {"hop": np.array("fast")}, "hop", id="text-hop"),
        pytest.param(load_features, {"hop": np.array(0.0)}, "hop", id="zero-hop"),
        pytest.param(load_features, {"hop": np.array(-0.01)}, "hop", id="negative-hop"),
        pytest.param(load_features, {"hop": np.array(np.nan)}, "hop", id="nan-hop"),
        pytest.param(load_features, {"hop": np.array([0.01])}, "hop", id="1d-hop"),
        pytest.param(load_features, {"kind": np.array("spectrogram")}, "kind", id="unknown-kind"),
        pytest.param(load_features, {"kind": np.array(3)}, "kind", id="numeric-kind"),
        pytest.param(load_features, {"kind": np.array("f0")}, "kind", id="f0-as-features"),
        pytest.param(load_f0, {}, "kind", id="ppg-as-f0"),
        pytest.param(load_features, {"values": np.ones(4)}, "2-d", id="1d-features"),
        pytest.param(load_features, {"kind": np.array("melspec80")}, "dim 80", id="wrong-dim"),
        pytest.param(load_f0, {"kind": np.array("f0")}, "1-d", id="2d-f0"),
        pytest.param(load_features, {"values": np.full((4, 3), np.inf)}, "non-finite",
                     id="infinite-values"),
    ])
    def test_malformed_stream_names_path(self, tmp_path, loader, write, problem):
        path = tmp_path / "stream.npz"
        if isinstance(write, dict):
            entries = {"kind": np.array("ppg"), "hop": np.array(0.01), "values": np.ones((4, 3))}
            entries.update(write)
            with path.open("wb") as fh:
                np.savez(fh, **{k: v for k, v in entries.items() if v is not None})
        elif write == "half":
            save_features(path, _fake_ppg(20))
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif write == "npy":
            with path.open("wb") as fh:
                np.save(fh, np.ones((4, 3)))
        elif write is not None:
            path.write_bytes(write)
        with pytest.raises(DataError, match=problem) as info:
            loader(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("hop", [0.0, -0.01, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda hop: FeatureMatrix(np.ones((2, 3)), hop=hop, kind="ppg"), id="features"),
        pytest.param(lambda hop: F0Contour(np.zeros(4), hop=hop), id="f0"),
    ])
    def test_in_memory_stream_rejects_bad_hop(self, build, hop):
        with pytest.raises(ValueError, match="hop must be a finite positive number"):
            build(hop)
