"""Audio decoding and spectral descriptors against closed-form signals."""

import io as std_io
import math
import re
import struct
import sys
import tempfile
import threading
import traceback
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brightness,
    channel_sum_mono,
    pcm16,
    spectral_flatness,
    spectral_flux,
    spectral_moments,
    spectral_rolloff,
    wav,
    whole_array_time_domain,
)
from perfeat.audio_features import (
    BLOCK_FRAMES,
    BRIGHTNESS_CUTOFFS,
    ROLLOFF_FRACTIONS,
    _DECODE_PIECE,
    _TIME_PIECE,
    AllFramesSilent,
    AudioClip,
    ClipTooShort,
    FrameTooShort,
    NonFiniteSample,
    NotRiff,
    SilentFrame,
    SpectralFrameSeries,
    TooFewFrames,
    TruncatedData,
    UnsupportedCodec,
    _frame_descriptors,
    _window,
    check_settings,
    extract_audio_features,
    read_wav,
    stft_magnitudes,
    time_domain_features,
)


# Derandomized so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def sine(frequency, seconds, sample_rate, amplitude=1.0, phase=0.0):
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    return amplitude * np.sin(2 * np.pi * frequency * t + phase)


@st.composite
def interleaved_codes(draw):
    """(codes, channels): up to 40 frames of 1 to 12 channels, int16 or float32."""
    channels = draw(st.integers(1, 12))
    if draw(st.booleans()):
        dtype, values = "<i2", st.integers(-32768, 32767)
    else:
        dtype, values = "<f4", st.floats(width=32, allow_nan=False, allow_infinity=False)
    size = channels * draw(st.integers(0, 40))
    return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype), channels


def _chunk(tag, size):
    """A chunk of ``size`` zero bytes, with the pad byte an odd size takes."""
    return tag + struct.pack("<I", size) + bytes(size + (size & 1))


@st.composite
def pieced_wavs(draw, kinds):
    """(RIFF bytes, piece bytes, expected): a payload over several decode pieces.

    ``expected`` is the channel-sum decode of a "whole" payload, or (error
    class, message) for one that is "cut" short or holds a "non-finite"
    code in a later piece.  Chunks of odd size, padded, may sit before the
    data chunk and, unless it is cut, after it.
    """
    kind = draw(st.sampled_from(kinds))
    channels = draw(st.integers(1, 12))
    if kind != "non-finite" and draw(st.booleans()):
        fmt, bits, dtype, scale = 1, 16, "<i2", 1.0 / 32768.0
        values = st.integers(-32768, 32767)
    else:
        fmt, bits, dtype, scale = 3, 32, "<f4", 1.0
        values = st.floats(width=32, allow_nan=False, allow_infinity=False)
    frame_bytes = channels * bits // 8
    piece = draw(st.integers(1, 3 * frame_bytes + 1))  # whole frames, at least one
    piece_frames = max(1, piece // frame_bytes)
    frames = draw(st.integers(0, 5)) * piece_frames + draw(st.integers(0, piece_frames - 1))
    if kind != "whole":
        frames += piece_frames + 1  # a later piece to hold the fault
    size = channels * frames
    codes = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)
    expected = channel_sum_mono(codes, channels, scale)
    if kind == "non-finite":
        later = range(piece_frames * channels, size)
        for _ in range(draw(st.integers(1, 3))):
            codes[draw(st.sampled_from(later))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        first = int(np.argmin(np.isfinite(codes))) // channels
        expected = NonFiniteSample, f"sample frame {first} is NaN or infinite"
    cut = draw(st.integers(1, codes.nbytes)) if kind == "cut" else 0
    data = wav(codes, 8000, fmt=fmt, bits=bits, channels=channels, truncate_payload=cut)
    if cut:
        expected = TruncatedData, f"chunk b'data' declares {codes.nbytes} bytes"
    else:
        after = draw(st.none() | st.integers(0, 5))
        if after is not None:
            data += _chunk(b"junk", after)
    before = draw(st.none() | st.integers(0, 5))
    if before is not None:
        data = data[:36] + _chunk(b"LIST", before) + data[36:]  # after the fmt chunk
    return b"RIFF" + struct.pack("<I", len(data) - 8) + data[8:], piece, expected


@st.composite
def wav_ranges(draw):
    """(RIFF bytes, piece bytes, start, stop): 1 to 3 channels of either
    codec, a decode piece of a few frames, and a range of the payload's
    frames that may start, end or lie inside a piece."""
    channels = draw(st.integers(1, 3))
    frames = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        codes, fmt, bits = rng.integers(-32768, 32768, channels * frames), 1, 16
    else:
        codes, fmt, bits = rng.normal(size=channels * frames), 3, 32
    piece = draw(st.integers(1, 4 * channels * bits // 8))
    start = draw(st.integers(0, frames))
    stop = draw(st.integers(start, frames))
    return wav(codes, 8000, fmt=fmt, bits=bits, channels=channels), piece, start, stop


class TestWavReader:
    def test_int16_code_mapping(self):
        clip = read_wav(wav([32767, -32768, 0, 16384], 8000))
        np.testing.assert_allclose(
            clip.samples, [32767 / 32768, -1.0, 0.0, 0.5], atol=0
        )
        assert clip.sample_rate == 8000

    def test_stereo_averaged(self):
        clip = read_wav(wav([32767, -32768, 0, 32767], 8000, channels=2))
        assert len(clip.samples) == 2
        assert clip.samples[1] == pytest.approx((0 + 32767) / 2 / 32768, abs=1e-12)

    def test_float32_passthrough(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=0.25, size=200).astype("<f4")
        clip = read_wav(wav(x, 22050, fmt=3, bits=32))
        np.testing.assert_allclose(clip.samples, x.astype(np.float64), atol=0)

    @PROPERTY
    @given(case=interleaved_codes())
    @example(
        # Eight float channels: the running sum rounds every 1 away from
        # 2**53, numpy's pairwise mean adds them in pairs first.
        case=(np.array([2.0**53, 1, 1, 1, 1, 1, 1, 1], dtype="<f4"), 8),
    )
    def test_decodes_as_scaling_every_code_then_averaging(self, case):
        # The decoder sums the codes in channel order, divides and scales
        # once; the oracle scales every code, then takes numpy's mean over
        # the channels.  From eight channels on that mean sums pairwise, so
        # the decoder is held to the channel-order sum bit for bit and to
        # the mean within the error bound of summing ``channels`` terms.
        codes, channels = case
        if codes.dtype == np.dtype("<i2"):
            fmt, bits, scale = 1, 16, 1.0 / 32768.0
        else:
            fmt, bits, scale = 3, 32, 1.0
        expected = codes.astype(np.float64)
        expected *= scale
        if channels > 1:
            expected = expected.reshape(-1, channels).mean(axis=1)
        clip = read_wav(wav(codes, 8000, fmt=fmt, bits=bits, channels=channels))
        if channels < 8:
            assert np.array_equal(clip.samples, expected)
            return
        assert np.array_equal(clip.samples, channel_sum_mono(codes, channels, scale))
        magnitude = np.abs(codes.astype(np.float64)).reshape(-1, channels).mean(axis=1) * scale
        bound = channels * np.finfo(np.float64).eps * magnitude
        assert (np.abs(clip.samples - expected) <= bound).all()

    @PROPERTY
    @given(case=pieced_wavs(["whole"]))
    def test_pieces_decode_as_one_payload(self, case):
        # From a file and from bytes, piece by piece, the samples keep the
        # bits of the channel sum.
        data, piece, expected = case
        with mock.patch("perfeat.audio_features._DECODE_PIECE", piece), \
                tempfile.TemporaryFile() as stream:
            stream.write(data)
            for source in (stream, data):
                assert np.array_equal(read_wav(source).samples, expected)

    @PROPERTY
    @given(case=pieced_wavs(["non-finite", "cut"]))
    def test_fault_in_a_later_piece_is_named_as_in_one_payload(self, case):
        # The first non-finite frame, or the cut chunk, is named as a
        # whole-payload decode names it.
        data, piece, (error, message) = case
        with mock.patch("perfeat.audio_features._DECODE_PIECE", piece), \
                tempfile.TemporaryFile() as stream:
            stream.write(data)
            for source in (stream, data):
                with pytest.raises(error, match=re.escape(message)):
                    read_wav(source)

    def test_stream_that_ends_early(self):
        # A stream shorter than its length said, as a file cut while it is
        # read, fails; no sample is left unwritten.
        class Short(std_io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:-1])

        with pytest.raises(TruncatedData, match="ended before its declared size"):
            read_wav(Short(wav([0, 1, 2], 8000)))

    def test_memory_is_the_samples_and_one_piece(self, tmp_path):
        # A stereo float32 file's bytes are as large as its float64 mono
        # samples; decoding from the open file must not hold both.  The
        # slack covers one piece's finiteness mask (128 KiB).
        path = tmp_path / "clip.wav"
        rate = 44100
        codes = np.random.default_rng(13).normal(scale=0.1, size=2 * 10 * rate)
        path.write_bytes(wav(codes, rate, fmt=3, bits=32, channels=2))
        with open(path, "rb") as stream:
            tracemalloc.start()
            try:
                clip = read_wav(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= clip.samples.nbytes + _DECODE_PIECE + (1 << 18)

    @PROPERTY
    @given(case=wav_ranges())
    def test_range_is_a_slice_of_the_whole_decode(self, case):
        data, piece, start, stop = case
        with mock.patch("perfeat.audio_features._DECODE_PIECE", piece), \
                tempfile.TemporaryFile() as stream:
            stream.write(data)
            whole = read_wav(stream)
            part = read_wav(stream, start, stop)
        assert part.sample_rate == whole.sample_rate
        assert part.samples.tobytes() == whole.samples[start:stop].tobytes()

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 5), (5, None), (2, -1)])
    def test_range_outside_the_payload(self, start, stop):
        with pytest.raises(ValueError, match=r"not a range of the 4"):
            read_wav(wav([0, 1, 2, 3], 8000), start, stop)

    def test_unknown_chunks_skipped(self):
        clip = read_wav(wav([0, 100, -100], 8000, extra_chunk=True))
        assert len(clip.samples) == 3

    def test_against_scipy(self):
        wavfile = pytest.importorskip("scipy.io.wavfile")
        rng = np.random.default_rng(2)
        codes = rng.integers(-32768, 32768, size=1000).astype("<i2")
        data = wav(codes, 44100, extra_chunk=True)
        ours = read_wav(data)
        reference_rate, reference = wavfile.read(std_io.BytesIO(data))
        assert ours.sample_rate == reference_rate
        np.testing.assert_allclose(ours.samples, reference / 32768.0, atol=0)

    def test_not_riff(self):
        with pytest.raises(NotRiff):
            read_wav(b"MThd" + bytes(20))

    def test_mu_law_rejected(self):
        with pytest.raises(UnsupportedCodec):
            read_wav(wav([0, 1, 2], 8000, fmt=7))

    def test_24_bit_rejected(self):
        data = wav([0, 1, 2], 8000)
        patched = data.replace(
            (16).to_bytes(2, "little") + b"data", (24).to_bytes(2, "little") + b"data"
        )
        with pytest.raises(UnsupportedCodec):
            read_wav(patched)

    def test_truncated_payload(self):
        with pytest.raises(TruncatedData):
            read_wav(wav([0, 1, 2, 3], 8000, truncate_payload=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample(self, bad):
        x = np.zeros(200)
        x[151] = bad
        with pytest.raises(NonFiniteSample, match="frame 75"):
            read_wav(wav(x, 8000, fmt=3, bits=32, channels=2))

    def test_missing_data_chunk(self):
        fmt_chunk = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        data = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(TruncatedData):
            read_wav(data)


class TestStft:
    def test_frame_count(self):
        clip = AudioClip(np.zeros(5000), 8000)
        series = stft_magnitudes(clip, 2048, 1024)
        assert series.magnitudes.shape == (3, 1025)
        assert series.bin_frequencies[0] == 0.0
        assert series.bin_frequencies[-1] == 4000.0

    def test_too_short(self):
        with pytest.raises(ClipTooShort):
            stft_magnitudes(AudioClip(np.zeros(100), 8000), 2048, 1024)

    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("frame_length", [-4, 0, 1])
    def test_frame_shorter_than_two_samples(self, frame_length, window):
        # A one-sample Hann frame is an all-zero taper, which would read as
        # a silent clip; zero or negative lengths would fail inside the FFT.
        clip = AudioClip(np.ones(64), 8000)
        with pytest.raises(FrameTooShort, match="frame_length"):
            stft_magnitudes(clip, frame_length, 1, window)
        with pytest.raises(FrameTooShort, match="frame_length"):
            extract_audio_features(clip, frame_length=frame_length, hop_length=1,
                                   window=window)

    def test_dc_concentrates_in_bin_zero(self):
        clip = AudioClip(np.full(4096, 0.5), 8000)
        series = stft_magnitudes(clip, 2048, 1024, window="rect")
        magnitudes = series.magnitudes[0]
        assert magnitudes[0] == pytest.approx(0.5 * 2048, rel=1e-9)
        assert np.abs(magnitudes[1:]).max() < 1e-9 * magnitudes[0]

    def test_bin_centered_sine_is_a_line(self):
        sample_rate = 8000
        frame = 2048
        bin_index = 43
        frequency = bin_index * sample_rate / frame
        clip = AudioClip(sine(frequency, 1.0, sample_rate), sample_rate)
        series = stft_magnitudes(clip, frame, 1024, window="rect")
        magnitudes = series.magnitudes[0]
        assert magnitudes[bin_index] == pytest.approx(frame / 2, rel=1e-6)
        others = np.delete(magnitudes, bin_index)
        assert others.max() < 1e-6 * magnitudes[bin_index]

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4096)
        clip = AudioClip(x, 8000)
        series = stft_magnitudes(clip, 2048, 2048, window="rect")
        for start, magnitudes in zip((0, 2048), series.magnitudes):
            time_energy = float((x[start : start + 2048] ** 2).sum())
            spectral_energy = (
                magnitudes[0] ** 2
                + magnitudes[-1] ** 2
                + 2.0 * (magnitudes[1:-1] ** 2).sum()
            ) / 2048.0
            assert spectral_energy == pytest.approx(time_energy, rel=1e-9)

    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("hop_length", [7, 64, 100])
    def test_matches_per_frame_rfft(self, hop_length, window):
        # Hops shorter than, equal to and longer than the frame; the samples
        # run past the last complete frame, which must be dropped.
        frame_length = 64
        x = np.random.default_rng(11).normal(size=1000)
        taper = (
            0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_length) / frame_length)
            if window == "hann"
            else np.ones(frame_length)
        )
        starts = range(0, len(x) - frame_length + 1, hop_length)
        expected = np.array(
            [np.abs(np.fft.rfft(x[s : s + frame_length] * taper)) for s in starts]
        )
        series = stft_magnitudes(AudioClip(x, 8000), frame_length, hop_length, window)
        assert series.magnitudes.shape == expected.shape
        assert np.array_equal(series.magnitudes, expected)

    def test_taper_and_bins_are_shared_and_read_only(self):
        # Each taper and bin array is built once per setting and shared by
        # every block, so none may be written to.
        at_8k = stft_magnitudes(AudioClip(np.ones(4096), 8000), 2048, 1024)
        again = stft_magnitudes(AudioClip(np.ones(4096), 8000), 2048, 1024)
        at_16k = stft_magnitudes(AudioClip(np.ones(4096), 16000), 2048, 1024)
        assert at_8k.bin_frequencies is again.bin_frequencies
        assert at_8k.bin_frequencies[-1] == 4000.0
        assert at_16k.bin_frequencies[-1] == 8000.0
        for array in (at_8k.bin_frequencies, at_16k.bin_frequencies,
                      _window("hann", 2048), _window("rect", 2048)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.5
        assert _window("hann", 2048) is _window("hann", 2048)

    def test_hann_window_is_periodic(self):
        # A periodic window sums to exactly N/2 and its first sample is 0.
        clip = AudioClip(np.ones(2048), 8000)
        series = stft_magnitudes(clip, 2048, 2048, window="hann")
        assert series.magnitudes[0][0] == pytest.approx(1024.0, rel=1e-12)


class TestMoments:
    def test_two_point_spectrum(self):
        magnitudes = np.array([0.0, 1.0, 1.0])
        frequencies = np.array([0.0, 500.0, 1500.0])
        m = spectral_moments(magnitudes, frequencies)
        assert m.centroid == pytest.approx(1000.0, abs=1e-9)
        assert m.spread == pytest.approx(500.0, abs=1e-9)
        assert m.skewness == pytest.approx(0.0, abs=1e-12)
        assert m.kurtosis == pytest.approx(1.0, abs=1e-9)
        assert not m.degenerate

    def test_asymmetric_spectrum_skews(self):
        magnitudes = np.array([0.0, 3.0, 1.0])
        frequencies = np.array([0.0, 500.0, 1500.0])
        m = spectral_moments(magnitudes, frequencies)
        assert m.skewness > 0  # long tail toward high frequency

    def test_single_line_degenerate(self):
        m = spectral_moments(np.array([0.0, 7.0, 0.0]), np.array([0.0, 500.0, 1000.0]))
        assert m.degenerate
        assert m.centroid == pytest.approx(500.0, abs=1e-12)
        assert m.skewness == 0.0 and m.kurtosis == 0.0

    def test_uniform_spectrum_centroid(self):
        frequencies = np.linspace(0.0, 4000.0, 1025)
        m = spectral_moments(np.ones(1025), frequencies)
        assert m.centroid == pytest.approx(2000.0, abs=1e-9)

    def test_silent_frame(self):
        with pytest.raises(SilentFrame):
            spectral_moments(np.zeros(10), np.linspace(0, 100, 10))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        frequencies = np.linspace(0.0, 4000.0, 257)
        for _ in range(50):
            magnitudes = rng.uniform(0.01, 1.0, size=257)
            a = spectral_moments(magnitudes, frequencies)
            b = spectral_moments(1e3 * magnitudes, frequencies)
            assert b.centroid == pytest.approx(a.centroid, rel=1e-12)
            assert b.spread == pytest.approx(a.spread, rel=1e-12)
            assert b.skewness == pytest.approx(a.skewness, rel=1e-9)
            assert b.kurtosis == pytest.approx(a.kurtosis, rel=1e-9)
            assert 0.0 <= a.centroid <= 4000.0


class TestFlatness:
    def test_uniform_is_one(self):
        assert spectral_flatness(np.array([5.0, 2.0, 2.0, 2.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hand_value(self):
        # Geometric mean 2, arithmetic mean 2.5 over the non-DC bins.
        assert spectral_flatness(np.array([9.0, 1.0, 4.0])) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_zero_bin_sends_to_zero(self):
        assert spectral_flatness(np.array([1.0, 0.0, 4.0])) == 0.0

    def test_dc_excluded(self):
        a = spectral_flatness(np.array([100.0, 2.0, 2.0]))
        b = spectral_flatness(np.array([0.001, 2.0, 2.0]))
        assert a == b == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            magnitudes = rng.uniform(0.001, 1.0, size=65)
            value = spectral_flatness(magnitudes)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_silent(self):
        with pytest.raises(SilentFrame):
            spectral_flatness(np.zeros(8))


class TestRolloffAndBrightness:
    def test_rolloff_hand_value(self):
        # Energies 3 and 1 at 200 and 400 Hz: 75 percent sits at 200 Hz.
        magnitudes = np.array([0.0, math.sqrt(3.0), 1.0])
        frequencies = np.array([0.0, 200.0, 400.0])
        assert spectral_rolloff(magnitudes, frequencies, 0.75) == 200.0
        assert spectral_rolloff(magnitudes, frequencies, 0.74) == 200.0
        assert spectral_rolloff(magnitudes, frequencies, 0.80) == 400.0

    def test_rolloff_uniform_bins(self):
        magnitudes = np.ones(100)
        frequencies = np.arange(100.0)
        assert spectral_rolloff(magnitudes, frequencies, 0.85) == 84.0
        assert spectral_rolloff(magnitudes, frequencies, 0.95) == 94.0

    def test_rolloff_single_line(self):
        magnitudes = np.array([0.0, 0.0, 5.0, 0.0])
        frequencies = np.array([0.0, 100.0, 200.0, 300.0])
        for fraction in (0.85, 0.95, 0.5):
            assert spectral_rolloff(magnitudes, frequencies, fraction) == 200.0

    def test_rolloff_monotone_in_fraction(self):
        rng = np.random.default_rng(6)
        frequencies = np.linspace(0, 4000, 129)
        for _ in range(50):
            magnitudes = rng.uniform(0, 1, size=129)
            low = spectral_rolloff(magnitudes, frequencies, 0.85)
            high = spectral_rolloff(magnitudes, frequencies, 0.95)
            assert low <= high

    def test_rolloff_fraction_domain(self):
        with pytest.raises(ValueError):
            spectral_rolloff(np.ones(4), np.arange(4.0), 1.0)
        with pytest.raises(ValueError):
            spectral_rolloff(np.ones(4), np.arange(4.0), 0.0)

    def test_brightness_hand_value(self):
        magnitudes = np.array([1.0, 1.0, 1.0, 1.0])
        frequencies = np.array([0.0, 1000.0, 2000.0, 3000.0])
        assert brightness(magnitudes, frequencies, 1500.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_brightness_cutoff_inclusive(self):
        magnitudes = np.array([0.0, 2.0])
        frequencies = np.array([0.0, 1000.0])
        assert brightness(magnitudes, frequencies, 1000.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_brightness_bounds_and_monotonicity(self):
        rng = np.random.default_rng(7)
        frequencies = np.linspace(0, 4000, 129)
        for _ in range(50):
            magnitudes = rng.uniform(0, 1, size=129)
            values = [
                brightness(magnitudes, frequencies, cutoff)
                for cutoff in (0.0, 1000.0, 1500.0, 3000.0, 4001.0)
            ]
            assert values[0] == pytest.approx(1.0, abs=1e-12)
            assert values[-1] == 0.0
            for lower, upper in zip(values[1:], values):
                assert lower <= upper + 1e-12


@st.composite
def piece_edge_samples(draw):
    """Samples whose length is at or near a multiple of the piece size.

    Lengths near 2 ** j pieces put numpy's pairwise split points on a piece
    edge too.  Values are noise, with runs of exact zeros, a few repeated
    values whose squares tie, or a sign change across each piece edge.
    """
    pieces = draw(st.integers(0, 40) | st.sampled_from([1, 2, 4, 8, 16, 32]))
    offset = draw(st.integers(-16, 16) | st.integers(-_TIME_PIECE // 2, _TIME_PIECE // 2))
    n = max(1, pieces * _TIME_PIECE + offset)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "zeros", "ties", "edges"]))
    if kind == "ties":
        return rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n)
    x = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if kind == "zeros":
        for _ in range(draw(st.integers(1, 4))):
            first = draw(st.integers(0, n - 1))
            x[first : first + draw(st.integers(1, 2 * _TIME_PIECE))] = 0.0
    elif kind == "edges":
        edges = np.arange(_TIME_PIECE, n, _TIME_PIECE)
        x[edges - 1] = -1.0
        x[edges] = draw(st.sampled_from([0.0, 1.0]))
    return x


class TestFluxAndTimeDomain:
    def test_identical_frames_zero_flux(self):
        assert spectral_flux(np.tile([1.0, 2.0, 3.0], (5, 1))) == 0.0

    def test_hand_value(self):
        frames = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert spectral_flux(frames) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(8)
        frames = rng.uniform(0, 1, size=(6, 33))
        assert spectral_flux(3.0 * frames) == pytest.approx(
            3.0 * spectral_flux(frames), rel=1e-12
        )

    def test_needs_two_frames(self):
        with pytest.raises(TooFewFrames):
            spectral_flux(np.ones((1, 8)))

    def test_sine_zcr_and_rms(self):
        sample_rate = 8000
        clip = AudioClip(sine(100.0, 1.0, sample_rate), sample_rate)
        zcr, rms = time_domain_features(clip)
        assert zcr == pytest.approx(200.0, abs=2.0)
        assert rms == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_constant_has_no_crossings(self):
        clip = AudioClip(np.full(8000, 0.5), 8000)
        zcr, rms = time_domain_features(clip)
        assert zcr == 0.0
        assert rms == pytest.approx(0.5, abs=1e-12)

    def test_zero_sample_counts_positive(self):
        # 0 -> -1 crosses; -1 -> 0 crosses back; 0 -> 1 does not cross.
        clip = AudioClip(np.array([0.0, -1.0, 0.0, 1.0]), 4)
        zcr, _ = time_domain_features(clip)
        assert zcr == pytest.approx(2.0, abs=1e-12)

    def test_square_wave(self):
        sample_rate = 8000
        t = np.arange(sample_rate) / sample_rate
        square = np.where(np.sin(2 * np.pi * 100 * t) >= 0, 1.0, -1.0)
        zcr, rms = time_domain_features(AudioClip(square, sample_rate))
        assert zcr == pytest.approx(200.0, abs=2.0)
        assert rms == pytest.approx(1.0, abs=1e-12)

    @PROPERTY
    @given(samples=piece_edge_samples())
    def test_pieces_equal_the_whole_array_form(self, samples):
        rate = 8000
        assert time_domain_features(AudioClip(samples, rate)) == whole_array_time_domain(
            samples, rate)


class TestExtract:
    def test_canonical_names(self):
        sample_rate = 8000
        clip = AudioClip(sine(440.0, 1.0, sample_rate), sample_rate)
        vector = extract_audio_features(clip)
        assert tuple(vector) == (
            "zcr", "rms", "centroid", "spread", "skewness", "kurtosis",
            "flatness", "rolloff85", "rolloff95", "flux",
            "bright1000", "bright1500", "bright3000",
        )
        assert len(vector.values()) == 13

    def test_sine_centroid_near_frequency(self):
        sample_rate = 8000
        frequency = 1000.0
        clip = AudioClip(sine(frequency, 2.0, sample_rate), sample_rate)
        vector = extract_audio_features(clip)
        bin_width = sample_rate / 2048
        assert abs(vector["centroid"] - frequency) < 2 * bin_width

    def test_high_sine_is_bright_low_sine_is_not(self):
        sample_rate = 8000
        high = extract_audio_features(AudioClip(sine(2000.0, 1.0, sample_rate), sample_rate))
        low = extract_audio_features(AudioClip(sine(300.0, 1.0, sample_rate), sample_rate))
        assert high["bright1500"] > 0.98
        assert low["bright1500"] < 0.02

    def test_silence_padding_invariance(self):
        # Content that already ends in a frame of zeros: appending whole
        # silent frames adds only all-zero frames, which are skipped.
        sample_rate = 8000
        content = np.concatenate([sine(500.0, 0.75, sample_rate), np.zeros(2048)])
        padded = np.concatenate([content, np.zeros(2048 * 3)])
        a = extract_audio_features(AudioClip(content, sample_rate))
        b = extract_audio_features(AudioClip(padded, sample_rate))
        for name in ("centroid", "spread", "skewness", "kurtosis", "flatness",
                     "flux"):
            assert b[name] == pytest.approx(a[name], rel=1e-12)
        assert [b["rolloff85"], b["rolloff95"]] == [a["rolloff85"], a["rolloff95"]]
        bright = ("bright1000", "bright1500", "bright3000")
        assert [b[name] for name in bright] == pytest.approx([a[name] for name in bright])

    def test_amplitude_scale_invariance_of_spectral_shape(self):
        sample_rate = 8000
        rng = np.random.default_rng(9)
        x = rng.normal(size=3 * 2048)
        a = extract_audio_features(AudioClip(x, sample_rate))
        b = extract_audio_features(AudioClip(0.05 * x, sample_rate))
        for name in ("centroid", "spread", "skewness", "kurtosis", "flatness"):
            assert b[name] == pytest.approx(a[name], rel=1e-9)
        assert [b["rolloff85"], b["rolloff95"]] == [a["rolloff85"], a["rolloff95"]]
        assert b["rms"] == pytest.approx(0.05 * a["rms"], rel=1e-12)
        assert b["flux"] == pytest.approx(0.05 * a["flux"], rel=1e-9)

    def test_all_silent_raises(self):
        with pytest.raises(AllFramesSilent):
            extract_audio_features(AudioClip(np.zeros(8192), 8000))

    def test_roundtrip_through_wav(self):
        sample_rate = 8000
        x = 0.5 * sine(700.0, 1.0, sample_rate)
        clip = read_wav(wav(pcm16(x), sample_rate))
        vector = extract_audio_features(clip)
        direct = extract_audio_features(AudioClip(pcm16(x) / 32768.0, sample_rate))
        assert vector["centroid"] == pytest.approx(direct["centroid"], rel=1e-12)

    def test_memory_beyond_the_samples_does_not_grow_with_the_clip(self):
        # Whole-clip RMS and crossing temporaries would take about 9 bytes
        # per sample, and full-length frames x bins arrays about 40.
        rate = 16000
        rng = np.random.default_rng(12)
        peaks = {}
        for seconds in (30, 120):
            clip = AudioClip(0.1 * rng.normal(size=seconds * rate), rate)
            tracemalloc.start()
            try:
                extract_audio_features(clip)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[120] - peaks[30]) / (90 * rate) <= 1.0

    def test_energy_underflow_is_a_silent_frame(self):
        # Magnitudes this small are non-zero but square to zero.
        x = 1e-170 * np.random.default_rng(10).normal(size=4096)
        with pytest.raises(SilentFrame):
            extract_audio_features(AudioClip(x, 8000))


@st.composite
def streamed_wavs(draw):
    """(RIFF bytes, frame length, hop) for 4-frame blocks and 256-sample pieces.

    The length is at or next to a block edge or a piece edge, or under one
    frame; the hop may leave gaps between frames.  Samples are noise after
    an optional silent lead-in, mono or stereo, in either codec.
    """
    frame_length = draw(st.sampled_from([16, 64]))
    hop = draw(st.sampled_from([frame_length // 2, frame_length, 3 * frame_length // 2]))
    edge = draw(st.sampled_from(["block", "piece", "short"]))
    if edge == "block":
        frames = 4 * draw(st.integers(1, 5)) + draw(st.integers(-1, 1))
        n = (frames - 1) * hop + frame_length + draw(st.sampled_from([0, 1, hop - 1]))
    elif edge == "piece":
        n = 256 * draw(st.integers(1, 6)) + draw(st.integers(-1, 1))
    else:
        n = draw(st.integers(0, frame_length - 1))
    channels = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=0.2, size=n * channels)
    x[: channels * draw(st.integers(0, n))] = 0.0
    if draw(st.booleans()):
        return wav(pcm16(x), 8000, channels=channels), frame_length, hop
    return wav(x, 8000, fmt=3, bits=32, channels=channels), frame_length, hop


def _outcome(call):
    """A call's result, or the class and text of the ValueError it raised."""
    try:
        return call()
    except ValueError as error:
        return type(error), str(error)


class TestStreamedExtract:
    """A WAV stream is decoded and described block by block."""

    @PROPERTY
    @given(case=streamed_wavs())
    def test_stream_gives_what_its_decoded_clip_gives(self, case):
        data, frame_length, hop_length = case
        options = {"frame_length": frame_length, "hop_length": hop_length}
        with mock.patch("perfeat.audio_features.BLOCK_FRAMES", 4), \
                mock.patch("perfeat.audio_features._TIME_PIECE", 256), \
                tempfile.TemporaryFile() as stream:
            stream.write(data)
            clip = read_wav(stream)
            streamed = _outcome(lambda: extract_audio_features(stream, **options))
            held = _outcome(lambda: extract_audio_features(clip, **options))
        assert streamed == held
        if isinstance(streamed, dict):
            expected = whole_array_time_domain(clip.samples, clip.sample_rate)
            assert (streamed["zcr"], streamed["rms"]) == expected

    @pytest.mark.parametrize("n, bad", [
        (20 * 1024, 19 * 1024 + 5),  # in the last block
        (20 * 1024 + 700, 20 * 1024 + 600),  # after the last frame
        (1500, 1400),  # in a clip shorter than one frame
    ])
    @pytest.mark.parametrize("lead", ["noise", "silence"])
    def test_decode_error_wins_over_a_description_error(self, tmp_path, n, bad, lead):
        # Before the bad sample the clip is noise, or silence that would
        # raise AllFramesSilent; either way the stream raises the error
        # that decoding it whole raises.
        rng = np.random.default_rng(22)
        x = rng.normal(scale=0.1, size=n) if lead == "noise" else np.zeros(n)
        x[bad] = np.nan
        path = tmp_path / "clip.wav"
        path.write_bytes(wav(x, 22050, fmt=3, bits=32))
        with open(path, "rb") as stream:
            with pytest.raises(NonFiniteSample) as whole:
                read_wav(stream)
            assert str(whole.value) == f"sample frame {bad} is NaN or infinite"
            with mock.patch("perfeat.audio_features.BLOCK_FRAMES", 4), \
                    pytest.raises(NonFiniteSample, match=re.escape(str(whole.value))):
                extract_audio_features(stream)

    def test_memory_is_one_block_not_the_clip(self, tmp_path):
        # At 30 s, the clip's float64 samples take 10.6 MB; the stream path
        # holds one block's samples and arrays and one piece of the sum of
        # squares.  What grows with the clip is the per-frame values, 88
        # bytes a frame of 1024 samples.
        rate = 44100
        rng = np.random.default_rng(23)
        peaks = {}
        for seconds in (30, 120):
            path = tmp_path / f"clip{seconds}.wav"
            path.write_bytes(wav(rng.integers(-3000, 3000, seconds * rate), rate))
            with open(path, "rb") as stream:
                tracemalloc.start()
                try:
                    extract_audio_features(stream)
                    peaks[seconds] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            path.unlink()
        assert peaks[30] < 30 * rate * 8 / 2
        assert (peaks[120] - peaks[30]) / (90 * rate) <= 0.1


class TestDescriptorArguments:
    """Rolloff fractions and brightness cutoffs are checked before the STFT."""

    # Too short for one frame: the STFT, had it run first, raises ClipTooShort.
    SHORT = AudioClip(np.zeros(100), 8000)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_rolloff_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="rolloff fraction") as raised:
            extract_audio_features(self.SHORT, rolloff_fractions=(0.85, fraction))
        assert not isinstance(raised.value, ClipTooShort)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf])
    def test_non_finite_brightness_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="brightness cutoff") as raised:
            extract_audio_features(self.SHORT, brightness_cutoffs=(1000.0, cutoff))
        assert not isinstance(raised.value, ClipTooShort)

    def test_unknown_window(self):
        with pytest.raises(ValueError, match="unknown window 'bogus'") as raised:
            extract_audio_features(AudioClip(np.zeros(100), 44100), window="bogus")
        assert not isinstance(raised.value, ClipTooShort)
        with pytest.raises(FrameTooShort):
            extract_audio_features(AudioClip(np.zeros(100), 44100), frame_length=1,
                                   window="bogus")
        with pytest.raises(ValueError, match="unknown window 'bogus'"):
            check_settings(2048, 1024, (0.85,), (1000.0,), "bogus")

    def test_window_name_is_checked_without_building_a_taper(self):
        # A frame far longer than any clip costs the check no memory.
        before = _window.cache_info()
        assert check_settings(2**40, 1, (), (), "rect") == ({}, {})
        assert _window.cache_info() == before

    def test_unknown_window_is_named_before_any_decode(self, tmp_path):
        x = np.random.default_rng(24).normal(scale=0.1, size=8192)
        x[10] = np.nan
        path = tmp_path / "clip.wav"
        path.write_bytes(wav(x, 44100, fmt=3, bits=32))
        with open(path, "rb") as stream:
            with pytest.raises(ValueError, match="unknown window 'bogus'") as raised:
                extract_audio_features(stream, window="bogus")
            assert not isinstance(raised.value, NonFiniteSample)
            with pytest.raises(FrameTooShort):
                extract_audio_features(stream, frame_length=1, window="bogus")

    @pytest.mark.parametrize("option, values, message", [
        ("rolloff_fractions", (0.85, 0.85),
         "rolloff fractions 0.85 and 0.85 both name column 'rolloff85'"),
        ("rolloff_fractions", (0.85, 0.95, 0.8500000001),
         "rolloff fractions 0.85 and 0.8500000001 both name column 'rolloff85'"),
        ("brightness_cutoffs", (1000.0, 1000.0000001),
         "brightness cutoffs 1000.0 and 1000.0000001 both name column 'bright1000'"),
    ])
    def test_values_that_share_a_column_name(self, option, values, message):
        # A row keyed by column name would otherwise keep one of the two.
        with pytest.raises(ValueError) as raised:
            extract_audio_features(self.SHORT, **{option: values})
        assert str(raised.value) == message


# Per-frame rounding differs between the batched pass and the oracles, so
# values agree to 1e-12 relative; a mean that is itself near zero (a
# skewness, the spread of single lines) is compared on its natural scale.
RTOL = 1e-12

JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _close(batched, oracle, scale):
    return abs(batched - oracle) <= RTOL * max(abs(batched), abs(oracle), scale)


@st.composite
def spectra(draw):
    """Frames x bins magnitudes with the cases the batched pass must match.

    Rows are silent, single lines (the degenerate branch, DC included),
    small integers with exact-zero bins, or flat; integer energies put
    dyadic rolloff fractions exactly on a cumulative-energy boundary.
    """
    bins = draw(st.integers(2, 40))
    n_live = draw(st.integers(2, 6))
    rows = []
    for _ in range(n_live):
        rows.extend(np.zeros(bins) for _ in range(draw(st.integers(0, 2))))
        kind = draw(st.sampled_from(["line", "integers", "flat"]))
        if kind == "line":
            row = np.zeros(bins)
            row[draw(st.integers(0, bins - 1))] = 1.0
        elif kind == "integers":
            row = np.array(draw(st.lists(st.integers(0, 4), min_size=bins,
                                         max_size=bins)), dtype=float)
            if not row.any():
                row[-1] = 1.0
        else:
            row = np.ones(bins)
        scale = draw(st.sampled_from([1.0, 1.0, 3.0, 0.1, 1e-3, 1e4])
                     | st.floats(1e-3, 1e3))
        rows.append(scale * row)
    rows.extend(np.zeros(bins) for _ in range(draw(st.integers(0, 2))))
    return np.array(rows)


fractions = st.lists(
    st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.85, 0.95, JUST_BELOW_ONE])
    | st.floats(1e-6, JUST_BELOW_ONE),
    min_size=1, max_size=3,
)
cutoffs = st.lists(st.floats(-100.0, 4100.0) | st.sampled_from([0.0, 2000.0, 4000.0]),
                   min_size=1, max_size=3)


@st.composite
def block_edge_clips(draw):
    """(clip, frame length, hop) with B - 1, B, B + 1 or 2B + 1 frames.

    B is the block size.  Noise is cut by silent runs of whole frames that
    start or end the clip, fill one block, or fall anywhere; a lone impulse
    in the middle of one frame leaves that frame the only live one.
    """
    frame_length = draw(st.sampled_from([16, 64]))
    hop = draw(st.sampled_from([frame_length // 2, frame_length]))
    n = draw(st.sampled_from([BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1,
                              2 * BLOCK_FRAMES + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n - 1) * hop + frame_length + draw(st.integers(0, hop - 1)))
    for kind in draw(st.lists(st.sampled_from(["start", "end", "block", "span", "lone"]),
                              max_size=3)):
        if kind == "lone":
            x[:] = 0.0
            x[draw(st.integers(0, n - 1)) * hop + frame_length // 2] = 1.0
            continue
        if kind == "start":
            first, stop = 0, draw(st.integers(1, n))
        elif kind == "end":
            first, stop = draw(st.integers(0, n - 1)), n
        elif kind == "block":
            first = BLOCK_FRAMES * draw(st.integers(0, (n - 1) // BLOCK_FRAMES))
            stop = min(first + BLOCK_FRAMES, n)
        else:
            first = draw(st.integers(0, n - 1))
            stop = draw(st.integers(first + 1, n))
        x[first * hop : (stop - 1) * hop + frame_length] = 0.0
    return AudioClip(x, 8000), frame_length, hop


@st.composite
def row_ranges(draw):
    """(live frames x bins, first, stop): random spectra and a row range.

    Rows are uniform noise, some with zero bins and some single lines, at
    one of five scales, down to near-silent rows whose energies are
    subnormal; every row keeps at least one positive bin.
    """
    rows = draw(st.integers(1, 13))
    bins = draw(st.sampled_from([2, 5, 33, 257, 1025]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.uniform(0.0, 1.0, (rows, bins))
    frames[rng.random((rows, bins)) < 0.1] = 0.0
    frames[rng.random(rows) < 0.2] = 0.0
    frames[np.arange(rows), rng.integers(0, bins, rows)] = rng.uniform(0.5, 1.0, rows)
    frames *= rng.choice([1e-160, 1e-150, 1e-3, 1.0, 1e4], (rows, 1))
    first = draw(st.integers(0, rows - 1))
    return frames, first, draw(st.integers(first + 1, rows))


# Bins where the rolloff's running sum passes from one chunk to the next.
CHUNK_EDGES = [62, 63, 64, 65, 66, 190, 191, 192, 193, 194]


@st.composite
def crossing_spectra(draw):
    """Frames x bins magnitudes, 2 to 1,025 bins, whose energy crosses its
    rolloff targets where the running sum's chunks meet.

    A row is a spike over a weak floor before it and a weak tail after it,
    often at a chunk edge; flat or small integers, whose energies put
    dyadic targets exactly on a cumulative sum (flat rows of 128, 256 or
    384 bins, on a chunk's last bin); all its energy in the last bin, so
    the sum must run to the end; or noise with zero bins.
    """
    bins = draw(st.sampled_from([2, 3, 64, 65, 128, 192, 193, 256, 384, 449, 1025])
                | st.integers(2, 1025))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["spike", "flat", "integers", "last", "noise"]))
        if kind == "spike":
            at = min(draw(st.sampled_from(CHUNK_EDGES) | st.integers(0, bins - 1)), bins - 1)
            row = np.zeros(bins)
            row[:at] = draw(st.sampled_from([0.0, 0.01, 0.1]))
            row[at + 1 :] = draw(st.sampled_from([0.0, 0.01, 0.1]))
            row[at] = 1.0
        elif kind == "flat":
            row = np.ones(bins)
        elif kind == "integers":
            row = rng.integers(0, 4, bins).astype(float)
            row[-1] += not row.any()
        elif kind == "last":
            row = np.zeros(bins)
            row[-1] = 1.0
        else:
            row = rng.uniform(0.0, 1.0, bins)
            row[rng.random(bins) < 0.1] = 0.0
            row[rng.integers(bins)] = 0.5
        rows.append(draw(st.sampled_from([1.0, 0.1, 1e-3, 1e4])) * row)
    return np.array(rows)


def _assert_equals_oracles(vector, live, frequencies, rolloffs, brights):
    """Each column is the mean of its single-frame oracle over the live frames."""
    moments = [spectral_moments(frame, frequencies) for frame in live]
    nyquist = frequencies[-1]
    for name, scale in (("centroid", nyquist), ("spread", nyquist),
                        ("skewness", 1.0), ("kurtosis", 1.0)):
        oracle = np.mean([getattr(m, name) for m in moments])
        assert _close(vector[name], oracle, scale), name
    oracle = np.mean([spectral_flatness(frame) for frame in live])
    assert _close(vector["flatness"], oracle, 1.0)
    for name, cutoff in brights.items():
        oracle = np.mean([brightness(frame, frequencies, cutoff) for frame in live])
        assert _close(vector[name], oracle, 1.0), cutoff
    for name, fraction in rolloffs.items():
        oracle = np.mean([spectral_rolloff(frame, frequencies, fraction)
                          for frame in live])
        assert vector[name] == oracle, fraction
    assert vector["flux"] == spectral_flux(live)


def _extract_from(magnitudes, frequencies, **options):
    # A one-frame clip is one block, so the mocked STFT is called once and
    # its whole series is described.
    series = SpectralFrameSeries(magnitudes=magnitudes, bin_frequencies=frequencies)
    with mock.patch("perfeat.audio_features.stft_magnitudes", return_value=series):
        return extract_audio_features(AudioClip(np.zeros(2048), 8000), **options)


class TestBatchedDescriptors:
    @PROPERTY
    @given(magnitudes=spectra(), fractions=fractions, cutoffs=cutoffs)
    @example(
        # Four equal energies: 0.25, 0.5 and 0.75 land on cumulative sums.
        magnitudes=np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                             [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]]),
        fractions=[0.25, 0.5, 0.75], cutoffs=[4000.0 / 3],
    )
    def test_equals_mean_of_single_frame_oracles(self, magnitudes, fractions,
                                                 cutoffs):
        frequencies = np.linspace(0.0, 4000.0, magnitudes.shape[1])
        # Values that share a column name are rejected; the oracles then
        # check the first value of each name.
        rolloffs, brights = {}, {}
        for fraction in fractions:
            rolloffs.setdefault(f"rolloff{fraction * 100:g}", fraction)
        for cutoff in cutoffs:
            brights.setdefault(f"bright{cutoff:g}", cutoff)
        if len(rolloffs) < len(fractions) or len(brights) < len(cutoffs):
            with pytest.raises(ValueError, match="both name column"):
                _extract_from(magnitudes, frequencies, rolloff_fractions=fractions,
                              brightness_cutoffs=cutoffs)
        vector = _extract_from(magnitudes, frequencies, rolloff_fractions=list(rolloffs.values()),
                               brightness_cutoffs=list(brights.values()))
        live = magnitudes[magnitudes.any(axis=1)]
        _assert_equals_oracles(vector, live, frequencies, rolloffs, brights)

    @PROPERTY
    @given(case=block_edge_clips())
    def test_real_clips_across_block_edges(self, case):
        clip, frame_length, hop_length = case
        series = stft_magnitudes(clip, frame_length, hop_length)
        live = series.magnitudes[series.magnitudes.any(axis=1)]
        options = {"frame_length": frame_length, "hop_length": hop_length}
        if len(live) < 2:
            with pytest.raises(TooFewFrames if len(live) else AllFramesSilent):
                extract_audio_features(clip, **options)
            return
        vector = extract_audio_features(clip, **options)
        assert (vector["zcr"], vector["rms"]) == time_domain_features(clip)
        _assert_equals_oracles(
            vector, live, series.bin_frequencies,
            {f"rolloff{f * 100:g}": f for f in ROLLOFF_FRACTIONS},
            {f"bright{c:g}": c for c in BRIGHTNESS_CUTOFFS},
        )

    @PROPERTY
    @given(case=row_ranges(), fractions=fractions, cutoffs=cutoffs)
    def test_rows_equal_the_whole_matrix_call(self, case, fractions, cutoffs):
        frames, first, stop = case
        frequencies = np.linspace(0.0, 4000.0, frames.shape[1])
        whole = _frame_descriptors(frames, frequencies, fractions, cutoffs)
        for start, end in [(first, stop), *((row, row + 1) for row in range(first, stop))]:
            part = _frame_descriptors(frames[start:end], frequencies, fractions, cutoffs)
            assert np.array_equal(part, whole[:, start:end]), (start, end)

    @PROPERTY
    @given(case=row_ranges(), fractions=fractions)
    @example(
        # The running sum of these energies ends at 3.599999999999999, below
        # JUST_BELOW_ONE times the pairwise total 3.6.
        case=(np.array([[1.0, 0.9, 0.6, 0.6, 0.1, 0.1, 0.2, 0.1, 1.0, 0.0]]), 0, 1),
        fractions=[JUST_BELOW_ONE],
    )
    def test_rolloff_rows_equal_the_oracle(self, case, fractions):
        # Rolloff is the first crossing of the cumulative energy; where the
        # running sum ends just below the target, the last bin.
        frames, _, _ = case
        frequencies = np.linspace(0.0, 4000.0, frames.shape[1])
        rows = _frame_descriptors(frames, frequencies, fractions, [])[5 : 5 + len(fractions)]
        for row, fraction in zip(rows, fractions):
            oracle = [spectral_rolloff(frame, frequencies, fraction) for frame in frames]
            assert row.tolist() == oracle, fraction

    @PROPERTY
    @given(frames=crossing_spectra(),
           fractions=st.sampled_from([(), (0.5,), (0.25, 0.75), (0.85, 0.95, 0.99)]),
           cutoffs=st.lists(st.floats(-100.0, 22100.0), max_size=3))
    @example(frames=np.eye(1025)[[-1]], fractions=(0.85, 0.95, 0.99), cutoffs=[22050.0])
    @example(frames=np.ones((2, 384)), fractions=(0.25, 0.5), cutoffs=[])
    def test_running_sum_stops_where_every_frame_has_crossed(self, frames, fractions, cutoffs):
        # The rolloffs read off the summed prefix are the oracle's, and the
        # brightness shares, taken before the sum overwrites the energies,
        # are too.
        frequencies = np.linspace(0.0, 22050.0, frames.shape[1])
        rows = _frame_descriptors(frames, frequencies, fractions, cutoffs)
        assert len(rows) == 5 + len(fractions) + len(cutoffs)
        for row, fraction in zip(rows[5:], fractions):
            oracle = [spectral_rolloff(frame, frequencies, fraction) for frame in frames]
            assert row.tolist() == oracle, fraction
        for row, cutoff in zip(rows[5 + len(fractions) :], cutoffs):
            oracle = [brightness(frame, frequencies, cutoff) for frame in frames]
            assert row.tolist() == oracle, cutoff

    def test_block_size_moves_no_value(self):
        rng = np.random.default_rng(15)
        n_frames = 200
        x = rng.normal(size=(n_frames - 1) * 1024 + 2048)
        # Silent runs of whole frames inside one block and across block edges.
        for first, stop in ((5, 9), (60, 75), (130, 131), (150, 171)):
            x[first * 1024 : (stop - 1) * 1024 + 2048] = 0.0
        clip = AudioClip(x, 22050)
        vectors = []
        for size in (1, 3, 7, 64):
            with mock.patch("perfeat.audio_features.BLOCK_FRAMES", size):
                vectors.append(extract_audio_features(clip))
        assert vectors[1:] == vectors[:1] * 3

    @pytest.mark.parametrize("bad_blocks", [(3, 4, 7), (2, 5)])
    def test_first_error_in_block_order(self, bad_blocks):
        # Blocks of two frames.  In each bad block one frame's energy
        # underflows, and the error raised is the first bad block's: the
        # block the pass was on, read off the extractor's own frame.
        rng = np.random.default_rng(16)
        x = rng.normal(size=19 * 1024 + 2048)
        for block in bad_blocks:
            frame = 2 * block + 1
            x[frame * 1024 : frame * 1024 + 2048] *= 1e-170
        threads = threading.active_count()
        with mock.patch("perfeat.audio_features.BLOCK_FRAMES", 2):
            with pytest.raises(SilentFrame) as raised:
                extract_audio_features(AudioClip(x, 22050))
        starts = [level.f_locals["start"]
                  for level, _ in traceback.walk_tb(raised.value.__traceback__)
                  if level.f_code.co_name == "extract_audio_features"]
        assert starts == [2 * bad_blocks[0]]
        assert threading.active_count() == threads

    def test_concurrent_calls_agree(self):
        # Three caller threads, switching as often as the interpreter
        # allows: state shared between calls, or a block result carried into
        # the wrong call, would change a value.
        rng = np.random.default_rng(17)
        clip = AudioClip(rng.normal(size=40 * 1024 + 2048), 22050)
        vectors = [None] * 3

        def call(index):
            vectors[index] = extract_audio_features(clip)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch("perfeat.audio_features.BLOCK_FRAMES", 1):
                callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
                alone = extract_audio_features(clip)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert vectors == [alone] * 3

    def test_zero_bins_and_single_lines_raise_no_warning(self):
        # Two-sample rectangular frames have the exact spectrum
        # (a + b, |a - b|): DC-only and Nyquist-only lines, a flat frame and
        # silent frames.
        pairs = [(1, 1), (0, 0), (1, -1), (0, 0), (0, 0), (1, 0), (0.5, 0.5)]
        clip = AudioClip(np.array(pairs, dtype=float).ravel(), 8000)
        magnitudes = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vector = extract_audio_features(clip, frame_length=2, hop_length=2,
                                            window="rect")
            batched = _extract_from(magnitudes, np.array([0.0, 2000.0, 4000.0]))
        # Three of the four live frames are lines; the flat one has kurtosis 1.
        assert vector["skewness"] == 0.0
        assert vector["kurtosis"] == pytest.approx(0.25, rel=1e-12)
        assert vector["flatness"] == pytest.approx(0.5, rel=1e-12)
        assert batched["flatness"] == 0.0 and not np.signbit(batched["flatness"])
        assert batched["centroid"] == pytest.approx((4000.0 + 8000.0 / 3) / 3, rel=1e-12)
