"""Spectral and time-domain descriptors for PCM audio clips.

A clip is decoded to mono float64, cut into fixed-length windowed frames,
and described by closed-form statistics of each frame's magnitude spectrum:
moments (centroid, spread, skewness, kurtosis), flatness, energy rolloff,
high-frequency energy share, plus frame-to-frame flux and whole-clip zero
crossing rate and RMS.  Per-frame values are averaged over non-silent
frames only, so leading or trailing digital silence does not dilute them.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Dict, Sequence, Tuple, Union

import numpy as np

FRAME_LENGTH = 2048
HOP_LENGTH = 1024
ROLLOFF_FRACTIONS = (0.85, 0.95)
BRIGHTNESS_CUTOFFS = (1000.0, 1500.0, 3000.0)

# Frames per STFT block.  Memory beyond the samples grows with the block, not
# the clip: with 2048-sample frames, one block's windowed frames, complex
# spectrum and descriptor work arrays peak at about 3.7 MB (tracemalloc, a
# 30 s 44.1 kHz clip, whose samples take 10.6 MB).  64 was no slower than
# 128 or 256 when chosen, before extract-audio forked its helper process,
# and has not been timed against them since.
BLOCK_FRAMES = 64

# Samples per piece of the zero-crossing count and the sum of squares, so the
# time-domain pass holds no whole-clip temporary.
_TIME_PIECE = 1 << 16

# Bytes of the WAV payload that read_wav reads and decodes at a time, rounded
# down to whole frames: the one buffer it holds beside the samples.
_DECODE_PIECE = 1 << 19

_DEGENERATE_SPREAD_RTOL = 1e-9  # of Nyquist; below this the spectrum is a line


class WavError(ValueError):
    """Base class for unreadable WAVE content."""


class NotRiff(WavError):
    """Not a RIFF/WAVE stream."""


class UnsupportedCodec(WavError):
    """Only 16-bit integer and 32-bit float PCM are supported."""


class TruncatedData(WavError):
    """A chunk or the sample payload is shorter than declared."""


class NonFiniteSample(WavError):
    """A 32-bit float payload holds a NaN or infinite sample."""


class ClipTooShort(ValueError):
    """Shorter than one analysis frame."""


class FrameTooShort(ValueError):
    """An analysis frame needs at least two samples."""


class TooFewFrames(ValueError):
    """Flux needs at least two frames."""


class SilentFrame(ValueError):
    """An all-zero spectrum has no spectral shape."""


class AllFramesSilent(ValueError):
    """Every frame is silent; the clip has no describable content."""


@dataclass(frozen=True)
class AudioClip:
    """Mono samples in [-1, 1] at a fixed rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("clip samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(source: Union[bytes, BinaryIO]) -> AudioClip:
    """Decode RIFF/WAVE bytes, or a stream of them read from its start, to a mono clip.

    ``source`` is a seekable binary stream, such as a file opened with
    ``open(path, "rb")``, or bytes, read through ``io.BytesIO``.  After the
    chunk headers, the sample payload is read into one reused buffer of
    about ``_DECODE_PIECE`` bytes and decoded a piece at a time, so the
    stream's bytes are never held beside the samples: decoding peaks at
    the samples plus one piece.

    16-bit PCM is scaled by 1/32768; 32-bit float is taken as is and must be
    finite, else NonFiniteSample naming the first such frame.  Other codecs
    raise UnsupportedCodec.  Multichannel audio is averaged to mono: the
    channels of each frame are summed in channel order in float64, then
    divided by the channel count.  Up to seven channels this is numpy's
    mean to the bit; from eight on, where that mean sums pairwise, it may
    differ in the last bits.  Every step is elementwise, so no sample
    depends on where the pieces split.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    length = source.seek(0, io.SEEK_END)
    source.seek(0)
    header = source.read(12)
    if len(header) < 12 or header[0:4] != b"RIFF" or header[8:12] != b"WAVE":
        raise NotRiff("not a RIFF/WAVE stream")
    fmt = None
    payload = None  # (offset, size) of the data chunk's body
    pos = 12
    while pos + 8 <= length:
        source.seek(pos)
        tag, size = struct.unpack("<4sI", source.read(8))
        held = min(size, length - pos - 8)
        if held < size:
            raise TruncatedData(f"chunk {tag!r} declares {size} bytes, has {held}")
        if tag == b"fmt ":
            if size < 16:
                raise TruncatedData("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack("<HHIIHH", source.read(16))
        elif tag == b"data":
            payload = pos + 8, size
        pos += 8 + size + (size & 1)  # chunks are word aligned
    if fmt is None:
        raise TruncatedData("missing fmt chunk")
    if payload is None:
        raise TruncatedData("missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise TruncatedData("fmt chunk declares zero channels")
    if audio_format == 1 and bits == 16:
        sample_type, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif audio_format == 3 and bits == 32:
        sample_type, scale = np.dtype("<f4"), 1.0
    else:
        raise UnsupportedCodec(
            f"format tag {audio_format} with {bits}-bit samples is not supported"
        )
    offset, size = payload
    frame_bytes = channels * (bits // 8)
    if size % frame_bytes:
        raise TruncatedData("sample payload is not a whole number of frames")
    samples = np.empty(size // frame_bytes)
    piece_frames = max(1, _DECODE_PIECE // frame_bytes)
    buffer = memoryview(bytearray(piece_frames * frame_bytes))
    source.seek(offset)
    for first in range(0, len(samples), piece_frames):
        out = samples[first : first + piece_frames]
        piece = buffer[: len(out) * frame_bytes]
        if source.readinto(piece) != len(piece):
            raise TruncatedData("sample payload ended before its declared size")
        codes = np.frombuffer(piece, dtype=sample_type)
        if audio_format == 3 and not np.isfinite(codes).all():
            bad = first + int(np.argmin(np.isfinite(codes))) // channels
            raise NonFiniteSample(f"sample frame {bad} is NaN or infinite")
        # Summed in place, not through mean's float32-to-float64 casting
        # reduction, which is several times slower.  Scaling after the
        # division gives the bits of scaling every code, as the scale is a
        # power of two.
        out[:] = codes[0::channels]
        for channel in range(1, channels):
            out += codes[channel::channels]
        if channels > 1:
            out /= channels
        if scale != 1.0:
            out *= scale
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def _window(name: str, length: int) -> np.ndarray:
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


@dataclass(frozen=True)
class SpectralFrameSeries:
    """Magnitude spectra of consecutive frames.

    ``magnitudes`` is frames x bins; ``bin_frequencies`` runs from 0 to the
    Nyquist frequency inclusive.
    """

    magnitudes: np.ndarray
    bin_frequencies: np.ndarray


def _frame_count(samples: int, frame_length: int, hop_length: int) -> int:
    """Complete frames in ``samples``: FrameTooShort, ClipTooShort or ValueError if none."""
    if frame_length < 2:
        raise FrameTooShort(f"frame_length must be at least 2 samples, got {frame_length}")
    if samples < frame_length:
        raise ClipTooShort(f"{samples} samples, need {frame_length}")
    if hop_length <= 0:
        raise ValueError("hop must be positive")
    return (samples - frame_length) // hop_length + 1


def stft_magnitudes(
    clip: AudioClip,
    frame_length: int = FRAME_LENGTH,
    hop_length: int = HOP_LENGTH,
    window: str = "hann",
) -> SpectralFrameSeries:
    """Magnitude spectrogram over complete frames only.

    The frame count is floor((len - frame_length) / hop_length) + 1: a
    trailing partial frame is dropped, never padded.  A frame shorter than
    two samples raises FrameTooShort.
    """
    x = clip.samples
    _frame_count(len(x), frame_length, hop_length)
    taper = _window(window, frame_length)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop_length] * taper
    magnitudes = np.abs(np.fft.rfft(frames, axis=1))
    bin_frequencies = np.fft.rfftfreq(frame_length, 1.0 / clip.sample_rate)
    return SpectralFrameSeries(magnitudes=magnitudes, bin_frequencies=bin_frequencies)


def _flux_steps(magnitudes: np.ndarray) -> np.ndarray:
    """Euclidean distance between each pair of consecutive magnitude spectra."""
    return np.sqrt((np.diff(magnitudes, axis=0) ** 2).sum(axis=1))


def _sum_of_squares(x: np.ndarray) -> float:
    """``np.add.reduce(x * x)`` to the bit, squaring one piece at a time.

    Above ``_TIME_PIECE`` samples, split where numpy's pairwise sum splits
    (half the length, rounded down to a multiple of 8) and add the halves.
    """
    n = len(x)
    if n <= _TIME_PIECE:
        return np.add.reduce(x * x)
    half = n // 2 - (n // 2) % 8
    return _sum_of_squares(x[:half]) + _sum_of_squares(x[half:])


def time_domain_features(clip: AudioClip) -> Tuple[float, float]:
    """(zero crossing rate in crossings per second, RMS) over the whole clip.

    A zero sample counts as positive, so silence has no crossings.  Both
    run over pieces of ``_TIME_PIECE`` samples and equal the whole-array
    forms bit for bit: crossings are counted on pieces that share their
    edge sample, and the sum of squares follows numpy's pairwise split.
    """
    x = clip.samples
    if len(x) == 0:
        raise ClipTooShort("empty clip")
    crossings = 0
    for start in range(0, len(x) - 1, _TIME_PIECE):
        positive = x[start : start + _TIME_PIECE + 1] >= 0
        crossings += int(np.count_nonzero(positive[1:] != positive[:-1]))
    zcr = crossings / clip.duration
    rms = float(np.sqrt(_sum_of_squares(x) / len(x)))
    return zcr, rms


def _add_column(columns: Dict[str, float], column: str, value: float, kind: str) -> None:
    """File ``value`` under ``column``; ValueError when another value has that name."""
    if column in columns:
        raise ValueError(f"{kind} {columns[column]} and {value} both name column {column!r}")
    columns[column] = value


def _frame_descriptors(
    frames: np.ndarray, frequencies: np.ndarray,
    fractions: Sequence[float], cutoffs: Sequence[float],
) -> np.ndarray:
    """Per-frame descriptors of live frames x bins, one row per descriptor.

    The rows are centroid, spread, skewness, kurtosis, flatness, a rolloff
    frequency per fraction and a high-band energy share per cutoff.  Each is
    a row reduction, never a BLAS product, so no bit depends on the other
    rows.  SilentFrame when a frame's energy underflows to zero.
    """
    # Moments, centred on each frame's centroid: expanding raw moments
    # instead cancels on near-line spectra.  Two frames x bins work arrays
    # serve every descriptor below.
    total = frames.sum(axis=1)
    work = frames * frequencies
    centroid = work.sum(axis=1) / total
    deviations = frequencies - centroid[:, None]
    np.multiply(frames, deviations, out=work)
    work *= deviations
    spread = np.sqrt(np.maximum(work.sum(axis=1) / total, 0.0))
    work *= deviations
    third = work.sum(axis=1) / total
    work *= deviations
    fourth = work.sum(axis=1) / total
    shaped = spread >= _DEGENERATE_SPREAD_RTOL * frequencies[-1]
    skewness = np.divide(third, spread**3, out=np.zeros_like(third), where=shaped)
    kurtosis = np.divide(fourth, spread**4, out=np.zeros_like(fourth), where=shaped)

    # Flatness over the non-DC bins; a frame with a zero bin reads zero.
    band = frames[:, 1:]
    positive = band > 0
    logs = deviations[:, 1:]
    logs.fill(0.0)
    np.log(band, out=logs, where=positive)
    arithmetic = band.mean(axis=1)
    flatness = np.divide(
        np.exp(logs.mean(axis=1)),
        arithmetic,
        out=np.zeros_like(arithmetic),
        where=positive.all(axis=1),
    )

    energy = np.multiply(frames, frames, out=deviations)
    energy_total = energy.sum(axis=1)
    if not energy_total.all():
        raise SilentFrame("a non-silent frame's energy underflows to zero")
    # Cumulative energy never falls along a row, so its first bin at or
    # above the target is the oracle's left-sided searchsorted against the
    # same row total.  The last bin counts as reached when rounding leaves
    # the whole row just below the target.
    cumulative = np.cumsum(energy, axis=1, out=work)
    rolloffs = []
    for fraction in fractions:
        reached = cumulative >= (fraction * energy_total)[:, None]
        reached[:, -1] = True
        rolloffs.append(frequencies[reached.argmax(axis=1)])
    # Bin frequencies ascend, so the bins at or above a cutoff are a suffix.
    brights = [energy[:, np.searchsorted(frequencies, cutoff) :].sum(axis=1) / energy_total
               for cutoff in cutoffs]
    return np.stack([centroid, spread, skewness, kurtosis, flatness, *rolloffs, *brights])


def check_settings(
    frame_length: int, hop_length: int,
    rolloff_fractions: Sequence[float], brightness_cutoffs: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The rolloff and brightness columns of valid settings, each value by its column.

    FrameTooShort for a frame under two samples.  ValueError for a hop
    under one, a rolloff fraction not strictly between 0 and 1, a
    non-finite brightness cutoff, or two values that name one column.
    """
    _frame_count(frame_length, frame_length, hop_length)  # the framing of a one-frame clip
    rolloff_columns: Dict[str, float] = {}
    for fraction in rolloff_fractions:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"rolloff fraction {fraction:g} is not strictly between 0 and 1")
        _add_column(rolloff_columns, f"rolloff{fraction * 100:g}", fraction, "rolloff fractions")
    bright_columns: Dict[str, float] = {}
    for cutoff in brightness_cutoffs:
        if not math.isfinite(cutoff):
            raise ValueError(f"brightness cutoff {cutoff:g} is not finite")
        _add_column(bright_columns, f"bright{cutoff:g}", cutoff, "brightness cutoffs")
    return rolloff_columns, bright_columns


def extract_audio_features(
    clip: AudioClip,
    frame_length: int = FRAME_LENGTH,
    hop_length: int = HOP_LENGTH,
    window: str = "hann",
    rolloff_fractions: Sequence[float] = ROLLOFF_FRACTIONS,
    brightness_cutoffs: Sequence[float] = BRIGHTNESS_CUTOFFS,
) -> Dict[str, float]:
    """Frame the clip and average per-frame descriptors over non-silent frames.

    Keys are column names in order: ``zcr`` ... ``flatness``, ``rolloff85``
    per fraction, ``flux``, ``bright1000`` per cutoff.

    A frame is silent when its magnitude spectrum is all zero.  Flux is
    computed over the subsequence of non-silent frames in order.  Zero
    crossing rate and RMS are whole-clip values on the raw samples.

    The STFT and the descriptors run in one pass over blocks of
    ``BLOCK_FRAMES`` frames, so memory beyond the samples does not grow with
    the clip.  Only per-frame values are kept, each mean is taken once over
    all live frames, and no value depends on the block size.  The descriptors
    equal the mean over live frames of the single-frame oracles in the tests
    up to rounding (rolloff exactly).  :func:`check_settings` checks the
    settings before the STFT runs.
    """
    rolloff_columns, bright_columns = check_settings(
        frame_length, hop_length, rolloff_fractions, brightness_cutoffs)
    x = clip.samples
    n_frames = _frame_count(len(x), frame_length, hop_length)
    fractions, cutoffs = list(rolloff_columns.values()), list(bright_columns.values())
    # Flux carries the last live frame over from the block before.
    blocks, steps, last = [], [], None
    for start in range(0, n_frames, BLOCK_FRAMES):
        stop = min(start + BLOCK_FRAMES, n_frames)
        part = AudioClip(x[start * hop_length : (stop - 1) * hop_length + frame_length],
                         clip.sample_rate)
        series = stft_magnitudes(part, frame_length, hop_length, window)
        frames = series.magnitudes[series.magnitudes.any(axis=1)]
        if not len(frames):
            continue
        if last is not None:
            steps.append(_flux_steps(np.concatenate([last, frames[:1]])))
        steps.append(_flux_steps(frames))
        blocks.append(_frame_descriptors(frames, series.bin_frequencies, fractions, cutoffs))
        last = frames[-1:].copy()  # a copy, so no view keeps the block alive
    if last is None:
        raise AllFramesSilent("every frame of the clip is silent")
    steps = np.concatenate(steps)
    if not len(steps):
        raise TooFewFrames("flux needs at least two frames")
    zcr, rms = time_domain_features(clip)
    means = [float(row.mean()) for row in np.concatenate(blocks, axis=1)]
    split = 5 + len(rolloff_columns)
    names = ["zcr", "rms", "centroid", "spread", "skewness", "kurtosis", "flatness",
             *rolloff_columns, "flux", *bright_columns]
    return dict(zip(names, [zcr, rms, *means[:split], float(np.mean(steps)), *means[split:]]))
