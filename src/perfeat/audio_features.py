"""Spectral and time-domain descriptors for PCM audio clips.

A clip is decoded to mono float64, cut into fixed-length windowed frames,
and described by closed-form statistics of each frame's magnitude spectrum:
moments (centroid, spread, skewness, kurtosis), flatness, energy rolloff,
high-frequency energy share, plus frame-to-frame flux and whole-clip zero
crossing rate and RMS.  Per-frame values are averaged over non-silent
frames only, so leading or trailing digital silence does not dilute them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

FRAME_LENGTH = 2048
HOP_LENGTH = 1024
ROLLOFF_FRACTIONS = (0.85, 0.95)
BRIGHTNESS_CUTOFFS = (1000.0, 1500.0, 3000.0)

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


def read_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string to a mono clip.

    16-bit PCM is scaled by 1/32768; 32-bit float is taken as is and must be
    finite, else NonFiniteSample.  Other codecs raise UnsupportedCodec.
    Multichannel audio is averaged to mono.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise NotRiff("not a RIFF/WAVE stream")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        body = memoryview(data)[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise TruncatedData(f"chunk {tag!r} declares {size} bytes, has {len(body)}")
        if tag == b"fmt ":
            if size < 16:
                raise TruncatedData("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data":
            payload = body
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
    frame_bytes = channels * (bits // 8)
    if len(payload) % frame_bytes:
        raise TruncatedData("sample payload is not a whole number of frames")
    codes = np.frombuffer(payload, dtype=sample_type)
    if audio_format == 3 and not np.isfinite(codes).all():
        first = int(np.argmin(np.isfinite(codes))) // channels
        raise NonFiniteSample(f"sample frame {first} is NaN or infinite")
    samples = codes.astype(np.float64)
    if scale != 1.0:
        samples *= scale
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
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
    if frame_length < 2:
        raise FrameTooShort(f"frame_length must be at least 2 samples, got {frame_length}")
    x = clip.samples
    if len(x) < frame_length:
        raise ClipTooShort(f"{len(x)} samples, need {frame_length}")
    if hop_length <= 0:
        raise ValueError("hop must be positive")
    taper = _window(window, frame_length)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop_length] * taper
    magnitudes = np.abs(np.fft.rfft(frames, axis=1))
    bin_frequencies = np.fft.rfftfreq(frame_length, 1.0 / clip.sample_rate)
    return SpectralFrameSeries(magnitudes=magnitudes, bin_frequencies=bin_frequencies)


@dataclass(frozen=True)
class SpectralMoments:
    """Magnitude-weighted moments of one spectrum."""

    centroid: float
    spread: float
    skewness: float
    kurtosis: float
    degenerate: bool


def spectral_moments(magnitudes: np.ndarray, frequencies: np.ndarray) -> SpectralMoments:
    """Centroid, spread, skewness and kurtosis of one magnitude spectrum.

    Weights are magnitudes normalized to sum one.  When the spread is below
    1e-9 of Nyquist the spectrum is a single line: skewness and kurtosis are
    reported as zero with the degenerate flag set.
    """
    total = float(magnitudes.sum())
    if total <= 0:
        raise SilentFrame("all-zero spectrum")
    weights = magnitudes / total
    centroid = float(weights @ frequencies)
    deviations = frequencies - centroid
    spread = math.sqrt(max(float(weights @ deviations**2), 0.0))
    nyquist = float(frequencies[-1])
    if spread < _DEGENERATE_SPREAD_RTOL * nyquist:
        return SpectralMoments(centroid, spread, 0.0, 0.0, True)
    skewness = float(weights @ deviations**3) / spread**3
    kurtosis = float(weights @ deviations**4) / spread**4
    return SpectralMoments(centroid, spread, skewness, kurtosis, False)


def spectral_flatness(magnitudes: np.ndarray) -> float:
    """Geometric over arithmetic mean of the non-DC magnitudes.

    The DC bin is excluded so a constant offset does not read as tonality.
    Any zero magnitude sends the geometric mean, and the flatness, to zero.
    """
    if not magnitudes.any():
        raise SilentFrame("all-zero spectrum")
    band = magnitudes[1:]
    if band.size == 0 or np.any(band <= 0):
        return 0.0
    return float(np.exp(np.mean(np.log(band))) / band.mean())


def spectral_rolloff(
    magnitudes: np.ndarray, frequencies: np.ndarray, fraction: float
) -> float:
    """Lowest frequency below which the given fraction of energy lies.

    Energy is squared magnitude; the result is the smallest bin frequency
    whose cumulative energy reaches ``fraction`` of the total.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    energy = magnitudes.astype(float) ** 2
    total = float(energy.sum())
    if total <= 0:
        raise SilentFrame("all-zero spectrum")
    cumulative = np.cumsum(energy)
    index = int(np.searchsorted(cumulative, fraction * total))
    index = min(index, len(frequencies) - 1)
    return float(frequencies[index])


def brightness(
    magnitudes: np.ndarray, frequencies: np.ndarray, cutoff: float
) -> float:
    """Share of spectral energy at or above the cutoff frequency."""
    energy = magnitudes.astype(float) ** 2
    total = float(energy.sum())
    if total <= 0:
        raise SilentFrame("all-zero spectrum")
    return float(energy[frequencies >= cutoff].sum() / total)


def spectral_flux(magnitudes: np.ndarray) -> float:
    """Mean Euclidean distance between consecutive magnitude spectra."""
    if magnitudes.shape[0] < 2:
        raise TooFewFrames("flux needs at least two frames")
    differences = np.diff(magnitudes, axis=0)
    return float(np.mean(np.sqrt((differences**2).sum(axis=1))))


def time_domain_features(clip: AudioClip) -> Tuple[float, float]:
    """(zero crossing rate in crossings per second, RMS) over the whole clip.

    A zero sample counts as positive, so silence has no crossings.
    """
    x = clip.samples
    if len(x) == 0:
        raise ClipTooShort("empty clip")
    positive = x >= 0
    crossings = int(np.count_nonzero(positive[1:] != positive[:-1]))
    zcr = crossings / clip.duration
    rms = float(np.sqrt(np.mean(x**2)))
    return zcr, rms


@dataclass
class AudioFeatureVector:
    """Clip-level audio descriptors.

    ``rolloff`` maps energy fraction to frequency; ``brightness`` maps
    cutoff frequency to high-band energy share.  :meth:`names` and
    :meth:`values` give the canonical flat column layout.
    """

    zcr: float
    rms: float
    centroid: float
    spread: float
    skewness: float
    kurtosis: float
    flatness: float
    rolloff: Dict[float, float]
    flux: float
    brightness: Dict[float, float]

    def names(self) -> Tuple[str, ...]:
        return (
            "zcr",
            "rms",
            "centroid",
            "spread",
            "skewness",
            "kurtosis",
            "flatness",
            *(f"rolloff{fraction * 100:g}" for fraction in self.rolloff),
            "flux",
            *(f"bright{cutoff:g}" for cutoff in self.brightness),
        )

    def values(self) -> Tuple[float, ...]:
        return (
            self.zcr,
            self.rms,
            self.centroid,
            self.spread,
            self.skewness,
            self.kurtosis,
            self.flatness,
            *self.rolloff.values(),
            self.flux,
            *self.brightness.values(),
        )

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self.names(), self.values()))


def extract_audio_features(
    clip: AudioClip,
    frame_length: int = FRAME_LENGTH,
    hop_length: int = HOP_LENGTH,
    window: str = "hann",
    rolloff_fractions: Sequence[float] = ROLLOFF_FRACTIONS,
    brightness_cutoffs: Sequence[float] = BRIGHTNESS_CUTOFFS,
) -> AudioFeatureVector:
    """Frame the clip and average per-frame descriptors over non-silent frames.

    A frame is silent when its magnitude spectrum is all zero.  Flux is
    computed over the subsequence of non-silent frames in order.  Zero
    crossing rate and RMS are whole-clip values on the raw samples.

    The descriptors are computed in one pass over the live frames x bins
    matrix and equal the mean over live frames of :func:`spectral_moments`,
    :func:`spectral_flatness`, :func:`spectral_rolloff` and
    :func:`brightness` up to rounding (rolloff exactly).  Rolloff fractions
    and brightness cutoffs are checked before the STFT runs.
    """
    for fraction in rolloff_fractions:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"rolloff fraction {fraction:g} is not strictly between 0 and 1")
    for cutoff in brightness_cutoffs:
        if not math.isfinite(cutoff):
            raise ValueError(f"brightness cutoff {cutoff:g} is not finite")
    series = stft_magnitudes(clip, frame_length, hop_length, window)
    frequencies = series.bin_frequencies
    live = series.magnitudes.any(axis=1)
    if not live.any():
        raise AllFramesSilent("every frame of the clip is silent")
    frames = series.magnitudes[live]
    del series
    flux = spectral_flux(frames)

    # Moments, centred on each frame's centroid: expanding raw moments
    # instead cancels on near-line spectra.  Two frames x bins work arrays
    # serve every descriptor below.
    total = frames.sum(axis=1)
    centroid = frames @ frequencies / total
    deviations = frequencies - centroid[:, None]
    work = frames * deviations
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
    # Bin frequencies ascend, so the bins at or above a cutoff are a suffix.
    brightnesses = {}
    for cutoff in brightness_cutoffs:
        above = energy[:, np.searchsorted(frequencies, cutoff) :].sum(axis=1)
        brightnesses[float(cutoff)] = float(np.mean(above / energy_total))
    # The count of cumulative energies below the target is the oracle's
    # left-sided searchsorted against the same row total.
    cumulative = np.cumsum(energy, axis=1, out=work)
    last = len(frequencies) - 1
    rolloffs = {}
    for fraction in rolloff_fractions:
        below = np.count_nonzero(cumulative < (fraction * energy_total)[:, None], axis=1)
        rolloffs[fraction] = float(np.mean(frequencies[np.minimum(below, last)]))
    zcr, rms = time_domain_features(clip)
    return AudioFeatureVector(
        zcr=zcr,
        rms=rms,
        centroid=float(centroid.mean()),
        spread=float(spread.mean()),
        skewness=float(skewness.mean()),
        kurtosis=float(kurtosis.mean()),
        flatness=float(flatness.mean()),
        rolloff=rolloffs,
        flux=flux,
        brightness=brightnesses,
    )
