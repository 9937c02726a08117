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
        body = data[pos + 8 : pos + 8 + size]
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
    samples = codes.astype(np.float64) * scale
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
    hop_seconds: float


def stft_magnitudes(
    clip: AudioClip,
    frame_length: int = FRAME_LENGTH,
    hop_length: int = HOP_LENGTH,
    window: str = "hann",
) -> SpectralFrameSeries:
    """Magnitude spectrogram over complete frames only.

    The frame count is floor((len - frame_length) / hop_length) + 1: a
    trailing partial frame is dropped, never padded.
    """
    x = clip.samples
    if len(x) < frame_length:
        raise ClipTooShort(f"{len(x)} samples, need {frame_length}")
    if hop_length <= 0:
        raise ValueError("hop must be positive")
    n_frames = (len(x) - frame_length) // hop_length + 1
    taper = _window(window, frame_length)
    starts = hop_length * np.arange(n_frames)
    frames = x[starts[:, None] + np.arange(frame_length)] * taper
    magnitudes = np.abs(np.fft.rfft(frames, axis=1))
    bin_frequencies = np.fft.rfftfreq(frame_length, 1.0 / clip.sample_rate)
    return SpectralFrameSeries(
        magnitudes=magnitudes,
        bin_frequencies=bin_frequencies,
        hop_seconds=hop_length / clip.sample_rate,
    )


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
    """
    series = stft_magnitudes(clip, frame_length, hop_length, window)
    live = series.magnitudes.any(axis=1)
    if not live.any():
        raise AllFramesSilent("every frame of the clip is silent")
    frames = series.magnitudes[live]
    frequencies = series.bin_frequencies
    moments = [spectral_moments(frame, frequencies) for frame in frames]
    flatnesses = [spectral_flatness(frame) for frame in frames]
    rolloffs = {
        fraction: float(
            np.mean([spectral_rolloff(f, frequencies, fraction) for f in frames])
        )
        for fraction in rolloff_fractions
    }
    brightnesses = {
        float(cutoff): float(
            np.mean([brightness(f, frequencies, cutoff) for f in frames])
        )
        for cutoff in brightness_cutoffs
    }
    zcr, rms = time_domain_features(clip)
    return AudioFeatureVector(
        zcr=zcr,
        rms=rms,
        centroid=float(np.mean([m.centroid for m in moments])),
        spread=float(np.mean([m.spread for m in moments])),
        skewness=float(np.mean([m.skewness for m in moments])),
        kurtosis=float(np.mean([m.kurtosis for m in moments])),
        flatness=float(np.mean(flatnesses)),
        rolloff=rolloffs,
        flux=spectral_flux(frames),
        brightness=brightnesses,
    )
