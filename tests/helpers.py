"""Byte-level fixture builders and independent numeric oracles for the tests.

The MIDI and WAV builders construct files directly from the container
specifications so parser tests never depend on the code under test.  The
SMF scan oracle is a plain per-event track scan, with tuple-keyed note
matching and one tuple per note; ``perfeat.smf.parse_smf`` must give the
same notes, duration and errors.  ``mean_sound_level``, ``note_density``,
``mean_pitch`` and ``mean_articulation`` compute one group's statistic from
that group's notes alone, each with its own sort; ``extract_midi_features``
computes every group's from one set of per-note arrays per song.  The
quadrature oracle integrates the t density numerically as an independent
check on the closed-form tail probabilities.  The rater-pair oracle walks
the pairs of a Pearson matrix one by one.  The unscreened pairwise kernel
runs the exact constant test on every column, and the wrapped ``pearson``
takes its means and constant test through numpy's ``mean`` and ``np.all``;
``perfeat.stats`` must match both bit for bit.  The NIPALS oracle fits PLS1 by
explicit deflation of the data, independently of the kernel form in
``perfeat.regress``, and the singular-value rank count checks the
rank certificate of ``perfeat.regress._autoscale``.  The per-fold ``eigh``
form of OLS cross-validation judges the Cholesky certificate of
``repeated_kfold_cv``.  The single-frame
spectral descriptors describe one magnitude spectrum at a time, and the
flux oracle one pair of consecutive spectra; ``extract_audio_features``
must equal their mean over a clip's non-silent frames.  The whole-array
zero-crossing and RMS forms are the oracle of the piecewise
``time_domain_features``.  The channel-sum downmix adds each WAV frame's
codes one by one in Python floats.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations
from typing import NamedTuple

import numpy as np

from perfeat.audio_features import _DEGENERATE_SPREAD_RTOL, SilentFrame, TooFewFrames
from perfeat.midi_features import (
    IOI_LIMIT,
    MERGE_WINDOW,
    NonPositiveDuration,
    _mean,
    default_calibration,
    sound_levels,
)
from perfeat.smf import (
    DEFAULT_VOLUME_CC,
    NOTE_DTYPE,
    SmfError,
    TempoMap,
    TruncatedChunk,
    _split_chunks,
)
from perfeat.regress import ConstantResponse, RankDeficient, _qr_solve
from perfeat.stats import MIN_PAIRS, ConstantInput, TooFewPairs

# ----------------------------------------------------------------- SMF bytes


def vlq(value: int) -> bytes:
    """Variable-length quantity: big-endian 7-bit groups, high bit chains."""
    if value < 0 or value > 0x0FFFFFFF:
        raise ValueError("vlq out of range")
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(groups))


def ev(delta: int, *payload: int) -> bytes:
    return vlq(delta) + bytes(payload)


def note_on(delta: int, key: int, velocity: int, channel: int = 0) -> bytes:
    return ev(delta, 0x90 | channel, key, velocity)


def note_off(delta: int, key: int, velocity: int = 64, channel: int = 0) -> bytes:
    return ev(delta, 0x80 | channel, key, velocity)


def control(delta: int, controller: int, value: int, channel: int = 0) -> bytes:
    return ev(delta, 0xB0 | channel, controller, value)


def set_tempo(delta: int, us_per_quarter: int) -> bytes:
    return ev(delta, 0xFF, 0x51, 0x03) + us_per_quarter.to_bytes(3, "big")


def end_of_track(delta: int = 0) -> bytes:
    return ev(delta, 0xFF, 0x2F, 0x00)


def track(*events: bytes, eot_delta: int = 0, append_eot: bool = True) -> bytes:
    body = b"".join(events)
    if append_eot:
        body += end_of_track(eot_delta)
    return b"MTrk" + struct.pack(">I", len(body)) + body


def smf(*tracks: bytes, division: int = 480, fmt: int = 1) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), division)
    return header + b"".join(tracks)


# ---------------------------------------------------------- SMF scan oracle

_PAST_END = "event data ran past the end of its track chunk"


def _varint(data: bytes, pos: int):
    """Big-endian base-128 with a continuation bit, at most four bytes: (value, next pos)."""
    value = 0
    for pos in range(pos, pos + 4):
        byte = data[pos]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos + 1
    raise TruncatedChunk("variable-length quantity longer than four bytes")


def _payload(body: bytes, pos: int):
    """Bounds of the length-prefixed payload of a meta or sysex event."""
    length, start = _varint(body, pos)
    if start + length > len(body):
        raise TruncatedChunk(_PAST_END)
    return start, start + length


def oracle_parse_track(body: bytes, track_id: int):
    """One track chunk -> (closed notes in ticks, end tick, tempo events).

    A closed note is (onset tick, off tick, track, channel, key, velocity,
    volume).
    """
    pos = 0
    tick = 0
    running = None
    volume = {}  # channel -> controller 7 value
    open_notes = {}  # (channel, key) -> stack of (onset_tick, velocity, volume)
    closed = []
    tempos = []
    end_tick = None
    try:
        while pos < len(body):
            delta, pos = _varint(body, pos)
            tick += delta
            status = body[pos]
            if status < 0x80:
                if running is None:
                    raise TruncatedChunk(
                        f"data byte with no running status in track {track_id}"
                    )
                status = running
            else:
                pos += 1
            if status == 0xFF:
                running = None
                meta_type = body[pos]
                start, pos = _payload(body, pos + 1)
                if meta_type == 0x51 and pos - start == 3:
                    tempos.append((tick, int.from_bytes(body[start:pos], "big")))
                elif meta_type == 0x2F:
                    end_tick = tick
                    break
            elif status in (0xF0, 0xF7):
                running = None
                _, pos = _payload(body, pos)
            elif status >= 0xF0:
                raise TruncatedChunk(
                    f"system message {status:#x} is not valid in a track chunk"
                )
            else:
                running = status
                kind = status & 0xF0
                channel = status & 0x0F
                d1 = body[pos]
                if kind in (0xC0, 0xD0):
                    d2 = 0
                    pos += 1
                else:
                    d2 = body[pos + 1]
                    pos += 2
                if (d1 | d2) & 0x80:
                    raise SmfError(f"data byte above 0x7f in track {track_id}")
                if kind == 0x90 and d2 > 0:
                    stack = open_notes.setdefault((channel, d1), [])
                    stack.append((tick, d2, volume.get(channel, DEFAULT_VOLUME_CC)))
                elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                    stack = open_notes.get((channel, d1))
                    if stack:  # off with no matching on is ignored
                        onset, vel, vol = stack.pop()
                        closed.append((onset, tick, track_id, channel, d1, vel, vol))
                elif kind == 0xB0 and d1 == 7:
                    volume[channel] = d2
    except IndexError:
        raise TruncatedChunk(_PAST_END) from None
    if end_tick is None:
        end_tick = tick
    # Notes still sounding at end-of-track are closed there.
    for (channel, key), stack in open_notes.items():
        for onset, vel, vol in stack:
            closed.append((onset, end_tick, track_id, channel, key, vel, vol))
    return closed, end_tick, tempos


def oracle_parse_smf(data: bytes):
    """(sorted read-only NOTE_DTYPE notes, duration) of one file, by the oracle scan."""
    _, division, bodies = _split_chunks(data)
    closed = []
    tempo_events = []
    end_ticks = []
    for track_id, body in enumerate(bodies):
        track_closed, end_tick, tempos = oracle_parse_track(body, track_id)
        closed.extend(track_closed)
        end_ticks.append(end_tick)
        tempo_events.extend(tempos)
    tempo_events.sort(key=lambda event: event[0])
    tempo_map = TempoMap(tempo_events, division)
    closed = np.array(closed, dtype=np.int64).reshape(-1, 7)
    notes = np.empty(len(closed), dtype=NOTE_DTYPE)
    notes["onset"] = tempo_map.seconds(closed[:, 0])
    notes["duration"] = tempo_map.seconds(closed[:, 1]) - notes["onset"]
    for column, name in enumerate(("track_id", "channel", "key", "velocity", "volume_cc"), 2):
        notes[name] = closed[:, column]
    notes = notes[notes["duration"] > 0]
    notes = notes[np.lexsort((notes["key"], notes["track_id"], notes["onset"]))]
    notes.flags.writeable = False
    duration = float(tempo_map.seconds(end_ticks).max()) if end_ticks else 0.0
    return notes, duration


# ----------------------------------------------------------------- WAV bytes


def wav(
    samples,
    sample_rate: int,
    fmt: int = 1,
    bits: int = 16,
    channels: int = 1,
    extra_chunk: bool = False,
    truncate_payload: int = 0,
) -> bytes:
    """RIFF/WAVE bytes; samples are raw codes (int16) or floats (float32)."""
    samples = np.asarray(samples)
    if fmt == 1 and bits == 16:
        payload = samples.astype("<i2").tobytes()
    elif fmt == 3 and bits == 32:
        payload = samples.astype("<f4").tobytes()
    else:
        payload = samples.astype("<i2").tobytes()
    declared = len(payload)  # size header keeps the full length when truncating
    if truncate_payload:
        payload = payload[:-truncate_payload]
    block = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", fmt, channels, sample_rate, sample_rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    if extra_chunk:
        chunks += b"LIST" + struct.pack("<I", 4) + b"INFO"
    chunks += b"data" + struct.pack("<I", declared) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def pcm16(x) -> np.ndarray:
    """Float samples in [-1, 1] to int16 codes."""
    return np.clip(np.round(np.asarray(x) * 32768.0), -32768, 32767).astype("<i2")


def channel_sum_mono(codes: np.ndarray, channels: int, scale: float) -> np.ndarray:
    """Mono samples from interleaved codes: each frame's codes added left to
    right in float64, divided by ``channels``, then multiplied by ``scale``."""
    frames = []
    for start in range(0, len(codes), channels):
        total = 0.0
        for code in codes[start : start + channels]:
            total += float(code)
        frames.append(total / channels * scale)
    return np.array(frames, dtype=np.float64)


# ------------------------------------------------------ single-frame spectra


class SpectralMoments(NamedTuple):
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
    """Mean Euclidean distance between consecutive magnitude spectra, one
    pair of rows at a time."""
    if magnitudes.shape[0] < 2:
        raise TooFewFrames("flux needs at least two frames")
    distances = [math.sqrt(np.sum((after - before) ** 2))
                 for before, after in zip(magnitudes[:-1], magnitudes[1:])]
    return float(np.mean(distances))


# ------------------------------------------------------- whole-clip values


def whole_array_time_domain(samples: np.ndarray, sample_rate: int):
    """(zero crossing rate, RMS) from whole-clip temporaries: a sign array,
    its shifted comparison and the squares.  A zero sample counts as
    positive."""
    positive = samples >= 0
    crossings = int(np.count_nonzero(positive[1:] != positive[:-1]))
    return crossings / (len(samples) / sample_rate), float(np.sqrt(np.mean(samples**2)))


# ------------------------------------------------------------- note fixtures


def note(
    onset: float,
    duration: float,
    key: int = 60,
    velocity: int = 100,
    volume_cc: int = 127,
    track_id: int = 0,
    channel: int = 0,
) -> np.void:
    """One NOTE_DTYPE row."""
    return np.array(
        (track_id, channel, key, onset, duration, velocity, volume_cc), dtype=NOTE_DTYPE
    )[()]


def notes(rows=()) -> np.ndarray:
    """A NOTE_DTYPE array of the given rows, in their order."""
    return np.array(list(rows), dtype=NOTE_DTYPE)


# ----------------------------------------------------------- numeric oracles


def mean_sound_level(notes: np.ndarray, calibration=default_calibration) -> float:
    """Mean per-note sound level in dB."""
    return _mean(sound_levels(notes, calibration))


def cluster_onsets(onsets, merge_window: float = MERGE_WINDOW) -> int:
    """Count onset clusters under greedy left-to-right anchoring.

    Scanning onsets in ascending order, an onset starts a new cluster exactly
    when it is more than ``merge_window`` after the current cluster's first
    onset; otherwise it joins the cluster.  With a zero window every distinct
    onset is its own cluster.
    """
    count = 0
    anchor = -math.inf
    for t in np.sort(np.asarray(onsets, dtype=float)).tolist():
        if t - anchor > merge_window:
            count += 1
            anchor = t
    return count


def note_density(
    notes: np.ndarray, song_duration: float, merge_window: float = MERGE_WINDOW
) -> float:
    """Onset clusters per second over the full song duration."""
    if song_duration <= 0:
        raise NonPositiveDuration("song duration must be positive")
    return cluster_onsets(notes["onset"], merge_window) / song_duration


def mean_pitch(notes: np.ndarray) -> float:
    """Mean note number."""
    return _mean(notes["key"])


def mean_articulation(notes: np.ndarray) -> float:
    """Mean duration-to-inter-onset-interval ratio.

    For each note the interval runs from its onset to the next distinct
    onset time within the same track, so chord tones share one interval.
    Notes at the last onset of their track have no interval and notes whose
    interval exceeds ``IOI_LIMIT`` sit before a gap; both are excluded.
    """
    ratios = [np.empty(0)]
    for track_id in set(notes["track_id"].tolist()):
        track = notes[notes["track_id"] == track_id]
        # The first sorted onset strictly after a note's own is the next distinct one.
        onsets = np.sort(track["onset"])
        following = np.searchsorted(onsets, track["onset"], side="right")
        usable = following < len(onsets)
        ioi = onsets[following[usable]] - track["onset"][usable]
        short = ioi <= IOI_LIMIT
        ratios.append(track["duration"][usable][short] / ioi[short])
    return _mean(np.concatenate(ratios), "no note has a usable inter-onset interval")


def agreement_by_pairs(r: np.ndarray, rater_ids):
    """(mean pairwise r, each rater's mean r, skipped pairs) by walking the pairs.

    Reads entry (a, b) of the Pearson matrix ``r`` for each rater pair
    a < b in ``combinations`` order; a NaN entry is a skipped pair.  Means
    are ``math.fsum`` means, NaN for a rater with no defined pair.  Returns
    None when no pair is defined.  ``inter_rater_agreement`` must give the
    same values from the same matrix.
    """
    defined, skipped = [], []
    per_rater = {rid: [] for rid in rater_ids}
    for a, b in combinations(range(len(rater_ids)), 2):
        if math.isnan(r[a, b]):
            skipped.append((rater_ids[a], rater_ids[b]))
            continue
        value = float(r[a, b])
        defined.append(value)
        per_rater[rater_ids[a]].append(value)
        per_rater[rater_ids[b]].append(value)
    if not defined:
        return None
    means = {rid: math.fsum(rs) / len(rs) if rs else math.nan for rid, rs in per_rater.items()}
    return math.fsum(defined) / len(defined), means, tuple(skipped)


def pairwise_r_unscreened(values: np.ndarray) -> np.ndarray:
    """``perfeat.stats._pairwise_r`` with the exact constant test run on every column.

    The same sums in the same order, but no rounding bound decides which
    columns are tested: each column is compared with its first joint row
    with every partner, as ``pearson``'s ``np.all(xs == xs[0])`` does.
    """
    present = np.isfinite(values)
    mask = present.astype(float)
    filled = np.where(present, values, 0.0)
    counts = np.einsum("ia,ib->ab", mask, mask)
    centre = filled.sum(axis=0) / np.maximum(counts.diagonal(), 1.0)
    x = np.where(present, filled - centre, 0.0)
    sums = np.einsum("ia,ib->ab", x, mask)
    cross = np.einsum("ia,ib->ab", x, x)
    squares = np.einsum("ia,ib->ab", x * x, mask)
    constant = np.zeros(counts.shape, dtype=bool)
    for a in range(values.shape[1]):
        rows = present[:, a]
        if not rows.any():
            continue
        column = values[rows, a][:, None]
        joint = present[rows]
        first = column[joint.argmax(axis=0), 0]
        constant[a] = ~(joint & (column != first)).any(axis=0)
    defined = (counts >= MIN_PAIRS) & ~constant & ~constant.T
    n = np.where(defined, counts, 1.0)
    covariance = cross - sums * sums.T / n
    spread = squares - sums * sums / n
    with np.errstate(invalid="ignore", divide="ignore"):
        r = covariance / np.sqrt(spread * spread.T)
    return np.where(defined, np.clip(r, -1.0, 1.0), np.nan)


def pearson_wrapped(x, y) -> float:
    """``perfeat.stats.pearson`` through ``np.all`` and ``ndarray.mean``, with its errors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.isfinite(x) & np.isfinite(y)
    n = int(mask.sum())
    if n < MIN_PAIRS:
        raise TooFewPairs(f"{n} complete pairs, need {MIN_PAIRS}")
    xs = x[mask]
    ys = y[mask]
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ConstantInput("correlation of a constant series is undefined")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    r = float(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)))
    return max(-1.0, min(1.0, r))


def t_two_tailed_quadrature(t: float, df: float, points: int = 200_001) -> float:
    """Two-tailed t tail probability by direct numeric integration.

    Substituting x = sqrt(df) tan(theta) turns the tail integral into a
    smooth integral of cos(theta)^(df - 1) over a finite interval, which the
    trapezoid rule handles to well below 1e-8.
    """
    t = abs(float(t))
    constant = math.exp(
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
    ) / math.sqrt(df * math.pi)
    theta_start = math.atan(t / math.sqrt(df))
    theta = np.linspace(theta_start, math.pi / 2.0, points)
    integrand = np.cos(theta) ** (df - 1.0)
    # The trapezoid rule written out: np.trapezoid needs numpy 2, and numpy 2.4
    # dropped np.trapz.
    area = float(np.sum((integrand[1:] + integrand[:-1]) * np.diff(theta))) / 2.0
    tail = constant * math.sqrt(df) * area
    return float(2.0 * tail)


def svd_rank(gram_root: np.ndarray, n: int) -> np.ndarray:
    """The rank of each n x k design of a stack, from the singular values of its R.

    The R factor of a QR has the design's singular values.  They count
    above ``matrix_rank``'s tolerance for an n x k shape: the largest
    singular value times max(n, k) times eps.
    """
    singular_values = np.linalg.svd(gram_root, compute_uv=False)
    cut = singular_values.max(axis=1) * max(n, gram_root.shape[2]) * np.finfo(float).eps
    return (singular_values > cut[:, None]).sum(axis=1)


class NipalsPls:
    """PLS1 fitted by the one-response iterative algorithm (NIPALS).

    Fits ``m`` factors on autoscaled data, deflating X and y after each.
    Each factor takes its weight vector from the covariance of the current
    X residual with the current y residual.  The model is truncated where
    that covariance's norm falls below 1e-12 or the scores' energy below
    1e-24.  No rank check: callers pass ``m`` within the predictor rank.
    """

    def __init__(self, X, y, m: int):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        k = X.shape[1]
        self.x_mean = X.mean(axis=0)
        self.x_scale = X.std(axis=0, ddof=1)
        self.y_mean = float(y.mean())
        self.y_scale = float(y.std(ddof=1))
        x_resid = (X - self.x_mean) / self.x_scale
        y_resid = (y - self.y_mean) / self.y_scale
        weights = np.zeros((k, m))
        loadings = np.zeros((k, m))
        q = np.zeros(m)
        kept = 0
        self.truncated = False
        for a in range(m):
            w = x_resid.T @ y_resid
            w_norm = float(np.linalg.norm(w))
            if w_norm < 1e-12:
                self.truncated = True
                break
            w /= w_norm
            scores = x_resid @ w
            score_energy = float(scores @ scores)
            if score_energy < 1e-24:
                self.truncated = True
                break
            loading = x_resid.T @ scores / score_energy
            q[a] = float(y_resid @ scores) / score_energy
            x_resid = x_resid - np.outer(scores, loading)
            y_resid = y_resid - q[a] * scores
            weights[:, a] = w
            loadings[:, a] = loading
            kept += 1
        self.m = kept
        self.weights = weights[:, :kept]  # k x m
        self.loadings = loadings[:, :kept]  # k x m
        self.q = q[:kept]

    def _replay(self, residual: np.ndarray) -> np.ndarray:
        """Push autoscaled rows through the per-factor deflation."""
        accumulated = np.zeros(residual.shape[0])
        for a in range(self.m):
            scores = residual @ self.weights[:, a]
            accumulated += self.q[a] * scores
            residual = residual - np.outer(scores, self.loadings[:, a])
        return accumulated

    def predict(self, X) -> np.ndarray:
        residual = (np.asarray(X, dtype=float) - self.x_mean) / self.x_scale
        return self._replay(residual) * self.y_scale + self.y_mean

    @property
    def beta_std(self) -> np.ndarray:
        """Regression vector on autoscaled data: the identity pushed through."""
        return self._replay(np.eye(len(self.x_mean)))


def press_cv_by_eigh(design, folds: int, repeats: int, seed: int):
    """OLS ``repeated_kfold_cv`` by one eigendecomposition of each fold's PRESS block.

    Fold by fold, in (repeat, fold) order: the block is I - Q_F Q_F' of the
    full-data fit's Q, a block with an eigenvalue below 1e-10 marks a
    rank-deficient training design, and the held-out errors are
    V diag(1/lambda) V' r_F from ``eigh``.  Returns, per repeat, the MSE and
    the smallest eigenvalue of its folds' blocks; or raises the first
    degenerate fold's error with ``repeated_kfold_cv``'s message.
    """
    X, y, n = design.X, design.y, design.n
    _, resid, q, _ = _qr_solve(X, y)
    rng = np.random.default_rng(seed)
    mse, smallest = [], []
    for repeat in range(repeats):
        squared_errors = np.empty(n)
        smallest.append(1.0)
        for fold, held_out in enumerate(np.array_split(rng.permutation(n), folds)):
            train = np.ones(n, dtype=bool)
            train[held_out] = False
            q_f = q[held_out][None]
            block = np.eye(len(held_out)) - np.einsum("bik,bjk->bij", q_f, q_f)
            eigenvalues, vectors = np.linalg.eigh(block)
            singular = eigenvalues[0, 0] < 1e-10
            smallest[-1] = min(smallest[-1], float(eigenvalues[0, 0]))
            if singular or np.ptp(y[train]) == 0:
                spans = np.ptp(X[train], axis=0)
                if (spans == 0).any():
                    error = RankDeficient(
                        f"predictor {design.names[int(np.argmin(spans))]!r} is constant")
                elif singular:
                    error = RankDeficient("training design is rank deficient")
                else:
                    error = ConstantResponse("response does not vary")
                raise type(error)(
                    f"repeat {repeat + 1} of {repeats}, fold {fold + 1} of {folds}: {error}")
            rotated = np.einsum("bji,bj->bi", vectors, resid[held_out][None]) / eigenvalues
            squared_errors[held_out] = np.einsum("bij,bj->bi", vectors, rotated)[0] ** 2
        mse.append(float(squared_errors.mean()))
    return mse, smallest
