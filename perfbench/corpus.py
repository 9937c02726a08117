"""Deterministic inputs for the three benchmark workloads.

Every byte the program reads is generated here from one seed, with the SMF
and RIFF/WAVE builders of ``tests/helpers.py``.  Alongside the files, each
builder returns the values the generator knows in closed form (sidecar
tempi, clip RMS and zero-crossing rate, item means of the ratings) and the
CLI commands of one pass, so that the output checks never ask the program
under test what the right answer is.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
WORKLOADS = ("midi_corpus", "audio_corpus", "study")


class MissingProgram(RuntimeError):
    """The checkout lacks the package sources or the test byte builders."""


def attach_program(root: Path = ROOT):
    """Put ``src/`` first on the import path and load ``tests/helpers.py``.

    Returns the helpers module.  The package must come from this checkout,
    never from an installed copy.
    """
    src = root / "src"
    helpers_path = root / "tests" / "helpers.py"
    for needed in (src / "perfeat" / "cli.py", helpers_path):
        if not needed.is_file():
            raise MissingProgram(f"{needed.relative_to(root)} not found under {root}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import perfeat

    if Path(perfeat.__file__).resolve().parent != (src / "perfeat").resolve():
        raise MissingProgram(f"perfeat imported from {perfeat.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("perfbench_helpers", helpers_path)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return helpers


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass: a name for its timing, argv, and its CSV outputs."""

    name: str
    argv: Tuple[str, ...]
    outputs: Tuple[str, ...]


@dataclass
class Corpus:
    """Generated inputs under ``in/`` of a work directory, plus what is known of them."""

    workload: str
    commands: List[Command]
    expect: Dict[str, object]
    digest: str = ""


def digest_tree(directory: Path) -> str:
    """sha256 over the relative paths and bytes of every file, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- midi_corpus


SONGS = 16
NOTES_PER_TRACK = 1250
TICKS = 430_000  # about 7 minutes at the two tempi below
DIVISION = 480
TEMPI = (500_000, 400_000)  # us per quarter; the change sits at mid-song
ROLES = ((1, 0, "melody"), (2, 1, "accompaniment"), (3, 2, "bass"), (4, 9, None))
TOM_KEYS = (41, 43, 45, 47, 48, 50)
REST_KEYS = (42, 44, 46, 49, 51, 57)
SOFT_SHARE = 0.09  # velocities 5..12 fall more than 20 dB below the 127/127 peak


def _track_bytes(h, events) -> bytes:
    """events: (tick, order, kind, a, b, channel); offs sort before ons at a tick."""
    out = []
    last = 0
    for tick, _, kind, a, b, channel in sorted(events):
        delta = tick - last
        last = tick
        if kind == "off":
            out.append(h.note_off(delta, a, channel=channel))
        elif kind == "on":
            out.append(h.note_on(delta, a, b, channel=channel))
        elif kind == "cc":
            out.append(h.control(delta, a, b, channel=channel))
        else:
            out.append(h.set_tempo(delta, a))
    return h.track(*out)


def _role_events(rng, role: int, channel: int):
    """Notes of one role track.

    Covers chords (shared onsets), rests above the 0.8 s articulation limit,
    soft notes below the -20 dB gate, a key struck again while still held,
    controller-7 volume changes, and percussion keys of both classes.
    """
    n = NOTES_PER_TRACK
    chord = 3 if role == 2 else 1
    onsets_needed = -(-n // chord)
    base = TICKS / onsets_needed
    iois = np.maximum(1, np.round(base * rng.choice([0.5, 1.0, 1.0, 1.5], onsets_needed)))
    if role == 1:  # melody phrases end in rests longer than 0.8 s
        gaps = rng.random(onsets_needed) < 0.03
        iois[gaps] += 4 * DIVISION
        iois *= TICKS / iois.sum()
        iois = np.maximum(1, np.round(iois))
    onsets = np.concatenate([[0], np.cumsum(iois[:-1])]).astype(int)
    volume_mid = {1: 127, 2: 100, 3: 115, 4: 120}[role]
    events = [
        (0, 1, "cc", 7, {1: 127, 2: 110, 3: 100, 4: 120}[role], channel),
        (TICKS // 2, 1, "cc", 7, volume_mid, channel),
    ]
    low = {1: 60, 2: 48, 3: 28, 4: 0}[role]
    written = 0
    held_key = None
    for i, onset in enumerate(onsets):
        ioi = int(iois[i])
        for voice in range(chord):
            if written == n:
                break
            if role == 4:
                pool = TOM_KEYS if rng.random() < 0.4 else REST_KEYS
                key = int(pool[rng.integers(len(pool))])
                duration = max(1, ioi // 4)
            else:
                key = low + int(rng.integers(0, 24)) + 4 * voice
                duration = max(1, int(ioi * rng.uniform(0.4, 1.05)))
                if held_key is not None:
                    key, held_key = held_key, None  # sounds again while still held
                elif role == 1 and rng.random() < 0.03:
                    held_key = key
                    duration = ioi + DIVISION // 2
            velocity = (
                int(rng.integers(5, 13))
                if rng.random() < SOFT_SHARE
                else int(rng.integers(50, 127))
            )
            if role == 1 and i == 0:
                velocity = 127  # the song's loudest note sets the gate
            events.append((int(onset), 2, "on", key, velocity, channel))
            events.append((int(onset) + duration, 0, "off", key, 0, channel))
            written += 1
    return events, written


def build_midi_corpus(h, seed: int, in_dir: Path) -> Corpus:
    midi_dir = in_dir / "midi"
    midi_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 1])
    annotations = ["song_id,track_id,category"]
    tempo_lines = ["song_id,beats_per_second"]
    tempos: Dict[str, float] = {}
    notes = 0
    for s in range(SONGS):
        song_id = f"song_{s:02d}"
        conductor = [
            (0, 0, "tempo", TEMPI[0], 0, 0),
            (TICKS // 2, 0, "tempo", TEMPI[1], 0, 0),
        ]
        tracks = [_track_bytes(h, conductor)]
        for role, channel, category in ROLES:
            events, written = _role_events(rng, role, channel)
            notes += written
            tracks.append(_track_bytes(h, events))
            if category is not None:  # drums stay unannotated: channel 9 implies them
                annotations.append(f"{song_id},{role},{category}")
        (midi_dir / f"{song_id}.mid").write_bytes(h.smf(*tracks, division=DIVISION))
        tempos[song_id] = round(float(rng.uniform(1.6, 2.6)), 3)
        tempo_lines.append(f"{song_id},{tempos[song_id]!r}")
    (in_dir / "annotations.csv").write_text("\n".join(annotations) + "\n", encoding="utf-8")
    (in_dir / "tempos.csv").write_text("\n".join(tempo_lines) + "\n", encoding="utf-8")
    command = Command(
        "extract-midi",
        (
            "extract-midi", "--midi-dir", "in/midi", "--annotations", "in/annotations.csv",
            "--tempos", "in/tempos.csv",
        ),
        ("midi_features.csv",),
    )
    return Corpus("midi_corpus", [command], {"tempos": tempos, "notes": notes})


# --------------------------------------------------------------- audio_corpus


CLIPS = 6
CLIP_SECONDS = 30.0
SAMPLE_RATE = 44_100
LEAD_IN = 0.5  # seconds of exact zeros: the first frames are silent


def _decoded(samples: np.ndarray, fmt: int) -> np.ndarray:
    """What a conforming reader yields: float64 mono, PCM codes scaled by 1/32768."""
    if fmt == 1:
        return samples.astype(np.float64) / 32768.0
    return samples.astype("<f4").astype(np.float64).reshape(-1, 2).mean(axis=1)


def build_audio_corpus(h, seed: int, in_dir: Path) -> Corpus:
    wav_dir = in_dir / "wav"
    wav_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 2])
    n = int(CLIP_SECONDS * SAMPLE_RATE)
    lead = int(LEAD_IN * SAMPLE_RATE)
    t = np.arange(n - lead) / SAMPLE_RATE
    expected: Dict[str, Dict[str, float]] = {}
    for c in range(CLIPS):
        clip_id = f"clip_{c:02d}"
        f0 = rng.uniform(110.0, 880.0)
        tone = sum(
            (0.3 / k) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
            for k in (1, 2, 3, 5)
        )
        channels = []
        for _ in range(1 if c < CLIPS // 2 else 2):
            body = tone + rng.normal(0.0, 0.04, t.size)
            channels.append(np.concatenate([np.zeros(lead), body]))
        if len(channels) == 1:
            fmt, samples = 1, h.pcm16(channels[0])
            data = h.wav(samples, SAMPLE_RATE)
        else:
            fmt, samples = 3, np.stack(channels, axis=1).astype("<f4").reshape(-1)
            data = h.wav(samples, SAMPLE_RATE, fmt=3, bits=32, channels=2)
        (wav_dir / f"{clip_id}.wav").write_bytes(data)
        x = _decoded(samples, fmt)
        positive = x >= 0
        expected[clip_id] = {
            "zcr": np.count_nonzero(positive[1:] != positive[:-1]) / (x.size / SAMPLE_RATE),
            "rms": float(np.sqrt(np.mean(x * x))),
        }
    command = Command(
        "extract-audio", ("extract-audio", "--wav-dir", "in/wav"), ("audio_features.csv",)
    )
    return Corpus(
        "audio_corpus", [command], {"clips": expected, "audio_seconds": CLIPS * n / SAMPLE_RATE}
    )


# ---------------------------------------------------------------------- study


ITEMS = 100
RATERS = 40
RATED = ("articulation", "complexity", "dynamics", "pitch", "speed", "timbre")
PREDICTOR_NAMES = (
    "nps_all", "nps_mel", "nps_acc", "nps_bas", "nps_dru", "nps_dru_tom", "nps_dru_rest",
    "sl_all", "sl_mel", "sl_acc", "sl_bas", "sl_dru", "f0_all", "f0_mel", "f0_acc",
    "f0_bas", "art_all", "art_mel", "art_acc", "art_bas", "ann_tempo",
)
TARGET = "speed"
MISSING_SHARE = 0.02
PLS_COMPONENTS = "3"


def build_study(h, seed: int, in_dir: Path) -> Corpus:
    ratings_dir = in_dir / "ratings"
    ratings_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 3])
    n, k = ITEMS, len(PREDICTOR_NAMES)
    names = PREDICTOR_NAMES
    mixing = rng.normal(0.0, 0.4, (k, k)) + np.eye(k)
    features = rng.normal(size=(n, k)) @ mixing + rng.uniform(-2, 2, k)
    item_ids = [f"item_{i:03d}" for i in range(n)]
    rater_ids = [f"r{j:02d}" for j in range(RATERS)]
    means: Dict[str, np.ndarray] = {}
    complete: Dict[str, int] = {}
    reversed_rater: Dict[str, str] = {}
    for feature in RATED:
        active = rng.random(k) < 0.3
        active[rng.integers(k)] = True
        weights = rng.normal(0.0, 1.0, k) * active
        signal = features @ weights
        truth = 5.0 + 1.6 * (signal - signal.mean()) / signal.std()
        raw = truth[:, None] + rng.normal(0.0, 1.0, (n, RATERS))
        ratings = np.clip(np.round(raw), 1, 9)
        flip = int(rng.integers(RATERS))
        ratings[:, flip] = 10 - ratings[:, flip]  # one rater reverses the scale
        ratings[rng.random((n, RATERS)) < MISSING_SHARE] = np.nan
        reversed_rater[feature] = rater_ids[flip]
        complete[feature] = int(np.isfinite(ratings).all(axis=1).sum())
        means[feature] = np.nanmean(ratings, axis=1)
        lines = ["item_id," + ",".join(rater_ids)]
        for i, item in enumerate(item_ids):
            cells = ("" if np.isnan(v) else str(int(v)) for v in ratings[i])
            lines.append(item + "," + ",".join(cells))
        (ratings_dir / f"{feature}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = ["item_id", *names, *RATED]
    lines = [",".join(header)]
    for i, item in enumerate(item_ids):
        values = [*features[i], *(means[f][i] for f in RATED)]
        lines.append(item + "," + ",".join(repr(float(v)) for v in values))
    (in_dir / "merged.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = ("--table", "in/merged.csv", "--target", TARGET, "--predictors", ",".join(names))
    pls = ("--method", "pls", "--components", PLS_COMPONENTS)
    commands = [
        Command("agreement", ("agreement", "--ratings", "in/ratings"),
                ("agreement.csv", "item_means.csv")),
        Command("xcorr", ("xcorr", "--table", "in/merged.csv"), ("xcorr.csv",)),
        Command("fit_ols", ("fit", *model, "--method", "ols"), (f"fit_{TARGET}_ols.csv",)),
        Command("fit_pls", ("fit", *model, *pls), (f"fit_{TARGET}_pls.csv",)),
        Command("cv_ols", ("cv", *model, "--method", "ols"), (f"cv_{TARGET}_ols.csv",)),
        Command("cv_pls", ("cv", *model, *pls), (f"cv_{TARGET}_pls.csv",)),
    ]
    return Corpus(
        "study", commands,
        {
            "items": item_ids, "raters": len(rater_ids), "predictors": names,
            "columns": header[1:], "means": means, "complete": complete,
            "reversed": reversed_rater,
        },
    )


BUILDERS = {"midi_corpus": build_midi_corpus, "audio_corpus": build_audio_corpus,
            "study": build_study}


def build(h, workload: str, seed: int, in_dir: Path) -> Corpus:
    """Write the workload's inputs under ``in_dir`` and describe them."""
    corpus = BUILDERS[workload](h, seed, in_dir)
    corpus.digest = digest_tree(in_dir)
    return corpus
