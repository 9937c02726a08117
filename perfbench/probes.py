"""Known-defect probes: small fixed inputs that hit edge cases the program mishandles.

Each probe runs once per benchmark run, untimed, and reports its outcome as
text: the CLI exit code, the class of the exception that left a layer (seen
through the tracer's spans), and, for extraction, which output cells are
empty.  Probes never count as workload commands, so a defect being fixed
changes a probe's outcome and nothing else.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Dict, List

import numpy as np

from checks import Table


def _agreement_no_complete_item(h, directory: Path) -> List[str]:
    """Every item misses one rater, so no item is complete but every pair is defined."""
    ratings = directory / "ratings"
    ratings.mkdir(parents=True)
    raters = 5
    lines = ["item_id," + ",".join(f"r{j}" for j in range(raters))]
    for i in range(12):
        cells = ["" if j == i % raters else str(1 + (3 * i + 2 * j) % 9) for j in range(raters)]
        lines.append(f"item_{i:02d}," + ",".join(cells))
    (ratings / "panel.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["agreement", "--ratings", str(ratings)]


def _cv_rare_binary_predictor(h, directory: Path) -> List[str]:
    """A 0/1 predictor with one positive in 40 rows is constant in some training fold."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 2))
    flag = np.zeros(40)
    flag[17] = 1.0
    y = x @ np.array([1.0, -0.5]) + 0.3 * flag + rng.normal(0.0, 0.2, 40)
    lines = ["row,y,x1,x2,flag"]
    for i in range(40):
        lines.append(f"r{i:02d}," + ",".join(repr(float(v)) for v in (y[i], *x[i], flag[i])))
    table = directory / "table.csv"
    directory.mkdir(parents=True)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["cv", "--table", str(table), "--target", "y", "--method", "ols"]


def _wav_nan_sample(h, directory: Path) -> List[str]:
    """A 32-bit float clip with a single NaN sample."""
    wavs = directory / "wav"
    wavs.mkdir(parents=True)
    rate = 44_100
    samples = (0.4 * np.sin(2 * np.pi * 440.0 * np.arange(rate) / rate)).astype("<f4")
    samples[1000] = np.nan
    (wavs / "nan_clip.wav").write_bytes(h.wav(samples, rate, fmt=3, bits=32))
    return ["extract-audio", "--wav-dir", str(wavs)]


PROBES = {
    "agreement_no_complete_item": _agreement_no_complete_item,
    "cv_rare_binary_predictor": _cv_rare_binary_predictor,
    "wav_nan_sample": _wav_nan_sample,
}


def run_probes(h, cli, tracer, directory: Path) -> Dict[str, str]:
    """Outcome text of each probe, by name."""
    outcomes = {}
    for name, build in PROBES.items():
        out = directory / name / "out"
        argv = build(h, directory / name) + ["--out-dir", str(out)]
        tracer.reset()
        tracer.install()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        finally:
            tracer.uninstall()
        outcome = f"exit={rc}"
        raised = tracer.first_raised()
        if raised:
            outcome += f" raised={raised}"
        features = out / "audio_features.csv"
        if name == "wav_nan_sample" and features.is_file():
            table = Table(features)
            empty = [col for col, cell in zip(table.header, table.rows[0]) if cell == ""]
            outcome += " empty=" + (",".join(empty) or "none")
        outcomes[name] = outcome
    tracer.reset()
    return outcomes
