"""Output checks for one pass of a workload.

Three kinds, each returning ``{csv file name: [problem, ...]}``:

- :func:`check_outputs`: ids, headers, row counts and ``# key=value``
  preambles must match exactly, and every value the generator knows in
  closed form must match within 1e-9 relative;
- :func:`compare_reference`: on the default seed, every cell must match the
  committed reference within 1e-9 relative;
- :func:`compare_bytes`: a later pass must write the same bytes as the first.

An empty list means the file passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from corpus import PLS_COMPONENTS, RATED, TARGET, Corpus

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MIDI_COLUMNS = (
    "ann_tempo", "nps_all", "nps_mel", "nps_acc", "nps_bas", "nps_dru", "nps_dru_tom",
    "nps_dru_rest", "sl_all", "sl_mel", "sl_acc", "sl_bas", "sl_dru", "f0_all", "f0_mel",
    "f0_acc", "f0_bas", "art_all", "art_mel", "art_acc", "art_bas",
)
AUDIO_COLUMNS = (
    "zcr", "rms", "centroid", "spread", "skewness", "kurtosis", "flatness", "rolloff85",
    "rolloff95", "flux", "bright1000", "bright1500", "bright3000",
)
AGREEMENT_COLUMNS = (
    "feature", "n_raters", "n_items", "n_complete_items", "mean_r", "alpha", "n_flagged",
    "flagged_raters", "mean_r_trimmed", "alpha_trimmed", "n_skipped_pairs",
)
FIT_COLUMNS = ("record", "name", "value", "coef", "beta_std", "sr", "se", "t", "p", "stars")
CV_STATS = ("r2_cv", "n", "k", "folds", "repeats", "seed", "method", "m")
FOLDS, REPEATS, CV_SEED = 10, 50, 0  # the CLI defaults the workload relies on


class Table:
    """A CSV written by the program: preamble lines, header, data rows."""

    def __init__(self, path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        self.preamble = [line for line in lines if line.startswith("# ")]
        body = list(csv.reader(lines[len(self.preamble):]))
        self.header = body[0] if body else []
        self.rows = body[1:]


def close(text: str, expected: float) -> bool:
    try:
        return math.isclose(float(text), expected, rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _shape(problems: List[str], table: Table, preamble, header, first_column) -> bool:
    """Exact preamble, header and first column; False when cells cannot be read."""
    if table.preamble != list(preamble):
        problems.append(f"preamble {table.preamble} != {list(preamble)}")
    if table.header != list(header):
        problems.append(f"header {table.header} != {list(header)}")
        return False
    if any(len(row) != len(header) for row in table.rows):
        problems.append("a row has the wrong cell count")
        return False
    ids = [row[0] for row in table.rows]
    if ids != list(first_column):
        problems.append(f"{len(ids)} rows with ids {ids[:3]}..., expected "
                        f"{len(first_column)} with {list(first_column)[:3]}...")
        return False
    return True


def _stats(table: Table) -> Dict[str, str]:
    """Value cell of each ``stat`` record, by name."""
    return {row[1]: row[2] for row in table.rows if row[0] == "stat"}


def _check_midi(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    problems: List[str] = []
    tempos = corpus.expect["tempos"]
    table = Table(out / "midi_features.csv")
    preamble = (
        "# command=extract-midi", "# merge_window=0.05", "# annotations=in/annotations.csv",
        "# tempos=in/tempos.csv", "# calibration=default",
    )
    if _shape(problems, table, preamble, ("song_id", *MIDI_COLUMNS), sorted(tempos)):
        for row in table.rows:
            if not close(row[1], tempos[row[0]]):
                problems.append(f"{row[0]}: ann_tempo {row[1]} != sidecar {tempos[row[0]]!r}")
            if not all(_finite(cell) for cell in row[2:]):
                problems.append(f"{row[0]}: a role feature is empty or not finite")
    return {"midi_features.csv": problems}


def _check_audio(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    problems: List[str] = []
    clips = corpus.expect["clips"]
    table = Table(out / "audio_features.csv")
    preamble = (
        "# command=extract-audio", "# frame_length=2048", "# hop_length=1024",
        "# window=hann", "# rolloff_fractions=0.85,0.95",
        "# brightness_cutoffs=1000,1500,3000",
    )
    if _shape(problems, table, preamble, ("song_id", *AUDIO_COLUMNS), sorted(clips)):
        for row in table.rows:
            for name in ("zcr", "rms"):
                cell = row[table.header.index(name)]
                if not close(cell, clips[row[0]][name]):
                    problems.append(f"{row[0]}: {name} {cell} != numpy {clips[row[0]][name]!r}")
            if not all(_finite(cell) for cell in row[1:]):
                problems.append(f"{row[0]}: a descriptor is empty or not finite")
    return {"audio_features.csv": problems}


def _check_agreement(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    e = corpus.expect
    problems: List[str] = []
    table = Table(out / "agreement.csv")
    preamble = ("# command=agreement", "# trim=false", "# scale=1..9")
    if _shape(problems, table, preamble, AGREEMENT_COLUMNS, RATED):
        for row in table.rows:
            cells = dict(zip(AGREEMENT_COLUMNS, row))
            f = cells["feature"]
            wanted = {"n_raters": e["raters"], "n_items": len(e["items"]),
                      "n_complete_items": e["complete"][f], "n_skipped_pairs": 0}
            for name, value in wanted.items():
                if cells[name] != str(value):
                    problems.append(f"{f}: {name} {cells[name]} != {value}")
            if e["reversed"][f] not in cells["flagged_raters"].split(";"):
                problems.append(f"{f}: reversed rater {e['reversed'][f]} not flagged")
            for name in ("mean_r", "alpha", "mean_r_trimmed", "alpha_trimmed"):
                if not _finite(cells[name]):
                    problems.append(f"{f}: {name} is empty or not finite")
    means_problems: List[str] = []
    means = Table(out / "item_means.csv")
    preamble = ("# command=agreement", "# trim=false")
    if _shape(means_problems, means, preamble, ("item_id", *RATED), e["items"]):
        for j, f in enumerate(RATED, start=1):
            for i, row in enumerate(means.rows):
                if not close(row[j], float(e["means"][f][i])):
                    means_problems.append(f"{row[0]} {f}: {row[j]} != nanmean {e['means'][f][i]!r}")
    return {"agreement.csv": problems, "item_means.csv": means_problems}


def _check_xcorr(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    problems: List[str] = []
    names = corpus.expect["columns"]
    table = Table(out / "xcorr.csv")
    pairs = [(a, b) for i, a in enumerate(names) for b in names[:i]]
    preamble = ("# command=xcorr", "# table=merged.csv")
    if _shape(problems, table, preamble, ("var_a", "var_b", "r", "n", "p", "stars"),
              [a for a, _ in pairs]):
        if [row[1] for row in table.rows] != [b for _, b in pairs]:
            problems.append("variable pairs out of order")
        n = str(len(corpus.expect["items"]))
        if any(row[3] != n or not (_finite(row[2]) and -1.0 <= float(row[2]) <= 1.0)
               for row in table.rows):
            problems.append(f"a cell has n != {n} or r outside [-1, 1]")
    return {"xcorr.csv": problems}


def _model_preamble(command: str, method: str, cv: bool) -> Tuple[str, ...]:
    lines = [f"# command={command}", "# table=merged.csv", f"# target={TARGET}",
             f"# method={method}", f"# components={PLS_COMPONENTS if method == 'pls' else ''}"]
    if cv:
        lines += [f"# folds={FOLDS}", f"# repeats={REPEATS}", f"# seed={CV_SEED}"]
    return (*lines, "# rows_dropped_incomplete=0")


def _check_fit(corpus: Corpus, out: Path, method: str) -> Dict[str, List[str]]:
    name = f"fit_{TARGET}_{method}.csv"
    problems: List[str] = []
    predictors = corpus.expect["predictors"]
    stat_names = ("r2", "adj_r2", "n", "k", "intercept") if method == "ols" else (
        "r2", "n", "k", "m", "truncated")
    table = Table(out / name)
    first = ["stat"] * len(stat_names) + ["coef"] * len(predictors)
    if _shape(problems, table, _model_preamble("fit", method, False), FIT_COLUMNS, first):
        if [row[1] for row in table.rows] != [*stat_names, *predictors]:
            problems.append("record names out of order")
        stats = _stats(table)
        wanted = {"n": len(corpus.expect["items"]), "k": len(predictors)}
        if method == "pls":
            wanted.update(m=PLS_COMPONENTS, truncated="false")
        for stat, value in wanted.items():
            if stats.get(stat) != str(value):
                problems.append(f"{stat} {stats.get(stat)} != {value}")
        coefs = [row[3] for row in table.rows if row[0] == "coef"]
        if not all(_finite(c) for c in coefs) or not _finite(stats.get("r2", "")):
            problems.append("a coefficient or r2 is empty or not finite")
    return {name: problems}


def _check_cv(corpus: Corpus, out: Path, method: str) -> Dict[str, List[str]]:
    name = f"cv_{TARGET}_{method}.csv"
    problems: List[str] = []
    table = Table(out / name)
    first = ["stat"] * len(CV_STATS) + ["mse"] * REPEATS
    if _shape(problems, table, _model_preamble("cv", method, True),
              ("record", "name", "value"), first):
        if [row[1] for row in table.rows] != [*CV_STATS, *map(str, range(REPEATS))]:
            problems.append("record names out of order")
        stats = _stats(table)
        wanted = {"n": len(corpus.expect["items"]), "k": len(corpus.expect["predictors"]),
                  "folds": FOLDS, "repeats": REPEATS, "seed": CV_SEED, "method": method,
                  "m": PLS_COMPONENTS if method == "pls" else ""}
        for stat, value in wanted.items():
            if stats.get(stat) != str(value):
                problems.append(f"{stat} {stats.get(stat)} != {value}")
        mse = [row[2] for row in table.rows if row[0] == "mse"]
        if not all(_finite(v) and float(v) > 0 for v in mse):
            problems.append("a per-repeat MSE is not a positive number")
        if not _finite(stats.get("r2_cv", "")):
            problems.append("r2_cv is empty or not finite")
    return {name: problems}


def _check_study(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    found = {**_check_agreement(corpus, out), **_check_xcorr(corpus, out)}
    for method in ("ols", "pls"):
        found.update(_check_fit(corpus, out, method))
        found.update(_check_cv(corpus, out, method))
    return found


_CHECKS = {"midi_corpus": _check_midi, "audio_corpus": _check_audio, "study": _check_study}


def check_outputs(corpus: Corpus, out: Path) -> Dict[str, List[str]]:
    """Structure and closed-form values of every CSV a pass wrote."""
    found: Dict[str, List[str]] = {}
    for command in corpus.commands:
        for name in command.outputs:
            found[name] = [] if (out / name).is_file() else ["missing"]
        report = (out / command.outputs[0]).with_suffix(".txt")
        if not report.is_file() or report.stat().st_size == 0:
            found[command.outputs[0]].append(f"{report.name} missing or empty")
    present = {name for name, problems in found.items() if not problems}
    if present == set(found):
        for name, problems in _CHECKS[corpus.workload](corpus, out).items():
            found[name].extend(problems)
    return found


def compare_reference(reference: Path, out: Path, names: Sequence[str]) -> Dict[str, List[str]]:
    """Every cell against the committed reference: text exactly, numbers within 1e-9."""
    found: Dict[str, List[str]] = {}
    for name in names:
        problems = found.setdefault(name, [])
        if not (out / name).is_file() or not (reference / name).is_file():
            problems.append("output or committed reference missing")
            continue
        got = (out / name).read_text(encoding="utf-8").splitlines()
        want = (reference / name).read_text(encoding="utf-8").splitlines()
        if len(got) != len(want):
            problems.append(f"{len(got)} lines, reference has {len(want)}")
            continue
        for number, (a, b) in enumerate(zip(got, want), start=1):
            if a == b:
                continue
            cells_a, cells_b = next(csv.reader([a])), next(csv.reader([b]))
            if len(cells_a) != len(cells_b) or not all(
                x == y or (_finite(y) and close(x, float(y))) for x, y in zip(cells_a, cells_b)
            ):
                problems.append(f"line {number}: {a!r} != reference {b!r}")
    return found


def compare_bytes(first: Path, out: Path, names: Sequence[str]) -> Dict[str, List[str]]:
    """A later pass must rewrite each CSV byte for byte."""
    found = {}
    for name in names:
        same = (out / name).is_file() and (out / name).read_bytes() == (first / name).read_bytes()
        found[name] = [] if same else ["bytes differ from the first pass"]
    return found
