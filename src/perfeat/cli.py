"""Command-line front end.

One subcommand per pipeline stage: feature extraction from MIDI and WAV
corpora, rater agreement, feature cross-correlation, model fitting and
cross-validated evaluation.  Every command writes a machine-readable CSV at
full precision and a human-readable aligned text table into the output
directory.  Exit status is 0 on success, 1 on data or file errors, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import audio_features as af
from . import midi_features as mf
from .io import (
    SchemaError,
    load_annotations,
    load_calibration,
    load_config,
    load_ratings,
    load_table,
    load_tempos,
    write_csv,
)
from .regress import Design, OlsFit, ols_fit, pls_fit, repeated_kfold_cv
from .smf import annotate_tracks, parse_smf
from .stats import (
    MIN_COMPLETE_ITEMS,
    cross_correlation_matrix,
    flag_outlier_raters,
    inter_rater_agreement,
    item_mean_ratings,
    stars_for_p,
)
from .tables import ReportTable, fmt, fmt_p

_DEFAULTS: Dict[str, object] = {
    "out_dir": "out",
    "seed": 0,
    "annotations": None,
    "tempos": None,
    "calibration": None,
    "merge_window": mf.MERGE_WINDOW,
    "frame_length": af.FRAME_LENGTH,
    "hop_length": af.HOP_LENGTH,
    "window": "hann",
    "rolloff_fractions": "0.85,0.95",
    "brightness_cutoffs": "1000,1500,3000",
    "scale_min": 1.0,
    "scale_max": 9.0,
    "no_scale_check": False,
    "trim": False,
    "predictors": None,
    "method": "ols",
    "components": None,
    "folds": 10,
    "repeats": 50,
    "midi_dir": None,
    "wav_dir": None,
    "ratings": None,
    "table": None,
    "target": None,
}

_STAR_FOOTNOTE = "* p < .05   ** p < .01   *** p < .001 (two-tailed)"


class _Options:
    """Merged option values: command line wins over config over defaults."""

    def __init__(self, args: argparse.Namespace):
        self._cli = vars(args)
        config_path = self._cli.get("config")
        self._config = load_config(config_path) if config_path else {}
        unknown = set(self._config) - set(_DEFAULTS)
        if unknown:
            raise SchemaError(f"unknown configuration keys: {sorted(unknown)}")

    def get(self, key: str):
        value = self._cli.get(key)
        if value is not None:
            return value
        if key in self._config and self._config[key] is not None:
            return self._config[key]
        return _DEFAULTS[key]

    def require(self, key: str, flag: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"missing required option {flag}")
        return value


class UsageError(Exception):
    """Bad invocation discovered after argument parsing."""


def _float_list(text) -> List[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"{text!r} is not a comma-separated number list") from None


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_").lower() or "out"


def _sorted_files(directory: Path, patterns: Sequence[str]) -> List[Path]:
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    files: List[Path] = []
    for pattern in patterns:
        files.extend(directory.glob(pattern))
    files = sorted(set(files))
    if not files:
        raise FileNotFoundError(f"no {'/'.join(patterns)} files in {directory}")
    return files


def _with_file_context(path: Path, err: Exception) -> Exception:
    message = f"{path.name}: {err}"
    try:
        return type(err)(message)
    except TypeError:
        return ValueError(message)


# ---------------------------------------------------------------- extract-midi


def _cmd_extract_midi(opts: _Options) -> int:
    midi_dir = Path(opts.require("midi_dir", "--midi-dir"))
    out_dir = Path(opts.get("out_dir"))
    merge_window = float(opts.get("merge_window"))
    annotations_path = opts.get("annotations")
    tempos_path = opts.get("tempos")
    calibration_path = opts.get("calibration")
    annotations = load_annotations(annotations_path) if annotations_path else {}
    tempos = load_tempos(tempos_path) if tempos_path else {}
    calibration = (
        load_calibration(calibration_path)
        if calibration_path
        else mf.default_calibration
    )
    rows = []
    for path in _sorted_files(midi_dir, ("*.mid", "*.midi")):
        try:
            song = parse_smf(path.read_bytes(), song_id=path.stem)
            song = annotate_tracks(song, annotations.get(song.id, {}))
            vector = mf.extract_midi_features(
                song,
                calibration=calibration,
                tempo=tempos.get(song.id),
                merge_window=merge_window,
            )
        except ValueError as err:
            raise _with_file_context(path, err) from err
        rows.append((song.id, vector))
    header = ["song_id", *mf.MidiFeatureVector.FIELDS]
    parameters = {
        "command": "extract-midi",
        "merge_window": merge_window,
        "annotations": annotations_path or "",
        "tempos": tempos_path or "",
        "calibration": calibration_path or "default",
    }
    write_csv(
        out_dir / "midi_features.csv",
        header,
        [[song_id, *vector.values()] for song_id, vector in rows],
        parameters,
    )
    table = ReportTable(
        title="Symbolic features per song",
        headers=["song", *mf.MidiFeatureVector.FIELDS],
        footnotes=[
            f"{len(rows)} songs; onset merge window {merge_window * 1000:g} ms;"
            " empty cells mark roles with no qualifying notes.",
        ],
    )
    for song_id, vector in rows:
        table.add_row([song_id, *(fmt(v) for v in vector.values())])
    (out_dir / "midi_features.txt").write_text(table.render(), encoding="utf-8")
    print(f"extract-midi: {len(rows)} songs -> {out_dir / 'midi_features.csv'}")
    return 0


# --------------------------------------------------------------- extract-audio


def _cmd_extract_audio(opts: _Options) -> int:
    wav_dir = Path(opts.require("wav_dir", "--wav-dir"))
    out_dir = Path(opts.get("out_dir"))
    frame_length = int(opts.get("frame_length"))
    hop_length = int(opts.get("hop_length"))
    window = str(opts.get("window"))
    fractions = _float_list(opts.get("rolloff_fractions"))
    cutoffs = _float_list(opts.get("brightness_cutoffs"))
    rows = []
    names: Optional[Sequence[str]] = None
    for path in _sorted_files(wav_dir, ("*.wav",)):
        try:
            clip = af.read_wav(path.read_bytes())
            vector = af.extract_audio_features(
                clip,
                frame_length=frame_length,
                hop_length=hop_length,
                window=window,
                rolloff_fractions=fractions,
                brightness_cutoffs=cutoffs,
            )
        except ValueError as err:
            raise _with_file_context(path, err) from err
        names = vector.names()
        rows.append((path.stem, vector))
    header = ["song_id", *names]
    parameters = {
        "command": "extract-audio",
        "frame_length": frame_length,
        "hop_length": hop_length,
        "window": window,
        "rolloff_fractions": ",".join(f"{f:g}" for f in fractions),
        "brightness_cutoffs": ",".join(f"{c:g}" for c in cutoffs),
    }
    write_csv(
        out_dir / "audio_features.csv",
        header,
        [[song_id, *vector.values()] for song_id, vector in rows],
        parameters,
    )
    table = ReportTable(
        title="Audio features per song",
        headers=["song", *names],
        footnotes=[
            f"{len(rows)} clips; frame {frame_length}, hop {hop_length},"
            f" {window} window; frame statistics averaged over non-silent frames.",
        ],
    )
    for song_id, vector in rows:
        table.add_row([song_id, *(fmt(v) for v in vector.values())])
    (out_dir / "audio_features.txt").write_text(table.render(), encoding="utf-8")
    print(f"extract-audio: {len(rows)} clips -> {out_dir / 'audio_features.csv'}")
    return 0


# ------------------------------------------------------------------ agreement


def _ratings_files(raw) -> List[Path]:
    paths = [Path(p) for p in (raw if isinstance(raw, (list, tuple)) else [raw])]
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            inside = sorted(path.glob("*.csv"))
            if not inside:
                raise FileNotFoundError(f"no .csv files in {path}")
            files.extend(inside)
        else:
            files.append(path)
    return files


def _cmd_agreement(opts: _Options) -> int:
    files = _ratings_files(opts.require("ratings", "--ratings"))
    out_dir = Path(opts.get("out_dir"))
    trim = bool(opts.get("trim"))
    scale = (
        None
        if bool(opts.get("no_scale_check"))
        else (float(opts.get("scale_min")), float(opts.get("scale_max")))
    )
    csv_rows = []
    table = ReportTable(
        title="Inter-rater agreement",
        headers=["feature", "raters", "items", "mean r", "alpha"],
    )
    notes: List[str] = []
    mean_columns: Dict[str, Dict[str, float]] = {}
    item_order: List[str] = []
    for path in files:
        feature = path.stem
        try:
            matrix = load_ratings(path, scale=scale)
            report = inter_rater_agreement(matrix)
            flagged = (
                flag_outlier_raters(matrix) if matrix.n_raters >= 3 else []
            )
            drop = [rid for rid, _ in flagged]
            remaining = matrix.n_raters - len(drop)
            # Without --trim, a panel that flagging would empty keeps its
            # untrimmed statistics; with --trim, drop_raters raises AllDropped.
            trimmed_report = None
            if drop and (trim or remaining >= 2):
                trimmed_report = inter_rater_agreement(matrix.drop_raters(drop))
            means = item_mean_ratings(matrix, drop if trim else [])
        except ValueError as err:
            raise _with_file_context(path, err) from err
        column = {}
        for item_id, mean in zip(matrix.item_ids, means):
            column[item_id] = None if np.isnan(mean) else float(mean)
            if item_id not in item_order:
                item_order.append(item_id)
        mean_columns[feature] = column
        csv_rows.append(
            [
                feature,
                report.n_raters,
                report.n_items,
                report.n_complete_items,
                report.mean_pairwise_r,
                report.alpha,
                len(flagged),
                ";".join(rid for rid, _ in flagged),
                trimmed_report.mean_pairwise_r if trimmed_report else None,
                trimmed_report.alpha if trimmed_report else None,
                len(report.skipped_pairs),
            ]
        )
        r_cell = fmt(report.mean_pairwise_r)
        alpha_cell = fmt(report.alpha)
        if trimmed_report is not None:
            r_cell += f" ({fmt(trimmed_report.mean_pairwise_r)})"
            alpha_cell += f" ({fmt(trimmed_report.alpha)})"
        table.add_row(
            [feature, report.n_raters, report.n_items, r_cell, alpha_cell]
        )
        if flagged:
            listed = ", ".join(
                f"{rid} (mean r {fmt(value)})" for rid, value in flagged
            )
            if trimmed_report is not None:
                notes.append(f"{feature}: flagged raters {listed}; values in"
                             " parentheses are with those raters removed.")
            else:
                notes.append(f"{feature}: flagged raters {listed}.")
                notes.append(
                    f"{feature}: trimmed statistics undefined: flagging leaves"
                    f" {remaining} of {matrix.n_raters} raters, need 2."
                )
        if report.alpha is None:
            notes.append(
                f"{feature}: alpha undefined: {report.n_complete_items} complete"
                f" items, need {MIN_COMPLETE_ITEMS}."
            )
        if report.skipped_pairs:
            notes.append(
                f"{feature}: {len(report.skipped_pairs)} rater pair(s) had no"
                " defined correlation and were skipped."
            )
    if trim:
        notes.append("Item means exclude flagged raters (trim requested).")
    table.footnotes = notes or ["No raters were flagged."]
    write_csv(
        out_dir / "agreement.csv",
        [
            "feature",
            "n_raters",
            "n_items",
            "n_complete_items",
            "mean_r",
            "alpha",
            "n_flagged",
            "flagged_raters",
            "mean_r_trimmed",
            "alpha_trimmed",
            "n_skipped_pairs",
        ],
        csv_rows,
        {"command": "agreement", "trim": str(trim).lower(),
         "scale": "none" if scale is None else f"{scale[0]:g}..{scale[1]:g}"},
    )
    (out_dir / "agreement.txt").write_text(table.render(), encoding="utf-8")
    feature_names = [path.stem for path in files]
    write_csv(
        out_dir / "item_means.csv",
        ["item_id", *feature_names],
        [
            [item, *(mean_columns[f].get(item) for f in feature_names)]
            for item in item_order
        ],
        {"command": "agreement", "trim": str(trim).lower()},
    )
    print(
        f"agreement: {len(files)} feature(s) -> {out_dir / 'agreement.csv'},"
        f" item means -> {out_dir / 'item_means.csv'}"
    )
    return 0


# ---------------------------------------------------------------------- xcorr


def _cmd_xcorr(opts: _Options) -> int:
    table_path = Path(opts.require("table", "--table"))
    out_dir = Path(opts.get("out_dir"))
    _, names, values = load_table(table_path)
    grid = cross_correlation_matrix(values, names)
    csv_rows = []
    for i, row_name in enumerate(names):
        for j, col_name in enumerate(names):
            if j >= i:
                continue
            cell = grid.cells[i][j]
            if cell is None:
                csv_rows.append([row_name, col_name, None, None, None, ""])
            else:
                csv_rows.append([row_name, col_name, cell.r, cell.n, cell.p, cell.stars])
    write_csv(
        out_dir / "xcorr.csv",
        ["var_a", "var_b", "r", "n", "p", "stars"],
        csv_rows,
        {"command": "xcorr", "table": table_path.name},
    )
    report = ReportTable(
        title="Feature cross-correlations",
        headers=["", *names[:-1]],
        footnotes=[
            _STAR_FOOTNOTE,
            "Each cell uses the rows where both variables are present;"
            " blank cells are undefined (constant column or too few rows).",
        ],
    )
    for i in range(1, len(names)):
        cells = [names[i]]
        for j in range(len(names) - 1):
            if j >= i:
                cells.append("")
                continue
            cell = grid.cells[i][j]
            cells.append("" if cell is None else f"{cell.r:.2f}{cell.stars}")
        report.add_row(cells)
    (out_dir / "xcorr.txt").write_text(report.render(), encoding="utf-8")
    print(f"xcorr: {len(names)} variables -> {out_dir / 'xcorr.csv'}")
    return 0


# ------------------------------------------------------------------ fit and cv


def _design_from_table(opts: _Options):
    table_path = Path(opts.require("table", "--table"))
    target = str(opts.require("target", "--target"))
    _, names, values = load_table(table_path)
    if target not in names:
        raise SchemaError(
            f"{table_path}: no column {target!r}; columns are {list(names)}"
        )
    predictors_raw = opts.get("predictors")
    if predictors_raw:
        predictors = [p.strip() for p in str(predictors_raw).split(",") if p.strip()]
        unknown = [p for p in predictors if p not in names]
        if unknown:
            raise SchemaError(f"{table_path}: unknown predictor columns {unknown}")
        if target in predictors:
            raise UsageError("the target cannot also be a predictor")
        if len(set(predictors)) != len(predictors):
            raise UsageError("duplicate predictor names")
    else:
        predictors = [n for n in names if n != target]
    X = values[:, [names.index(p) for p in predictors]]
    y = values[:, names.index(target)]
    design, mask = Design.from_arrays(X, y, predictors)
    return design, target, int((~mask).sum()), table_path


def _method_and_components(opts: _Options):
    method = str(opts.get("method")).lower()
    if method not in ("ols", "pls"):
        raise UsageError(f"--method must be ols or pls, got {method!r}")
    components = opts.get("components")
    if method == "pls":
        if components is None:
            raise UsageError("--method pls needs --components")
        components = int(components)
    else:
        components = None
    return method, components


def _cmd_fit(opts: _Options) -> int:
    design, target, n_dropped, table_path = _design_from_table(opts)
    method, components = _method_and_components(opts)
    out_dir = Path(opts.get("out_dir"))
    stem = f"fit_{_safe_name(target)}_{method}"
    parameters = {
        "command": "fit",
        "table": table_path.name,
        "target": target,
        "method": method,
        "components": "" if components is None else components,
        "rows_dropped_incomplete": n_dropped,
    }
    header = ["record", "name", "value", "coef", "beta_std", "sr", "se", "t", "p", "stars"]
    def stat_row(name, value):
        return ["stat", name, value, None, None, None, None, None, None, ""]

    if method == "ols":
        model = ols_fit(design)
        stat_rows = [
            stat_row("r2", model.r2), stat_row("adj_r2", model.adj_r2),
            stat_row("n", model.n), stat_row("k", model.k),
            stat_row("intercept", model.intercept),
        ]
        coef_rows = [
            [
                "coef", name, None, float(model.coef[i]), float(model.beta_std[i]),
                float(model.sr[i]), float(model.se[i]), float(model.t[i]),
                float(model.p[i]), stars_for_p(float(model.p[i])),
            ]
            for i, name in enumerate(model.names)
        ]
        report = ReportTable(
            title=f"Least squares fit: {target}",
            headers=["predictor", "beta", "sr", "t", "p", ""],
            footnotes=[
                f"R2 = {fmt(model.r2)}, adjusted R2 = {fmt(model.adj_r2)},"
                f" n = {model.n}, predictors = {model.k}."
                + (f" {n_dropped} incomplete row(s) dropped." if n_dropped else ""),
                "beta: standardized coefficient; sr: signed semipartial"
                " correlation.",
                _STAR_FOOTNOTE,
            ],
        )
        for i, name in enumerate(model.names):
            report.add_row(
                [
                    name, fmt(float(model.beta_std[i])), fmt(float(model.sr[i])),
                    fmt(float(model.t[i])), fmt_p(float(model.p[i])),
                    stars_for_p(float(model.p[i])),
                ]
            )
    else:
        model = pls_fit(design, components)
        fitted = model.predict(design.X)
        residual = design.y - fitted
        sse = float(residual @ residual)
        sst = float(((design.y - design.y.mean()) ** 2).sum())
        r2 = 1.0 - sse / sst
        beta_std = model.beta_std
        stat_rows = [
            stat_row("r2", r2),
            stat_row("n", design.n), stat_row("k", design.k),
            stat_row("m", model.m),
            stat_row("truncated", str(model.truncated).lower()),
        ]
        coef_rows = [
            [
                "coef", name, None, float(model.coef[i]), float(beta_std[i]),
                None, None, None, None, "",
            ]
            for i, name in enumerate(model.names)
        ]
        report = ReportTable(
            title=f"Latent factor fit: {target}",
            headers=["predictor", "beta", ""],
            footnotes=[
                f"R2 = {fmt(r2)}, n = {design.n}, predictors = {design.k},"
                f" factors = {model.m}."
                + (" Model truncated: deflation degenerated early."
                   if model.truncated else "")
                + (f" {n_dropped} incomplete row(s) dropped." if n_dropped else ""),
                "beta: coefficient on autoscaled data, from the factor model.",
            ],
        )
        for i, name in enumerate(model.names):
            report.add_row([name, fmt(float(beta_std[i])), ""])
    write_csv(out_dir / f"{stem}.csv", header, stat_rows + coef_rows, parameters)
    (out_dir / f"{stem}.txt").write_text(report.render(), encoding="utf-8")
    print(f"fit: {method} on {target!r} (n={design.n}) -> {out_dir / (stem + '.csv')}")
    return 0


def _cmd_cv(opts: _Options) -> int:
    design, target, n_dropped, table_path = _design_from_table(opts)
    method, components = _method_and_components(opts)
    out_dir = Path(opts.get("out_dir"))
    folds = int(opts.get("folds"))
    repeats = int(opts.get("repeats"))
    seed = int(opts.get("seed"))
    report = repeated_kfold_cv(
        design, method=method, m=components, folds=folds,
        repeats=repeats, seed=seed,
    )
    stem = f"cv_{_safe_name(target)}_{method}"
    rows = [
        ["stat", "r2_cv", report.r2_cv],
        ["stat", "n", report.n],
        ["stat", "k", design.k],
        ["stat", "folds", report.folds],
        ["stat", "repeats", report.repeats],
        ["stat", "seed", report.seed],
        ["stat", "method", report.method],
        ["stat", "m", "" if report.m is None else report.m],
    ]
    rows += [
        ["mse", str(index), mse] for index, mse in enumerate(report.mse_per_repeat)
    ]
    write_csv(
        out_dir / f"{stem}.csv",
        ["record", "name", "value"],
        rows,
        {
            "command": "cv", "table": table_path.name, "target": target,
            "method": method,
            "components": "" if components is None else components,
            "folds": folds, "repeats": repeats, "seed": seed,
            "rows_dropped_incomplete": n_dropped,
        },
    )
    text = ReportTable(
        title=f"Cross-validated fit: {target}",
        headers=["statistic", "value"],
        footnotes=[
            f"{report.folds}-fold cross-validation, {report.repeats} repeats,"
            f" errors pooled per repeat; per-repeat MSE in the machine output."
            + (f" {n_dropped} incomplete row(s) dropped." if n_dropped else ""),
        ],
    )
    text.add_row(["method", report.method + ("" if report.m is None else f" ({report.m})")])
    text.add_row(["n", str(report.n)])
    text.add_row(["predictors", str(design.k)])
    text.add_row(["R2 (cross-validated)", fmt(report.r2_cv)])
    text.add_row(["seed", str(report.seed)])
    (out_dir / f"{stem}.txt").write_text(text.render(), encoding="utf-8")
    print(f"cv: {method} on {target!r} r2_cv={report.r2_cv:.4f} -> {out_dir / (stem + '.csv')}")
    return 0


# ----------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfeat",
        description="Music feature extraction and perception-study statistics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_shared(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", help="JSON file of option values")
        sub.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
        sub.add_argument("--seed", type=int, help="random seed (default: 0)")

    p = subparsers.add_parser("extract-midi", help="symbolic features from a MIDI corpus")
    add_shared(p)
    p.add_argument("--midi-dir", dest="midi_dir", help="directory of .mid files")
    p.add_argument("--annotations", help="CSV of song_id,track_id,category")
    p.add_argument("--tempos", help="CSV of song_id,beats_per_second")
    p.add_argument("--calibration", help="CSV of velocity,volume,dB")
    p.add_argument("--merge-window", dest="merge_window", type=float,
                   help="onset cluster window in seconds (default: 0.05)")

    p = subparsers.add_parser("extract-audio", help="spectral features from a WAV corpus")
    add_shared(p)
    p.add_argument("--wav-dir", dest="wav_dir", help="directory of .wav files")
    p.add_argument("--frame-length", dest="frame_length", type=int)
    p.add_argument("--hop-length", dest="hop_length", type=int)
    p.add_argument("--window", choices=["hann", "rect"])
    p.add_argument("--rolloff-fractions", dest="rolloff_fractions",
                   help="comma list of energy fractions (default: 0.85,0.95)")
    p.add_argument("--brightness-cutoffs", dest="brightness_cutoffs",
                   help="comma list of cutoff frequencies (default: 1000,1500,3000)")

    p = subparsers.add_parser("agreement", help="rater agreement per rated feature")
    add_shared(p)
    p.add_argument("--ratings", nargs="+",
                   help="rating CSV files, or directories of them")
    p.add_argument("--scale-min", dest="scale_min", type=float)
    p.add_argument("--scale-max", dest="scale_max", type=float)
    p.add_argument("--no-scale-check", dest="no_scale_check", action="store_const",
                   const=True, help="accept ratings outside the scale")
    p.add_argument("--trim", action="store_const", const=True,
                   help="exclude flagged raters from the item means output")

    p = subparsers.add_parser("xcorr", help="cross-correlation grid over table columns")
    add_shared(p)
    p.add_argument("--table", help="numeric CSV: id column plus named columns")

    for name, blurb in (("fit", "fit one model and report coefficients"),
                        ("cv", "cross-validated explained variance")):
        p = subparsers.add_parser(name, help=blurb)
        add_shared(p)
        p.add_argument("--table", help="numeric CSV: id column plus named columns")
        p.add_argument("--target", help="response column name")
        p.add_argument("--predictors",
                       help="comma list of predictor columns (default: all others)")
        p.add_argument("--method", choices=["ols", "pls"])
        p.add_argument("--components", type=int, help="latent factor count for pls")
        if name == "cv":
            p.add_argument("--folds", type=int, help="fold count (default: 10)")
            p.add_argument("--repeats", type=int, help="repeat count (default: 50)")

    return parser


_COMMANDS = {
    "extract-midi": _cmd_extract_midi,
    "extract-audio": _cmd_extract_audio,
    "agreement": _cmd_agreement,
    "xcorr": _cmd_xcorr,
    "fit": _cmd_fit,
    "cv": _cmd_cv,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        return _COMMANDS[args.command](opts)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
