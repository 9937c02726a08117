"""Command-line front end.

One subcommand per pipeline stage: feature extraction from MIDI and WAV
corpora, rater agreement, feature cross-correlation, model fitting and
cross-validated evaluation.  Each command returns a summary phrase and its
outputs, and writes nothing itself: ``main`` writes each output as a
machine-readable CSV at full precision and a human-readable aligned text
table into the output directory, then prints one summary line.  Exit status
is 0 on success, 1 on data or file errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import pickle
import re
import signal
import sys
import threading
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import audio_features as af
from . import midi_features as mf
from .io import (
    SchemaError,
    check_scale,
    load_annotations,
    load_calibration,
    load_config,
    load_ratings,
    load_table,
    load_tempos,
    write_csv,
)
from .regress import Design, ols_fit, pls_fit, repeated_kfold_cv
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

_STAR_FOOTNOTE = "* p < .05   ** p < .01   *** p < .001 (two-tailed)"


class UsageError(Exception):
    """Bad invocation discovered after argument parsing."""


def _required(args: argparse.Namespace, dest: str):
    value = getattr(args, dest)
    if value is None:
        raise UsageError(f"missing required option --{dest.replace('_', '-')}")
    return value


def _split(value) -> List[str]:
    """The non-blank items of a comma string or a JSON list, as strings."""
    items = value if isinstance(value, list) else str(value).split(",")
    return [str(item).strip() for item in items if str(item).strip()]


def _floats(items: List[str]) -> List[float]:
    try:
        return [float(item) for item in items]
    except ValueError:
        raise UsageError(f"{','.join(items)!r} is not a comma-separated number list") from None


def _typed(key: str, value, action: argparse.Action):
    """A config value as its option holds it; SchemaError when its JSON type does not fit."""
    if isinstance(action, argparse._StoreTrueAction):
        kinds, what = (bool,), "true or false"
    elif action.type is int:
        kinds, what = (int,), "an integer"
    elif action.type is float:
        kinds, what = (int, float), "a number"
    elif action.type is _split:
        kinds, what = (str, int, float), "a comma string or a list"
    else:
        kinds, what = (str,), "a string or a list of strings" if action.nargs else "a string"
    listed = isinstance(value, list) and (action.type is _split or action.nargs is not None)
    if listed and not value and action.nargs == "+":
        raise SchemaError(f"configuration key {key!r} takes at least one value, not []")
    for item in value if listed else [value]:
        if not isinstance(item, kinds) or isinstance(item, bool) != (bool in kinds):
            raise SchemaError(f"configuration key {key!r} takes {what}, not {value!r}")
        if action.choices is not None and item not in action.choices:
            raise SchemaError(f"configuration key {key!r} takes one of"
                              f" {', '.join(action.choices)}, not {value!r}")
    return action.type(value) if action.type else value


def _config_defaults(path: str, commands: Dict[str, argparse.ArgumentParser]):
    """Typed option values of a JSON config; its keys are every command's option names."""
    config = load_config(path)
    actions = {action.dest: action for parser in commands.values()
               for action in parser._actions if action.dest not in ("help", "config")}
    unknown = set(config) - set(actions)
    if unknown:
        raise SchemaError(f"unknown configuration keys: {sorted(unknown)}")
    return {key: _typed(key, value, actions[key])
            for key, value in config.items() if value is not None}


def _safe_name(name: str) -> str:
    """A file-name part for a target.  A name that had to be changed to fit
    gets the CRC-32 of its exact text, so distinct targets get distinct files."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_").lower() or "out"
    if safe == name:
        return safe
    return f"{safe}_{zlib.crc32(name.encode('utf-8')):08x}"


def _files_with_suffixes(directory: Path, suffixes: Tuple[str, ...]) -> List[Path]:
    """The sorted entries of ``directory`` whose names end in one of ``suffixes``
    in any case, so that ``B.MID`` is read whether or not the file system folds case."""
    return sorted(path for path in directory.iterdir() if path.name.lower().endswith(suffixes))


def _sorted_files(directory: Path, suffixes: Tuple[str, ...]) -> List[Path]:
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    files = _files_with_suffixes(directory, suffixes)
    if not files:
        raise FileNotFoundError(f"no {'/'.join('*' + s for s in suffixes)} files in {directory}")
    return _unique_stems(files, "song id")


def _unique_stems(files: List[Path], what: str) -> List[Path]:
    """``files``, unless two share a stem: each stem names one row or column of the output."""
    first: Dict[str, Path] = {}
    for path in files:
        if path.stem in first:
            raise UsageError(f"{first[path.stem]} and {path} share the {what} {path.stem!r}")
        first[path.stem] = path
    return files


def _per_file(paths: Sequence[Path], work: Callable, *,
              helper: bool = False) -> Iterator[Tuple[Path, object]]:
    """Yield ``(path, work(path))`` in order; a ValueError from ``work`` names the file once.

    Every outcome, a result or the first exception, is gathered before the
    first yield.  With ``helper``, a forked process does the odd positions,
    each side stopping at its first error: the one way the extract commands
    use a second core.  A process, not a thread: MIDI parsing and description
    are per-byte and per-onset Python that holds the GIL, and beside a thread
    ``read_wav`` and a clip's time-domain pass stayed serial too.
    ``agreement`` takes no helper: its panels cost about 5 ms each, and
    forking the 42 MB process for six of them made ``study`` 8-9% slower.  The
    helper pickles its outcomes into a pipe once done, so it never waits on
    the pipe while it works, and leaves through ``os._exit``, never returning
    into the caller's code.  The caller reads the pipe to EOF before it reaps
    the helper: reaping first would deadlock on a full pipe.  A helper that
    died without reporting is an error at its first file.  One file, no
    ``os.fork``, or other threads running (a lock one of them holds would
    stay held in the helper) leave the caller alone.
    """
    def outcomes_of(share):
        for path in share:
            try:
                yield path, work(path)
            except Exception as error:
                yield path, error
                return

    outcomes: Dict[Path, object] = {}
    if not helper or len(paths) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        outcomes.update(outcomes_of(paths))
    else:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(pickle.dumps(list(outcomes_of(paths[1::2]))))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_end)
        try:
            outcomes.update(outcomes_of(paths[::2]))
        except BaseException:  # an interrupt: the helper's work is no longer wanted
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            with os.fdopen(read_end, "rb") as pipe:
                report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        try:
            outcomes.update(pickle.loads(report))
        except (EOFError, pickle.UnpicklingError):  # no report, or a cut one
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            outcomes[paths[1]] = ChildProcessError(
                f"the helper process describing every second file from {paths[1].name} on"
                f" ended ({how}) before reporting")
    for path in paths:
        outcome = outcomes[path]
        if isinstance(outcome, ValueError) and str(path) not in str(outcome):
            message = f"{path.name}: {outcome}"
            try:
                named = type(outcome)(message)
            except TypeError:
                named = ValueError(message)
            raise named from outcome
        if isinstance(outcome, Exception):
            raise outcome  # not a ValueError, or the reader already named the file
        yield path, outcome


class _Output(NamedTuple):
    """One result: ``stem.csv`` at full precision and, with a report, ``stem.txt``."""

    stem: str
    columns: Sequence[str]
    rows: list
    preamble: Dict
    report: Optional[ReportTable]


# ------------------------------------------------------------ feature tables


def _feature_table(stem: str, vectors, preamble: Dict, title: str, noun: str, detail: str):
    """One row per input file, named by its stem; the first row's keys name the columns."""
    names = list(vectors[0][1])
    rows = [[path.stem, *vector.values()] for path, vector in vectors]
    table = ReportTable(title, ["song", *names],
                        [[song_id, *map(fmt, values)] for song_id, *values in rows],
                        [f"{len(rows)} {noun}; {detail}"])
    return f"{len(rows)} {noun}", [_Output(stem, ["song_id", *names], rows, preamble, table)]


def _cmd_extract_midi(args):
    midi_dir = Path(_required(args, "midi_dir"))
    mf.check_merge_window(args.merge_window)  # argument errors blame no file
    annotations = load_annotations(args.annotations) if args.annotations else {}
    tempos = load_tempos(args.tempos) if args.tempos else {}
    calibration = (
        load_calibration(args.calibration) if args.calibration else mf.default_calibration
    )
    paths = _sorted_files(midi_dir, (".mid", ".midi"))
    # A sidecar row for a song with no file is an error, found before any file is read.
    stems = {path.stem for path in paths}
    for sidecar, songs in ((args.annotations, annotations), (args.tempos, tempos)):
        unmatched = next((song_id for song_id in songs if song_id not in stems), None)
        if unmatched is not None:
            raise SchemaError(f"{sidecar}: song {unmatched!r} has no file in {midi_dir}")

    def features(path: Path) -> Dict[str, Optional[float]]:
        song = parse_smf(path.read_bytes(), song_id=path.stem)
        song = annotate_tracks(song, annotations.get(song.id, {}))
        return mf.extract_midi_features(
            song, calibration=calibration, tempo=tempos.get(song.id),
            merge_window=args.merge_window,
        )

    vectors = list(_per_file(paths, features, helper=True))
    return _feature_table(
        "midi_features", vectors,
        {"merge_window": args.merge_window, "annotations": args.annotations or "",
         "tempos": args.tempos or "", "calibration": args.calibration or "default"},
        "Symbolic features per song", "songs",
        f"onset merge window {args.merge_window * 1000:g} ms;"
        " empty cells mark roles with no qualifying notes.",
    )


def _cmd_extract_audio(args):
    wav_dir = Path(_required(args, "wav_dir"))
    fractions = _floats(args.rolloff_fractions)
    cutoffs = _floats(args.brightness_cutoffs)
    # Argument errors are checked here, so that no file is blamed.
    af.check_settings(args.frame_length, args.hop_length, fractions, cutoffs, args.window)

    def features(path: Path) -> Dict[str, float]:
        with open(path, "rb") as stream:
            return af.extract_audio_features(
                stream, frame_length=args.frame_length,
                hop_length=args.hop_length, window=args.window,
                rolloff_fractions=fractions, brightness_cutoffs=cutoffs,
            )

    vectors = list(_per_file(_sorted_files(wav_dir, (".wav",)), features, helper=True))
    return _feature_table(
        "audio_features", vectors,
        {"frame_length": args.frame_length, "hop_length": args.hop_length,
         "window": args.window,
         "rolloff_fractions": ",".join(f"{f:g}" for f in fractions),
         "brightness_cutoffs": ",".join(f"{c:g}" for c in cutoffs)},
        "Audio features per song", "clips",
        f"frame {args.frame_length}, hop {args.hop_length}, {args.window} window;"
        " frame statistics averaged over non-silent frames.",
    )


# ------------------------------------------------------------------ agreement


def _ratings_files(raw) -> List[Path]:
    paths = [Path(p) for p in (raw if isinstance(raw, (list, tuple)) else [raw])]
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            inside = _files_with_suffixes(path, (".csv",))
            if not inside:
                raise FileNotFoundError(f"no .csv files in {path}")
            files.extend(inside)
        else:
            files.append(path)
    return _unique_stems(files, "feature name")


def _cmd_agreement(args):
    files = _ratings_files(_required(args, "ratings"))
    trim = args.trim
    scale = None if args.no_scale_check else (args.scale_min, args.scale_max)
    check_scale(scale)  # an argument error: checked here, so that no file is blamed

    def panel(path: Path):
        matrix = load_ratings(path, scale=scale)
        report = inter_rater_agreement(matrix)
        flagged = flag_outlier_raters(report) if report.n_raters >= 3 else []
        drop = [rid for rid, _ in flagged]
        # Without --trim, a panel that flagging would empty keeps its
        # untrimmed statistics; with --trim, drop_raters raises AllDropped.
        trimmed = None
        if drop and (trim or matrix.n_raters - len(drop) >= 2):
            trimmed = inter_rater_agreement(matrix.drop_raters(drop))
        return matrix, report, flagged, trimmed, item_mean_ratings(matrix, drop if trim else [])

    csv_rows, text_rows = [], []
    notes: List[str] = []
    mean_columns: Dict[str, Dict[str, float]] = {}
    items: Dict[str, None] = {}  # item ids in order of first appearance
    for path, (matrix, report, flagged, trimmed, means) in _per_file(files, panel):
        feature = path.stem
        items.update(dict.fromkeys(matrix.item_ids))
        mean_columns[feature] = {
            item_id: None if np.isnan(mean) else float(mean)
            for item_id, mean in zip(matrix.item_ids, means)
        }
        csv_rows.append([
            feature, report.n_raters, report.n_items, report.n_complete_items,
            report.mean_pairwise_r, report.alpha, len(flagged),
            ";".join(rid for rid, _ in flagged),
            trimmed.mean_pairwise_r if trimmed else None,
            trimmed.alpha if trimmed else None,
            len(report.skipped_pairs),
        ])
        r_cell = fmt(report.mean_pairwise_r)
        alpha_cell = fmt(report.alpha)
        if trimmed is not None:
            r_cell += f" ({fmt(trimmed.mean_pairwise_r)})"
            alpha_cell += f" ({fmt(trimmed.alpha)})"
        text_rows.append([feature, report.n_raters, report.n_items, r_cell, alpha_cell])
        if flagged:
            listed = ", ".join(f"{rid} (mean r {fmt(value)})" for rid, value in flagged)
            if trimmed is not None:
                notes.append(f"{feature}: flagged raters {listed}; values in"
                             " parentheses are with those raters removed.")
            else:
                notes.append(f"{feature}: flagged raters {listed}.")
                notes.append(
                    f"{feature}: trimmed statistics undefined: flagging leaves"
                    f" {matrix.n_raters - len(flagged)} of {matrix.n_raters} raters, need 2."
                )
        if report.alpha is None:
            complete = report.n_complete_items
            reason = (f"{complete} complete items, need {MIN_COMPLETE_ITEMS}"
                      if complete < MIN_COMPLETE_ITEMS else
                      f"row sums are constant across the {complete} complete items")
            notes.append(f"{feature}: alpha undefined: {reason}.")
        if report.skipped_pairs:
            notes.append(
                f"{feature}: {len(report.skipped_pairs)} rater pair(s) had no"
                " defined correlation and were skipped."
            )
    if trim:
        notes.append("Item means exclude flagged raters (trim requested).")
    preamble = {"trim": str(trim).lower()}
    features = [path.stem for path in files]
    return f"{len(files)} feature(s)", [
        _Output("agreement",
                ["feature", "n_raters", "n_items", "n_complete_items", "mean_r", "alpha",
                 "n_flagged", "flagged_raters", "mean_r_trimmed", "alpha_trimmed",
                 "n_skipped_pairs"],
                csv_rows,
                {**preamble, "scale": "none" if scale is None else f"{scale[0]:g}..{scale[1]:g}"},
                ReportTable("Inter-rater agreement",
                            ["feature", "raters", "items", "mean r", "alpha"], text_rows,
                            notes or ["No raters were flagged."])),
        _Output("item_means", ["item_id", *features],
                [[item, *(mean_columns[f].get(item) for f in features)] for item in items],
                preamble, None),
    ]


# ---------------------------------------------------------------------- xcorr


def _cmd_xcorr(args):
    table_path = Path(_required(args, "table"))
    _, names, values = load_table(table_path)
    grid = cross_correlation_matrix(values, names)
    csv_rows = []
    for i, row_name in enumerate(names):
        for j, cell in enumerate(grid.cells[i][:i]):
            if cell is None:
                csv_rows.append([row_name, names[j], None, None, None, ""])
            else:
                csv_rows.append([row_name, names[j], cell.r, cell.n, cell.p, cell.stars])
    report = ReportTable(
        "Feature cross-correlations",
        ["", *names[:-1]],
        [[names[i], *("" if cell is None else f"{cell.r:.2f}{cell.stars}"
                      for cell in grid.cells[i][:i]), *[""] * (len(names) - 1 - i)]
         for i in range(1, len(names))],
        [_STAR_FOOTNOTE,
         "Each cell uses the rows where both variables are present;"
         " blank cells are undefined (constant column or too few rows)."],
    )
    return f"{len(names)} variables", [
        _Output("xcorr", ["var_a", "var_b", "r", "n", "p", "stars"], csv_rows,
                {"table": table_path.name}, report)]


# ------------------------------------------------------------------ fit and cv


def _design(args):
    """The model both fit and cv evaluate.

    Returns the design, the method, the factor count (None for ols), the
    number of incomplete rows dropped and the preamble keys both share.
    """
    table_path = Path(_required(args, "table"))
    target = str(_required(args, "target"))
    _, names, values = load_table(table_path)
    if target not in names:
        raise SchemaError(f"{table_path}: no column {target!r}; columns are {list(names)}")
    predictors = args.predictors
    if predictors is None:
        predictors = [n for n in names if n != target]
    else:
        if not predictors:
            raise UsageError("--predictors names no columns")
        unknown = [p for p in predictors if p not in names]
        if unknown:
            raise SchemaError(f"{table_path}: unknown predictor columns {unknown}")
        if target in predictors:
            raise UsageError("the target cannot also be a predictor")
        if len(set(predictors)) != len(predictors):
            raise UsageError("duplicate predictor names")
    X = values[:, [names.index(p) for p in predictors]]
    design, mask = Design.from_arrays(X, values[:, names.index(target)], predictors)
    components = None
    if args.method == "pls":
        if args.components is None:
            raise UsageError("--method pls needs --components")
        components = args.components
    shared = {"table": table_path.name, "target": target, "method": args.method,
              "components": "" if components is None else components}
    return design, args.method, components, int((~mask).sum()), shared


def _dropped_note(n_dropped: int) -> str:
    return f" {n_dropped} incomplete row(s) dropped." if n_dropped else ""


def _cmd_fit(args):
    design, method, components, n_dropped, shared = _design(args)
    target = shared["target"]
    if method == "ols":
        model = ols_fit(design)
        stats = {"r2": model.r2, "adj_r2": model.adj_r2, "n": model.n, "k": model.k,
                 "intercept": model.intercept}
        columns = [model.coef, model.beta_std, model.sr, model.se, model.t, model.p]
        stars = [stars_for_p(float(p)) for p in model.p]
        report = ReportTable(
            f"Least squares fit: {target}",
            ["predictor", "beta", "sr", "t", "p", ""],
            [[name, fmt(model.beta_std[i]), fmt(model.sr[i]), fmt(model.t[i]),
              fmt_p(float(model.p[i])), stars[i]] for i, name in enumerate(model.names)],
            [f"R2 = {fmt(model.r2)}, adjusted R2 = {fmt(model.adj_r2)},"
             f" n = {model.n}, predictors = {model.k}." + _dropped_note(n_dropped),
             "beta: standardized coefficient; sr: signed semipartial correlation.",
             _STAR_FOOTNOTE],
        )
    else:
        model = pls_fit(design, components)
        stats = {"r2": model.r2, "n": design.n, "k": design.k, "m": model.m,
                 "truncated": str(model.truncated).lower()}
        columns = [model.coef, model.beta_std]
        stars = [""] * design.k
        report = ReportTable(
            f"Latent factor fit: {target}",
            ["predictor", "beta", ""],
            [[name, fmt(beta), ""] for name, beta in zip(model.names, model.beta_std)],
            [f"R2 = {fmt(model.r2)}, n = {design.n}, predictors = {design.k},"
             f" factors = {model.m}."
             + (" Model truncated: deflation degenerated early." if model.truncated else "")
             + _dropped_note(n_dropped),
             "beta: coefficient on autoscaled data, from the factor model."],
        )
    rows = [["stat", name, value, *[None] * 6, ""] for name, value in stats.items()]
    rows += [
        ["coef", name, None, *(float(c[i]) for c in columns),
         *[None] * (6 - len(columns)), stars[i]]
        for i, name in enumerate(model.names)
    ]
    return f"{method} on {target!r} (n={design.n})", [
        _Output(f"fit_{_safe_name(target)}_{method}",
                ["record", "name", "value", "coef", "beta_std", "sr", "se", "t", "p", "stars"],
                rows, {**shared, "rows_dropped_incomplete": n_dropped}, report)]


def _cmd_cv(args):
    design, method, components, n_dropped, shared = _design(args)
    target = shared["target"]
    report = repeated_kfold_cv(
        design, method=method, m=components, folds=args.folds,
        repeats=args.repeats, seed=args.seed,
    )
    m = "" if report.m is None else report.m
    rows = [["stat", name, value] for name, value in (
        ("r2_cv", report.r2_cv), ("n", report.n), ("k", design.k), ("folds", report.folds),
        ("repeats", report.repeats), ("seed", report.seed), ("method", report.method),
        ("m", m),
    )]
    rows += [["mse", str(index), mse] for index, mse in enumerate(report.mse_per_repeat)]
    text = ReportTable(
        f"Cross-validated fit: {target}",
        ["statistic", "value"],
        [["method", report.method + ("" if report.m is None else f" ({report.m})")],
         ["n", report.n], ["predictors", design.k], ["R2 (cross-validated)", fmt(report.r2_cv)],
         ["seed", report.seed]],
        [f"{report.folds}-fold cross-validation, {report.repeats} repeats,"
         f" errors pooled per repeat; per-repeat MSE in the machine output."
         + _dropped_note(n_dropped)],
    )
    return f"{method} on {target!r} r2_cv={report.r2_cv:.4f}", [
        _Output(f"cv_{_safe_name(target)}_{method}", ["record", "name", "value"], rows,
                {**shared, "folds": args.folds, "repeats": args.repeats, "seed": args.seed,
                 "rows_dropped_incomplete": n_dropped},
                text)]


# ----------------------------------------------------------------------- main


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="perfeat",
        description="Music feature extraction and perception-study statistics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, blurb: str, run: Callable) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=blurb)
        sub.set_defaults(run=run)
        sub.add_argument("--config", help="JSON file of option values")
        sub.add_argument("--out-dir", dest="out_dir", default="out",
                         help="output directory (default: out)")
        return sub

    p = add("extract-midi", "symbolic features from a MIDI corpus", _cmd_extract_midi)
    p.add_argument("--midi-dir", dest="midi_dir", help="directory of .mid files")
    p.add_argument("--annotations", help="CSV of song_id,track_id,category")
    p.add_argument("--tempos", help="CSV of song_id,beats_per_second")
    p.add_argument("--calibration", help="CSV of velocity,volume,dB")
    p.add_argument("--merge-window", dest="merge_window", type=float, default=mf.MERGE_WINDOW,
                   help="onset cluster window in seconds (default: 0.05)")

    p = add("extract-audio", "spectral features from a WAV corpus", _cmd_extract_audio)
    p.add_argument("--wav-dir", dest="wav_dir", help="directory of .wav files")
    p.add_argument("--frame-length", dest="frame_length", type=int, default=af.FRAME_LENGTH)
    p.add_argument("--hop-length", dest="hop_length", type=int, default=af.HOP_LENGTH)
    p.add_argument("--window", choices=["hann", "rect"], default="hann")
    p.add_argument("--rolloff-fractions", dest="rolloff_fractions", type=_split,
                   default="0.85,0.95",
                   help="comma list of energy fractions (default: 0.85,0.95)")
    p.add_argument("--brightness-cutoffs", dest="brightness_cutoffs", type=_split,
                   default="1000,1500,3000",
                   help="comma list of cutoff frequencies (default: 1000,1500,3000)")

    p = add("agreement", "rater agreement per rated feature", _cmd_agreement)
    p.add_argument("--ratings", nargs="+",
                   help="rating CSV files, or directories of them")
    p.add_argument("--scale-min", dest="scale_min", type=float, default=1.0)
    p.add_argument("--scale-max", dest="scale_max", type=float, default=9.0)
    p.add_argument("--no-scale-check", dest="no_scale_check", action="store_true",
                   help="accept ratings outside the scale")
    p.add_argument("--trim", action="store_true",
                   help="exclude flagged raters from the item means output")

    p = add("xcorr", "cross-correlation grid over table columns", _cmd_xcorr)
    p.add_argument("--table", help="numeric CSV: id column plus named columns")

    for name, blurb, run in (("fit", "fit one model and report coefficients", _cmd_fit),
                             ("cv", "cross-validated explained variance", _cmd_cv)):
        p = add(name, blurb, run)
        p.add_argument("--table", help="numeric CSV: id column plus named columns")
        p.add_argument("--target", help="response column name")
        p.add_argument("--predictors", type=_split,
                       help="comma list of predictor columns (default: all others)")
        p.add_argument("--method", choices=["ols", "pls"], default="ols")
        p.add_argument("--components", type=int, help="latent factor count for pls")
        if name == "cv":
            p.add_argument("--folds", type=int, default=10, help="fold count (default: 10)")
            p.add_argument("--repeats", type=int, default=50,
                           help="repeat count (default: 50)")
            p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    return parser, subparsers.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become the command's defaults: flags still win.
            commands[args.command].set_defaults(**_config_defaults(args.config, commands))
            args = parser.parse_args(argv)
        summary, outputs = args.run(args)
        paths = [Path(args.out_dir) / f"{out.stem}.csv" for out in outputs]
        for out, path in zip(outputs, paths):
            write_csv(path, out.columns, out.rows, {"command": args.command, **out.preamble})
            if out.report is not None:
                path.with_suffix(".txt").write_text(out.report.render(), encoding="utf-8")
        also = "".join(f", {out.stem.replace('_', ' ')} -> {path}"
                       for out, path in zip(outputs[1:], paths[1:]))
        print(f"{args.command}: {summary} -> {paths[0]}{also}")
        return 0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
