"""Spans around every public function of the package's layers, from outside.

:class:`Tracer` replaces each public function and public method of the
layer modules with a wrapper that records one span per call: function id,
parent span, start and end.  The wrapper is bound in every ``perfeat.*``
namespace that holds the function (``cli.parse_smf`` as well as
``smf.parse_smf``), so calls between layers and within a layer both nest.
Nothing under ``src/`` changes.  Spans stay in flat in-memory arrays until
:meth:`Tracer.dump` writes them out.

:func:`layer_metrics` turns one traced pass into per-layer self times and
counts.  A span's self time is its duration minus its children's; the
self times of all spans add up to the duration of the outermost
``cli.main`` spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("smf", "midi_features", "audio_features", "stats", "tdist", "regress", "io",
          "tables", "cli")

# Self time of one layer's spans below the nearest enclosing call of an entry
# function (the entry included).  A nested entry starts its own subtree, so
# the STFT inside extract_audio_features counts as stft_s, not descriptors_s.
SUBTREE_SECONDS = {
    "smf.parse_s": ("smf", "parse_smf"),
    "smf.annotate_s": ("smf", "annotate_tracks"),
    "midi_features.extract_s": ("midi_features", "extract_midi_features"),
    "audio_features.read_wav_s": ("audio_features", "read_wav"),
    "audio_features.stft_s": ("audio_features", "stft_magnitudes"),
    "audio_features.descriptors_s": ("audio_features", "extract_audio_features"),
    "stats.agreement_s": ("stats", "inter_rater_agreement"),
    "stats.flag_s": ("stats", "flag_outlier_raters"),
    "stats.xcorr_s": ("stats", "cross_correlation_matrix"),
    "regress.ols_fit_s": ("regress", "ols_fit"),
    "regress.pls_fit_s": ("regress", "pls_fit"),
    "regress.cv_self_s": ("regress", "repeated_kfold_cv"),
    "io.write_s": ("io", "write_csv"),
}

# Whole-layer self time.  These nine add up to trace.commands_s.
LAYER_TOTALS = {layer: f"{layer}.self_s" for layer in LAYERS}
LAYER_TOTALS.update(tdist="tdist.busy_s", tables="tables.render_s")

UNITS: Dict[str, str] = {
    **{name: "s" for name in SUBTREE_SECONDS},
    **{name: "s" for name in LAYER_TOTALS.values()},
    "io.read_s": "s",
    "smf.notes": "count",
    "smf.us_per_note": "us",
    "midi_features.kept_ratio": "ratio",
    "audio_features.frames": "count",
    "audio_features.live_ratio": "ratio",
    "stats.pearson_calls": "count",
    "stats.pairs_skipped_ratio": "ratio",
    "tdist.calls": "count",
    "regress.ols_fit_calls": "count",
    "regress.pls_fit_calls": "count",
    "io.bytes_written": "B",
    "trace.commands_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _count_notes(tracer, result, args):
    tracer.counters["smf.notes"] += len(result.notes)


def _count_kept(tracer, result, args):
    tracer.counters["midi_features.kept"] += len(result)


def _count_frames(tracer, result, args):
    magnitudes = result.magnitudes
    tracer.counters["audio_features.frames"] += magnitudes.shape[0]
    tracer.counters["audio_features.live"] += int(magnitudes.any(axis=1).sum())


def _count_bytes(tracer, result, args):
    tracer.counters["io.bytes_written"] += os.path.getsize(args[0])


# Counts read off a call's result; they run after the span has ended.
HOOKS: Dict[Tuple[str, str], Callable] = {
    ("smf", "parse_smf"): _count_notes,
    ("midi_features", "filter_soft_notes"): _count_kept,
    ("audio_features", "stft_magnitudes"): _count_frames,
    ("io", "write_csv"): _count_bytes,
}


def layer_functions():
    """(layer, qualified name, owner, attribute, original) for each public callable."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"perfeat.{layer}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.append((layer, name, module, name, value))
            elif inspect.isclass(value) and not issubclass(value, (BaseException, Enum)):
                for attr, member in vars(value).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, classmethod):
                        found.append((layer, f"{name}.{attr}", value, attr, member))
    return found


class Tracer:
    """Records spans while installed; :meth:`reset` clears them between passes."""

    def __init__(self):
        self.names: List[Tuple[str, str]] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        for column in (self.func, self.parent, self.start, self.end):
            del column[:]
        self.raised.clear()
        self.counters.clear()

    def _wrap(self, fn, fid: int, hook: Optional[Callable]):
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(start)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                end[index] = clock()
                stack.pop()
                raised[index] = type(err).__name__
                raise
            end[index] = clock()
            stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Bind a wrapper in place of each public callable, in every namespace."""
        if self._patches:
            return
        wrappers = {}
        for layer, qualname, owner, attr, original in layer_functions():
            if (layer, qualname) not in self.names:
                self.names.append((layer, qualname))
            fid = self.names.index((layer, qualname))
            hook = HOOKS.get((layer, qualname))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, fid, hook))
            else:
                wrapped = self._wrap(original, fid, hook)
                wrappers[id(original)] = (original, wrapped)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "perfeat" or name.startswith("perfeat.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def columns(self):
        """(function id, parent index, start, end) of every span, as arrays."""
        return (np.array(self.func, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def first_raised(self) -> Optional[str]:
        """Class of the first exception that left a layer into the CLI's own code."""
        for index in sorted(self.raised):
            parent = self.parent[index]
            if self.names[self.func[index]][0] != "cli" and (
                parent < 0 or self.names[self.func[parent]][0] == "cli"
            ):
                return self.raised[index]
        return None

    def dump(self, path) -> None:
        func, parent, start, end = self.columns()
        raised = sorted(self.raised.items())
        np.savez_compressed(
            path, func=func, parent=parent, start=start, end=end,
            names=np.array([f"{layer}.{name}" for layer, name in self.names]),
            raised_index=np.array([i for i, _ in raised], dtype=np.int64),
            raised_class=np.array([c for _, c in raised], dtype=str),
        )


def _nearest_tag(own: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For each span, the tag of itself or its nearest tagged ancestor, else -1."""
    tag = own.copy()
    ancestor = parent.copy()
    pending = (tag < 0) & (ancestor >= 0)
    while pending.any():
        tag[pending] = own[ancestor[pending]]
        ancestor[pending] = parent[ancestor[pending]]
        pending = (tag < 0) & (ancestor >= 0)
    return tag


def layer_metrics(tracer: Tracer, commands_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose commands took ``commands_s``."""
    func, parent, start, end = tracer.columns()
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=func.size)
    self_time = duration - covered
    layer_of = np.array([LAYERS.index(layer) for layer, _ in tracer.names], dtype=np.int64)
    span_layer = layer_of[func]
    out: Dict[str, float] = {}
    for layer, metric in LAYER_TOTALS.items():
        out[metric] = float(self_time[span_layer == LAYERS.index(layer)].sum())

    entries = sorted(set(SUBTREE_SECONDS.values()))
    own_of = np.array([entries.index(n) if n in entries else -1 for n in tracer.names],
                      dtype=np.int64)
    tag = _nearest_tag(own_of[func], parent)
    for metric, (layer, entry) in SUBTREE_SECONDS.items():
        chosen = (span_layer == LAYERS.index(layer)) & (tag == entries.index((layer, entry)))
        out[metric] = float(self_time[chosen].sum())
    out["io.read_s"] = out["io.self_s"] - out["io.write_s"]

    def calls(layer, name, raised_only=False):
        if (layer, name) not in tracer.names:
            return 0
        fid = tracer.names.index((layer, name))
        if raised_only:
            return sum(1 for i in tracer.raised if tracer.func[i] == fid)
        return int(np.count_nonzero(func == fid))

    c = tracer.counters
    notes = c["smf.notes"]
    out["smf.notes"] = notes
    out["smf.us_per_note"] = (
        1e6 * (out["smf.parse_s"] + out["smf.annotate_s"]) / notes if notes else 0.0
    )
    out["midi_features.kept_ratio"] = c["midi_features.kept"] / notes if notes else 0.0
    frames = c["audio_features.frames"]
    out["audio_features.frames"] = frames
    out["audio_features.live_ratio"] = c["audio_features.live"] / frames if frames else 0.0
    pearson = calls("stats", "pearson")
    out["stats.pearson_calls"] = pearson
    out["stats.pairs_skipped_ratio"] = (
        calls("stats", "pearson", raised_only=True) / pearson if pearson else 0.0
    )
    tdist = LAYERS.index("tdist")
    entering = (span_layer == tdist) & ~(nested & (span_layer[np.maximum(parent, 0)] == tdist))
    out["tdist.calls"] = int(np.count_nonzero(entering))
    out["regress.ols_fit_calls"] = calls("regress", "ols_fit")
    out["regress.pls_fit_calls"] = calls("regress", "pls_fit")
    out["io.bytes_written"] = c["io.bytes_written"]
    out["trace.commands_s"] = commands_s
    return out
