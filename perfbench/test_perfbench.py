"""Tests of the benchmark itself, on the corpora the benchmark runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import run  # pins BLAS threads before numpy loads
import checks
import corpus
from probes import PROBES, run_probes
from spans import LAYER_TOTALS, UNITS, Tracer, layer_metrics

H = corpus.attach_program()
import perfeat.cli as cli

# Per-layer metrics each workload must move; the rest may read zero there.
EXERCISED = {
    "midi_corpus": ("smf.", "midi_features.", "io.write_s", "io.read_s",
                    "io.bytes_written", "tables.render_s", "cli.self_s"),
    "audio_corpus": ("audio_features.", "io.write_s", "io.bytes_written",
                     "tables.render_s", "cli.self_s"),
    "study": ("stats.agreement_s", "stats.flag_s", "stats.xcorr_s", "stats.pearson_calls",
              "stats.self_s", "tdist.", "regress.", "io.", "tables.render_s", "cli.self_s"),
}


def build(workload: str, seed: int, directory: Path) -> corpus.Corpus:
    (directory / "in").mkdir(parents=True)
    return corpus.build(H, workload, seed, directory / "in")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A study corpus and the outputs of one pass, shared by the check tests."""
    directory = tmp_path_factory.mktemp("study")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        built = build("study", 5, directory)
        _, _, errors = run.run_pass(cli, built.commands, Path("out"))
    assert errors == {}
    return built, directory / "out"


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_digest_follows_seed(tmp_path, workload):
    first = build(workload, 3, tmp_path / "a").digest
    assert build(workload, 3, tmp_path / "b").digest == first
    assert build(workload, 4, tmp_path / "c").digest != first


def test_missing_program_is_reported(tmp_path):
    (tmp_path / "perfbench").mkdir()
    with pytest.raises(corpus.MissingProgram):
        corpus.attach_program(tmp_path)


def test_check_accepts_a_correct_pass(study):
    built, out = study
    assert all(p == [] for p in checks.check_outputs(built, out).values())


def _perturb(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_check_rejects_a_cell_changed_in_its_last_digits(study, tmp_path):
    built, out = study
    changed = tmp_path / "changed"
    shutil.copytree(out, changed)
    name = "cv_speed_ols.csv"
    mse = checks.Table(out / name).rows[-1][2]
    _perturb(changed / name, f",{mse}\n", f",{mse[:-2]}{(int(mse[-2:]) + 37) % 100:02d}\n")
    assert checks.compare_bytes(out, changed, [name])[name]
    means = "item_means.csv"
    cell = checks.Table(out / means).rows[4][2]
    _perturb(changed / means, f",{cell}", f",{float(cell) * (1 + 1e-6)!r}")
    assert checks.check_outputs(built, changed)[means]
    assert checks.compare_reference(out, changed, [means])[means]


def test_check_rejects_a_removed_row(study, tmp_path):
    built, out = study
    changed = tmp_path / "changed"
    shutil.copytree(out, changed)
    for name in ("item_means.csv", "xcorr.csv", "fit_speed_ols.csv"):
        lines = (changed / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (changed / name).write_text("".join(lines[:-3] + lines[-2:]), encoding="utf-8")
        assert checks.check_outputs(built, changed)[name]
        assert checks.compare_reference(out, changed, [name])[name]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_pass_reports_every_layer_metric(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)
    built = build(workload, 1, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        walls, _, errors = run.run_pass(cli, built.commands, Path("out"))
    finally:
        tracer.uninstall()
    assert errors == {}
    metrics = layer_metrics(tracer, sum(walls.values()))
    declared = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in declared}
    assert names == set(UNITS)
    assert names - set(metrics) == {"trace_overhead_ratio"}
    moved = [n for n in metrics if n.startswith(EXERCISED[workload])]
    assert moved and all(metrics[n] > 0 for n in moved), {n: metrics[n] for n in moved}
    layer_sum = sum(metrics[name] for name in LAYER_TOTALS.values())
    assert layer_sum == pytest.approx(metrics["trace.commands_s"], rel=0.02)


def test_tracing_leaves_the_package_as_it_was():
    import perfeat.regress as regress

    original = (cli.parse_smf, regress.ols_fit, regress.Design.from_arrays)
    tracer = Tracer()
    tracer.install()
    assert cli.parse_smf is not original[0] and regress.ols_fit is not original[1]
    tracer.uninstall()
    assert (cli.parse_smf, regress.ols_fit, regress.Design.from_arrays) == original


def test_probes_report_an_outcome_each(tmp_path):
    outcomes = run_probes(H, cli, Tracer(), tmp_path)
    assert set(outcomes) == set(PROBES)
    assert all(text.startswith("exit=") for text in outcomes.values())


def test_timed_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "midi_corpus", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
