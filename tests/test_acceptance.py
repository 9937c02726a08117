"""Whole-system acceptance checks.

Each test covers one release gate end to end and prints a single
``ACCEPTANCE <name>: PASS`` or ``FAIL`` line (run pytest with ``-s`` to see
them).  The checks are oracle-based: hand-built byte fixtures, closed-form
signals, invariance properties on seeded random inputs, and a synthetic
study with a known planted effect size.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from helpers import (
    NipalsPls,
    brightness,
    control,
    note,
    note_off,
    note_on,
    notes,
    pcm16,
    smf,
    spectral_rolloff,
    track,
    wav,
)
from perfeat import regress
from perfeat.audio_features import AudioClip, extract_audio_features
from perfeat.midi_features import extract_midi_features
from perfeat.regress import Design, adjusted_r2, ols_fit, pls_fit, repeated_kfold_cv
from perfeat.smf import parse_smf
from perfeat.stats import (
    RatingMatrix,
    cronbach_alpha,
    inter_rater_agreement,
    item_mean_ratings,
)


def _finish(name, failures, started, limit_seconds):
    elapsed = time.monotonic() - started
    if elapsed >= limit_seconds:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit_seconds}s")
    print(f"\nACCEPTANCE {name}: {'FAIL' if failures else 'PASS'} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def _expect(failures, condition, message):
    if not condition:
        failures.append(message)


def test_adjusted_r2_consistency():
    """Reported fit statistics agree with the shrinkage formula after rounding."""
    started = time.monotonic()
    failures = []
    value = adjusted_r2(0.94, 100, 9)
    _expect(failures, abs(value - 0.934) < 5e-4, f"adjR2(0.94,100,9)={value}")
    _expect(failures, abs(value - 0.93) <= 0.005, f"{value} not within 0.005 of 0.93")
    value = adjusted_r2(0.91, 66, 9)
    _expect(failures, 0.89 <= value <= 0.90, f"adjR2(0.91,66,9)={value}")
    _finish("adjusted-r2-consistency", failures, started, 1.0)


def test_agreement_oracles():
    """Hand-computed consistency fixtures plus invariance properties."""
    started = time.monotonic()
    failures = []

    def matrix_of(values):
        values = np.asarray(values, dtype=float)
        return RatingMatrix(
            values=values,
            item_ids=tuple(f"i{n}" for n in range(values.shape[0])),
            rater_ids=tuple(f"r{j}" for j in range(values.shape[1])),
        )

    # Two raters offset by a constant: perfectly consistent panel.
    alpha = cronbach_alpha(matrix_of([[1, 2], [2, 3], [3, 4]]))
    _expect(failures, abs(alpha - 1.0) < 1e-12, f"unit alpha fixture: {alpha}")
    # Item variances 1 and 1, sum-score variance 3.
    alpha = cronbach_alpha(matrix_of([[1, 1], [2, 3], [3, 2]]))
    _expect(failures, abs(alpha - 2.0 / 3.0) < 1e-12, f"2/3 alpha fixture: {alpha}")

    rng = np.random.default_rng(2024)
    identical = matrix_of(np.tile(rng.normal(size=(12, 1)), (1, 4)))
    report = inter_rater_agreement(identical)
    _expect(failures, report.mean_pairwise_r == 1.0, "identical columns: r != 1")
    _expect(failures, abs(report.alpha - 1.0) < 1e-12, "identical columns: alpha != 1")

    for trial in range(100):
        n = int(rng.integers(8, 30))
        k = int(rng.integers(3, 9))
        values = rng.normal(size=(n, 1)) + rng.normal(
            0.0, rng.uniform(0.3, 1.5), size=(n, k)
        )
        base = matrix_of(values)
        alpha = cronbach_alpha(base)
        r_mean = inter_rater_agreement(base).mean_pairwise_r
        shifted = cronbach_alpha(matrix_of(values + 7.25))
        scaled = cronbach_alpha(matrix_of(values * 3.5))
        r_affine = inter_rater_agreement(matrix_of(values * 2.0 + 3.0)).mean_pairwise_r
        doubled = cronbach_alpha(matrix_of(np.hstack([values, values])))
        _expect(failures, abs(shifted - alpha) < 1e-9, f"trial {trial}: shift moved alpha")
        _expect(failures, abs(scaled - alpha) < 1e-9, f"trial {trial}: scaling moved alpha")
        _expect(failures, abs(r_affine - r_mean) < 1e-9, f"trial {trial}: affine moved r")
        _expect(
            failures, doubled >= alpha - 1e-12,
            f"trial {trial}: duplicating raters lowered alpha {alpha} -> {doubled}",
        )
        if failures:
            break
    _finish("agreement-oracles", failures, started, 5.0)


def test_regression_oracles():
    """Factor and least-squares fits agree where algebra says they must."""
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(7)
    n, k = 50, 5
    names = tuple(f"x{j}" for j in range(k))
    for trial in range(100):
        X = rng.normal(size=(n, k))
        b = rng.normal(size=k)
        y = X @ b + rng.normal(0.0, rng.uniform(0.2, 2.0), size=n)
        design = Design(X=X, y=y, names=names)
        ols = ols_fit(design)
        pls = pls_fit(design, k)

        # Full-rank factor model spans the same space as least squares.
        gap = np.abs(pls.predict(X) - ols.predict(X)).max()
        _expect(failures, gap < 1e-6, f"trial {trial}: pls vs ols gap {gap:.2e}")

        # Drop-one semipartials match the t-statistic identity.
        t_based = ols.t**2 * (1.0 - ols.r2) / (n - k - 1)
        gap = np.abs(ols.sr**2 - t_based).max()
        _expect(failures, gap < 1e-9, f"trial {trial}: sr identity gap {gap:.2e}")

        # Residuals are orthogonal to the fitted subspace.
        residual = y - ols.predict(X)
        norm = np.linalg.norm(residual)
        _expect(
            failures,
            abs(residual.sum()) < 1e-8 * max(norm * math.sqrt(n), 1.0),
            f"trial {trial}: residual not centered",
        )
        for j in range(k):
            dot = abs(float(residual @ X[:, j]))
            scale = norm * np.linalg.norm(X[:, j])
            _expect(
                failures, dot < 1e-8 * max(scale, 1.0),
                f"trial {trial}: residual correlates with column {j}",
            )

        # Successive factor scores of the NIPALS oracle are mutually orthogonal.
        factors = NipalsPls(X, y, k)
        Z = (X - factors.x_mean) / factors.x_scale
        scores = []
        for a in range(factors.m):
            t_scores = Z @ factors.weights[:, a]
            scores.append(t_scores)
            Z = Z - np.outer(t_scores, factors.loadings[:, a])
        T = np.column_stack(scores)
        gram = T.T @ T
        lengths = np.sqrt(np.diag(gram))
        cosines = gram / np.outer(lengths, lengths)
        off = np.abs(cosines - np.eye(factors.m)).max()
        _expect(failures, off < 1e-8, f"trial {trial}: score cosine {off:.2e}")
        if failures:
            break
    _finish("regression-oracles", failures, started, 30.0)


def test_midi_known_answers():
    """Byte-built files reproduce hand-derived notes and features exactly.

    Division 512 with the default tempo makes one tick exactly 2**-10
    seconds, so every expected time below is an exact binary number.
    """
    started = time.monotonic()
    failures = []

    # Onsets 0 and 0.03125 s merge into one cluster; 2 s and 5 s stand
    # alone: three clusters over ten seconds.
    clustering = parse_smf(
        smf(
            track(
                note_on(0, 60, 100), note_off(16, 60),
                note_on(16, 62, 100), note_off(16, 62),
                note_on(2000, 64, 100), note_off(16, 64),
                note_on(3056, 65, 100), note_off(16, 65),
                eot_delta=5104,
            ),
            division=512,
        ),
        song_id="clustering",
    )
    _expect(failures, clustering.duration == 10.0, f"duration {clustering.duration}")
    onsets = clustering.notes["onset"].tolist()
    _expect(failures, onsets == [0.0, 0.03125, 2.0, 5.0], f"onsets {onsets}")
    vector = extract_midi_features(clustering)
    _expect(failures, vector["nps_all"] == 0.3, f"nps_all {vector['nps_all']!r} != 0.3")

    # Duration 0.375 s against a 0.5 s inter-onset gap; the trailing note
    # has no successor and contributes nothing.
    articulation = parse_smf(
        smf(
            track(
                note_on(0, 60, 100), note_off(384, 60),
                note_on(128, 72, 100), note_off(256, 72),
                eot_delta=256,
            ),
            division=512,
        ),
        song_id="articulation",
    )
    expected_notes = notes([
        note(track_id=0, channel=0, key=60, onset=0.0, duration=0.375,
             velocity=100, volume_cc=100),
        note(track_id=0, channel=0, key=72, onset=0.5, duration=0.25,
             velocity=100, volume_cc=100),
    ])
    _expect(
        failures, np.array_equal(articulation.notes, expected_notes),
        f"note mismatch: {articulation.notes}",
    )
    vector = extract_midi_features(articulation)
    _expect(failures, vector["art_all"] == 0.75, f"art_all {vector['art_all']!r} != 0.75")

    # A chord at full, -10 dB and -30 dB: the quietest note falls 20 dB
    # below the loudest and is gated out of every feature.
    gate = parse_smf(
        smf(
            track(
                control(0, 7, 127),
                note_on(0, 60, 127), note_on(0, 64, 40), note_on(0, 67, 4),
                note_off(256, 60), note_off(0, 64), note_off(0, 67),
                eot_delta=1792,
            ),
            division=512,
        ),
        song_id="gate",
    )
    _expect(failures, gate.duration == 2.0, f"gate duration {gate.duration}")
    vector = extract_midi_features(gate)
    level_mid = 20 * math.log10(40 / 127) + 20 * math.log10(127 / 127)
    expected_level = math.fsum([0.0, level_mid]) / 2.0
    _expect(
        failures, vector["sl_all"] == expected_level,
        f"sl_all {vector['sl_all']!r} != {expected_level!r}",
    )
    _expect(failures, vector["nps_all"] == 0.5, f"gated nps_all {vector['nps_all']!r}")
    _expect(failures, vector["f0_all"] == 62.0, f"gated f0_all {vector['f0_all']!r}")
    _finish("midi-known-answers", failures, started, 1.0)


def test_audio_known_answers():
    """A pure tone lands where closed forms say; spectra obey invariances."""
    started = time.monotonic()
    failures = []
    rate = 44100
    t = np.arange(rate) / rate
    vector = extract_audio_features(AudioClip(np.sin(2 * np.pi * 1000.0 * t), rate))
    _expect(failures, abs(vector["rms"] - 0.7071) <= 0.001, f"rms {vector['rms']}")
    _expect(failures, abs(vector["zcr"] - 2000.0) <= 2.0, f"zcr {vector['zcr']}")
    bin_width = rate / 2048
    _expect(
        failures, abs(vector["centroid"] - 1000.0) <= bin_width,
        f"centroid {vector['centroid']} off by more than one bin",
    )

    rng = np.random.default_rng(50)
    frequencies = np.linspace(0.0, 22050.0, 1025)
    for trial in range(50):
        magnitudes = rng.uniform(0.0, 1.0, size=1025)
        low = spectral_rolloff(magnitudes, frequencies, 0.85)
        high = spectral_rolloff(magnitudes, frequencies, 0.95)
        _expect(failures, low <= high, f"trial {trial}: rolloff not monotone")
        cuts = [brightness(magnitudes, frequencies, c) for c in (500.0, 2000.0, 8000.0)]
        _expect(
            failures, cuts[0] >= cuts[1] >= cuts[2],
            f"trial {trial}: brightness not monotone in cutoff",
        )
        scaled = 37.0 * magnitudes
        _expect(
            failures,
            spectral_rolloff(scaled, frequencies, 0.85) == low,
            f"trial {trial}: rolloff not scale invariant",
        )
        for cutoff, value in zip((500.0, 2000.0, 8000.0), cuts):
            _expect(
                failures,
                abs(brightness(scaled, frequencies, cutoff) - value) < 1e-12,
                f"trial {trial}: brightness not scale invariant",
            )
        if failures:
            break
    _finish("audio-known-answers", failures, started, 10.0)


def test_synthetic_study():
    """The full pipeline recovers a planted effect at its known size.

    One hundred songs get six unit-variance feature values; the latent
    response is their weighted sum plus noise sized so the features explain
    ninety percent of its variance.  Twenty simulated raters add response
    noise, which shrinks the explainable share to a closed-form value the
    cross-validated estimate must hit within 0.05.
    """
    started = time.monotonic()
    failures = []
    coefficients = np.array([1.0, -0.8, 0.6, -0.5, 0.4, 0.3])
    signal_var = float(coefficients @ coefficients)
    noise_var = signal_var * (1.0 - 0.9) / 0.9
    rater_sd = 0.6
    n_items, n_raters = 100, 20

    rng = np.random.default_rng(404)
    X = rng.normal(size=(n_items, len(coefficients)))
    y_true = X @ coefficients + rng.normal(0.0, math.sqrt(noise_var), size=n_items)
    slope = 1.2 / math.sqrt(signal_var + noise_var)
    ratings = (
        5.0
        + slope * y_true[:, None]
        + rng.normal(0.0, rater_sd, size=(n_items, n_raters))
    )
    matrix = RatingMatrix(
        values=ratings,
        item_ids=tuple(f"song{i:03d}" for i in range(n_items)),
        rater_ids=tuple(f"r{j:02d}" for j in range(n_raters)),
    )

    agreement = inter_rater_agreement(matrix)
    _expect(failures, agreement.alpha > 0.95, f"panel alpha {agreement.alpha:.3f}")

    target = item_mean_ratings(matrix)
    design = Design(X=X, y=target, names=tuple(f"x{j}" for j in range(6)))
    fit = ols_fit(design)
    _expect(
        failures,
        bool(np.all(np.sign(fit.coef) == np.sign(coefficients))),
        f"coefficient signs {np.sign(fit.coef)} vs planted {np.sign(coefficients)}",
    )

    report = repeated_kfold_cv(design, "ols", folds=10, repeats=50, seed=404)
    attenuation = slope**2
    expected = (
        attenuation * signal_var
        / (attenuation * (signal_var + noise_var) + rater_sd**2 / n_raters)
    )
    _expect(
        failures,
        abs(report.r2_cv - expected) <= 0.05,
        f"r2_cv {report.r2_cv:.4f} vs closed form {expected:.4f}",
    )
    _finish("synthetic-study", failures, started, 60.0)


def test_cv_determinism(tmp_path):
    """A seeded cv run is byte-identical across runs and thread counts.

    The table has the study's shape, 100 items by 21 predictors in ten
    folds, and six repeats, so that each stack of training folds holds three
    repeats and the batched QR, Cholesky, solve and inverse all run on it.
    """
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(77)
    names = [f"x{j:02d}" for j in range(21)]
    lines = ["song_id,y," + ",".join(names)]
    for i in range(100):
        row = rng.normal(size=21)
        y = 1.5 * row[0] - row[1] + 0.5 * row[2] + rng.normal(0.0, 0.5)
        lines.append(f"s{i:03d}," + ",".join(repr(float(v)) for v in (y, *row)))
    table = tmp_path / "features.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _expect(failures, regress._CV_STACK_VALUES // (9 * 100 * 21) >= 2,
            "a stack of training folds no longer holds several repeats")

    for method, extra in (("ols", []), ("pls", ["--method", "pls", "--components", "3"])):
        outputs = []
        for label, threads in (("first", "1"), ("second", "1"), ("threaded", "4")):
            out_dir = tmp_path / f"{method}-{label}"
            env = os.environ.copy()
            for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[variable] = threads
            result = subprocess.run(
                [
                    sys.executable, "-m", "perfeat", "cv",
                    "--table", str(table), "--target", "y", *extra,
                    "--folds", "10", "--repeats", "6", "--seed", "13",
                    "--out-dir", str(out_dir),
                ],
                capture_output=True, text=True, env=env,
            )
            _expect(
                failures, result.returncode == 0,
                f"{method} {label} run failed: {result.stderr.strip()}",
            )
            if result.returncode == 0:
                outputs.append((label, (out_dir / f"cv_y_{method}.csv").read_bytes()))
        for label, data in outputs[1:]:
            _expect(
                failures, data == outputs[0][1],
                f"{method} {label} run differs from the first",
            )
    _finish("cv-determinism", failures, started, 60.0)


def test_agreement_determinism(tmp_path):
    """agreement outputs are byte-identical across runs and thread counts."""
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(78)
    ratings = tmp_path / "ratings"
    ratings.mkdir()
    for feature in ("energy", "tension"):
        truth = rng.uniform(2.0, 8.0, size=60)
        panel = truth[:, None] + rng.normal(0.0, 0.8, size=(60, 40))
        panel[:, 39] = 10.0 - panel[:, 39]  # one rater scores against the panel
        panel = np.clip(panel, 1.0, 9.0)
        lines = ["item_id," + ",".join(f"r{j:02d}" for j in range(40))]
        for i, row in enumerate(panel):
            cells = ["" if rng.random() < 0.15 else f"{v:.2f}" for v in row]
            lines.append(f"item{i:02d}," + ",".join(cells))
        (ratings / f"{feature}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    outputs = []
    for label, threads in (("first", "1"), ("second", "1"), ("threaded", "4")):
        out_dir = tmp_path / label
        env = os.environ.copy()
        for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[variable] = threads
        result = subprocess.run(
            [
                sys.executable, "-m", "perfeat", "agreement",
                "--ratings", str(ratings), "--out-dir", str(out_dir),
            ],
            capture_output=True, text=True, env=env,
        )
        _expect(
            failures, result.returncode == 0,
            f"{label} run failed: {result.stderr.strip()}",
        )
        if result.returncode == 0:
            outputs.append((label, [
                (out_dir / name).read_bytes()
                for name in ("agreement.csv", "item_means.csv")
            ]))
    _expect(
        failures, not outputs or b"r39" in outputs[0][1][0],
        "the deviant rater r39 was not flagged",
    )
    for label, data in outputs[1:]:
        _expect(
            failures, data == outputs[0][1],
            f"{label} run differs from the first",
        )
    _finish("agreement-determinism", failures, started, 60.0)


def test_extract_audio_determinism(tmp_path, monkeypatch):
    """extract-audio output is byte-identical across runs and BLAS thread counts,
    with the forked helper or the serial loop, and for a clip alone or within
    its corpus."""
    from perfeat import cli

    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(79)
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    rate = 22050
    t = np.arange(8 * rate) / rate
    clips = {
        "noise": 0.3 * rng.normal(size=t.size),
        "tones": 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 3100.0 * t),
    }
    for name, x in clips.items():
        # 8 s is 171 frames, more than two blocks; the silent runs leave
        # blocks with a live frame count that is not a multiple of four.
        for first, stop in ((10, 13), (70, 83), (127, 130)):
            x[first * 1024 : (stop - 1) * 1024 + 2048] = 0.0
        (wavs / f"{name}.wav").write_bytes(wav(pcm16(x), rate))

    outputs = []
    for label, threads in (("first", "1"), ("second", "1"), ("threaded", "4")):
        out_dir = tmp_path / label
        env = os.environ.copy()
        for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[variable] = threads
        result = subprocess.run(
            [
                sys.executable, "-m", "perfeat", "extract-audio",
                "--wav-dir", str(wavs), "--out-dir", str(out_dir),
            ],
            capture_output=True, text=True, env=env,
        )
        _expect(
            failures, result.returncode == 0,
            f"{label} run failed: {result.stderr.strip()}",
        )
        if result.returncode == 0:
            outputs.append((label, (out_dir / "audio_features.csv").read_bytes()))
    for label, data in outputs[1:]:
        _expect(
            failures, data == outputs[0][1],
            f"{label} run differs from the first",
        )

    def in_process(label, wav_dir):
        """Runs extract-audio on wav_dir in this process; the output's lines."""
        out_dir = tmp_path / label
        status = cli.main(["extract-audio", "--wav-dir", str(wav_dir),
                           "--out-dir", str(out_dir)])
        _expect(failures, status == 0, f"{label} run exited {status}")
        return (out_dir / "audio_features.csv").read_bytes().splitlines(keepends=True)

    first = outputs[0][1].splitlines(keepends=True) if outputs else []
    with monkeypatch.context() as serial:
        serial.delattr(os, "fork")
        _expect(failures, in_process("serial", wavs) == first,
                "the serial loop's run differs from the helper's")
    # tones is at an odd position, so the helper described it in the full run.
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "tones.wav").write_bytes((wavs / "tones.wav").read_bytes())
    rows = [line for line in first if line.startswith(b"tones,")]
    _expect(failures, in_process("alone", lone) == first[: -len(clips)] + rows,
            "tones alone differs from its row in the corpus")
    _finish("extract-audio-determinism", failures, started, 60.0)


def _random_song(rng):
    """A melody, a bass and a drum track of random notes and velocities."""
    tracks = []
    for channel, keys in ((0, (60, 84)), (1, (36, 52)), (9, (35, 52))):
        events = []
        for _ in range(int(rng.integers(40, 80))):
            key = int(rng.integers(*keys))
            events += [note_on(int(rng.integers(0, 300)), key, int(rng.integers(20, 127)),
                               channel=channel),
                       note_off(int(rng.integers(20, 400)), key, channel=channel)]
        tracks.append(track(*events))
    return smf(*tracks, division=480)


def test_extract_midi_determinism(tmp_path, monkeypatch):
    """extract-midi output is byte-identical across runs, with the forked
    helper or the serial loop, and for a song alone or within its corpus."""
    from perfeat import cli

    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(80)
    songs = {f"song_{i}": _random_song(rng) for i in range(5)}

    def corpus(name, song_ids):
        """Runs extract-midi on song_ids with their sidecars; the output's lines."""
        root = tmp_path / name
        (root / "midi").mkdir(parents=True)
        for song_id in song_ids:
            (root / "midi" / f"{song_id}.mid").write_bytes(songs[song_id])
        (root / "annotations.csv").write_text("song_id,track_id,category\n" + "".join(
            f"{s},0,melody\n{s},1,bass\n" for s in song_ids), encoding="utf-8")
        (root / "tempos.csv").write_text("song_id,beats_per_second\n" + "".join(
            f"{s},{1.5 + 0.25 * int(s[-1])}\n" for s in song_ids), encoding="utf-8")
        monkeypatch.chdir(root)
        status = cli.main(["extract-midi", "--midi-dir", "midi", "--annotations",
                           "annotations.csv", "--tempos", "tempos.csv"])
        _expect(failures, status == 0, f"{name} run exited {status}")
        return (root / "out" / "midi_features.csv").read_bytes().splitlines(keepends=True)

    first = corpus("first", songs)
    _expect(failures, corpus("second", songs) == first, "second run differs from the first")
    with monkeypatch.context() as serial:
        serial.delattr(os, "fork")
        _expect(failures, corpus("serial", songs) == first,
                "the serial loop's run differs from the helper's")
    # song_3 is at an odd position, so the helper described it in the full run.
    alone = corpus("alone", ["song_3"])
    rows = [line for line in first if line.startswith(b"song_3,")]
    _expect(failures, alone == first[: -len(songs)] + rows,
            "song_3 alone differs from its row in the corpus")
    _finish("extract-midi-determinism", failures, started, 60.0)
