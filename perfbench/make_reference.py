"""Regenerate the committed reference outputs of the default seed.

    python3 perfbench/make_reference.py

Builds each workload's default-seed corpus under ``.perfbench/``, runs one
pass of its commands and copies the CSVs to ``perfbench/reference/<workload>/``.
Run it only when the corpus generator or the commands change on purpose:
the reference is what later versions of the program are checked against.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import checks
import corpus


def main() -> int:
    h = corpus.attach_program()
    import perfeat.cli as cli

    here = os.getcwd()
    for workload in corpus.WORKLOADS:
        work = run.WORK_ROOT / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        os.chdir(work)
        try:
            built = corpus.build(h, workload, corpus.DEFAULT_SEED, Path("in"))
            _, _, errors = run.run_pass(cli, built.commands, Path("out"))
            problems = checks.check_outputs(built, Path("out"))
            if errors or any(problems.values()):
                print(f"{workload}: {errors} {problems}", file=sys.stderr)
                return 1
            target = checks.REFERENCE_DIR / workload
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name in run.output_names(built.commands):
                shutil.copyfile(Path("out") / name, target / name)
        finally:
            os.chdir(here)
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: reference written to {target.relative_to(corpus.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
