"""Golden bytes of the theory output.

The files under tests/data were written by commit 23e6940 with numpy
2.4.6 (CPython 3.11, x86-64). Every byte of the feature CSV, of the
summary and of the oracle-check table follows the last bit of each
solved root and of each closed-form coefficient, so a change that moves
one bit anywhere in the solve fails here. A numpy whose exp or log
rounds differently may move them too; regenerate the files only for
such a change, never to absorb a change of the code.
"""

from pathlib import Path

import pytest

from mixupgeom.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, files",
    [
        (
            "--C 2 --m 1.5 --d 2 --lambda-h 1e-3 --classes 2 --samples 12 "
            "--alpha 0.05 --seed 3",
            {"out": "theory_c2.csv", "summary-out": "theory_c2.summary.json"},
        ),
        (
            "--C 10 --m 3 --d 10 --lambda-h 1e-6 --classes 3 --samples 8 --seed 0 "
            "--amplify",
            {"out": "theory_c10_amplified.csv"},
        ),
    ],
    ids=["two-class", "amplified"],
)
def test_theory_solve_output_matches_the_stored_bytes(tmp_path, capsys, argv, files):
    flags = [arg for flag, name in files.items() for arg in (f"--{flag}", str(tmp_path / name))]
    assert main(["theory-solve", *argv.split(), *flags]) == 0
    capsys.readouterr()
    for name in files.values():
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_oracle_check_output_matches_the_stored_bytes(capsys):
    argv = ["--C-list", "2,3,7", "--m-list", "0.5,3", "--lambda-h-list", "1e-9,1e-3"]
    assert main(["oracle-check", *argv]) == 0
    assert capsys.readouterr().out == (DATA / "oracle_check.txt").read_text()
