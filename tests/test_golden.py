"""Golden bytes of the theory and practice outputs.

The files under tests/data were written by commit 23e6940 (the
theory_c3_cell_log files by commit 0a5ed16, the practice_* and
*.points.csv files by commit 515b64c) with numpy 2.4.6 (CPython 3.11,
x86-64). Every byte of the feature CSV, of the
summary and of the oracle-check table follows the last bit of each
solved root and of each closed-form coefficient, so a change that moves
one bit anywhere in the solve fails here. A numpy whose exp or log
rounds differently may move them too; regenerate the files for such a
change, or for a change of the code that is meant to move them and
says so, never to absorb one that is not.

One change of the code rewrote eight of them on purpose, through the
CLI with the argv below and the same numpy:
- the simplex-ETF basis became numpy's Householder QR instead of a
  modified Gram-Schmidt, which moves its entries by up to about 1e-15
  at C <= 10: theory_c2.*, theory_c10_amplified.*,
  theory_c3_cell_log.*, oracle_check.txt and
  practice_fixed_etf_model.json;
- solve_diff_k took a Newton step on x - k after its outer solve:
  theory_c10_amplified.*, theory_c3_cell_log.* and oracle_check.txt.
The learned-classifier model, the dataset and the activations do not
depend on the basis and kept their bytes.

A later change rewrote two of them the same way: the inner root of
t + exp(t) = r became Newton's method from above in place of a
bracketed solve, which stops on another float within the same
tolerance: theory_c3_cell_log.csv (18 lines) and oracle_check.txt
(7 lines; every status stays ok).

oracle_check.txt was rewritten once more when its m column changed from
two decimals to repr, which tells every two multipliers apart: 144
lines, each in that column only. It was rewritten again when its
lambda_h and lambda columns changed the same way (1.0e-09 to 1e-09,
0.100 to 0.1): 145 lines, the header and every row in those two columns
only.

The cell-log case was found by search: there -beta = 0.00382... is one
of the few inputs at which np.log and math.log differ in the last bit,
so it fails if the kernels take the cell logs with np.log.
"""

import json
from pathlib import Path

import pytest

from mixupgeom.cli import main
from mixupgeom.etf import build_simplex_etf

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
        (
            "--C 3 --m 8.35 --d 3 --lambda-h 0.4 --classes 3 --samples 6 --seed 0",
            {"out": "theory_c3_cell_log.csv", "summary-out": "theory_c3_cell_log.summary.json"},
        ),
    ],
    ids=["two-class", "amplified", "cell-log"],
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


# The practice pipeline: a short training run, its activations and their
# planar view. Every byte of the model follows the last bit of each SGD
# update, so a change to the update arithmetic (a decay term on a bias,
# a step taken before the velocity is updated) fails here.

PRACTICE_CFG = (
    "dataset.samples_per_class = 40\ndataset.seed = 2\ntrain.epochs = 5\ntrain.seed = 3\n"
)


def _write_classifier(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


@pytest.mark.parametrize(
    "extra, files",
    [
        ("", {"out": "practice_model.json", "dataset-out": "practice_dataset.csv"}),
        ("train.classifier_mode = fixed_etf\n", {"out": "practice_fixed_etf_model.json"}),
    ],
    ids=["learned", "fixed-etf"],
)
def test_train_output_matches_the_stored_bytes(tmp_path, capsys, extra, files):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PRACTICE_CFG + extra)
    flags = [arg for flag, name in files.items() for arg in (f"--{flag}", str(tmp_path / name))]
    assert main(["train", "--config", str(cfg), *flags]) == 0
    capsys.readouterr()
    for name in files.values():
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_extract_output_matches_the_stored_bytes(tmp_path, capsys):
    out = tmp_path / "acts.csv"
    argv = ["--model", str(DATA / "practice_model.json"),
            "--dataset", str(DATA / "practice_dataset.csv"),
            "--count", "200", "--seed", "1", "--out", str(out)]
    assert main(["extract", *argv]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "practice_activations.csv").read_bytes()


def test_project_output_matches_the_stored_bytes(tmp_path, capsys):
    # The amplified theory configuration against the first three frame
    # rows, and the activations against the learned classifier's first
    # three rows about their mean.
    clf = tmp_path / "clf.csv"
    _write_classifier(clf, build_simplex_etf(10, 10, 3.0, 0).rows[:3])
    out = tmp_path / "points.csv"
    argv = ["--features", str(DATA / "theory_c10_amplified.csv"), "--classifier", str(clf)]
    assert main(["project", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "theory_c10_amplified.points.csv").read_bytes()

    _write_classifier(clf, json.loads((DATA / "practice_model.json").read_text())["clf_w"][:3])
    argv = ["--features", str(DATA / "practice_activations.csv"), "--classifier", str(clf)]
    assert main(["project", *argv, "--center-mean", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "practice_activations.points.csv").read_bytes()
