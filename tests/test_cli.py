import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mixupgeom
from mixupgeom import _floattext, calibration, cli, theory
from mixupgeom.cli import main, parse_config
from mixupgeom.etf import build_simplex_etf


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_rows(path, rows):
    """A classifier CSV: one line of shortest round-trip floats per row."""
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def test_theory_solve_prints_six_decimal_loss(tmp_path, capsys):
    out = tmp_path / "features.csv"
    code, stdout, _ = run(
        ["theory-solve", "--samples", "50", "--seed", "0", "--out", str(out)],
        capsys,
    )
    assert code == 0
    value = stdout.strip()
    assert len(value.split(".")[1]) == 6
    assert out.exists()
    assert (tmp_path / "features.csv.summary.json").exists()


def test_theory_solve_rejects_zero_samples(capsys):
    code, _, stderr = run(["theory-solve", "--samples", "0"], capsys)
    assert code != 0
    assert "samples" in stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_theory_solve_rejects_an_infinite_alpha(capsys):
    code, stdout, stderr = run(["theory-solve", "--samples", "3", "--alpha", "inf"], capsys)
    assert (code, stdout, stderr) == (1, "", "error: alpha must be positive and finite, got inf\n")


def test_theory_solve_rejects_a_dimension_below_the_class_count(tmp_path, capsys):
    out = tmp_path / "features.csv"
    code, stdout, stderr = run(
        ["theory-solve", "--C", "10", "--d", "5", "--samples", "3", "--out", str(out)], capsys
    )
    assert (code, stdout) == (1, "")
    assert stderr == "error: feature dimension 5 must be >= class count 10\n"
    assert not out.exists()


def test_theory_solve_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["theory-solve", "--samples", "20", "--out", str(a)], capsys)
    run(["theory-solve", "--samples", "20", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_theory_solve_converges_with_the_tail_root_near_zero(capsys):
    # The tail root here is k ~ -2.5e-7.
    code, _, stderr = run(
        ["theory-solve", "--C", "1000", "--d", "1000", "--m", "0.05",
         "--lambda-h", "10", "--classes", "2", "--samples", "5"],
        capsys,
    )
    assert code == 0, stderr


def test_outputs_get_the_mode_the_umask_allows(tmp_path, capsys):
    out = tmp_path / "features.csv"
    old = os.umask(0o022)
    try:
        code, _, _ = run(["theory-solve", "--samples", "3", "--out", str(out)], capsys)
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, tmp_path / "features.csv.summary.json"):
        assert path.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize(
    "flag", ["theory-solve --out", "theory-solve --summary-out", "train --out",
             "train --dataset-out", "extract --out"],
)
def test_an_output_in_a_missing_directory_is_one_error_line(tmp_path, capsys, flag):
    command, option = flag.split()
    target = f"{tmp_path}/missing/x.csv"
    if command == "theory-solve":
        argv = ["theory-solve", "--samples", "3", option, target]
    elif command == "train":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dataset.samples_per_class = 5\ntrain.epochs = 1\n")
        outs = {"--out": str(tmp_path / "m.json"), "--dataset-out": str(tmp_path / "d.csv")}
        outs[option] = target
        argv = ["train", "--config", str(cfg), *(v for item in outs.items() for v in item)]
    else:
        model, data = _trained(tmp_path, capsys)
        argv = ["extract", "--model", str(model), "--dataset", str(data), "--out", target]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: cannot write {target}: No such file or directory\n"
    assert not list(tmp_path.rglob(".tmp-*"))


def test_an_output_that_is_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code, stdout, stderr = run(["theory-solve", "--samples", "3", "--out", str(target)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: cannot write {target}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_theory_solve_writes_summary_without_features(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, stdout, _ = run(
        ["theory-solve", "--samples", "3", "--summary-out", str(summary)], capsys
    )
    assert code == 0
    loss = json.loads(summary.read_text())["mean_per_sample_loss"]
    assert f"{loss:.6f}" == stdout.strip()
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("spelling", ["same", "relative", "symlink"])
def test_theory_solve_refuses_one_file_for_features_and_summary(tmp_path, capsys, spelling):
    out = tmp_path / "x.csv"
    summary = {
        "same": out,
        "relative": os.path.relpath(out),
        "symlink": tmp_path / "link.csv",
    }[spelling]
    if spelling == "symlink":
        os.symlink(out, summary)
    code, stdout, stderr = run(
        ["theory-solve", "--samples", "2", "--out", str(out), "--summary-out", str(summary)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --out and --summary-out name the same file {out}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["theory-solve", "ece"])
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,predicted,label\n0.9,0,0\n")
    monkeypatch.setattr(cli, "sample_lambdas", exhausted)
    monkeypatch.setattr(calibration, "ece", exhausted)
    argv = {
        "theory-solve": ["theory-solve", "--samples", "3"],
        "ece": ["ece", "--predictions", str(preds), "--bins", "15"],
    }[command]
    assert run(argv, capsys) == (
        1, "", "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    )


def test_oracle_check_small_grid(capsys):
    code, stdout, _ = run(
        [
            "oracle-check",
            "--C-list", "3",
            "--m-list", "1",
            "--lambda-h-list", "1e-2",
            "--lambda-list", "0.25,0.5",
        ],
        capsys,
    )
    assert code == 0
    assert "ok" in stdout


def test_oracle_check_one_cell_at_a_thousand_classes(capsys):
    argv = ["oracle-check", "--C-list", "1000", "--m-list", "1", "--lambda-h-list", "1e-6"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "FAIL" not in stdout


def test_oracle_check_one_cell_at_two_thousand_classes(capsys):
    argv = ["oracle-check", "--C-list", "2000", "--m-list", "1", "--lambda-h-list", "1e-6"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert "FAIL" not in stdout


def test_oracle_check_prints_each_multiplier_apart_in_one_column(capsys):
    argv = ["oracle-check", "--C-list", "2", "--m-list", "1e-5,2e-5,0.5,1e150",
            "--lambda-h-list", "1e-10", "--lambda-list", "0.5"]
    _, stdout, _ = run(argv, capsys)
    header, *rows = stdout.splitlines()
    # Each cell prints its lambda line and its same-class line.
    assert [row.split()[1] for row in rows] == [
        "1e-05", "1e-05", "2e-05", "2e-05", "0.5", "0.5", "1e+150", "1e+150"
    ]
    assert {len(row) for row in rows} == {len(header)}
    end = header.index("m") + 1
    assert all(row[end - 1] != " " and row[end] == " " for row in rows)


def test_oracle_check_prints_each_decay_and_lambda_apart_in_one_column(capsys):
    argv = ["oracle-check", "--C-list", "2", "--m-list", "1",
            "--lambda-h-list", "1e-9,1.01e-9", "--lambda-list", "0.5,0.5001"]
    _, stdout, _ = run(argv, capsys)
    header, *rows = stdout.splitlines()
    cells = [row.split()[2:4] for row in rows]
    assert cells == [
        ["1e-09", "0.5"], ["1e-09", "0.5001"], ["1e-09", "same"],
        ["1.01e-09", "0.5"], ["1.01e-09", "0.5001"], ["1.01e-09", "same"],
    ]
    assert len({tuple(row.split()[:4]) for row in rows}) == len(rows)
    assert {len(row) for row in rows} == {len(header)}
    for name in ("lambda_h", "lambda "):
        end = header.index(name) + len(name.strip())
        assert all(row[end - 1] != " " and row[end] == " " for row in rows)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(
    _cpus() < 2,
    reason="one CPU: OpenBLAS then runs one thread whatever OPENBLAS_NUM_THREADS asks for",
)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: build_simplex_etf(1000, 1000, 3, 0) differs in its last bits "
    "between one and two BLAS threads",
)
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(mixupgeom.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def cli_stdout(threads, *argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        command = [sys.executable, "-m", "mixupgeom.cli", *argv]
        return subprocess.run(
            command, env=env, capture_output=True, check=True, timeout=300
        ).stdout

    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"features-{threads}.csv"
        solve = cli_stdout(threads, "theory-solve", "--C", "1000", "--d", "1000",
                           "--classes", "3", "--samples", "20", "--out", str(out))
        oracle = cli_stdout(threads, "oracle-check", "--C-list", "1000")
        summary = Path(f"{out}.summary.json").read_bytes()
        outputs.append({"theory-solve stdout": solve, "feature CSV": out.read_bytes(),
                        "summary": summary, "oracle-check stdout": oracle})
    differ = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    assert not differ


def test_oracle_check_negative_control(capsys, monkeypatch):
    # Features shifted off the optimum by 0.05 in every component.
    assemble = theory.assemble_feature

    def shifted(solution, etf, i, ip):
        record = assemble(solution, etf, i, ip)
        record.h = record.h + 0.05
        return record

    monkeypatch.setattr(theory, "assemble_feature", shifted)
    code, stdout, stderr = run(
        [
            "oracle-check",
            "--C-list", "3",
            "--m-list", "1",
            "--lambda-h-list", "1e-2",
            "--lambda-list", "0.5",
        ],
        capsys,
    )
    assert code == 1
    assert "FAIL" in stdout
    assert re.fullmatch(r"worst residual \S+ exceeds tolerance\n", stderr)


def test_oracle_check_has_no_perturb_flag(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["oracle-check", "--perturb", "0.05"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --perturb 0.05" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--C-list", "1", "need at least 2 classes, got 1"),
        ("--m-list", "0", "multiplier must be finite and nonzero, got 0.0"),
        ("--lambda-h-list", "0", "lambda_h must be positive and finite, got 0.0"),
        ("--lambda-list", "1.5", "lambda must be in [0, 1], got 1.5"),
    ],
)
def test_oracle_check_rejects_a_value_outside_the_domain(capsys, flag, value, message):
    code, stdout, stderr = run(["oracle-check", flag, value], capsys)
    assert code == 1
    assert stderr == f"error: {message}\n"
    assert stdout == ""


def test_oracle_check_empty_grid(capsys):
    code, _, stderr = run(["oracle-check", "--C-list", ""], capsys)
    assert code == 2
    assert "empty" in stderr


@pytest.mark.parametrize("flag, value", [("--C-list", "3.5"), ("--m-list", "1,abc")])
def test_oracle_check_rejects_a_grid_value_that_is_not_a_number(capsys, flag, value):
    code, stdout, stderr = run(["oracle-check", flag, value], capsys)
    assert code == 2
    assert stderr.startswith("error: ") and value.split(",")[-1] in stderr
    assert stdout == ""


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="^c.cfg:2: unknown config key 'train.optimizer'$"):
        parse_config("train.epochs = 3\ntrain.optimizer = adam\n", "c.cfg")
    with pytest.raises(ValueError, match="^c.cfg:2: duplicate config key 'train.epochs'$"):
        parse_config("train.epochs = 3\ntrain.epochs = 4\n", "c.cfg")


def test_train_extract_project_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "dataset.samples_per_class = 40\n"
        "dataset.seed = 0\n"
        "train.epochs = 3\n"
        "train.seed = 0\n"
    )
    model = tmp_path / "model.json"
    data = tmp_path / "data.csv"
    code, _, _ = run(
        ["train", "--config", str(cfg), "--out", str(model), "--dataset-out", str(data)],
        capsys,
    )
    assert code == 0 and model.exists() and data.exists()

    acts = tmp_path / "acts.csv"
    code, stdout, _ = run(
        [
            "extract", "--model", str(model), "--dataset", str(data),
            "--count", "10", "--seed", "1", "--out", str(acts),
        ],
        capsys,
    )
    assert code == 0 and "10" in stdout

    clf = tmp_path / "clf.csv"
    frame = build_simplex_etf(3, 16, 1.0, seed=0)
    _write_rows(clf, frame.rows)
    points = tmp_path / "points.csv"
    code, _, _ = run(
        ["project", "--features", str(acts), "--classifier", str(clf),
         "--out", str(points)],
        capsys,
    )
    assert code == 0
    assert points.read_text().startswith("class_i,class_ip,lambda,kind,amplified,px,py")

    traj = tmp_path / "traj.csv"
    code, _, _ = run(
        ["trajectory", "--model", str(model), "--dataset", str(data),
         "--i", "0", "--j", "50", "--lam", "0.4", "--out", str(traj)],
        capsys,
    )
    assert code == 0
    lines = traj.read_text().strip().split("\n")
    assert lines[0] == "layer,px,py" and len(lines) == 4  # 3 hidden layers


def _trained(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dataset.samples_per_class = 40\ntrain.epochs = 3\n")
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    code, _, stderr = run(
        ["train", "--config", str(cfg), "--out", str(model), "--dataset-out", str(data)],
        capsys,
    )
    assert code == 0, stderr
    return model, data


def _extract(model, data, out, capsys, *flags):
    return run(
        ["extract", "--model", str(model), "--dataset", str(data), "--out", str(out),
         *flags],
        capsys,
    )


def test_extract_tags_classes_from_the_hard_labels(tmp_path, capsys):
    # At alpha = 0.05 many lambdas round to exactly 0 or 1, where the soft
    # label of a different-class pair is one-hot.
    model, data = _trained(tmp_path, capsys)
    acts = tmp_path / "acts.csv"
    code, _, stderr = _extract(
        model, data, acts, capsys, "--alpha", "0.05", "--count", "2000", "--seed", "0"
    )
    assert code == 0, stderr
    rows = [line.split(",")[:4] for line in acts.read_text().split("\n")[1:] if line]
    assert len(rows) == 2000
    assert any(float(lam) in (0.0, 1.0) and i != ip for i, ip, lam, _ in rows)
    for i, ip, _, kind in rows:
        assert (kind == "same_class") == (i == ip)


@pytest.mark.parametrize("label", ["-1", "3"])
def test_extract_rejects_a_label_outside_the_model_classes(tmp_path, capsys, label):
    model, data = _trained(tmp_path, capsys)
    lines = data.read_text().split("\n")
    lines[5] = label + lines[5][lines[5].index(",") :]
    data.write_text("\n".join(lines))
    code, _, stderr = _extract(model, data, tmp_path / "acts.csv", capsys)
    assert (code, stderr) == (
        1, f"error: {data}:6: bad dataset row: label {label} is not a class of the "
        "3-class model\n"
    )


@pytest.mark.parametrize("command", ["extract", "trajectory"])
def test_a_bad_label_after_a_blank_line_is_named_by_its_own_line(tmp_path, capsys, command):
    model, data = _trained(tmp_path, capsys)
    lines = data.read_text().split("\n")
    lines[5] = "-1" + lines[5][lines[5].index(",") :]
    lines.insert(1, "")
    data.write_text("\n".join(lines))
    out = tmp_path / "out.csv"
    argv = [command, "--model", str(model), "--dataset", str(data), "--out", str(out)]
    if command == "trajectory":
        argv += ["--i", "0", "--j", "1", "--lam", "0.5"]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout, stderr) == (
        1, "", f"error: {data}:7: bad dataset row: label -1 is not a class of the "
        "3-class model\n"
    )
    assert not out.exists()


def test_extract_rejects_a_model_without_clf_b(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    doc = json.loads(model.read_text())
    del doc["clf_b"]
    model.write_text(json.dumps(doc))
    code, _, stderr = _extract(model, data, tmp_path / "acts.csv", capsys)
    assert code == 1
    assert stderr.startswith(f"error: {model}: model JSON: missing key 'clf_b'")


def test_extract_rejects_a_model_with_a_nan_weight(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    doc = json.loads(model.read_text())
    doc["weights"][0][0][0] = math.nan
    model.write_text(json.dumps(doc))
    out = tmp_path / "acts.csv"
    code, stdout, stderr = _extract(model, data, out, capsys, "--count", "5")
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: {model}: model JSON: layer 0 weights hold a value that is not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.replace('"history": [', '"history": 5, "old": ['),
         "history must be a list of objects"),
        (lambda t: re.sub(r'"history": \[.*\]', '"history": [1]', t, flags=re.S),
         "history must be a list of objects"),
        (lambda t: t.replace('"num_classes": 3', '"num_classes": null'),
         "num_classes must be an integer, got None"),
        (lambda t: t.replace('"input_dim": 2', '"input_dim": 2.7'),
         "input_dim must be an integer, got 2.7"),
        (lambda t: t.replace('"input_dim": 2', '"input_dim": "x"'),
         "input_dim must be an integer, got 'x'"),
        (lambda t: '{"config": {',
         "Expecting property name enclosed in double quotes: line 1 column 13 (char 12)"),
        (lambda t: t.replace('"activation": "relu"', '"activation": "foo"'),
         "bad config: unknown activation 'foo'"),
    ],
    ids=["history 5", "history [1]", "num_classes null", "input_dim 2.7", "input_dim x",
         "cut short", "activation foo"],
)
def test_extract_and_trajectory_name_the_model_file_of_a_malformed_model(
    tmp_path, capsys, edit, message
):
    model, data = _trained(tmp_path, capsys)
    case = tmp_path / "case.json"
    case.write_text(edit(model.read_text()))
    out = tmp_path / "a.csv"
    for argv in (
        ["extract", "--model", str(case), "--dataset", str(data), "--count", "5"],
        ["trajectory", "--model", str(case), "--dataset", str(data),
         "--i", "0", "--j", "50", "--lam", "0.4"],
    ):
        code, stdout, stderr = run([*argv, "--out", str(out)], capsys)
        assert (code, stdout, stderr) == (1, "", f"error: {case}: model JSON: {message}\n")
        assert sorted(os.listdir(tmp_path)) == ["case.json", "cfg.txt", "data.csv", "model.json"]


def test_extract_refuses_activations_that_are_not_finite(tmp_path, capsys):
    # Weights near the largest float overflow the first layer to inf.
    model, data = _trained(tmp_path, capsys)
    doc = json.loads(model.read_text())
    doc["weights"][0] = [[1e308] * len(row) for row in doc["weights"][0]]
    model.write_text(json.dumps(doc))
    out = tmp_path / "acts.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code, stdout, stderr = _extract(model, data, out, capsys, "--count", "5")
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"error: feature record \d+: value (-?inf|nan) is not finite\n", stderr)
    assert not out.exists()
    assert not list(tmp_path.glob(".tmp-*"))


def test_trajectory_rejects_a_negative_source_index(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    code, _, stderr = run(
        ["trajectory", "--model", str(model), "--dataset", str(data),
         "--i", "-1", "--j", "0", "--lam", "0.5", "--out", str(tmp_path / "t.csv")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error: source index i=-1 ")
    assert not (tmp_path / "t.csv").exists()


def test_trajectory_rejects_a_class_id_outside_the_model(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    for classes in ("-1,0,1", "0,1,3"):
        code, _, stderr = run(
            ["trajectory", "--model", str(model), "--dataset", str(data),
             "--i", "0", "--j", "50", "--lam", "0.4", f"--classes={classes}",
             "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 1
        bad = classes.split(",")[0 if classes.startswith("-") else 2]
        assert stderr.startswith(f"error: --classes id {bad} is not a class of the 3-class")
        assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "classes, message",
    [
        ("0,1", "--classes needs exactly 3 ids, got '0,1'"),
        ("0,0,1", "--classes needs 3 different ids, got '0,0,1'"),
        ("2,1,2", "--classes needs 3 different ids, got '2,1,2'"),
    ],
)
def test_trajectory_rejects_a_view_that_is_not_three_classes(tmp_path, capsys, classes, message):
    model, data = _trained(tmp_path, capsys)
    code, stdout, stderr = run(
        ["trajectory", "--model", str(model), "--dataset", str(data),
         "--i", "0", "--j", "50", "--lam", "0.4", f"--classes={classes}",
         "--out", str(tmp_path / "t.csv")],
        capsys,
    )
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "t.csv").exists()


def _with_extra_input(data):
    """The dataset CSV with a third input column of zeros."""
    lines = data.read_text().strip().split("\n")
    data.write_text("\n".join([lines[0] + ",x_2"] + [line + ",0.0" for line in lines[1:]]))


def test_extract_and_trajectory_reject_a_dataset_of_the_wrong_width(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    _with_extra_input(data)
    message = f"error: {data}: dataset rows have 3 inputs, the model takes 2\n"
    code, _, stderr = _extract(model, data, tmp_path / "acts.csv", capsys)
    assert (code, stderr) == (1, message)
    code, _, stderr = run(
        ["trajectory", "--model", str(model), "--dataset", str(data),
         "--i", "0", "--j", "1", "--lam", "0.5", "--out", str(tmp_path / "t.csv")],
        capsys,
    )
    assert (code, stderr) == (1, message)


def test_extract_names_the_line_of_a_ragged_dataset_row(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    lines = data.read_text().split("\n")
    lines[4] = lines[4].rsplit(",", 1)[0]
    data.write_text("\n".join(lines))
    code, _, stderr = _extract(model, data, tmp_path / "acts.csv", capsys)
    assert code == 1
    assert stderr == f"error: {data}:5: bad dataset row: 1 input values, the header has 2\n"


@pytest.mark.parametrize("center", [[], ["--center-mean"]], ids=["origin", "center-mean"])
def test_project_names_both_files_when_the_widths_differ(tmp_path, capsys, center):
    feats, clf, out = tmp_path / "features.csv", tmp_path / "clf.csv", tmp_path / "p.csv"
    feats.write_text(
        "class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_2,h_3\n"
        "0,1,0.5,different_class,0,1.0,2.0,3.0,4.0\n"
    )
    _write_rows(clf, np.eye(3))
    code, stdout, stderr = run(
        ["project", "--features", str(feats), "--classifier", str(clf), *center,
         "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: {feats} holds features of width 4, {clf} holds classifier rows "
        "of width 3\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("center", [[], ["--center-mean"]], ids=["origin", "center-mean"])
def test_project_through_a_classifier_narrower_than_three_is_one_error_line(
    tmp_path, capsys, center
):
    feats, clf, out = tmp_path / "features.csv", tmp_path / "clf.csv", tmp_path / "p.csv"
    feats.write_text(
        "class_i,class_ip,lambda,kind,amplified,h_0,h_1\n0,1,0.5,different_class,0,1.0,2.0\n"
    )
    _write_rows(clf, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    code, stdout, stderr = run(
        ["project", "--features", str(feats), "--classifier", str(clf), *center,
         "--out", str(out)],
        capsys,
    )
    assert (code, stdout, stderr) == (
        1, "", "error: projection needs classifier rows of width 3 or more, got 2\n"
    )
    assert not out.exists()


def test_project_names_the_line_of_a_malformed_feature_row(tmp_path, capsys):
    feats = tmp_path / "features.csv"
    code, _, _ = run(
        ["theory-solve", "--samples", "2", "--d", "12", "--out", str(feats)], capsys
    )
    assert code == 0
    clf = tmp_path / "clf.csv"
    _write_rows(clf, build_simplex_etf(10, 12, 3.0, seed=0).rows[:3])
    lines = feats.read_text().split("\n")
    lines[3] = ",".join(lines[3].split(",")[:-3])
    feats.write_text("\n".join(lines))
    code, _, stderr = run(
        ["project", "--features", str(feats), "--classifier", str(clf),
         "--out", str(tmp_path / "p.csv")],
        capsys,
    )
    assert code == 1
    assert stderr == f"error: {feats}:4: bad feature row: 9 h values, the header has 12\n"


def _project_rows_free_features(tmp_path, capsys, *flags):
    """Run project on a feature CSV that has a header and no rows."""
    feats, clf = tmp_path / "features.csv", tmp_path / "clf.csv"
    feats.write_text("class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_2\n")
    _write_rows(clf, np.eye(3))
    argv = ["project", "--features", str(feats), "--classifier", str(clf)]
    return feats, run([*argv, *flags, "--out", str(tmp_path / "p.csv")], capsys)


@pytest.mark.filterwarnings("error")
def test_project_center_mean_of_a_file_without_rows_is_one_error_line(tmp_path, capsys):
    feats, result = _project_rows_free_features(tmp_path, capsys, "--center-mean")
    assert result == (1, "", f"error: {feats}: no feature rows to take a mean of\n")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.filterwarnings("error")
def test_project_of_a_file_without_rows_writes_the_header(tmp_path, capsys):
    _, result = _project_rows_free_features(tmp_path, capsys)
    assert result == (0, "wrote 0 projected points\n", "")
    assert (tmp_path / "p.csv").read_text() == "class_i,class_ip,lambda,kind,amplified,px,py\n"


def _wide_features(path):
    """theory-wide's feature CSV: C = 10, d = 1000, all 10 classes and 10
    lambda, 1000 rows of 1000 floats."""
    params = theory.TheoryParams(C=10, m=3.0, lambda_h=1e-6)
    frame = build_simplex_etf(10, 1000, 3.0, seed=0)
    lams = list(np.random.default_rng(0).uniform(size=10))
    theory.features_to_csv(theory.generate_configuration(params, frame, range(10), lams), path)
    return frame.rows[:3]


def test_project_of_a_thousand_wide_rows_holds_no_matrix(tmp_path, capsys):
    # The rows would take 8 MB; each piece of about 96 KB of text is
    # projected as it is parsed. The bound was fixed before the first run.
    feats, clf, out = tmp_path / "features.csv", tmp_path / "clf.csv", tmp_path / "p.csv"
    _write_rows(clf, _wide_features(feats))
    tracemalloc.start()
    try:
        code = main(["project", "--features", str(feats), "--classifier", str(clf),
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == "wrote 1000 projected points\n"
    assert peak < 4_000_000


def test_project_center_mean_is_the_python_sum_of_the_rows_bit_for_bit(
    tmp_path, capsys, monkeypatch
):
    feats, clf = tmp_path / "features.csv", tmp_path / "clf.csv"
    rng = np.random.default_rng(6)
    # Several reader blocks; column 0 all -0.0, whose sum from 0 is +0.0.
    h = rng.normal(size=(300, 40)) * np.exp(rng.normal(scale=8.0, size=(300, 40)))
    h[:, 0] = -0.0
    h[::3, 1] = -0.0
    fronts = [(k % 3, (k + 1) % 3, 0.5, False) for k in range(len(h))]
    theory.features_to_csv((fronts, h), feats)
    _write_rows(clf, rng.normal(size=(3, 40)))
    centers = []
    build = cli.projection.build_projection

    def recording(w, activation_mean=None):
        centers.append(activation_mean)
        return build(w, activation_mean)

    monkeypatch.setattr(cli.projection, "build_projection", recording)
    monkeypatch.setattr(_floattext, "CHUNK", 400)
    argv = ["project", "--features", str(feats), "--classifier", str(clf), "--center-mean"]
    assert run([*argv, "--out", str(tmp_path / "points.csv")], capsys)[0] == 0
    want = sum(row for row in h) / len(h)
    assert centers[-1].tobytes() == want.tobytes()
    assert math.copysign(1.0, centers[-1][0]) == 1.0


@pytest.mark.parametrize("center", [[], ["--center-mean"]], ids=["origin", "center-mean"])
def test_project_in_small_blocks_on_several_processes_keeps_every_byte(
    tmp_path, capsys, monkeypatch, center
):
    feats, clf = tmp_path / "features.csv", tmp_path / "clf.csv"
    params = theory.TheoryParams(C=10, m=3.0, lambda_h=1e-6)
    frame = build_simplex_etf(10, 100, 3.0, seed=0)
    config = theory.generate_configuration(
        params, frame, [0, 1, 2], [0.0, 0.2, 0.5, 0.7, 1.0], amplified=True
    )
    theory.features_to_csv(config, feats)
    _write_rows(clf, np.random.default_rng(0).normal(size=(3, 100)))
    argv = ["project", "--features", str(feats), "--classifier", str(clf), *center]
    assert run([*argv, "--out", str(tmp_path / "p1.csv")], capsys)[0] == 0
    # About 2 rows a piece of text (CHUNK * WINDOW bytes), so that every
    # process hands on several.
    longest = max(map(len, feats.read_bytes().split(b"\n")))
    monkeypatch.setattr(_floattext, "CHUNK", 2 * longest // _floattext.WINDOW + 1)
    for n in (1, 2, 3):
        monkeypatch.setattr(theory, "_process_count", lambda floats: n)
        out = tmp_path / f"p{n}-small.csv"
        assert run([*argv, "--out", str(out)], capsys) == (0, "wrote 45 projected points\n", "")
        assert out.read_bytes() == (tmp_path / "p1.csv").read_bytes()
    # Every child was waited for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("center", [[], ["--center-mean"]], ids=["origin", "center-mean"])
def test_project_names_the_line_of_a_bad_row_in_a_child(
    tmp_path, capsys, monkeypatch, center, processes
):
    feats, clf, out = tmp_path / "features.csv", tmp_path / "clf.csv", tmp_path / "p.csv"
    good = "0,1,0.5,different_class,0,1.0,2.0,3.0"
    rows = [good] * 30
    rows[27] = "0,1,0.5,different_class,0,1.0,2.0"
    feats.write_text("class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_2\n" + "\n".join(rows))
    _write_rows(clf, np.eye(3))
    # About 2 rows a piece of text: CHUNK * WINDOW = 96 bytes.
    monkeypatch.setattr(_floattext, "CHUNK", 4)
    monkeypatch.setattr(theory, "_process_count", lambda floats: processes)
    code, stdout, stderr = run(
        ["project", "--features", str(feats), "--classifier", str(clf), *center,
         "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {feats}:29: bad feature row: 2 h values, the header has 3\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["theory-solve", "project"])
def test_a_child_that_ends_without_a_result_is_one_error_line(
    tmp_path, capsys, monkeypatch, command
):
    out, parent = tmp_path / "out.csv", os.getpid()

    def dies(work):
        def in_the_child_only(*args):
            if os.getpid() != parent:
                os._exit(3)
            return work(*args)

        return in_the_child_only

    if command == "theory-solve":
        argv = ["theory-solve", "--samples", "20", "--out", str(out)]
        monkeypatch.setattr(_floattext, "rows_bytes", dies(_floattext.rows_bytes))
    else:
        feats, clf = tmp_path / "features.csv", tmp_path / "clf.csv"
        assert run(["theory-solve", "--samples", "20", "--out", str(feats)], capsys)[0] == 0
        _write_rows(clf, np.random.default_rng(0).normal(size=(3, 100)))
        argv = ["project", "--features", str(feats), "--classifier", str(clf), "--out", str(out)]
        monkeypatch.setattr(theory, "_parse_piece", dies(theory._parse_piece))
    # The reader's parts go to the temporary directory.
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(theory, "_process_count", lambda floats: 2)
    files, fds = sorted(os.listdir(tmp_path)), os.listdir("/proc/self/fd")
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"error: feature CSV worker \d+ ended without a result \(exit 3\)\n", stderr)
    assert sorted(os.listdir(tmp_path)) == files and not os.listdir(tmp_path / "tmp")
    assert os.listdir("/proc/self/fd") == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("center", [[], ["--center-mean"]], ids=["origin", "center-mean"])
def test_project_names_the_classifier_when_both_files_are_bad(tmp_path, capsys, center):
    argv, _ = _bad_feature_row(tmp_path, capsys)
    clf = tmp_path / "clf.csv"
    clf.write_text("1.0,0.0,0.0\n0.0,1.0\n0.0,0.0,1.0\n")
    code, stdout, stderr = run([*argv, *center], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {clf}:2: bad classifier row: 2 values, the first row has 3\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_extract_rejects_a_count_below_one(tmp_path, capsys, count):
    model, data = _trained(tmp_path, capsys)
    out = tmp_path / "acts.csv"
    code, stdout, stderr = _extract(model, data, out, capsys, "--count", count)
    assert (code, stdout, stderr) == (2, "", "error: --count must be positive\n")
    assert not out.exists()


def test_a_negative_seed_flag_is_named(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    out = tmp_path / "out.csv"
    for argv in (
        ["theory-solve", "--samples", "3", "--seed", "-1", "--out", str(out)],
        ["extract", "--model", str(model), "--dataset", str(data), "--out", str(out),
         "--seed", "-1"],
    ):
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout, stderr) == (2, "", "error: --seed must be non-negative\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "key, message",
    [("train.seed", "training seed must be non-negative, got -2"),
     ("dataset.seed", "dataset seed must be non-negative, got -2")],
)
def test_a_negative_seed_key_is_named(tmp_path, capsys, key, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"train.epochs = 1\n{key} = -2\n")
    model = tmp_path / "m.json"
    code, stdout, stderr = run(["train", "--config", str(cfg), "--out", str(model)], capsys)
    assert (code, stdout, stderr) == (1, "", f"error: {cfg}:2: {key}: {message}\n")
    assert not model.exists()


def test_train_reads_every_dataset_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "dataset.num_classes = 4\ndataset.input_dim = 3\ndataset.mean_scale = 6\n"
        "dataset.noise_scale = 0.1\ndataset.samples_per_class = 5\n"
        "dataset.seed = 2\ntrain.epochs = 1\n"
    )
    data = tmp_path / "data.csv"
    code, _, stderr = run(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.json"),
         "--dataset-out", str(data)],
        capsys,
    )
    assert code == 0, stderr
    lines = data.read_text().strip().split("\n")
    assert lines[0] == "label,x_0,x_1,x_2" and len(lines) == 21
    assert sorted({int(line.split(",")[0]) for line in lines[1:]}) == [0, 1, 2, 3]
    radii = [np.hypot(*map(float, line.split(",")[1:3])) for line in lines[1:]]
    assert all(abs(r - 6.0) < 1.0 for r in radii)


def test_train_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("train.epochs = banana\n")
    code, _, stderr = run(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")], capsys
    )
    assert code == 1
    assert stderr == f"error: {cfg}:1: bad value for train.epochs: 'banana'\n"
    cfg.write_text("dataset.input_dim = 0\n")
    code, _, stderr = run(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")], capsys
    )
    assert code == 1
    assert "input dimension" in stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "config, message",
    [
        ("train.learning_rate = 1000.0\n", "non-finite loss nan at epoch 0"),
        ("dataset.num_classes = 1\n", "training needs at least 2 classes, the dataset has 1"),
        (
            "train.classifier_mode = fixed_etf\ntrain.width = 2\n",
            "fixed_etf needs a width of at least the class count: width 2, 3 classes",
        ),
        (
            "train.epochs = 0\ndataset.noise_scale = nan\n",
            "{cfg}:2: bad value for dataset.noise_scale: 'nan' is not finite",
        ),
        (
            "dataset.mean_scale = inf\n",
            "{cfg}:1: bad value for dataset.mean_scale: 'inf' is not finite",
        ),
        (
            "train.learning_rate = nan\n",
            "{cfg}:1: bad value for train.learning_rate: 'nan' is not finite",
        ),
        (
            "train.weight_decay = -inf\n",
            "{cfg}:1: bad value for train.weight_decay: '-inf' is not finite",
        ),
        ("train.epochs = -1\n", "{cfg}:1: train.epochs: epochs must be nonnegative, got -1"),
        (
            "train.epochs = 1\n# no samples\ndataset.samples_per_class = 0\n",
            "{cfg}:3: dataset.samples_per_class: need at least one sample per class",
        ),
        ("dataset.num_classes = -1\n", "{cfg}:1: dataset.num_classes: need at least one class"),
        (
            "dataset.input_dim = 0\n",
            "{cfg}:1: dataset.input_dim: need at least one input dimension",
        ),
        (
            "dataset.noise_scale = -0.5\n",
            "{cfg}:1: dataset.noise_scale: noise_scale must be nonnegative, got -0.5",
        ),
        ("train.batch_size = 0\n", "{cfg}:1: train.batch_size: batch_size must be positive, got 0"),
        (
            "train.epochs = 1\ntrain.momentum = 1.0\n",
            "{cfg}:2: train.momentum: momentum must be in [0, 1), got 1.0",
        ),
        ("train.activation = tanhh\n", "{cfg}:1: train.activation: unknown activation 'tanhh'"),
    ],
    ids=[
        "diverging", "one class", "fixed_etf narrower than the classes",
        "nan noise_scale", "inf mean_scale", "nan learning_rate", "-inf weight_decay",
        "negative epochs", "no samples per class", "negative num_classes", "zero input_dim",
        "negative noise_scale", "zero batch_size", "momentum 1", "unknown activation",
    ],
)
def test_a_run_that_cannot_train_is_one_error_line_and_writes_nothing(
    tmp_path, capsys, config, message
):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    model, data = tmp_path / "m.json", tmp_path / "data.csv"
    code, stdout, stderr = run(
        ["train", "--config", str(cfg), "--out", str(model), "--dataset-out", str(data)],
        capsys,
    )
    assert (code, stdout, stderr) == (1, "", f"error: {message.format(cfg=cfg)}\n")
    assert os.listdir(tmp_path) == ["cfg.txt"]


def test_ece_hand_case(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "confidence,predicted,label\n0.9,0,0\n0.8,1,1\n0.6,0,1\n0.55,2,2\n"
    )
    code, stdout, _ = run(
        ["ece", "--predictions", str(preds), "--bins", "2"], capsys
    )
    assert code == 0
    assert stdout.strip() == "0.037500"


def test_ece_bad_file(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,predicted,label\n0.9,0\n")
    code, _, stderr = run(["ece", "--predictions", str(preds)], capsys)
    assert code == 1
    assert ":2:" in stderr


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,0,1", "confidence 'nan' is not finite"),
        ("inf,0,1", "confidence 'inf' is not finite"),
        ("0.8,2,2,7", "4 fields, expected 3"),
        ("0.8,2", "2 fields, expected 3"),
        ("1.5,0,1", "confidence '1.5' is outside [0, 1]"),
        ("-0.1,0,1", "confidence '-0.1' is outside [0, 1]"),
        ("0.5,1,-4", "class ids must not be negative, got 1 and -4"),
        ("0.5,-1,0", "class ids must not be negative, got -1 and 0"),
    ],
)
def test_ece_names_the_line_of_a_malformed_row(tmp_path, capsys, row, message):
    preds = tmp_path / "preds.csv"
    preds.write_text(f"confidence,predicted,label\n0.9,0,0\n{row}\n0.7,1,1\n")
    code, stdout, stderr = run(["ece", "--predictions", str(preds)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {preds}:3: bad prediction row: {message}\n"


def _bad_feature_row(tmp_path, capsys):
    feats, clf = tmp_path / "features.csv", tmp_path / "clf.csv"
    feats.write_text(
        "class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_2\n"
        "0,1,0.5,different_class,0,1.0,2.0,3.0\n\n0,1,0.5,mixed,0,1.0,2.0,3.0\n"
    )
    _write_rows(clf, np.eye(3))
    argv = ["project", "--features", str(feats), "--classifier", str(clf),
            "--out", str(tmp_path / "p.csv")]
    return argv, f"{feats}:4: bad feature row: unknown kind 'mixed'"


def _non_finite_feature_row(value):
    def case(tmp_path, capsys):
        argv, _ = _bad_feature_row(tmp_path, capsys)
        feats = tmp_path / "features.csv"
        feats.write_text(
            feats.read_text().replace("mixed,0,1.0,2.0", f"different_class,0,1.0,{value}")
        )
        return argv, f"{feats}:4: bad feature row: value {value} is not finite"

    return case


def _bad_feature_front(front, reason):
    def case(tmp_path, capsys):
        argv, _ = _bad_feature_row(tmp_path, capsys)
        feats = tmp_path / "features.csv"
        feats.write_text(feats.read_text().replace("0,1,0.5,mixed", front))
        return argv, f"{feats}:4: bad feature row: {reason}"

    return case


def _mismatched_kind_row(tmp_path, capsys):
    argv, _ = _bad_feature_row(tmp_path, capsys)
    feats = tmp_path / "features.csv"
    feats.write_text(feats.read_text().replace("0,1,0.5,mixed", "1,1,0.5,different_class"))
    return argv, f"{feats}:4: bad feature row: kind different_class does not match classes 1 and 1"


def _bad_dataset_row(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    lines = data.read_text().split("\n")
    label, _, x_1 = lines[3].split(",")
    lines[3] = f"{label},nan,{x_1}"
    data.write_text("\n".join(lines))
    argv = ["extract", "--model", str(model), "--dataset", str(data), "--count", "200",
            "--out", str(tmp_path / "acts.csv")]
    return argv, f"{data}:4: bad dataset row: value nan is not finite"


def _bad_classifier_row(tmp_path, capsys):
    clf = tmp_path / "clf.csv"
    clf.write_text("1.0,0.0\n0.0,1.0\n\n1.0\n")
    return ["etf-metrics", "--classifier", str(clf)], (
        f"{clf}:4: bad classifier row: 1 values, the first row has 2"
    )


def _bad_prediction_row(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("confidence,predicted,label\n0.9,0,0\n1.5,1,1\n")
    return ["ece", "--predictions", str(preds), "--out", str(tmp_path / "ece.json")], (
        f"{preds}:3: bad prediction row: confidence '1.5' is outside [0, 1]"
    )


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"


def _not_utf8_classifier(tmp_path, capsys):
    clf = tmp_path / "clf.csv"
    clf.write_bytes(b"1.0,2.0,3.0\n4.0,5.0,6\xff.0\n")
    return ["etf-metrics", "--classifier", str(clf)], f"{clf}:2: {_NOT_UTF8.format(9)}"


def _not_utf8_predictions(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_bytes(b"confidence,predicted,label\n0.9,0,0\n0.8,\xff,1\n")
    return ["ece", "--predictions", str(preds)], f"{preds}:3: {_NOT_UTF8.format(4)}"


def _not_utf8_dataset(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    lines = data.read_bytes().split(b"\n")
    lines[3] = b"\xff" + lines[3]
    data.write_bytes(b"\n".join(lines))
    argv = ["extract", "--model", str(model), "--dataset", str(data),
            "--out", str(tmp_path / "acts.csv")]
    return argv, f"{data}:4: {_NOT_UTF8.format(0)}"


def _not_utf8_model(tmp_path, capsys):
    model, data = _trained(tmp_path, capsys)
    lines = model.read_bytes().split(b"\n")
    at = len(lines[2])
    lines[2] += b"\xff"
    model.write_bytes(b"\n".join(lines))
    argv = ["extract", "--model", str(model), "--dataset", str(data),
            "--out", str(tmp_path / "acts.csv")]
    return argv, f"{model}:3: {_NOT_UTF8.format(at)}"


def _not_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"train.epochs = 3\ntrain.seed = \xff\n")
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]
    return argv, f"{cfg}:2: {_NOT_UTF8.format(13)}"


def _not_utf8_feature_header(tmp_path, capsys):
    argv, _ = _bad_feature_row(tmp_path, capsys)
    feats = tmp_path / "features.csv"
    feats.write_bytes(feats.read_bytes().replace(b"h_2\n", b"h_\xff\n", 1))
    at = len("class_i,class_ip,lambda,kind,amplified,h_0,h_1,h_")
    return argv, f"{feats}:1: {_NOT_UTF8.format(at)}"


def _not_utf8_feature_row(tmp_path, capsys):
    argv, _ = _bad_feature_row(tmp_path, capsys)
    feats = tmp_path / "features.csv"
    feats.write_bytes(feats.read_bytes().replace(b"mixed", b"mix\xffed"))
    return argv, f"{feats}:4: bad feature row: {_NOT_UTF8.format(11)}"


@pytest.mark.parametrize(
    "case",
    [
        _bad_feature_row, _mismatched_kind_row, _non_finite_feature_row("nan"),
        _non_finite_feature_row("inf"),
        _bad_feature_front("0,1,nan,different_class", "lambda nan is not in [0, 1]"),
        _bad_feature_front("-1,1,0.5,different_class", "class -1 is negative"),
        _bad_dataset_row, _bad_classifier_row, _bad_prediction_row,
        _not_utf8_classifier, _not_utf8_predictions, _not_utf8_dataset, _not_utf8_model,
        _not_utf8_config, _not_utf8_feature_header, _not_utf8_feature_row,
    ],
    ids=[
        "features", "feature kind", "feature nan", "feature inf", "feature lambda",
        "feature class", "dataset", "classifier", "predictions", "classifier utf-8",
        "predictions utf-8", "dataset utf-8", "model utf-8", "config utf-8",
        "feature header utf-8", "feature utf-8",
    ],
)
def test_every_reader_names_the_path_and_line_of_a_bad_row(tmp_path, capsys, case):
    argv, message = case(tmp_path, capsys)
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize(
    "what, header, expected",
    [
        ("feature", "class_i,class_ip,lambda,h_0", "class_i,class_ip,lambda,kind,amplified,h_0,..."),
        (
            "feature",
            "class_i,class_ip,lambda,kind,amplified,foo,bar,baz",
            "class_i,class_ip,lambda,kind,amplified,h_0,...",
        ),
        (
            "feature",
            "class_i,class_ip,lambda,kind,amplified,h_0,h_0,h_0",
            "class_i,class_ip,lambda,kind,amplified,h_0,...",
        ),
        ("dataset", "x_0,x_1", "label,x_0,..."),
        ("dataset", "label,y,z", "label,x_0,..."),
        ("prediction", "confidence,label,predicted", "confidence,predicted,label"),
    ],
)
def test_every_reader_names_line_1_of_a_wrong_header(tmp_path, capsys, what, header, expected):
    path, clf, out = tmp_path / "input.csv", tmp_path / "clf.csv", str(tmp_path / "out")
    if what == "feature":
        _write_rows(clf, np.eye(3))
        argv = ["project", "--features", str(path), "--classifier", str(clf), "--out", out]
    elif what == "dataset":
        model, path = _trained(tmp_path, capsys)
        argv = ["extract", "--model", str(model), "--dataset", str(path), "--out", out]
    else:
        argv = ["ece", "--predictions", str(path)]
    path.write_text(f"{header}\n0,1\n")
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {path}:1: expected {what} header '{expected}'\n"


@pytest.mark.parametrize("what", ["classifier", "dataset", "prediction"])
def test_every_reader_names_a_file_without_rows(tmp_path, capsys, what):
    path = tmp_path / "input.csv"
    if what == "classifier":
        path.write_text("\n")
        argv = ["etf-metrics", "--classifier", str(path)]
    elif what == "dataset":
        model, _ = _trained(tmp_path, capsys)
        path.write_text("label,x_0,x_1\n\n")
        argv = ["extract", "--model", str(model), "--dataset", str(path),
                "--out", str(tmp_path / "acts.csv")]
    else:
        path.write_text("confidence,predicted,label\n")
        argv = ["ece", "--predictions", str(path)]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout, stderr) == (1, "", f"error: {path}: empty {what} file\n")


def test_etf_metrics_on_exact_frame(tmp_path, capsys):
    clf = tmp_path / "clf.csv"
    _write_rows(clf, build_simplex_etf(4, 7, 2.0, seed=0).rows)
    code, stdout, _ = run(["etf-metrics", "--classifier", str(clf)], capsys)
    assert code == 0
    cv, cs = (float(v) for v in stdout.split())
    assert cv < 1e-12 and cs < 1e-12


def test_etf_metrics_rejects_a_non_finite_classifier_value(tmp_path, capsys):
    clf = tmp_path / "clf.csv"
    clf.write_text("1.0,0.0,0.0\nnan,1.0,0.0\n0.0,0.0,1.0\n")
    code, stdout, stderr = run(["etf-metrics", "--classifier", str(clf)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {clf}:2: bad classifier row: value nan is not finite\n"


@pytest.mark.filterwarnings("error")
def test_theory_solve_reports_an_unsolvable_cell_in_one_line(capsys):
    # -beta underflows and the same-class rhs overflows at this cell; no
    # numpy warning may reach stderr ahead of the error.
    argv = ["theory-solve", "--m", "1e150", "--lambda-h", "1e-300", "--samples", "3"]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: same-class equation (C=10, m2=9.999999999999999e+299, lh=1e-300): "
        "no sign change in [-700.0, 50.0]\n"
    )


@pytest.mark.filterwarnings("error")
def test_a_lambda_over_minus_beta_that_overflows_is_one_error_line(capsys):
    # m**2 is finite, but -beta is subnormal and lam/(-beta) overflows;
    # the solve names it before any root find and no numpy warning shows.
    argv = ["oracle-check", "--C-list", "3", "--m-list", "1e150",
            "--lambda-h-list", "1e-10", "--lambda-list", "0.5"]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: different-class fixed point (C=3, m2=9.999999999999999e+299, lh=1e-10, "
        "lam=0.5): lam/(-beta) is not finite\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["theory-solve", "--m", "1e200", "--samples", "3"], ["oracle-check", "--m-list", "3,1e200"]],
    ids=["theory-solve", "oracle-check"],
)
def test_a_multiplier_whose_square_overflows_is_one_error_line(capsys, argv):
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "error: multiplier m=1e+200 has no positive finite square\n"


def test_help_available_for_every_command(capsys):
    for cmd in [
        "theory-solve", "oracle-check", "train", "extract",
        "project", "ece", "etf-metrics", "trajectory",
    ]:
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
