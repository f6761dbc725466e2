"""Command-line entry point.

Every command is deterministic given its flags and config values: seeds
are always explicit, output files are written atomically (temp file plus
rename), and repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import calibration, projection, theory, trainer, ufm
from .etf import _read_text, build_simplex_etf, etf_deviation_metrics, read_classifier_csv
from .kernels import KernelSolveError
from .mixup import BetaSpec, make_mixup_batch, mix, sample_lambdas
from .theory import TheoryParams


def _atomic_write(path: str, write) -> None:
    """Run ``write`` on a temporary path beside ``path``, named after this
    process and the target, then rename it into place. ``write`` creates
    the file, so it gets the mode the umask allows. An OSError is raised
    again as 'cannot write <path>: <reason>', naming path, not the
    temporary one."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{name}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


# ---------------------------------------------------------------- theory-solve


def cmd_theory_solve(args) -> int:
    if args.samples < 1:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    if args.classes < 2 or args.classes > args.C:
        print("error: --classes must be in [2, C]", file=sys.stderr)
        return 2
    if args.out and args.summary_out and (
        os.path.realpath(args.out) == os.path.realpath(args.summary_out)
    ):
        print(f"error: --out and --summary-out name the same file {args.out}", file=sys.stderr)
        return 2
    params = TheoryParams(C=args.C, m=args.m, lambda_h=args.lambda_h, d=args.d)
    frame = build_simplex_etf(args.C, args.d, args.m, args.seed)
    rng = np.random.default_rng(args.seed)
    lams = sample_lambdas(BetaSpec(args.alpha), args.samples, rng)
    records = theory.generate_configuration(
        params, frame, range(args.classes), lams, amplified=args.amplify
    )
    report = ufm.total_objective(frame.rows, records, ufm.UfmConfig(lambda_h=args.lambda_h))
    summary_path = args.summary_out
    if args.out:
        _atomic_write(args.out, lambda p: theory.features_to_csv(records, p))
        summary_path = summary_path or args.out + ".summary.json"
    if summary_path:
        summary = {
            "C": args.C,
            "m": args.m,
            "d": args.d,
            "lambda_h": args.lambda_h,
            "classes": args.classes,
            "samples": args.samples,
            "alpha": args.alpha,
            "seed": args.seed,
            "amplified": bool(args.amplify),
            "mean_per_sample_loss": report.mean_per_sample,
        }
        text = json.dumps(summary, indent=2) + "\n"
        _atomic_write(summary_path, lambda p: Path(p).write_text(text))
    print(f"{report.mean_per_sample:.6f}")
    return 0


# ---------------------------------------------------------------- oracle-check


def _parse_list(text: str, cast):
    values = [cast(v) for v in text.split(",") if v.strip()]
    return values


# The tolerances of acceptance criterion 3: the norm of the per-sample
# gradient at a different-class solution, and the same-class residual.
GRAD_TOL, SAME_TOL = 1e-8, 1e-10


def cmd_oracle_check(args) -> int:
    try:
        cs = _parse_list(args.C_list, int)
        ms = _parse_list(args.m_list, float)
        lhs = _parse_list(args.lambda_h_list, float)
        lams = _parse_list(args.lambda_list, float)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cs or not ms or not lhs or not lams:
        print("error: empty oracle grid", file=sys.stderr)
        return 2
    cells = [TheoryParams(C=C, m=m, lambda_h=lh, d=C) for C in cs for m in ms for lh in lhs]
    grid = theory.solve_grid(cells, lams)
    worst = 0.0
    failed = False
    print(f"{'C':>4} {'m':>6} {'lambda_h':>10} {'lambda':>8} {'grad_resid':>12} {'status':>8}")
    for params, (same, sols) in zip(cells, grid):
        C, m, lh = params.C, params.m, params.lambda_h
        frame = build_simplex_etf(C, C, m, seed=0)
        cfg = ufm.UfmConfig(lambda_h=lh)
        for lam, sol in zip(lams, sols):
            h = theory.assemble_feature(sol, frame, 0, 1).h
            resid = float(
                np.linalg.norm(ufm.per_sample_grad(frame.rows, h, 0, 1, lam, cfg))
            )
            worst = max(worst, resid)
            ok = resid <= GRAD_TOL
            failed = failed or not ok
            print(
                f"{C:>4} {m:>6.2f} {lh:>10.1e} {lam:>8.3f} "
                f"{resid:>12.3e} {'ok' if ok else 'FAIL':>8}"
            )
        ok = same.residual <= SAME_TOL
        failed = failed or not ok
        print(
            f"{C:>4} {m:>6.2f} {lh:>10.1e} {'same':>8} "
            f"{same.residual:>12.3e} {'ok' if ok else 'FAIL':>8}"
        )
    if failed:
        print(f"worst residual {worst:.3e} exceeds tolerance", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------- train


def _config_keys() -> dict:
    """Every config key with the type of its value, taken from the
    default: dataset.* are the parameters of trainer.default_dataset_spec,
    train.* the fields of trainer.TrainConfig."""
    spec = inspect.signature(trainer.default_dataset_spec).parameters.values()
    keys = {f"dataset.{p.name}": type(p.default) for p in spec}
    for f in fields(trainer.TrainConfig):
        keys[f"train.{f.name}"] = type(f.default)
    return keys


def parse_config(text: str, path) -> dict:
    """Flat dotted-key config: one `key = value` per line, # comments.

    Unknown keys, duplicate keys and values that do not parse or, for a
    float key, are not finite are rejected as 'path:line: <reason>'.
    """
    known = _config_keys()
    out = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            out[key] = known[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}")
        if isinstance(out[key], float) and not math.isfinite(out[key]):
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r} is not finite")
    return out


def _section(cfg: dict, prefix: str) -> dict:
    """The config values whose keys start with prefix, keyed by the rest."""
    return {k[len(prefix) :]: v for k, v in cfg.items() if k.startswith(prefix)}


def cmd_train(args) -> int:
    cfg = parse_config(_read_text(args.config), args.config)
    spec = trainer.default_dataset_spec(**_section(cfg, "dataset."))
    data = trainer.make_synthetic(spec)
    model = trainer.train(data, trainer.TrainConfig(**_section(cfg, "train.")))
    model_text = trainer.model_to_json(model) + "\n"
    _atomic_write(args.out, lambda p: Path(p).write_text(model_text))
    if args.dataset_out:
        data_text = trainer.dataset_to_csv(*data)
        _atomic_write(args.dataset_out, lambda p: Path(p).write_text(data_text))
    final = model.history[-1] if model.history else None
    if final is not None:
        print(f"final loss {final.loss:.6f} accuracy {final.accuracy:.4f}")
    return 0


# --------------------------------------------------------------------- extract


def _read_model_and_dataset(args):
    """The model and the (inputs, labels) of the dataset named by args; a
    malformed model (named '<path>: model JSON: <reason>'), a label that
    is not a class of the model or a dataset whose width is not the
    model's input_dim raises ValueError."""
    text = _read_text(args.model)
    try:
        model = trainer.model_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    inputs, labels = trainer.dataset_from_csv(
        _read_text(args.dataset), args.dataset, model.num_classes
    )
    if inputs.shape[1] != model.input_dim:
        raise ValueError(
            f"{args.dataset}: dataset rows have {inputs.shape[1]} inputs, "
            f"the model takes {model.input_dim}"
        )
    return model, inputs, labels


def cmd_extract(args) -> int:
    if args.count < 1:
        print("error: --count must be positive", file=sys.stderr)
        return 2
    model, inputs, labels = _read_model_and_dataset(args)
    rng = np.random.default_rng(args.seed)
    batch = make_mixup_batch(
        inputs, labels, BetaSpec(args.alpha), args.count, rng, model.num_classes
    )
    records = trainer.extract_activations(model, batch)
    _atomic_write(args.out, lambda p: theory.features_to_csv(records, p))
    print(f"wrote {len(records)} activation records")
    return 0


# --------------------------------------------------------------------- project


def cmd_project(args) -> int:
    w = read_classifier_csv(args.classifier)
    if w.shape[0] != 3:
        raise ValueError(f"projection needs a 3-row classifier, got {w.shape[0]}")
    op = projection.build_projection(w)
    # Without --center-mean each block of rows is projected as it arrives;
    # with it the blocks are held until the center is known. Rows of the
    # wrong width are parsed and not kept, so that a bad row later in the
    # file is still the error reported.
    blocks, widths = [], set()

    def each(block):
        widths.add(len(block[0].h))
        if len(block[0].h) == w.shape[1]:
            blocks.append(block if args.center_mean else projection.project(op, block))

    records = theory.features_from_csv(args.features, each)
    if widths and widths != {w.shape[1]}:
        raise ValueError(
            f"{args.features} holds features of width {widths.pop()}, "
            f"{args.classifier} holds classifier rows of width {w.shape[1]}"
        )
    if args.center_mean:
        if not records:
            raise ValueError(f"{args.features}: no feature rows to take a mean of")
        # np.mean's axis-0 sum bit for bit, without an n x d copy.
        center = sum(r.h for block in blocks for r in block) / len(records)
        op = projection.build_projection(w, center)
        blocks = [projection.project(op, block) for block in blocks]
    points = np.concatenate([np.empty((0, 2)), *blocks])
    text = projection.points_to_csv(records, points)
    _atomic_write(args.out, lambda p: Path(p).write_text(text))
    print(f"wrote {len(points)} projected points")
    return 0


# ------------------------------------------------------------------------- ece


def cmd_ece(args) -> int:
    conf, pred, lab = calibration.predictions_from_csv(args.predictions)
    report = calibration.ece(conf, pred, lab, args.bins)
    if args.out:
        text = calibration.report_to_json(report) + "\n"
        _atomic_write(args.out, lambda p: Path(p).write_text(text))
    print(f"{report.ece:.6f}")
    return 0


# ----------------------------------------------------------------- etf-metrics


def cmd_etf_metrics(args) -> int:
    metrics = etf_deviation_metrics(read_classifier_csv(args.classifier))
    print(f"{metrics.norm_cv:.12g} {metrics.cosine_std:.12g}")
    return 0


# ------------------------------------------------------------------ trajectory


def cmd_trajectory(args) -> int:
    model, inputs, labels = _read_model_and_dataset(args)
    classes = tuple(_parse_list(args.classes, int))
    if len(classes) != 3:
        raise ValueError(f"--classes needs exactly 3 ids, got {args.classes!r}")
    if len(set(classes)) != 3:
        raise ValueError(f"--classes needs 3 different ids, got {args.classes!r}")
    for c in classes:
        if not 0 <= c < model.num_classes:
            raise ValueError(
                f"--classes id {c} is not a class of the {model.num_classes}-class model"
            )
    batch = mix(inputs, labels, [args.i], [args.j], [args.lam], model.num_classes)
    layers = trainer.layer_trajectory(model, batch.x[0])
    op = projection.build_projection(model.clf_w[list(classes)])
    points = [projection.project_vector(op, h) for h in layers]
    lines = ["layer,px,py"]
    for depth, p in enumerate(points):
        lines.append(f"{depth},{float(p[0])!r},{float(p[1])!r}")
    text = "\n".join(lines) + "\n"
    _atomic_write(args.out, lambda p: Path(p).write_text(text))
    print(f"wrote trajectory of {len(points)} layers")
    return 0


# ----------------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixupgeom",
        description="Geometry of last-layer features under mixup training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "theory-solve",
        help="closed-form optimal feature configuration and its mean loss",
    )
    p.add_argument("--C", type=int, default=10, help="number of classes")
    p.add_argument("--m", type=float, default=3.0, help="classifier row norm")
    p.add_argument("--d", type=int, default=100, help="feature dimension")
    p.add_argument("--lambda-h", type=float, default=1e-6, help="feature decay")
    p.add_argument("--classes", type=int, default=3, help="size of the class subset")
    p.add_argument("--samples", type=int, default=5000, help="lambda draws")
    p.add_argument("--alpha", type=float, default=1.0, help="Beta(alpha, alpha)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplify", action="store_true", help="apply channel amplification")
    p.add_argument("--out", default=None, help="feature CSV output path")
    p.add_argument(
        "--summary-out", default=None, help="JSON summary path (default: OUT.summary.json)"
    )
    p.set_defaults(func=cmd_theory_solve)

    p = sub.add_parser(
        "oracle-check", help="verify closed-form features against the gradient oracle"
    )
    p.add_argument("--C-list", default="3,5,10", help="comma-separated class counts")
    p.add_argument("--m-list", default="1,3", help="comma-separated multipliers")
    p.add_argument(
        "--lambda-h-list", default="1e-6,1e-2", help="comma-separated decay values"
    )
    p.add_argument(
        "--lambda-list",
        default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        help="comma-separated mixing coefficients",
    )
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("train", help="train the MLP from a config file")
    p.add_argument("--config", required=True, help="dotted key-value config path")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--dataset-out", default=None, help="also dump the dataset CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract mixed-sample activations from a model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--dataset", required=True, help="dataset CSV path")
    p.add_argument("--count", type=int, default=1000, help="number of mixed samples")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="feature CSV output path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("project", help="project features onto the 2-D simplex view")
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--classifier", required=True, help="3-row classifier CSV path")
    p.add_argument(
        "--center-mean",
        action="store_true",
        help="subtract the mean feature before projecting (default: origin)",
    )
    p.add_argument("--out", required=True, help="point CSV output path")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("ece", help="expected calibration error of a prediction CSV")
    p.add_argument(
        "--predictions", required=True, help="CSV with confidence,predicted,label"
    )
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--out", default=None, help="JSON report output path")
    p.set_defaults(func=cmd_ece)

    p = sub.add_parser("etf-metrics", help="norm and cosine spread of a classifier CSV")
    p.add_argument("--classifier", required=True)
    p.set_defaults(func=cmd_etf_metrics)

    p = sub.add_parser(
        "trajectory", help="layer-wise projected trajectory of one mixed sample"
    )
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--dataset", required=True, help="dataset CSV path")
    p.add_argument("--i", type=int, required=True, help="first source index")
    p.add_argument("--j", type=int, required=True, help="second source index")
    p.add_argument("--lam", type=float, required=True, help="mixing coefficient")
    p.add_argument("--classes", default="0,1,2", help="3 class ids for the view")
    p.add_argument("--out", required=True, help="trajectory CSV output path")
    p.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    """Run one command. A bad input, a failed solve or a lack of memory
    prints one 'error: <message>' line and returns 1; bad flags return 2."""
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, KernelSolveError, trainer.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
