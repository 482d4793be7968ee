"""Command-line front end: train, run, eval, pretrain.

Config precedence is CLI flag > config file > built-in default.  Exit codes
are stable for scripting: 0 success, 1 usage, 2 file I/O, 3 numeric failure.
"""

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from .core import GroundTruthImage, atomic_write_text, load_image, psnr
from .engine import (
    RunConfig,
    SimulatedSource,
    SourceQueryError,
    run_random_baseline,
    run_sampling,
    save_checkpoint_artifacts,
    save_history_csv,
)
from .pgm import PgmError
from .recon import IdwParams
from .regress import ErdModel, prediction_path
from .regress.mlp import TrainingDivergedError
from .regress.modelio import ModelFormatError, load_model, save_model
from .synth import generic_texture
from .training import TrainingSchedule, save_training_csv, train_erd_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to the usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _density_list(text: str):
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad density list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("density list is empty")
    return values


def resolve_threads() -> int:
    """SLADS_THREADS: unset -> 1, 0 -> all cores, N -> N."""
    raw = os.environ.get("SLADS_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"SLADS_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise UsageError("SLADS_THREADS must be >= 0")
    if n == 0:
        return os.cpu_count() or 1
    return n


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; keys use underscores."""
    out = {}
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = body.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# (dest, converter, default) per option that participates in config merging
_OPTION_TABLE = {
    "regressor": (str, "nn"),
    "activation": (str, "relu"),
    "densities": (_density_list, None),  # per-command default below
    "samples_per_level": (int, 500),
    "seed": (int, 0),
    "initial": (float, 0.01),
    "budget": (float, 0.40),
    "repeats": (int, 10),
    "noise_sigma": (float, 0.0),
    "window": (int, 15),
    "neighbors": (int, 10),
}

_TRAIN_DENSITIES = (0.01, 0.05, 0.10, 0.20, 0.30, 0.40)
_CHECKPOINT_DENSITIES = (0.10, 0.20, 0.30, 0.40)


def merge_option(args, config: dict, name: str, command_default=None):
    """CLI value if given, else config file value, else the default."""
    cli_value = getattr(args, name, None)
    if cli_value is not None:
        return cli_value
    conv, table_default = _OPTION_TABLE[name]
    if name in config:
        try:
            return conv(config[name])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {name}: {exc}")
    if command_default is not None:
        return command_default
    return table_default


def effective_config_text(pairs) -> str:
    lines = [f"{k}={v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _load_images(paths):
    images, ids = [], []
    for p in paths:
        images.append(load_image(p))
        ids.append(os.path.splitext(os.path.basename(p))[0])
    return images, ids


def _fit_and_save(images, image_ids, args, config, out_path, pretrained, extra):
    regressor = merge_option(args, config, "regressor")
    if regressor not in ("lsq", "svr", "nn"):
        raise UsageError(f"--regressor must be lsq, svr or nn, got {regressor!r}")
    activation = merge_option(args, config, "activation")
    if activation not in ("relu", "identity"):
        raise UsageError(f"--activation must be relu or identity, got {activation!r}")
    seed = merge_option(args, config, "seed")
    window = merge_option(args, config, "window")
    k_neighbors = merge_option(args, config, "neighbors")
    densities = merge_option(args, config, "densities", _TRAIN_DENSITIES)
    samples = merge_option(args, config, "samples_per_level")

    schedule = TrainingSchedule(
        densities=densities, samples_per_level=samples, rd_window=window, seed=seed
    )
    params = IdwParams(neighbors=k_neighbors, window=window)
    t0 = time.perf_counter()
    model, db, diag = train_erd_model(
        images,
        schedule,
        params,
        kind=regressor,
        activation=activation,
        seed=seed,
        pretrained=pretrained,
        extra=extra,
        image_ids=image_ids,
    )
    elapsed = time.perf_counter() - t0
    save_model(model, out_path)
    if getattr(args, "db_out", None):
        save_training_csv(db, args.db_out)
    fit_note = ", ".join(f"{k}={v}" for k, v in sorted(diag.items()))
    print(f"trained kind={regressor} rows={db.n} [{fit_note}] in {elapsed:.1f}s")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    if not args.images:
        raise UsageError("at least one training image required (--images)")
    images, ids = _load_images(args.images)
    extra = {"image_sha256": [_sha256_file(p) for p in args.images]}
    return _fit_and_save(images, ids, args, config, args.out, False, extra)


def cmd_pretrain(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    if args.image:
        image = load_image(args.image)
        ids = [os.path.splitext(os.path.basename(args.image))[0]]
        extra = {"image_sha256": [_sha256_file(args.image)]}
    else:
        image = generic_texture()
        ids = ["generic"]
        digest = hashlib.sha256(image.values.tobytes()).hexdigest()
        extra = {"image_sha256": [digest]}
    return _fit_and_save([image], ids, args, config, args.out, True, extra)


def _idw_overrides(args, config):
    """(window, neighbors) from a flag or --config; None where neither sets one."""
    return tuple(
        merge_option(args, config, name)
        if getattr(args, name, None) is not None or name in config
        else None
        for name in ("window", "neighbors")
    )


def _resolve_idw(model, window, k_neighbors) -> IdwParams:
    """model's IdwParams (the defaults for no model) with non-None overrides."""
    idw = model.idw if model is not None else IdwParams()
    return IdwParams(
        neighbors=idw.neighbors if k_neighbors is None else k_neighbors,
        power=idw.power,
        window=idw.window if window is None else window,
    )


def _matmul_note(model) -> str:
    """The product path prediction runs for model; "none" for the random baseline."""
    return "none" if model is None else prediction_path(model)


def _run_config(args, config, model: ErdModel, workers: int) -> RunConfig:
    initial = merge_option(args, config, "initial")
    budget = merge_option(args, config, "budget")
    checkpoints = merge_option(args, config, "densities", _CHECKPOINT_DENSITIES)
    seed = merge_option(args, config, "seed")
    idw = _resolve_idw(model, *_idw_overrides(args, config))
    try:
        return RunConfig(
            initial_density=initial,
            budget_density=budget,
            checkpoint_densities=checkpoints,
            seed=seed,
            idw=idw,
            workers=workers,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_run(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    model = load_model(args.model)
    image = load_image(args.image)
    noise_sigma = merge_option(args, config, "noise_sigma")
    workers = resolve_threads()
    run_config = _run_config(args, config, model, workers)

    os.makedirs(args.out, exist_ok=True)
    source = SimulatedSource(image, noise_sigma=noise_sigma, seed=run_config.seed)
    run = run_sampling(source, model, run_config, ground_truth=image)

    save_history_csv(run, os.path.join(args.out, "history.csv"))
    save_checkpoint_artifacts(run, args.out)
    pairs = [
        ("model", os.path.abspath(args.model)),
        ("image", os.path.abspath(args.image)),
        ("initial", run_config.initial_density),
        ("budget", run_config.budget_density),
        ("densities", ",".join(str(d) for d in run_config.checkpoint_densities)),
        ("seed", run_config.seed),
        ("noise_sigma", noise_sigma),
        ("window", run_config.idw.window),
        ("neighbors", run_config.idw.neighbors),
        ("scoring", run_config.scoring),
        ("workers", run_config.workers),
        ("matmul", prediction_path(model)),
    ]
    atomic_write_text(os.path.join(args.out, "effective.cfg"), effective_config_text(pairs))
    final_psnr = psnr(image.values, run.final_reconstruction.values)
    print(
        f"measured {run.measured_count} pixels "
        f"({run_config.budget_density:.0%} budget), psnr {final_psnr:.2f} dB, "
        f"loop {run.wall_time_s:.1f}s"
    )
    print(f"artifacts in {args.out}")
    return EXIT_OK


def _eval_one(task):
    """One (method, seed) run; module-level so process pools can pickle it."""
    (label, model_path, image_path, noise_sigma, cfg_fields, window, k_neighbors) = task
    image = load_image(image_path)
    model = None if model_path is None else load_model(model_path)
    # reconstruction params follow the model unless flags or --config override them
    idw = _resolve_idw(model, window, k_neighbors)
    config = RunConfig(idw=idw, **cfg_fields)
    source = SimulatedSource(image, noise_sigma=noise_sigma, seed=config.seed)
    try:
        if model is None:
            run = run_random_baseline(source, config, ground_truth=image)
        else:
            run = run_sampling(source, model, config, ground_truth=image)
    except (SourceQueryError, TrainingDivergedError, FloatingPointError) as exc:
        return (label, config.seed, None, str(exc))
    rows = [(cp.density, cp.psnr_db, cp.distortion, cp.elapsed_s) for cp in run.checkpoints]
    return (label, config.seed, rows, None)


def cmd_eval(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    methods = []
    models = {}
    for path in args.model or []:
        label = os.path.splitext(os.path.basename(path))[0]
        models[label] = load_model(path)  # validate early, before any runs are spent
        methods.append((label, path))
    for name in args.method or []:
        if name != "random":
            raise UsageError(f"--method supports only 'random', got {name!r}")
        methods.append(("random", None))
        models["random"] = None
    if not methods:
        raise UsageError("nothing to evaluate: pass --model and/or --method random")
    image = load_image(args.image)
    del image  # existence/format check only; workers reload per run

    noise_sigma = merge_option(args, config, "noise_sigma")
    repeats = merge_option(args, config, "repeats")
    if repeats < 1:
        raise UsageError("--repeats must be >= 1")
    base_seed = merge_option(args, config, "seed")
    workers = resolve_threads()
    run_config = _run_config(args, config, None, 1)
    window, k_neighbors = _idw_overrides(args, config)

    tasks = []
    for label, path in methods:
        for r in range(repeats):
            fields = {
                "initial_density": run_config.initial_density,
                "budget_density": run_config.budget_density,
                "checkpoint_densities": run_config.checkpoint_densities,
                "seed": base_seed + r,
                "scoring": run_config.scoring,
                "workers": 1,
            }
            tasks.append(
                (
                    label,
                    path,
                    os.path.abspath(args.image),
                    noise_sigma,
                    fields,
                    window,
                    k_neighbors,
                )
            )

    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_one, tasks))
    else:
        results = [_eval_one(t) for t in tasks]

    by_method = {label: [] for label, _ in methods}
    aborted = []
    for label, seed, rows, err in results:
        if err is None:
            by_method[label].append(rows)
        else:
            aborted.append((label, seed, err))

    lines = ["method,density,psnr_mean,psnr_std,distortion_mean,wall_time_mean_s"]
    densities = run_config.checkpoint_densities
    for label, _ in methods:
        runs = by_method[label]
        if not runs:
            for d in densities:
                lines.append(f"{label},{repr(float(d))},nan,nan,nan,nan")
            continue
        for di, d in enumerate(densities):
            p = np.array([r[di][1] for r in runs])
            dist = np.array([r[di][2] for r in runs])
            wall = np.array([r[di][3] for r in runs])
            wall_mean = float("nan") if args.no_walltime else float(wall.mean())
            lines.append(
                f"{label},{repr(float(d))},{repr(float(p.mean()))},"
                f"{repr(float(p.std()))},{repr(float(dist.mean()))},{repr(wall_mean)}"
            )
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    idws = {label: _resolve_idw(model, window, k_neighbors) for label, model in models.items()}

    def per_method(value):
        return ";".join(f"{label}:{value(label)}" for label, _ in methods)

    pairs = [
        ("image", os.path.abspath(args.image)),
        ("methods", ";".join(label for label, _ in methods)),
        ("initial", run_config.initial_density),
        ("budget", run_config.budget_density),
        ("densities", ",".join(str(d) for d in densities)),
        ("seed", base_seed),
        ("repeats", repeats),
        ("noise_sigma", noise_sigma),
        ("window", per_method(lambda label: idws[label].window)),
        ("neighbors", per_method(lambda label: idws[label].neighbors)),
        ("matmul", per_method(lambda label: _matmul_note(models[label]))),
    ]
    atomic_write_text(args.out + ".cfg", effective_config_text(pairs))
    print(f"wrote {args.out} ({len(methods)} methods x {repeats} repeats)")
    if aborted:
        for label, seed, err in aborted:
            print(f"aborted: method={label} seed={seed}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sparsescan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit an ERD model from training images")
    train.add_argument("--images", nargs="+", required=True, metavar="PGM")
    train.add_argument("--out", required=True, metavar="MODEL")
    train.add_argument("--db-out", default=None, metavar="CSV", dest="db_out")
    train.set_defaults(func=cmd_train)

    pre = sub.add_parser("pretrain", help="fit the generic pre-trained model")
    pre.add_argument("--image", default=None, metavar="PGM")
    pre.add_argument("--out", required=True, metavar="MODEL")
    pre.set_defaults(func=cmd_pretrain)

    run = sub.add_parser("run", help="one sampling run with artifacts")
    run.add_argument("--model", required=True, metavar="MODEL")
    run.add_argument("--image", required=True, metavar="PGM")
    run.add_argument("--out", required=True, metavar="DIR")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="repeat runs and tabulate psnr vs density")
    ev.add_argument("--model", nargs="*", default=None, metavar="MODEL")
    ev.add_argument("--method", action="append", default=None, metavar="NAME")
    ev.add_argument("--image", required=True, metavar="PGM")
    ev.add_argument("--out", required=True, metavar="CSV")
    ev.add_argument("--repeats", type=int, default=None)
    ev.add_argument("--no-walltime", action="store_true", dest="no_walltime")
    ev.set_defaults(func=cmd_eval)

    for p in (train, pre):
        p.add_argument("--regressor", default=None, metavar="{lsq,svr,nn}")
        p.add_argument("--activation", default=None, metavar="{relu,identity}")
        p.add_argument("--densities", type=_density_list, default=None)
        p.add_argument("--samples-per-level", type=int, default=None, dest="samples_per_level")
    for p in (run, ev):
        p.add_argument("--initial", type=float, default=None)
        p.add_argument("--budget", type=float, default=None)
        p.add_argument("--densities", type=_density_list, default=None)
        p.add_argument("--noise-sigma", type=float, default=None, dest="noise_sigma")
    for p in (train, pre, run, ev):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--neighbors", type=int, default=None)
        p.add_argument("--config", default=None, metavar="FILE")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"sparsescan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, PgmError, ModelFormatError) as exc:
        print(f"sparsescan: file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SourceQueryError, TrainingDivergedError, FloatingPointError) as exc:
        print(f"sparsescan: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"sparsescan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
