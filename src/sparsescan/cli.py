"""Command-line front end: train, run, eval, pretrain.

One table (``_OPTION_TABLE``) declares each option a flag or --config can set:
its converter, its default and the subcommands that take it; build_parser adds
the flags from it.  main resolves every option once, before the command runs:
CLI flag, else the --config file, else the built-in default
(``resolve_options``).  Exit codes are stable for scripting: 0 success,
1 usage, 2 file I/O, 3 numeric failure.
"""

import argparse
import dataclasses
import hashlib
import math
import os
import re
import sys
import time

import numpy as np

from .core import atomic_write, load_image, psnr
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
from .regress import KINDS, prediction_path
from .regress.mlp import ACTIVATIONS, MlpConfig, TrainingDivergedError
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -inf and -nan read as values, as negative numbers do, for the converter to check
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|^-(?:inf|infinity|nan)$", re.IGNORECASE
        )

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


def _at_least(conv, low):
    """conv, then a check that the value is at least low and, if a float, finite."""

    def convert(text: str):
        value = conv(text)
        # isfinite only on floats: it overflows on an int of 309 digits or more
        if not value >= low or (isinstance(value, float) and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"expected a finite value >= {low}, got {text!r}")
        return value

    convert.__name__ = conv.__name__  # argparse names a failed conversion by it
    return convert


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


# dest: (converter, default, subcommands); the flag is --dest with dashes.
# window and neighbors default to None, so they follow the model
_FIT = ("train", "pretrain")
_SAMPLE = ("run", "eval")
_OPTION_TABLE = {
    "regressor": (str, "nn", _FIT),
    "activation": (str, MlpConfig.activation, _FIT),
    "densities": (_density_list, None, _FIT + _SAMPLE),  # the command's class default
    "samples_per_level": (int, TrainingSchedule.samples_per_level, _FIT),
    "seed": (_at_least(int, 0), RunConfig.seed, _FIT + _SAMPLE),
    "initial": (float, RunConfig.initial_density, _SAMPLE),
    "budget": (float, RunConfig.budget_density, _SAMPLE),
    "repeats": (_at_least(int, 1), 10, ("eval",)),
    "noise_sigma": (_at_least(float, 0), 0.0, _SAMPLE),
    "window": (int, None, _FIT + _SAMPLE),
    "neighbors": (int, None, _FIT + _SAMPLE),
}
# keys run's effective.cfg records but no option reads, accepted so it replays as --config
_RECORD_ONLY_KEYS = ("model", "image", "matmul")


def resolve_options(args) -> None:
    """Set each table option args defines and no flag set: --config value, else default.

    A --config key no command takes is a usage error; a key for another
    command's option is accepted, so one file can serve several commands.
    """
    config = read_config_file(args.config) if args.config else {}
    for key in config:
        if key not in _OPTION_TABLE and key not in _RECORD_ONLY_KEYS:
            raise UsageError(f"{args.config}: unknown config key {key!r}")
    for name, (conv, default, _) in _OPTION_TABLE.items():
        if not hasattr(args, name) or getattr(args, name) is not None:
            continue
        if name in config:
            try:
                default = conv(config[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {name}: {exc}")
        setattr(args, name, default)


def _write_config(path, pairs) -> None:
    atomic_write(path, "".join(f"{k}={v}\n" for k, v in pairs).encode())


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _seconds(seconds: float) -> str:
    """Seconds cut down to whole milliseconds, so printed parts never add up past a printed total."""
    return f"{math.floor(seconds * 1000) / 1000:.3f}"


def _make_parent_dirs(*paths) -> None:
    """Create each given output path's directory, as run does its --out, before the work."""
    for path in filter(None, paths):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def _fit_and_save(args, pretrained, load_inputs):
    """Check the options, then fit on load_inputs() = (images, ids, extra) and save."""
    if args.regressor not in KINDS:
        raise UsageError(f"--regressor must be lsq, svr or nn, got {args.regressor!r}")
    if args.activation not in ACTIVATIONS:
        raise UsageError(f"--activation must be relu or identity, got {args.activation!r}")
    params = _resolve_idw(None, args.window, args.neighbors)
    schedule = TrainingSchedule(
        densities=args.densities or TrainingSchedule.densities,
        samples_per_level=args.samples_per_level,
        rd_window=params.window,
        seed=args.seed,
    )
    images, image_ids, extra = load_inputs()
    _make_parent_dirs(args.out, getattr(args, "db_out", None))
    t0 = time.perf_counter()
    model, db, diag = train_erd_model(
        images,
        schedule,
        params,
        kind=args.regressor,
        activation=args.activation,
        seed=args.seed,
        pretrained=pretrained,
        extra=extra,
        image_ids=image_ids,
    )
    elapsed = time.perf_counter() - t0
    save_model(model, args.out)
    if getattr(args, "db_out", None):
        save_training_csv(db, args.db_out)
    fit_note = ", ".join(
        f"{k}={_seconds(v) if k.endswith('_s') else v}" for k, v in sorted(diag.items())
    )
    print(f"trained kind={args.regressor} rows={db.n} [{fit_note}] in {_seconds(elapsed)}s")
    print(f"wrote {args.out}")
    return EXIT_OK


def _image_inputs(paths):
    """The images at paths, read in order, their ids and their provenance."""
    images = [load_image(p) for p in paths]
    ids = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    return images, ids, {"image_sha256": [_sha256_file(p) for p in paths]}


def _generic_inputs():
    image = generic_texture()
    digest = hashlib.sha256(image.values.tobytes()).hexdigest()
    return [image], ["generic"], {"image_sha256": [digest]}


def cmd_train(args) -> int:
    if not args.images:
        raise UsageError("at least one training image required (--images)")
    return _fit_and_save(args, False, lambda: _image_inputs(args.images))


def cmd_pretrain(args) -> int:
    if args.image:
        return _fit_and_save(args, True, lambda: _image_inputs([args.image]))
    return _fit_and_save(args, True, _generic_inputs)


def _resolve_idw(model, window, k_neighbors) -> IdwParams:
    """model's IdwParams (the defaults for no model) with non-None overrides."""
    idw = model.idw if model is not None else IdwParams()
    return IdwParams(
        neighbors=idw.neighbors if k_neighbors is None else k_neighbors,
        power=idw.power,
        window=idw.window if window is None else window,
    )


def _run_config(args) -> RunConfig:
    """RunConfig from the options alone, checked before any file is read.

    The command swaps in each model's IdwParams, under the same flags, once loaded.
    """
    try:
        return RunConfig(
            initial_density=args.initial,
            budget_density=args.budget,
            checkpoint_densities=args.densities or RunConfig.checkpoint_densities,
            seed=args.seed,
            idw=_resolve_idw(None, args.window, args.neighbors),
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_run(args) -> int:
    run_config = _run_config(args)
    resolve_threads()  # a malformed SLADS_THREADS is a usage error here as in eval
    model = load_model(args.model)
    image = load_image(args.image)
    run_config = dataclasses.replace(
        run_config, idw=_resolve_idw(model, args.window, args.neighbors)
    )

    os.makedirs(args.out, exist_ok=True)
    source = SimulatedSource(image, noise_sigma=args.noise_sigma, seed=run_config.seed)
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
        ("noise_sigma", args.noise_sigma),
        ("window", run_config.idw.window),
        ("neighbors", run_config.idw.neighbors),
        ("matmul", prediction_path(model)),
    ]
    _write_config(os.path.join(args.out, "effective.cfg"), pairs)
    final_psnr = psnr(image.values, run.final_reconstruction.values)
    print(
        f"measured {run.measured_count} pixels "
        f"({run_config.budget_density:.0%} budget), psnr {final_psnr:.2f} dB, "
        f"loop {run.wall_time_s:.1f}s"
    )
    print(f"artifacts in {args.out}")
    return EXIT_OK


def _eval_one(task):
    """One (method, seed) run of loaded inputs; module-level so process pools can pickle it."""
    label, model, image, noise_sigma, config = task
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
    methods = [(os.path.splitext(os.path.basename(p))[0], p) for p in args.model or []]
    for name in args.method or []:
        if name != "random":
            raise UsageError(f"--method supports only 'random', got {name!r}")
        methods.append(("random", None))
    if not methods:
        raise UsageError("nothing to evaluate: pass --model and/or --method random")
    labels = [label for label, _ in methods]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        # the report has one row set per label, so two methods would be pooled
        raise UsageError(
            f"methods share the label(s) {', '.join(shared)} (a model's file name "
            "without extension, or 'random'); give each model a distinct file name"
        )
    workers = resolve_threads()
    run_config = _run_config(args)
    # every input is loaded once, before any runs are spent
    models = {label: None if path is None else load_model(path) for label, path in methods}
    image = load_image(args.image)
    _make_parent_dirs(args.out)
    # reconstruction params follow each model unless flags or --config override them
    idws = {
        label: _resolve_idw(model, args.window, args.neighbors) for label, model in models.items()
    }
    configs = [dataclasses.replace(run_config, seed=args.seed + r) for r in range(args.repeats)]
    tasks = [
        (label, model, image, args.noise_sigma, dataclasses.replace(config, idw=idws[label]))
        for label, model in models.items()
        for config in configs
    ]

    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
    atomic_write(args.out, ("\n".join(lines) + "\n").encode())

    matmul = {label: "none" if m is None else prediction_path(m) for label, m in models.items()}

    def per_method(value):
        return ";".join(f"{label}:{value(label)}" for label, _ in methods)

    pairs = [
        ("image", os.path.abspath(args.image)),
        ("methods", ";".join(label for label, _ in methods)),
        ("initial", run_config.initial_density),
        ("budget", run_config.budget_density),
        ("densities", ",".join(str(d) for d in densities)),
        ("seed", args.seed),
        ("repeats", args.repeats),
        ("noise_sigma", args.noise_sigma),
        ("window", per_method(lambda label: idws[label].window)),
        ("neighbors", per_method(lambda label: idws[label].neighbors)),
        ("matmul", per_method(matmul.__getitem__)),
    ]
    _write_config(args.out + ".cfg", pairs)
    print(f"wrote {args.out} ({len(methods)} methods x {args.repeats} repeats)")
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
    ev.add_argument("--no-walltime", action="store_true", dest="no_walltime")
    ev.set_defaults(func=cmd_eval)

    for name, (conv, _, commands) in _OPTION_TABLE.items():
        flag = f"--{name.replace('_', '-')}"
        for command in commands:
            sub.choices[command].add_argument(flag, type=conv, default=None)
    for p in sub.choices.values():
        p.add_argument("--config", default=None, metavar="FILE")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolve_options(args)
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
