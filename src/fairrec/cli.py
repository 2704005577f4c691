"""Command-line entry point tying the modules into reproduction workflows.

Exit codes: 0 success, 1 usage error, 2 bad input (a FairrecError, OSError
or MemoryError); any other exception is a bug. A --config file supplies
flat key=value defaults; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import partial

from .core import (
    FairrecError,
    Hyperparams,
    METRIC_FIELDS,
    _fmt,
    _write_text,
    load_dataset,
    save_dataset,
)
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    config_experiment,
    config_hyper,
    default_alpha,
    default_trials,
    emit,
    load_movielens,
    parse_config_file,
    regime_comparison,
    run_experiment,
)
from .metrics import full_report
from .movielens import GENRE_MODES, ML1M_FILES
from .penalties import parse_penalty
from .synthgen import REGIMES, RegimeConfig, generate, write_sidecar
from .trainer import load_model, save_model, save_trace, train


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_BASE = Hyperparams()
_CONFIG = ExperimentConfig()


def _add_hyper_flags(sub):
    sub.add_argument("--d", type=int, help=f"latent dimension (default {_BASE.d})")
    sub.add_argument("--lambda", dest="lambda", metavar="LAM", type=float,
                     help=f"Frobenius regularization weight (default {_BASE.lam})")
    sub.add_argument("--alpha", type=float,
                     help=(f"penalty weight (default {default_alpha('synthetic')} "
                           f"synthetic, {default_alpha('movielens')} movielens)"))
    sub.add_argument("--lr", type=float,
                     help=f"Adam learning rate (default {_BASE.learning_rate})")
    sub.add_argument("--iterations", type=int,
                     help=f"training iterations (default {_BASE.iterations})")
    sub.add_argument("--init-scale", type=float,
                     help=f"stddev of the factor initialization (default {_BASE.init_scale})")
    sub.add_argument("--seed", type=int, help=f"base random seed (default {_BASE.seed})")


def _add_size_flags(sub):
    sub.add_argument("--users", type=int, help=f"number of users (default {_CONFIG.num_users})")
    sub.add_argument("--items", type=int, help=f"number of items (default {_CONFIG.num_items})")


def _add_config_flag(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairrec",
                     description="Fairness-aware matrix factorization workflows.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("synth-gen", help="generate a block-model dataset")
    gen.add_argument("--regime", choices=REGIMES, help="underrepresentation regime")
    _add_size_flags(gen)
    gen.add_argument("--seed", type=int, help=f"generation seed (default {_CONFIG.base_seed})")
    gen.add_argument("--out", required=True, help="dataset file to write")
    gen.add_argument("--sidecar", help="block-model sidecar path (default OUT.blocks)")
    _add_config_flag(gen)
    gen.set_defaults(func=_cmd_synth_gen)

    mlp = subs.add_parser("ml-prepare", help="parse and filter MovieLens-1M")
    # its flags follow reproduce-table2's parser, which shares the MovieLens ones

    tr = subs.add_parser("train", help="train one model on a dataset file")
    tr.add_argument("--data", required=True, help="dataset file to train on")
    tr.add_argument("--penalty", help='penalty spec, e.g. "value" or "under:0.5,over:0.5"')
    tr.add_argument("--smoothing", type=float, default=0.0,
                    help="epsilon for smoothed absolute values (default 0, exact)")
    _add_hyper_flags(tr)
    tr.add_argument("--out", required=True, help="checkpoint file to write")
    tr.add_argument("--trace", help="trace CSV path (default OUT.trace.csv)")
    _add_config_flag(tr)
    # source has no flag; a config file may set it to pick the default alpha
    tr.set_defaults(func=_cmd_train, source=None)

    ev = subs.add_parser("eval", help="report metrics for a checkpoint on a dataset")
    ev.add_argument("--model", required=True, help="checkpoint file")
    ev.add_argument("--data", required=True, help="dataset file with the eval ratings")
    ev.add_argument("--error-metric", choices=("rmse", "mse"), default="rmse")
    ev.set_defaults(func=_cmd_eval)

    fig1 = subs.add_parser("reproduce-fig1",
                           help="regime comparison without penalties, bar-data CSV")
    t1 = subs.add_parser("reproduce-table1",
                         help="penalty comparison on one synthetic regime")
    t1.add_argument("--regime", choices=REGIMES, help=f"regime (default {_CONFIG.regime})")
    for sub, row in ((fig1, "regime"), (t1, "penalty")):
        _add_size_flags(sub)
        sub.add_argument("--trials", type=int,
                         help=f"trials per {row} (default {default_trials('synthetic')})")

    t2 = subs.add_parser("reproduce-table2",
                         help="penalty comparison on filtered MovieLens-1M")
    for sub in (mlp, t2):
        sub.add_argument("--ml-path", help="directory with users.dat/movies.dat/ratings.dat")
        sub.add_argument("--genres", help="comma-separated genre list")
        sub.add_argument("--min-ratings", type=int,
                         help=f"per-user rating floor (default {_CONFIG.min_ratings})")
        sub.add_argument("--mode", dest="genre_mode", choices=GENRE_MODES,
                         help="genre matching mode")
    mlp.add_argument("--out", help="write the filtered dataset here")
    _add_config_flag(mlp)
    mlp.set_defaults(func=_cmd_ml_prepare)
    t2.add_argument("--split", type=float,
                    help=f"train fraction (default {_CONFIG.split_fraction})")
    t2.add_argument("--trials", type=int, help=f"trials (default {default_trials('movielens')})")

    for sub in (fig1, t1, t2):
        _add_hyper_flags(sub)
        sub.add_argument("--out", required=True, help="CSV to write")
        _add_config_flag(sub)
        sub.set_defaults(func=_cmd_reproduce)

    return parser


def _merged_mapping(args) -> dict:
    """Config-file values overridden by whichever flags were actually given.

    A command reads the config keys of its own arguments; a config file with
    any other key is rejected."""
    keys = tuple(key for key in CONFIG_KEYS if hasattr(args, key))
    mapping = parse_config_file(args.config, keys) if getattr(args, "config", None) else {}
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = str(value)
    return mapping


def _cmd_synth_gen(args, mapping) -> int:
    experiment = config_experiment(mapping)
    config = RegimeConfig(experiment.regime, experiment.num_users,
                          experiment.num_items, experiment.base_seed)
    data, _ = generate(config)
    _write_outputs((args.out, partial(save_dataset, data)),
                   (args.sidecar, lambda path: write_sidecar(path, config.regime)))
    print(f"users={data.num_users} items={data.num_items} ratings={data.num_ratings}")
    return 0


def _cmd_ml_prepare(args, mapping) -> int:
    data = load_movielens(config_experiment(dict(mapping, source="movielens")))
    print(f"users={data.num_users} movies={data.num_items}")
    print(f"ratings={data.num_ratings}")
    if args.out:
        _write_outputs((args.out, partial(save_dataset, data)))
    return 0


def _cmd_train(args, mapping) -> int:
    hyper = config_hyper(mapping, mapping.get("source", "synthetic"))
    spec = parse_penalty(mapping.get("penalty", "none"), args.smoothing)
    data = load_dataset(args.data)
    model, trace = train(data, hyper, spec)
    _write_outputs((args.out, partial(save_model, model)),
                   (args.trace, partial(save_trace, trace, hyper.alpha)))
    print(f"final objective={_fmt(trace.objective[-1])} penalty={_fmt(trace.penalty[-1])}")
    return 0


def _cmd_eval(args, mapping) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data)
    report = full_report(model, data, error_metric=args.error_metric)
    for name in METRIC_FIELDS:
        print(f"{name}={_fmt(getattr(report, name))}")
    print(f"items_counted={report.items_counted}")
    return 0


# reproduce command -> (data source, experiment, emit format)
_REPRODUCTIONS = {
    "reproduce-fig1": ("synthetic", regime_comparison, "bar-data"),
    "reproduce-table1": ("synthetic", run_experiment, "csv"),
    "reproduce-table2": ("movielens", run_experiment, "csv"),
}


def _cmd_reproduce(args, mapping) -> int:
    source, experiment, fmt = _REPRODUCTIONS[args.command]
    table = experiment(config_experiment(dict(mapping, source=source)))
    _write_outputs((args.out, lambda path: _write_text(path, [emit(table, fmt)])))
    print(f"wrote {args.out}")
    return 0


def _write_outputs(*writes) -> None:
    """Write a command's output files in order, each by a (path, write)
    pair, so that a failure leaves none of them behind: when a write
    raises, the outputs already written are removed, and so is the failed
    one unless it existed before; only regular files are removed, never a
    link or a device such as /dev/stdout. The error is then raised again."""
    written = []
    for path, write in writes:
        existed = os.path.lexists(path)
        try:
            write(path)
        except BaseException:
            for done in written if existed else [*written, path]:
                try:
                    if stat.S_ISREG(os.lstat(done).st_mode):
                        os.remove(done)
                except OSError:
                    pass  # the error being raised matters more
            raise
        written.append(path)


def _check_outputs(args, mapping) -> None:
    """Fill in the default sidecar and trace paths, and raise FairrecError
    for any file the command writes that cannot be created because its path
    is empty, its directory is missing, it is a directory, or it names the
    same file as one of the command's inputs or another output, so that no
    work is lost and no input is overwritten."""
    if hasattr(args, "sidecar") and args.sidecar is None:
        args.sidecar = args.out + ".blocks"
    if hasattr(args, "trace") and args.trace is None:
        args.trace = args.out + ".trace.csv"
    inputs = [getattr(args, name, None) for name in ("data", "model", "config")]
    if mapping.get("ml_path"):
        inputs += [os.path.join(mapping["ml_path"], name) for name in ML1M_FILES]
    taken = {os.path.realpath(path): f"the input {path!r}" for path in inputs if path}
    for path in (getattr(args, name, None) for name in ("out", "sidecar", "trace")):
        if path is None:
            continue
        if not path:
            raise FairrecError("cannot write '': the path is empty")
        if os.path.isdir(path):
            raise FairrecError(f"cannot write {path!r}: it is a directory")
        directory = os.path.dirname(path)
        if not os.path.isdir(directory or "."):
            raise FairrecError(f"cannot write {path!r}: no directory {directory!r}")
        real = os.path.realpath(path)
        if real in taken:
            raise FairrecError(f"cannot write {path!r}: {taken[real]} is the same file")
        taken[real] = f"another output, {path!r},"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        mapping = _merged_mapping(args)
        if hasattr(args, "ml_path") and not mapping.get("ml_path"):
            print("error: --ml-path is required (flag or config)", file=sys.stderr)
            return 1
        _check_outputs(args, mapping)
        return args.func(args, mapping)
    except (FairrecError, OSError) as exc:
        message = str(exc)
    except MemoryError as exc:
        # sizes read from a file can ask for more memory than the host has
        message = f"out of memory: {exc}"
    if len(message) > 1000:  # a message can quote a whole input line
        message = message[:1000] + "..."
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
