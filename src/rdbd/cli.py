"""Command-line front end: `run` one configuration, `compare` optimizers
over a shared seed set, or execute a named `sweep`.

Config files are flat key=value text, one pair per line, '#' comments;
keys are RunConfig field names (dashes or underscores both accepted), e.g.

    problem = logistic
    optimizer = rdbd
    alpha0 = 0.005
    eta = 0.01
    layer_sizes = 784,128,64,10

Exit codes: 0 ok, 2 config error, 3 data missing, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

from .harness import (METRICS, ConfigError, MissingDataError, NumericError,
                      RunConfig, SWEEPS, _out_file, compare, config_grid,
                      emit_plot_data, preset, render_comparison, run)


def _parse_sizes(text):
    return tuple(int(v) for v in text.replace("x", ",").split(","))


def _field_parser(hint):
    """The parser of one RunConfig annotation: `T | None` parses as `T`."""
    if hint is tuple:
        return _parse_sizes
    types = [t for t in typing.get_args(hint) if t is not type(None)]
    return types[0] if types else hint


_FIELD_PARSERS = {name: _field_parser(hint)
                  for name, hint in typing.get_type_hints(RunConfig).items()}

# RunConfig fields that `run` and `compare` also take as flags.
_RUN_FLAGS = ("problem", "optimizer", "alpha0", "eta", "batch_size", "steps",
              "seed", "alpha_min", "alpha_max", "eval_every", "mnist_dir",
              "out")
_FLAG_HELP = {"out": "output path (trace CSV or directory)"}


def parse_config_file(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return RunConfig(**values)


def _overrides(args, names) -> dict:
    """The flags among `names` that were given on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _base_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        cfg = parse_config_file(args.config)
    else:
        cfg = RunConfig()
    return dataclasses.replace(cfg, **_overrides(args, _RUN_FLAGS))


def _add_field_flags(p, names):
    for name in names:
        kind = _FIELD_PARSERS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=None if kind is str else kind,
                       help=_FLAG_HELP.get(name))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rdbd",
        description="Adaptive learning-rate scheduler benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_cmp = sub.add_parser("compare", help="compare optimizers over seeds")
    for p in (p_run, p_cmp):
        p.add_argument("--preset", help="start from a named preset")
        p.add_argument("--config", help="start from a key=value config file")
        _add_field_flags(p, _RUN_FLAGS)
    p_cmp.add_argument("--optimizers", default="sgd,rdbd",
                       help="comma-separated optimizer list; --eta and "
                            "--alpha-max apply only to the base optimizer, "
                            "others use their defaults")
    p_cmp.add_argument("--seeds", type=int, default=5,
                       help="number of seeds (base seed upward)")
    p_cmp.add_argument("--metric", default="final_loss", choices=METRICS)
    p_cmp.add_argument("--threshold", type=float, default=0.5)

    p_sweep = sub.add_parser("sweep", help="run a named parameter sweep")
    p_sweep.add_argument("--preset", required=True,
                         help=f"sweep name: {', '.join(sorted(SWEEPS))}")
    _add_field_flags(p_sweep, ("seed", "mnist_dir"))
    p_sweep.add_argument("--out", help="output directory")
    return parser


def _cmd_run(args) -> int:
    cfg = _base_config(args)
    trace = run(cfg)
    reverts = int(trace.reverted.any(axis=1).sum())
    print(f"run complete: {cfg.optimizer} on {cfg.problem}, "
          f"{len(trace)} steps, final loss {trace.full_loss[-1]:.6g}, "
          f"{reverts} steps with a revert")
    if cfg.out:
        print(f"trace written to {_out_file(cfg.out, 'trace.csv')}")
    return 0


def _cmd_compare(args) -> int:
    base = _base_config(args)
    optimizers = [o.strip() for o in args.optimizers.split(",") if o.strip()]
    unused = _overrides(args, ("eta", "alpha_max"))
    if unused and base.optimizer not in optimizers:
        flags = " and ".join("--" + n.replace("_", "-") for n in unused)
        raise ConfigError(f"{flags} given, but the base optimizer "
                          f"{base.optimizer!r} they apply to is not in "
                          f"--optimizers")
    rows, winner = compare(base, optimizers, args.seeds, metric=args.metric,
                           threshold=args.threshold, out=base.out)
    print(render_comparison(rows))
    if winner is None:  # only steps_to_threshold reads the threshold
        reason = (f"no optimizer reached {args.threshold} on every seed"
                  if args.metric == "steps_to_threshold"
                  else "no optimizer has a finite median")
        print(f"no winner by {args.metric}: {reason}")
    else:
        print(f"winner by {args.metric}: {winner}")
    if base.out:
        print(f"comparison written to {_out_file(base.out, 'comparison.csv')}")
    return 0


def _cmd_sweep(args) -> int:
    if args.preset not in SWEEPS:
        known = ", ".join(sorted(SWEEPS))
        raise ConfigError(f"unknown sweep {args.preset!r}; known sweeps: {known}")
    base_name, axis, values = SWEEPS[args.preset]
    base = dataclasses.replace(preset(base_name),
                               **_overrides(args, ("seed", "mnist_dir")))
    cells = config_grid(base, [base.optimizer], 1, axis, values)
    out_dir = args.out or "."
    runs = []   # every output path is checked before the first run
    for value, cfg in zip(values, cells):
        path = _out_file(os.path.join(
            out_dir, f"{args.preset}__{axis}_{value}.csv"))
        runs.append((f"{axis}={value}", dataclasses.replace(cfg, out=path)))
    plot_path = _out_file(os.path.join(out_dir, f"{args.preset}__plot.csv"))
    traces = []
    for label, cfg in runs:
        trace = run(cfg)
        traces.append((label, trace))
        print(f"{label}: final loss {trace.full_loss[-1]:.6g} -> {cfg.out}")
    rows = emit_plot_data(traces, plot_path)
    print(f"plot data ({rows} rows) written to {plot_path}")
    return 0


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingDataError as exc:
        print(f"data missing: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
