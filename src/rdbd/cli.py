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

from .harness import (ConfigError, MissingDataError, NumericError, PRESETS,
                      RunConfig, SWEEPS, compare, emit_plot_data, preset,
                      render_comparison, run, sweep_configs, write_trace_csv,
                      write_comparison_csv)

_FIELD_PARSERS = {
    "problem": str, "optimizer": str, "mnist_dir": str, "out": str,
    "alpha0": float, "eta": float, "alpha_min": float, "alpha_max": float,
    "beta1": float, "beta2": float, "eps_hat": float, "separation": float,
    "grad_noise": float, "grad_noise_prob": float,
    "batch_size": int, "steps": int, "seed": int, "eval_every": int,
    "n_samples": int, "dim": int, "problem_seed": int, "subset_n": int,
    "layer_sizes": lambda s: tuple(int(v) for v in s.replace("x", ",").split(",")),
}


def parse_config_file(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
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


def _base_config(args) -> RunConfig:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("--preset and --config are mutually exclusive")
    if getattr(args, "preset", None):
        cfg = preset(args.preset)
    elif getattr(args, "config", None):
        cfg = parse_config_file(args.config)
    else:
        cfg = RunConfig()
    overrides = {}
    for name in ("problem", "optimizer", "alpha0", "eta", "batch_size",
                 "steps", "seed", "alpha_min", "alpha_max", "eval_every",
                 "mnist_dir", "out"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return dataclasses.replace(cfg, **overrides)


def _add_common_flags(p):
    p.add_argument("--preset", help="start from a named preset")
    p.add_argument("--config", help="start from a key=value config file")
    p.add_argument("--problem")
    p.add_argument("--optimizer")
    p.add_argument("--alpha0", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha-min", dest="alpha_min", type=float)
    p.add_argument("--alpha-max", dest="alpha_max", type=float)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--mnist-dir", dest="mnist_dir")
    p.add_argument("--out", help="output path (trace CSV or directory)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rdbd",
        description="Adaptive learning-rate scheduler benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    _add_common_flags(p_run)

    p_cmp = sub.add_parser("compare", help="compare optimizers over seeds")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--optimizers", default="sgd,rdbd",
                       help="comma-separated optimizer list; --eta and "
                            "--alpha-max apply only to the base optimizer, "
                            "others use their defaults")
    p_cmp.add_argument("--seeds", type=int, default=5,
                       help="number of seeds (base seed upward)")
    p_cmp.add_argument("--metric", default="final_loss",
                       choices=["final_loss", "steps_to_threshold",
                                "min_grad_norm"])
    p_cmp.add_argument("--threshold", type=float, default=0.5)

    p_sweep = sub.add_parser("sweep", help="run a named parameter sweep")
    p_sweep.add_argument("--preset", required=True,
                         help=f"sweep name: {', '.join(sorted(SWEEPS))}")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--mnist-dir", dest="mnist_dir")
    p_sweep.add_argument("--out", help="output directory")
    return parser


def _cmd_run(args) -> int:
    cfg = _base_config(args)
    records = run(cfg)
    reverts = sum(any(rec.reverted.values()) for rec in records)
    final = records[-1].full_loss
    print(f"run complete: {cfg.optimizer} on {cfg.problem}, "
          f"{len(records)} steps, final loss {final:.6g}, "
          f"{reverts} steps with a revert")
    if cfg.out:
        print(f"trace written to {cfg.out}")
    return 0


def _cmd_compare(args) -> int:
    base = _base_config(args)
    optimizers = [o.strip() for o in args.optimizers.split(",") if o.strip()]
    if not optimizers:
        raise ConfigError("--optimizers must name at least one optimizer")
    base_seed = base.seed
    configs = []
    for opt in optimizers:
        for s in range(args.seeds):
            configs.append(dataclasses.replace(
                base, optimizer=opt, seed=base_seed + s, out=None,
                eta=None if opt != base.optimizer else base.eta,
                alpha_max=None if opt != base.optimizer else base.alpha_max))
    out = base.out
    if out and (os.path.isdir(out) or out.endswith(os.sep)):
        out = os.path.join(out, "comparison.csv")
    rows, winner = compare(configs, metric=args.metric,
                           threshold=args.threshold, out=out)
    print(render_comparison(rows))
    print(f"winner by {args.metric}: {winner}")
    if out:
        print(f"comparison written to {out}")
    return 0


def _cmd_sweep(args) -> int:
    pairs = sweep_configs(args.preset)
    out_dir = args.out or "."
    traces = []
    for label, cfg in pairs:
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.mnist_dir is not None:
            cfg = dataclasses.replace(cfg, mnist_dir=args.mnist_dir)
        records = run(cfg)
        traces.append((label, records))
        ids = list(records[0].grad_norms)
        path = os.path.join(out_dir, f"{args.preset}__{label.replace('=', '_')}.csv")
        write_trace_csv(records, ids, path)
        print(f"{label}: final loss {records[-1].full_loss:.6g} -> {path}")
    plot_path = os.path.join(out_dir, f"{args.preset}__plot.csv")
    rows = emit_plot_data(traces, plot_path, series=("loss", "full_loss", "alpha"))
    print(f"plot data ({rows} rows) written to {plot_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingDataError as exc:
        print(f"data missing: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
