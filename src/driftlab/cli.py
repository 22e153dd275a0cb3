"""Command-line interface.

Subcommands:
    simulate  run one experiment config end to end
    sweep     expand a config's sweep grid/cells and run every cell
    verify    run an exact verification family and emit a JSON report
    rates     re-fit growth exponents from an existing run directory

Exit codes: 0 success, 1 verification check failed, 2 config/usage error
(message names the offending key or flag), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback

from .harness import (
    ConfigError,
    VERIFY_FLAGS,
    VERIFY_KINDS,
    json_text,
    load_config,
    refit_rates,
    resolve_config,
    run_config,
    run_sweep,
    run_verify,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(name, f"expected comma-separated integers, got {text!r}")


def _resolve_run_args(args: argparse.Namespace) -> tuple[dict, dict, str]:
    """The raw config with the --seeds/--checkpoints overrides, its resolved form and the output root."""
    raw = load_config(args.config, "--config")
    if args.seeds is not None:
        raw["seeds"] = _parse_int_list(args.seeds, "seeds")
    if args.checkpoints is not None:
        raw["checkpoints"] = _parse_int_list(args.checkpoints, "checkpoints")
    resolved = resolve_config(raw)
    return raw, resolved, args.out or resolved["out"]


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, resolved, out_root = _resolve_run_args(args)
    record, curve = run_config(resolved, out_root, jobs=args.jobs)
    print(f"run {record.config_hash} -> {record.out_dir}")
    if record.fit is not None:
        print(f"fit exponent {record.fit.exponent!r} over [{record.fit.t_min}, {record.fit.t_max}]")
    else:
        print(f"fit skipped: {record.fit_skip_reason}")
    print(f"final cumulative excess {float(curve.cum_excess[-1])!r}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw, _, out_root = _resolve_run_args(args)
    # pass the raw config so per-cell re-resolution re-derives inherited
    # defaults (learner gamma/alpha) from each cell's swept drift values
    record = run_sweep(raw, out_root, jobs=args.jobs)
    print(f"sweep {record.sweep_hash}: {len(record.cells)} cells -> {record.table_path}")
    if record.failures:
        print(f"{len(record.failures)} cell(s) failed; manifest: {record.failure_manifest}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    options = {name: getattr(args, name) for name in VERIFY_FLAGS if getattr(args, name) is not None}
    if "m_grid" in options:
        options["m_grid"] = _parse_int_list(options["m_grid"], "--m-grid")
    report, ok = run_verify(args.kind, options)
    text = json_text(report)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"verify {args.kind}: {'ok' if ok else 'FAILED'} -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_rates(args: argparse.Namespace) -> int:
    checkpoints = _parse_int_list(args.checkpoints, "--checkpoints") if args.checkpoints is not None else None
    payload = refit_rates(args.run_dir, checkpoints)
    sys.stdout.write(json_text(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("simulate", _cmd_simulate, "run one experiment config"),
        ("sweep", _cmd_sweep, "run every cell of a config's sweep"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
        p_run.add_argument("--out", default=None, help="output root (default: config 'out')")
        p_run.add_argument("--seeds", default=None, help="comma-separated seed override")
        p_run.add_argument("--checkpoints", default=None, help="comma-separated checkpoint override")
        p_run.add_argument("--jobs", type=int, default=None, help="parallel seed workers (default: usable cores)")
        p_run.set_defaults(func=func)

    p_ver = sub.add_parser("verify", help="run an exact verification family")
    p_ver.add_argument("--kind", required=True, choices=VERIFY_KINDS)
    p_ver.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per grid point")
    p_ver.add_argument("--pairs", type=int, default=None, help="random concept pairs to test")
    p_ver.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_ver.add_argument("--m-grid", default=None, help="comma-separated sample sizes")
    p_ver.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_ver.set_defaults(func=_cmd_verify)

    p_rates = sub.add_parser("rates", help="re-fit growth exponents from existing CSVs")
    p_rates.add_argument("run_dir", help="an out/<hash> directory from a previous run")
    p_rates.add_argument("--checkpoints", default=None, help="comma-separated checkpoint override")
    p_rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, which matches the config-error code
        return int(err.code or 0)
    # SIGTERM takes SIGINT's exit path, a KeyboardInterrupt; fork_map raises it once its children are reaped
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
