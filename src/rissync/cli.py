"""Command-line front end for the simulation harness.

Subcommands map one-to-one onto the harness operations; ``sweep`` is the
generic driver that selects an operation with ``--kind``. Settings come
from built-in defaults, then an optional config file, then explicit flags —
later sources win. Exit codes: 0 success, 1 bad arguments or I/O trouble,
2 numerical failure (too many excluded trials or an unsolvable system).
"""
from __future__ import annotations

import argparse
import re
import sys

from .errors import FailureRateError, SingularSystemError
from .harness import (
    ALGORITHMS,
    OFFSET_MODELS,
    SCENARIOS,
    ExperimentSpec,
    format_sweep_rows,
    format_trace,
    run_async_impact,
    run_convergence,
    run_crlb_sweep,
    run_design_sweep,
    run_estimation_sweep,
)

# subcommand -> (sweep kind it runs, help text); "sweep" takes its kind from
# --kind or the config file, and "convergence" writes traces, not a sweep.
_COMMANDS = {
    "estimate": ("estimation", "Estimator error and bound curves across the SNR grid."),
    "crlb": ("crlb", "Bound curves only (no estimator runs)."),
    "design": ("design", "Compare reflection-design schemes end to end."),
    "convergence": (None, "Write the design loop's objective trace."),
    "sweep": (None, "Generic driver; pick the operation with --kind."),
}


def _runners() -> dict:
    """Sweep kind -> harness runner, read from this module's namespace when
    called, so a runner rebound or patched here is the one that runs."""
    return {"estimation": run_estimation_sweep, "crlb": run_crlb_sweep,
            "async": run_async_impact, "design": run_design_sweep}


def _parse_snr_grid(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    values = tuple(float(p) for p in parts if p)
    if not values:
        raise ValueError(f"empty SNR grid: {text!r}")
    return values


def _parse_kind(text: str) -> str:
    if text not in _runners():
        raise ValueError(f"must be one of {sorted(_runners())}, got {text!r}")
    return text


# config-file key -> (converter, ExperimentSpec field); "kind" is the odd one
# out, checked under every subcommand but consumed only by the sweep one.
_CONFIG_KEYS = {
    "scenario": (str, "scenario"),
    "surfaces": (int, "n_surfaces"),
    "nx": (int, "n_x"),
    "ny": (int, "n_y"),
    "snr_db": (_parse_snr_grid, "snr_grid_db"),
    "trials": (int, "trials"),
    "offset_model": (str, "offset_model"),
    "delta_max": (float, "delta_max"),
    "algorithm": (str, "algorithm"),
    "seed": (int, "base_seed"),
    "kind": (_parse_kind, None),
}


def read_config(path: str) -> dict:
    """Parse a ``key = value`` config file into typed settings.

    Blank lines and ``#`` comments are ignored. Unknown keys are an error so
    that typos fail loudly instead of silently running the defaults.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    settings = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        convert, _ = _CONFIG_KEYS[key]
        try:
            settings[key] = convert(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return settings


def _add_spec_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--config", metavar="FILE",
                    help="config file with 'key = value' lines; flags override it")
    sp.add_argument("--scenario", choices=SCENARIOS, help="channel model")
    sp.add_argument("--surfaces", type=int, metavar="K",
                    help="number of reflecting surfaces")
    sp.add_argument("--nx", type=int, metavar="NX",
                    help="horizontal elements per surface")
    sp.add_argument("--ny", type=int, metavar="NY",
                    help="vertical elements per surface (elements = NX*NY)")
    sp.add_argument("--snr-db", type=_parse_snr_grid, metavar="LIST",
                    help="comma-separated SNR grid in dB, e.g. '0,10,20,30'")
    sp.add_argument("--trials", type=int, help="Monte Carlo trials per SNR point")
    sp.add_argument("--offset-model", choices=OFFSET_MODELS,
                    help="how true timing offsets are drawn ('sweep --kind async' "
                         "always draws clustered common-delta offsets and rejects "
                         "any other value)")
    sp.add_argument("--delta-max", type=float, metavar="D",
                    help="per-surface deviation bound for the common-delta model")
    sp.add_argument("--algorithm", choices=ALGORITHMS,
                    help="design loop used for the proposed scheme (only "
                         "'accelerated', the squared-extrapolation MM loop)")
    sp.add_argument("--seed", type=int, help="base seed for all trial streams")
    sp.add_argument("--out", default="-", metavar="FILE",
                    help="output path ('-' = stdout; a prefix for convergence)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rissync",
        description="Timing/channel estimation and reflection-design experiments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    for name, (_, desc) in _COMMANDS.items():
        sp = sub.add_parser(name, help=desc, description=desc)
        _add_spec_flags(sp)
        if name == "sweep":
            sp.add_argument("--kind", choices=sorted(_runners()),
                            help="which operation to run (default: estimation)")
    return parser


def build_spec(args: argparse.Namespace, settings: dict) -> ExperimentSpec:
    """Merge config-file settings and CLI flags into an experiment spec."""
    kwargs = {}
    for key, (_, field) in _CONFIG_KEYS.items():
        if field is None:
            continue
        if key in settings:
            kwargs[field] = settings[key]
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            kwargs[field] = flag_value
    return ExperimentSpec(**kwargs)


def _write_text(out: str, text: str):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _run(args: argparse.Namespace) -> int:
    settings = read_config(args.config) if args.config else {}
    spec = build_spec(args, settings)

    if args.command == "convergence":
        if args.out in (None, "-"):
            raise ValueError("convergence needs --out PREFIX to place its trace file")
        result = run_convergence(spec)
        path = f"{args.out}-accelerated.csv"
        _write_text(path, format_trace(result.objective_trace))
        print(path)
        state = "converged" if result.converged else "not converged"
        print(f"accelerated: {result.iterations} iterations, {state}", file=sys.stderr)
        return 0

    kind = _COMMANDS[args.command][0]
    if args.command == "sweep":
        kind = args.kind or settings.get("kind") or "estimation"
    offset_model = args.offset_model or settings.get("offset_model")
    if kind == "async" and offset_model not in (None, "common-delta"):
        raise ValueError(f"--offset-model {offset_model} does not apply to kind 'async', "
                         "which always draws common-delta offsets")
    rows = _runners()[kind](spec)
    _write_text(args.out, format_sweep_rows(rows))
    return 0


def _attach_snr_lists(argv: list) -> list:
    """Write '--snr-db LIST' as '--snr-db=LIST' when LIST starts with a minus
    sign: argparse takes any '-' token that is not a plain number, such as
    '-10,0', for an option and would leave --snr-db without its value. Any
    abbreviation argparse accepts, '--sn' and longer, is treated alike."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if len(flag) >= 4 and "--snr-db".startswith(flag) and re.match(r"-[\d.]", token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_snr_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse handles --help and usage errors itself
        return 0 if exc.code in (0, None) else 1

    if args.command is None:
        parser.print_help(sys.stderr)
        return 1

    try:
        return _run(args)
    except (FailureRateError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
