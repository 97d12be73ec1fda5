"""Command-line front end for the simulation harness.

``sweep`` runs the SNR sweep that ``--kind`` selects; ``convergence`` writes
the design loop's objective trace. Each setting, one row in ``_SETTINGS``, is
a flag; one left unset keeps ``ExperimentSpec``'s default. Exit codes: 0
success, 1 bad arguments or I/O trouble, 2 numerical failure (too many
excluded trials or an unsolvable system).
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

# sweep kind -> harness runner, looked up when a sweep runs, so a runner
# replaced in this dict is the one that runs.
_RUNNERS = {"estimation": run_estimation_sweep, "crlb": run_crlb_sweep,
            "async": run_async_impact, "design": run_design_sweep}


def _parse_snr_grid(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if not any(parts):
        raise ValueError(f"empty SNR grid: {text!r}")
    if not all(parts):
        raise ValueError(f"empty entry in SNR grid: {text!r}")
    return tuple(float(p) for p in parts)


# setting -> (ExperimentSpec field, argparse options of its flag). The flag is
# the setting with '-' for '_'. "kind" has no field: it is a flag of sweep only.
_SETTINGS = {
    "scenario": ("scenario", dict(type=str, choices=SCENARIOS, help="channel model")),
    "surfaces": ("n_surfaces", dict(type=int, metavar="K",
                                    help="number of reflecting surfaces")),
    "nx": ("n_x", dict(type=int, metavar="NX", help="horizontal elements per surface")),
    "ny": ("n_y", dict(type=int, metavar="NY",
                       help="vertical elements per surface (elements = NX*NY)")),
    "snr_db": ("snr_grid_db", dict(type=_parse_snr_grid, metavar="LIST",
                                   help="comma-separated SNR grid in dB, e.g. '0,10,20,30'")),
    "trials": ("trials", dict(type=int, help="Monte Carlo trials per SNR point")),
    "offset_model": ("offset_model", dict(type=str, choices=OFFSET_MODELS, help=(
        "how true timing offsets are drawn ('sweep --kind async' always draws "
        "clustered common-delta offsets and rejects any other value)"))),
    "delta_max": ("delta_max", dict(type=float, metavar="D", help="per-surface deviation "
                                    "bound for the common-delta model")),
    "algorithm": ("algorithm", dict(type=str, choices=ALGORITHMS,
                                    help="design loop used for the proposed scheme (only "
                                         "'accelerated', the squared-extrapolation MM loop)")),
    "seed": ("base_seed", dict(type=int, help="base seed for all trial streams")),
    "kind": (None, dict(type=str, choices=sorted(_RUNNERS),
                        help="which sweep to run (default: estimation)")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rissync",
        description="Timing/channel estimation and reflection-design experiments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, desc in (("sweep", "Run one SNR sweep; pick which with --kind."),
                       ("convergence", "Write the design loop's objective trace.")):
        sp = sub.add_parser(name, help=desc, description=desc)
        for key, (field, options) in _SETTINGS.items():
            if field is not None or name == "sweep":
                sp.add_argument("--" + key.replace("_", "-"), **options)
        sp.add_argument("--out", default="-", metavar="FILE",
                        help="output path ('-' = stdout; a prefix for convergence)")
    return parser


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment spec of the flags given; a flag left unset keeps its default."""
    kwargs = {}
    for key, (field, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if field is not None and value is not None:
            kwargs[field] = value
    return ExperimentSpec(**kwargs)


def _write_text(out: str, text: str):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _run(args: argparse.Namespace) -> int:
    spec = build_spec(args)

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

    kind = args.kind or "estimation"
    if kind == "async" and args.offset_model not in (None, "common-delta"):
        raise ValueError(f"--offset-model {args.offset_model} does not apply to kind 'async', "
                         "which always draws common-delta offsets")
    rows = _RUNNERS[kind](spec)
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
