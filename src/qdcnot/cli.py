"""Command-line interface.

Subcommands: ``simulate`` (one configuration, print the fidelity report),
``sweep`` (two-axis grid to CSV), ``reproduce`` (named canonical targets
with anchor checks), ``cavity`` (print the four response coefficients).
Exit codes: 0 success, 1 configuration error (including a configuration
whose output norm exceeds 1), 2 I/O error, 3 anchor-check failure.
"""

from __future__ import annotations

import argparse
import sys

from .cavity import CavityParams, cavity_coeffs, is_strong_coupling
from .circuits import OutputNormError
from .fidelity import average_fidelity
from .sweep import ConfigError, load_config, reproduce, run_sweep, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_ANCHORS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcnot",
        description="Simulator for a spin-cavity photonic CNOT with imperfect components",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evaluate one configuration and print fidelities")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sweep", help="run the two-axis grid of a configuration to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="CSV path (default: the config's `out` key)")

    p = sub.add_parser("reproduce", help="run a canonical target and check its anchors")
    p.add_argument("target")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("cavity", help="print t1, r1, t0, r0 for the given rates")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--ks", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    circuit = cfg.values["circuit"]
    report = average_fidelity(circuit, cfg.cavity(), cfg.device_errors(), cfg.input_ensemble())
    print(f"circuit            {circuit}")
    print(f"ensemble           {report.ensemble}")
    print(f"strong coupling    {is_strong_coupling(cfg.cavity())}")
    print(f"f_up               {report.f_up:.10g}")
    print(f"f_down             {report.f_down:.10g}")
    print(f"f_both             {report.f_both:.10g}")
    print(f"f_up_folded        {report.f_up_folded:.10g}")
    print(f"f_down_folded      {report.f_down_folded:.10g}")
    print(f"success_up         {report.success_up:.10g}")
    print(f"success_down       {report.success_down:.10g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = args.out or cfg.values["out"]
    if not out:
        raise ConfigError("no output path: pass --out or set `out` in the config")
    table = run_sweep(cfg)
    write_csv(table, out)
    print(f"wrote {len(table) - 1} rows to {out}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    outcome = reproduce(args.target, args.out_dir)
    sys.stdout.write(outcome["summary"])
    print(f"csv: {outcome['csv']}")
    print(f"summary: {outcome['summary_path']}")
    return EXIT_OK if outcome["ok"] else EXIT_ANCHORS


def _cmd_cavity(args) -> int:
    coeffs = cavity_coeffs(CavityParams(g=args.g, kappa_s=args.ks, gamma=args.gamma))
    print(f"t1 = {coeffs.t1:.10g}")
    print(f"r1 = {coeffs.r1:.10g}")
    print(f"t0 = {coeffs.t0:.10g}")
    print(f"r0 = {coeffs.r0:.10g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "reproduce": _cmd_reproduce,
        "cavity": _cmd_cavity,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OutputNormError) as exc:  # the config is outside the model's domain
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
