"""Command-line interface: analyze states from files or presets, emit reports.

Exit codes: 0 success, 2 malformed input (file, schema, or flag combination),
1 internal error.  Given the same seed and input, output is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .bell import (
    bell_report_dict,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    parse_settings_file,
)
from .info import maximize_corr_info
from .lhv import local_model, verify_lhv
from .pauli import correlation_tensor
from .search import OptimizerOptions
from .states import (
    FIXED_QUBITS,
    DensityMatrix,
    InputError,
    StatePreset,
    build_preset,
    read_state_file,
)
from .werner import analyze_werner, scan_to_csv, scan_to_json_dict, visibility_scan


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="entcrit",
        description="Entanglement analysis of N-qubit states via correlation "
        "information and general Bell inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tensor = sub.add_parser("tensor", help="full Pauli correlation tensor")
    info = sub.add_parser("info", help="maximize the in-plane information sum")
    bell = sub.add_parser("bell", help="search for a violation of the 2^N bound")
    lhv = sub.add_parser("lhv", help="build and check a local model at given settings")
    scan = sub.add_parser("werner-scan", help="criteria across the visibility range")
    analyze = sub.add_parser("analyze", help="combined tensor/info/bell/lhv report")

    # a command takes a flag only if the flag can change its output
    for sp in (tensor, info, bell, lhv, analyze):
        sp.add_argument("-i", "--input", help="path to a JSON state file")
        sp.add_argument("--preset", help="named preset instead of a file")
        sp.add_argument("--n", type=int, help="qubit count for presets")
        sp.add_argument("--visibility", type=float, help="visibility for werner_ghz")
    scan.add_argument("--n", type=int, required=True, help="qubit count")
    scan.add_argument("--grid", type=int, default=101, help="grid points (default 101)")
    for sp in (info, bell, scan, analyze):
        sp.add_argument("--seed", type=int, help="optimizer seed (default 0)")
        sp.add_argument("--restarts", type=int, help="optimizer restarts")
    scan.add_argument("--format", choices=("json", "csv"), default="csv", dest="out_format")
    bell.add_argument("--settings", help="fixed settings file; skips optimization")
    lhv.add_argument("--settings", required=True, help="settings file (required)")
    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _load_state(args) -> tuple[DensityMatrix, Optional[StatePreset]]:
    """The state from --input or --preset, and the preset it came from, or None."""
    if args.input and args.preset:
        raise InputError("give either --input or --preset, not both")
    if args.input:
        if args.n is not None or args.visibility is not None:
            raise InputError("--n and --visibility apply to --preset, not to --input")
        return read_state_file(_read_bytes(args.input))
    if args.preset:
        n = FIXED_QUBITS.get(args.preset) if args.n is None else args.n
        if n is None:
            raise InputError(f"preset {args.preset!r} needs --n")
        preset = StatePreset(args.preset, n, args.visibility)
        return build_preset(preset), preset
    raise InputError("a state is required: give --input or --preset")


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def _load_settings(path: str, n_qubits: int):
    return parse_settings_file(_read_bytes(path), n_qubits)


def _optimizer_options(args) -> OptimizerOptions:
    # without --restarts each search takes its own default count
    return OptimizerOptions(restarts=args.restarts, seed=0 if args.seed is None else args.seed)


def _lhv_section(evaluation) -> dict:
    """The local model read off a Bell evaluation, checked against its table."""
    section = {"n_qubits": int(evaluation.table.n_qubits), "lhs": evaluation.lhs_general,
               "bound": evaluation.bound, "refused": evaluation.violated}
    if not evaluation.violated:
        model = local_model(evaluation)
        section["model"] = model.to_json_dict()
        section["verify_max_abs_error"] = verify_lhv(model, evaluation.table)
    return section


def _cmd_tensor(args) -> str:
    dm, _ = _load_state(args)
    return _to_json(correlation_tensor(dm).to_json_dict())


def _cmd_info(args) -> str:
    dm, _ = _load_state(args)
    verdict = maximize_corr_info(correlation_tensor(dm), _optimizer_options(args))
    return _to_json(verdict.to_json_dict())


def _cmd_bell(args) -> str:
    if args.settings and (args.seed is not None or args.restarts is not None):
        raise InputError("--settings runs no search: drop --seed and --restarts")
    dm, _ = _load_state(args)
    tensor = correlation_tensor(dm)
    if args.settings:
        settings = _load_settings(args.settings, dm.n_qubits)
        evaluation = general_bell_lhs(correlation_table(tensor, settings))
    else:
        evaluation, settings = maximize_general_bell(tensor, _optimizer_options(args))
    return _to_json(bell_report_dict(evaluation, settings))


def _cmd_lhv(args) -> str:
    dm, _ = _load_state(args)
    tensor = correlation_tensor(dm)
    settings = _load_settings(args.settings, dm.n_qubits)
    report = _lhv_section(general_bell_lhs(correlation_table(tensor, settings)))
    report["settings"] = settings.to_json_list()
    return _to_json(report)


def _cmd_werner_scan(args) -> str:
    rows = visibility_scan(args.n, args.grid, _optimizer_options(args))
    if args.out_format == "json":
        return _to_json(scan_to_json_dict(args.n, rows))
    return scan_to_csv(rows)


def _cmd_analyze(args) -> str:
    dm, preset = _load_state(args)
    tensor = correlation_tensor(dm)
    verdict = maximize_corr_info(tensor, _optimizer_options(args))
    evaluation, settings = maximize_general_bell(tensor, _optimizer_options(args))

    report = {
        "n_qubits": int(dm.n_qubits),
        "purity": float(dm.purity()),
        # full tensors get large quickly; keep combined reports bounded
        "tensor": tensor.to_json_dict() if dm.n_qubits <= 6 else None,
        "info": verdict.to_json_dict(),
        "bell": bell_report_dict(evaluation, settings),
        # the local model read off the evaluation the bell section reports
        "lhv": _lhv_section(evaluation),
    }
    if preset is not None and preset.kind == "werner_ghz":
        report["werner"] = analyze_werner(preset.n_qubits, preset.visibility).to_json_dict()
    return _to_json(report)


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


_DISPATCH = {
    "tensor": _cmd_tensor,
    "info": _cmd_info,
    "bell": _cmd_bell,
    "lhv": _cmd_lhv,
    "werner-scan": _cmd_werner_scan,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _DISPATCH[args.command](args)
        if args.out:
            _write_text(args.out, text)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
