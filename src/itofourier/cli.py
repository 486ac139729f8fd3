"""Command-line front end: coefficient tables, expansion evaluation, and
Monte-Carlo validation runs (the coeffs, approximate and validate
subcommands).

Configs are single JSON documents with the fields spec / basis / orders /
seed / n_paths / N / n / out; unknown fields are rejected and flags override
file values.  All randomness is seed-mandatory and outputs are byte-stable
for a fixed seed.

Exit codes: 0 success, 1 domain/config error (diagnostic on stderr with the
offending field path), 2 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .basis import parse_basis
from .coefficients import (FORMAT_VERSION, coefficient_tensor, read_coefficient_table,
                           write_coefficient_table)
from .errors import ConfigError, ItoFourierError, NumericError, read_int, read_ints
from .expansion import truncated_expansion
from .kernel import IntegralSpec
from .stochastic import gaussian_pool
from .validation import sample_differences, strong_error_estimate

_CONFIG_FIELDS = {"spec", "basis", "orders", "seed", "n_paths", "N", "n", "out"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage problems are config errors
        raise ConfigError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
        raise ConfigError(f"config: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level JSON value must be an object")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"config.{sorted(unknown)[0]}: unknown field")
    return doc


def _parse_orders(text) -> tuple[int, ...]:
    parts = text.replace(",", " ").split() if isinstance(text, str) else text
    orders = read_ints("config.orders", parts, error=ConfigError)
    if not orders:
        raise ConfigError("orders: at least one truncation order is required")
    return orders


def _resolve(doc: dict, field: str, flag_value, required: bool, convert=lambda v: v):
    value = flag_value if flag_value is not None else doc.get(field)
    if value is None:
        if required:
            raise ConfigError(f"config.{field}: required (set in config or by flag)")
        return None
    return convert(value)


def _resolve_int(doc: dict, field: str, flag_value, required: bool, lo=None, hi=None):
    return _resolve(doc, field, flag_value, required,
                    lambda value: read_int(f"config.{field}", value, lo, hi, ConfigError))


def _write_output(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tensor_inputs(args):
    """The config document, its spec, and the basis and orders (flags first),
    with one order per level of the spec."""
    doc = _load_config(args.config)
    if "spec" not in doc:
        raise ConfigError("config.spec: required field is missing")
    try:
        spec = IntegralSpec.from_json(doc["spec"])
    except ItoFourierError as exc:
        raise ConfigError(f"config.spec: {exc}") from exc
    basis = _resolve(doc, "basis", args.basis, required=True, convert=parse_basis)
    orders = _resolve(doc, "orders", args.orders, required=True, convert=_parse_orders)
    if len(orders) != spec.k:
        raise ConfigError(f"config.orders: need {spec.k} entries, got {len(orders)}")
    return doc, spec, basis, orders


def _cmd_coeffs(args) -> int:
    doc, spec, basis, orders = _tensor_inputs(args)
    out = _resolve(doc, "out", args.out, required=True, convert=str)
    tensor = coefficient_tensor(spec, basis, orders)
    write_coefficient_table(out, tensor)
    return 0


def _cmd_approximate(args) -> int:
    tensor = read_coefficient_table(args.table)
    seed = args.seed
    if seed is None:
        raise ConfigError("config.seed: required (all CLI randomness is seeded)")
    pool = gaussian_pool(tensor.spec.iv, tensor.basis, max(tensor.spec.max_index, 1),
                         max(tensor.orders), seed)
    result = truncated_expansion(tensor, pool)
    payload = {
        "value": result.value,
        "terms_evaluated": result.terms_evaluated,
        "orders": list(result.orders),
        "seed": seed,
    }
    _write_output(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_validate(args) -> int:
    doc, spec, basis, orders = _tensor_inputs(args)
    seed = _resolve_int(doc, "seed", args.seed, required=True)
    n_paths = _resolve_int(doc, "n_paths", args.paths, required=True)
    n_steps = _resolve_int(doc, "N", args.steps, required=True)
    n = _resolve_int(doc, "n", args.n, required=False, lo=1, hi=2)
    out = _resolve(doc, "out", args.out, required=False, convert=str)
    echo = {
        "spec": spec.to_json(),
        "basis": basis.value,
        "orders": list(orders),
        "seed": seed,
        "n_paths": n_paths,
        "N": n_steps,
        "n": n,
    }
    diffs, tensor = sample_differences(spec, basis, orders, n_paths, n_steps, seed)
    payload = {**strong_error_estimate(diffs, tensor, n_steps, n), "config": echo}
    _write_output(out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="itofourier",
                     description="Iterated Ito integral expansion toolkit")
    parser.add_argument("--version", action="store_true",
                        help="print package and file format versions")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted (>= 1) for compatibility and otherwise ignored: "
                             "validate fills its normals on the CPUs the process may "
                             "use, with the same bits on any number")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("coeffs", help="tabulate Fourier coefficients to a file")
    p.add_argument("--config", required=True)
    p.add_argument("--orders")
    p.add_argument("--basis")
    p.add_argument("--out")

    p = sub.add_parser("approximate", help="evaluate an expansion from a saved table")
    p.add_argument("--table", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="Monte-Carlo strong-error validation")
    p.add_argument("--config", required=True)
    p.add_argument("--orders")
    p.add_argument("--basis")
    p.add_argument("--seed", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    return parser


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "approximate": _cmd_approximate,
    "validate": _cmd_validate,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        read_int("--threads", args.threads, lo=1, error=ConfigError)
        if args.version:
            sys.stdout.write(f"itofourier {__version__} format {FORMAT_VERSION}\n")
            return 0
        if args.command is None:
            raise ConfigError("a subcommand is required "
                              "(coeffs, approximate, validate)")
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 2
    except (ItoFourierError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
