"""Command-line front end: coefficient tables, expansion evaluation,
partition listings, and Monte-Carlo validation runs.

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

from . import __version__
from .basis import parse_basis
from .coefficients import (FORMAT_VERSION, coefficient_tensor, read_coefficient_table,
                           write_coefficient_table)
from .errors import ConfigError, ItoFourierError, NumericError
from .expansion import truncated_expansion
from .kernel import IntegralSpec, exact_int
from .partitions import pair_partitions, partition_count
from .stochastic import gaussian_pool
from .validation import moment_check, sample_differences, strong_error_estimate

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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level JSON value must be an object")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"config.{sorted(unknown)[0]}: unknown field")
    return doc


def _parse_orders(text) -> tuple[int, ...]:
    parts = text.replace(",", " ").split() if isinstance(text, str) else text
    orders = tuple(map(exact_int, parts))
    if not orders:
        raise ConfigError("orders: at least one truncation order is required")
    return orders


def _spec_from_config(doc: dict) -> IntegralSpec:
    if "spec" not in doc:
        raise ConfigError("config.spec: required field is missing")
    try:
        return IntegralSpec.from_json(doc["spec"])
    except ItoFourierError as exc:
        raise ConfigError(f"config.spec: {exc}") from exc


def _resolve(doc: dict, args, field: str, flag_value, required: bool,
             convert=lambda v: v):
    value = flag_value if flag_value is not None else doc.get(field)
    if value is None:
        if required:
            raise ConfigError(f"config.{field}: required (set in config or by flag)")
        return None
    try:
        return convert(value)
    except ItoFourierError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config.{field}: {exc}") from exc


def _write_output(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(args) -> int:
    doc = _load_config(args.config)
    spec = _spec_from_config(doc)
    basis = _resolve(doc, args, "basis", args.basis, required=True, convert=parse_basis)
    orders = _resolve(doc, args, "orders", args.orders, required=True, convert=_parse_orders)
    out = _resolve(doc, args, "out", args.out, required=True, convert=str)
    if len(orders) != spec.k:
        raise ConfigError(f"config.orders: need {spec.k} entries, got {len(orders)}")
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


def _cmd_partitions(args) -> int:
    lines = [part.format() for part in pair_partitions(args.k, args.r)]
    assert len(lines) == partition_count(args.k, args.r)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_validate(args) -> int:
    doc = _load_config(args.config)
    spec = _spec_from_config(doc)
    basis = _resolve(doc, args, "basis", args.basis, required=True, convert=parse_basis)
    orders = _resolve(doc, args, "orders", args.orders, required=True, convert=_parse_orders)
    seed = _resolve(doc, args, "seed", args.seed, required=True, convert=exact_int)
    n_paths = _resolve(doc, args, "n_paths", args.paths, required=True, convert=exact_int)
    n_steps = _resolve(doc, args, "N", args.steps, required=True, convert=exact_int)
    n = _resolve(doc, args, "n", args.n, required=False, convert=exact_int)
    out = _resolve(doc, args, "out", args.out, required=False, convert=str)
    if len(orders) != spec.k:
        raise ConfigError(f"config.orders: need {spec.k} entries, got {len(orders)}")
    if n not in (None, 1, 2):
        raise ConfigError(f"config.n: moment degree parameter must be 1 or 2, got {n}")
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
    payload = strong_error_estimate(diffs, tensor, n_steps).to_json(config=echo)
    if n is not None:
        moment = moment_check(diffs, tensor, n_steps, n)
        payload["bound_2n"] = moment.bound_2n
        payload["moment"] = moment.to_json()
    _write_output(out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="itofourier",
                     description="Iterated Ito integral expansion toolkit")
    parser.add_argument("--version", action="store_true",
                        help="print package and file format versions")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted (>= 1) for compatibility and otherwise ignored: "
                             "validate runs on one thread")
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

    p = sub.add_parser("partitions", help="list pair partitions of {1..k}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

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
    "partitions": _cmd_partitions,
    "validate": _cmd_validate,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        if args.version:
            sys.stdout.write(f"itofourier {__version__} format {FORMAT_VERSION}\n")
            return 0
        if args.command is None:
            raise ConfigError("a subcommand is required "
                              "(coeffs, approximate, partitions, validate)")
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 2
    except (ItoFourierError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
