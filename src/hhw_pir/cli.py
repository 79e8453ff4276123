"""Command-line front end: analyze, gendb, query, respond, decode, attack, experiment.

Exit codes: 0 on success (``--help`` included), 1 on any operational
error (a bad command line, malformed input, bad parameters, file
problems), 2 only when an attack ran correctly but its threshold rule
named no unique index.  Errors are emitted to stderr as a one-line JSON
object so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, serialization
from .attack import recover_index
from .errors import BadArguments
from .experiment import (
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .fields import build_tower
from .params import DEFAULT_PARAMS, SchemeParams
from .scheme import DRAW_PHASES, Database, decode, generate_queries, respond

_ATTACK_FAILED = 2


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc, allow_nan=False), file=sys.stderr)


def _load_params(raw: str | None) -> SchemeParams:
    if raw is None:
        return DEFAULT_PARAMS
    text = raw.strip()
    try:
        # json.loads takes a file's bytes as they are, so bad UTF-8 is one more ValueError
        doc = json.loads(text if text.startswith("{") else Path(text).read_bytes())
    except FileNotFoundError as exc:
        raise BadArguments(f"parameter file not found: {text}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise BadArguments(f"cannot read parameters: {exc}") from exc
    return SchemeParams.from_dict(doc)


def _seed(text: str) -> int:
    """A Generator seed: the parser refuses anything but a non-negative integer, as BadArguments."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _write_text(path: str, text: str) -> None:
    """Write a report file; a path that cannot be written raises BadArguments."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise BadArguments(f"cannot write {path}: {exc}") from exc


def _print(doc: dict) -> None:
    print(json.dumps(doc, indent=1, allow_nan=False))


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    m = args.m if args.m is not None else params.m
    L = args.file_rows if args.file_rows is not None else params.L
    bound = analysis.failure_bound(params, m)
    rates = analysis.rate_report(params, m)
    finite = analysis.measured_rate(params, m, L)
    doc = {
        "params": params.to_dict(),
        "derived": {"delta": params.delta, "k0": params.rank_threshold, "m0": params.m0},
        "failure_bound": bound.to_dict(),
        "rates": rates.to_dict(),
        "measured_rate": {
            "L": L,
            "value": f"{finite.numerator}/{finite.denominator}",
            "float": float(finite),
            "limit": str(analysis.measured_rate_limit(params)),
        },
    }
    if args.format == "json":
        _print(doc)
        return 0
    d = doc["derived"]
    print(f"parameters      q={params.q} s={params.s} v={params.v} "
          f"n={params.n} k={params.k} m={m} L={params.L}")
    print(f"derived         delta={d['delta']}  k0={d['k0']}  m0={d['m0']}")
    fb = doc["failure_bound"]
    print(f"failure bound   per-block {fb['per_block']}  union {fb['union']}")
    print(f"                conservative union {fb['union_conservative']}")
    log2_union = "-inf" if fb["log2_union"] is None else f"{fb['log2_union']:.2f}"
    print(f"                simplified {fb['simplified']}  (log2 union {log2_union})")
    if fb["regime_warning"]:
        print(f"                warning: m = {m} < m0 = {d['m0']}, bounds are vacuous")
    r = doc["rates"]
    print(f"rates           approx {r['r_pir_approx']}  trivial {r['trivial_rate']}  "
          f"upper {r['upper_bound']}  coarse {r['coarse_bound']}  [{r['regime']}]")
    mr = doc["measured_rate"]
    print(f"measured rate   L={mr['L']}: {mr['value']} = {mr['float']:.6f}  "
          f"(limit {mr['limit']})")
    return 0


def _cmd_gendb(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    rng = np.random.default_rng(args.seed)
    db = Database.random(params, rng)
    serialization.save_database(args.out, db, params)
    _print({"out": args.out, "files": params.m,
            "file_shape": [params.L, params.delta]})
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    tower = build_tower(params.p, params.e, params.s)
    batch = generate_queries(params, tower, [args.target], [np.random.default_rng(args.seed)])
    query, secrets = batch.query(tower, 0, args.target)
    secrets_path = args.secrets_out or args.out + ".secrets.json"
    serialization.save_query(args.out, query, params)
    serialization.save_secrets(secrets_path, secrets, params)
    _print({"query": args.out, "secrets": secrets_path, "target": args.target,
            "shape": [params.m * params.delta, params.n], "draws": dict(zip(DRAW_PHASES, batch.draws[0].tolist()))})
    return 0


def _cmd_respond(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    tower = build_tower(params.p, params.e, params.s)
    db = serialization.load_database(args.db, params)
    query = serialization.load_query(args.query, params, tower)
    answer = respond(db, query, params, tower)
    serialization.save_response(args.out, answer, params)
    _print({"out": args.out, "shape": [params.L, params.n]})
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    tower = build_tower(params.p, params.e, params.s)
    answer = serialization.load_response(args.response, params, tower)
    secrets = serialization.load_secrets(args.secrets, params, tower)
    recovered = decode(answer, secrets, params, tower)
    serialization.save_matrix(args.out, recovered, params.p, params.e, 1)
    doc = {"out": args.out, "target": secrets.target,
           "shape": [params.L, params.delta]}
    if args.database:
        db = serialization.load_database(args.database, params)
        expected = db.files[secrets.target - 1]
        if not np.array_equal(recovered, expected):
            raise BadArguments("decoded file does not match the database slice")
        doc["match"] = True
    _print(doc)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    tower = build_tower(params.p, params.e, params.s)
    query = serialization.load_query(args.query, params, tower)
    report = recover_index(query, params, tower)
    text = report.to_json()
    if args.out:
        _write_text(args.out, text + "\n")
    print(text)
    return 0 if report.recovered_index is not None else _ATTACK_FAILED


def _cmd_experiment(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    policy: str | int = args.policy
    if policy != "uniform":
        try:
            policy = int(policy)
        except ValueError as exc:
            raise BadArguments(f"policy must be 'uniform' or an index, got {policy!r}") from exc
    cfg = ExperimentConfig(
        params=params,
        trials=args.trials,
        master_seed=args.seed,
        target_policy=policy,
    )
    report = run_experiment(cfg)
    if args.out:
        _write_text(args.out, report_to_csv(report) if args.format == "csv" else report_to_json(report) + "\n")
    _print({
        "trials": report.trials,
        "successes": report.successes,
        "failures": report.failures,
        "failure_rate": float(report.failure_rate),
        "threshold": report.threshold,
        "threshold_conservative": report.threshold_conservative,
        "criterion_pass": report.criterion_pass,
        "criterion_pass_conservative": report.criterion_pass_conservative,
        "digest": report.digest,
        "out": args.out,
    })
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises BadArguments where argparse would exit 2,
    the code reserved for an attack that names no index; subparsers inherit it."""

    def error(self, message: str):
        raise BadArguments(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hhw-pir",
        description="Single-server PIR scheme, its rank distinguisher, and bound tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", metavar="JSON|PATH", default=None,
                       help="scheme parameters as inline JSON or a JSON file "
                            "(default: the built-in preset)")

    p = sub.add_parser("analyze", help="print the parameter dossier")
    add_params(p)
    p.add_argument("--m", type=int, default=None, help="override the file count")
    p.add_argument("--file-rows", type=int, default=None,
                   help="rows per file for the finite-size rate (default: params L)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gendb", help="generate a random database file")
    add_params(p)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gendb)

    p = sub.add_parser("query", help="generate a query and its secrets")
    add_params(p)
    p.add_argument("--target", type=int, required=True, help="1-based file index")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="query file path")
    p.add_argument("--secrets-out", default=None,
                   help="secrets path (default: OUT.secrets.json)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("respond", help="answer a query over a database")
    add_params(p)
    p.add_argument("--db", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_respond)

    p = sub.add_parser("decode", help="recover the target file from a response")
    add_params(p)
    p.add_argument("--response", required=True)
    p.add_argument("--secrets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--database", default=None,
                   help="optional database file to confirm the recovery against")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("attack", help="recover the target index from a query alone")
    add_params(p)
    p.add_argument("--query", required=True)
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("experiment", help="run seeded attack trials and grade them")
    add_params(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="uniform",
                   help="'uniform' or a fixed 1-based target index")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
