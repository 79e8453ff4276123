"""Command-line front end: analyze, generate, respond, decode, attack.

Exit codes: 0 on success, 1 on any operational error (malformed input,
bad parameters, file problems), 2 when an attack ran correctly but could
not name a unique index.  Errors are emitted to stderr as a one-line JSON
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
from .errors import BadArguments, SelftestFailure
from .experiment import (
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .fields import Fq, build_tower, fq_rank
from .linalg import ext_inv_matrix
from .params import DEFAULT_PARAMS, SchemeParams
from .scheme import Database, decode, generate_query, respond

_ATTACK_FAILED = 2


def _emit_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc), file=sys.stderr)


def _load_params(raw: str | None) -> SchemeParams:
    if raw is None:
        return DEFAULT_PARAMS
    text = raw.strip()
    if not text.startswith("{"):
        path = Path(text)
        if not path.exists():
            raise BadArguments(f"parameter file not found: {text}")
        text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadArguments(f"parameters are not valid JSON: {exc}") from exc
    return SchemeParams.from_dict(doc)


def _seed_rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def _print(doc: dict) -> None:
    print(json.dumps(doc, indent=1))


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    m = args.m if args.m is not None else params.m
    derived = analysis.derive(params)
    bound = analysis.failure_bound(params, m)
    rates = analysis.rate_report(params, m)
    finite = analysis.measured_rate(params, m, args.file_rows or params.L)
    doc = {
        "params": params.to_dict(),
        "derived": {"delta": derived.delta, "k0": derived.k0, "m0": derived.m0},
        "failure_bound": bound.to_dict(),
        "rates": rates.to_dict(),
        "measured_rate": {
            "L": args.file_rows or params.L,
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
    print(f"                simplified {fb['simplified']}  "
          f"(log2 union {fb['log2_union']:.2f})")
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
    rng = _seed_rng(args.seed)
    db = Database.random(params, rng)
    serialization.save_database(args.out, db, params)
    _print({"out": args.out, "files": params.m,
            "file_shape": [params.L, params.delta]})
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    tower = build_tower(params.p, params.e, params.s)
    rng = _seed_rng(args.seed)
    query, secrets = generate_query(params, tower, args.target, rng)
    secrets_path = args.secrets_out or args.out + ".secrets.json"
    serialization.save_query(args.out, query, params)
    serialization.save_secrets(secrets_path, secrets, params)
    _print({"query": args.out, "secrets": secrets_path, "target": args.target,
            "shape": [params.m * params.delta, params.n]})
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
    report = recover_index(query, params, tower, fallback_argmin=args.fallback_argmin)
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
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
        fallback_argmin=args.fallback_argmin,
    )
    report = run_experiment(cfg)
    if args.out:
        if args.format == "csv":
            Path(args.out).write_text(report_to_csv(report))
        else:
            Path(args.out).write_text(report_to_json(report) + "\n")
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


def _small_rank(mat, fq: Fq) -> int:
    """Row rank of a small F_q matrix, the selftest's reference: scalar Gaussian
    elimination with integers mod p on its F_p regular representation."""
    p = fq.p
    rows = [list(map(int, r)) for r in fq.blow_up(mat)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pinv = pow(rows[rank][c], -1, p)
        rows[rank] = [pinv * x % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank // fq.e


def _cmd_selftest(args: argparse.Namespace) -> int:
    rng = _seed_rng(args.seed if args.seed is not None else 7)
    checks = 0

    def ok(label: str) -> None:
        nonlocal checks
        checks += 1
        print(f"ok {checks:2d} - {label}")

    def require(holds, what: str) -> None:
        # an explicit check, not assert: python -O must not skip the battery
        if not holds:
            raise SelftestFailure(f"check {checks + 1}: {what}")

    # irreducible moduli for the small towers
    towers = {}
    for (p, e, s) in [(2, 1, 2), (3, 1, 2), (2, 2, 3), (2, 1, 4)]:
        towers[(p, e, s)] = build_tower(p, e, s)
    require(towers[(2, 1, 2)].top_modulus == (1, 1, 1), "F_4 top modulus is x^2 + x + 1")
    require(towers[(3, 1, 2)].top_modulus == (1, 0, 1), "F_9 top modulus is x^2 + 1")
    ok("canonical moduli for F_4, F_9, F_64")

    # field axioms on random elements: distributivity of the product kernel,
    # inverses by elimination
    for tower in towers.values():
        for _ in range(40):
            a, b, c = (tower.rand(rng, (1, 1)) for _ in range(3))
            left = tower.matmul(a, tower.fq.vadd(b, c))
            right = tower.fq.vadd(tower.matmul(a, b), tower.matmul(a, c))
            require(np.array_equal(left, right), f"distributivity in {tower!r}")
            if a.any():
                inv = ext_inv_matrix(a, tower)
                require(tuple(tower.matmul(a, inv)[0, 0]) == tower.one, f"inverse in {tower!r}")
    ok("field axioms on random elements")

    # vectorized subfield rank agrees with the scalar implementation
    for tower in towers.values():
        fq = tower.fq
        for _ in range(20):
            mat = fq.rand(rng, (5, 4))
            require(fq_rank(mat, fq) == _small_rank(mat, fq), f"subfield rank in {tower!r}")
    ok("rank agrees with the reference elimination")

    # end-to-end retrieval at the default preset and a ternary variant
    for params in [DEFAULT_PARAMS,
                   SchemeParams(p=3, e=1, s=2, v=1, n=4, k=2, m=5, L=2)]:
        tower = build_tower(params.p, params.e, params.s)
        for _ in range(3):
            target = int(rng.integers(1, params.m + 1))
            db = Database.random(params, rng)
            query, secrets = generate_query(params, tower, target, rng)
            answer = respond(db, query, params, tower)
            require(np.array_equal(decode(answer, secrets, params, tower), db.files[target - 1]),
                    f"retrieval of file {target} at {params}")
    ok("retrieval round trips exactly")

    # the distinguisher names the right block
    tower = build_tower(DEFAULT_PARAMS.p, DEFAULT_PARAMS.e, DEFAULT_PARAMS.s)
    for _ in range(5):
        target = int(rng.integers(1, DEFAULT_PARAMS.m + 1))
        query, _ = generate_query(DEFAULT_PARAMS, tower, target, rng)
        report = recover_index(query, DEFAULT_PARAMS, tower)
        require(report.recovered_index == target, f"attack names target {target}")
    ok("rank attack recovers the target at the preset")

    # subspace counting identities
    require(analysis.gaussian_binomial(2, 1, 2) == 3, "[2 choose 1]_2 == 3")
    require(analysis.gaussian_binomial(4, 2, 2) == 35, "[4 choose 2]_2 == 35")
    for b in range(2, 8):
        for a in range(1, b):
            lhs = analysis.gaussian_binomial(b, a, 3)
            rhs = (analysis.gaussian_binomial(b - 1, a - 1, 3)
                   + 3**a * analysis.gaussian_binomial(b - 1, a, 3))
            require(lhs == rhs, f"q-Pascal recurrence at b={b}, a={a}")
    ok("subspace counts and recurrence")

    # serialization round trip on every supported small field
    import io as _io
    for (p, e, s) in [(2, 1, 2), (2, 2, 3), (3, 1, 2)]:
        q = p**e
        arr = rng.integers(0, q, size=(3, 5, s))
        buf = _io.BytesIO()
        serialization.save_matrix(buf, arr, p, e, s)
        buf.seek(0)
        back = serialization.load_matrix(buf)
        require(np.array_equal(back.data, arr), f"matrix file round trip over F_{q}^{s}")
    ok("matrix files round-trip")

    print(f"selftest passed ({checks} checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gendb)

    p = sub.add_parser("query", help="generate a query and its secrets")
    add_params(p)
    p.add_argument("--target", type=int, required=True, help="1-based file index")
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--fallback-argmin", action="store_true",
                   help="on ambiguity, guess the lowest-rank block instead of failing")
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
    p.add_argument("--fallback-argmin", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
