"""Command-line front end.

Exit codes: 0 pass/valid, 1 falsified/invalid, 2 input error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import DEFAULT_TOL
from .errors import QrtModalError
from .formulas import is_valid, parse
from .generate import GeneratorConfig, generate_qrt
from .harness import SECTIONS, run_theorems
from .io import (
    dumps,
    load_json,
    model_from_dict,
    qrt_from_dict,
    qrt_to_dict,
    record_to_dict,
    save_json,
)
from .kripke import StarredModel
from .translate import to_model


def _tolerance(text: str) -> float:
    """The --tolerance type: a finite number at least 0. argparse turns
    the error into exit 2 with a message naming the option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # fails the check below
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _at_least(low: int):
    """The type of an integer option whose values start at low, such as
    --seed, which numpy's generators take from 0. argparse turns the error
    into exit 2 with a message naming the option."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # fails the check below
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _dims(text: str) -> tuple:
    """The type of --dims; the generator's config checks the values."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma-separated list of integers, got {text!r}") from None


def _tolerances(args) -> float:
    return DEFAULT_TOL if args.tolerance is None else args.tolerance


def _load_qrt(path, tol):
    return qrt_from_dict(load_json(path), tol)


def cmd_validate(args) -> int:
    q = _load_qrt(args.file, _tolerances(args))
    report = q.validate()
    if args.json:
        print(dumps(report.to_dict()), end="")
    else:
        print(report.text())
    return 0 if report.ok else 1


def cmd_translate(args) -> int:
    q = _load_qrt(args.file, _tolerances(args))
    report = q.validate()
    if not report.ok:
        print(report.text(), file=sys.stderr)
        return 1
    payload = record_to_dict(to_model(q), args.star)
    if args.out:
        save_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        print(dumps(payload), end="")
    return 0


def cmd_check(args) -> int:
    loaded = model_from_dict(load_json(args.model))
    model = loaded.model if isinstance(loaded, StarredModel) else loaded
    valid, witness = is_valid(model, parse(args.formula), warn_domains=False)
    if args.json:
        print(dumps({"valid": valid, "witness": witness}), end="")
    elif valid:
        print("valid")
    else:
        print(f"invalid at world {witness}")
    return 0 if valid else 1


def cmd_theorems(args) -> int:
    if args.tolerance is not None and not args.files:
        print("error: --tolerance applies only to theory files", file=sys.stderr)
        return 2
    tol = _tolerances(args)
    family = None
    if args.files:
        family = []
        for path in args.files:
            q = _load_qrt(path, tol)
            rep = q.validate()
            if not rep.ok:
                print(f"error: {path}: {rep.text()}", file=sys.stderr)
                return 2
            family.append((path, q))
    injected = [(path, model_from_dict(load_json(path))) for path in args.models or []]
    report = run_theorems(
        family=family,
        injected_models=injected,
        seed=args.seed,
        count=args.count,
        include_corpus=not args.no_corpus,
        smc_cap=args.cap,
    )
    built = len(report["family"])
    if family is None and built < args.count:  # the generator found fewer classes than asked
        print(f"note: the family has {built} theories, fewer than the {args.count} asked", file=sys.stderr)
    if args.json:
        print(dumps(report), end="")
    else:
        for key in SECTIONS:
            print(f"{key:22s} {'ok' if report[key]['ok'] else 'FALSIFIED'}")
        print(f"status: {report['status']}")
    return report["status"]


def cmd_generate(args) -> int:
    import os

    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            n_systems=args.systems,
            dims=args.dims,
            states_per_system=args.states,
            channel_density=args.density,
            ensure_trivial=not args.no_trivial,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        q = generate_qrt(cfg, index=i)
        path = os.path.join(args.out, f"qrt_{args.seed}_{i}.qrt.json")
        save_json(path, qrt_to_dict(q))
        print(f"wrote {path}")
    return 0


def cmd_examples(args) -> int:
    from .corpus import write_corpus

    for path in write_corpus(args.out):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrtmodal",
        description="Finite quantum resource theories and their modal-logic translations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a theory file against all invariants")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tolerance", type=_tolerance)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("translate", help="translate a theory into a model file")
    p.add_argument("file")
    p.add_argument("--star", action="store_true", help="include the convertibility preorder")
    p.add_argument("--out")
    p.add_argument("--tolerance", type=_tolerance)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="model-check a formula against a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("theorems", help="run every theorem oracle over a family")
    p.add_argument("files", nargs="*", help="theory files to use instead of a generated family")
    p.add_argument("--models", nargs="*", help="model files injected into the image checks")
    p.add_argument("--seed", type=_at_least(0), default=1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--cap", type=int, default=5, help="object size cap for category checks")
    p.add_argument("--no-corpus", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tolerance", type=_tolerance)
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("generate", help="write a seeded family of theory files")
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--count", type=_at_least(1), default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--systems", type=int, default=3)
    p.add_argument("--dims", type=_dims, default="1,2,3")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--no-trivial", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("examples", help="write the shipped example corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_examples)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, QrtModalError) as exc:  # input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
