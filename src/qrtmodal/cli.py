"""Command-line front end.

Exit codes: 0 pass/valid, 1 falsified/invalid, 2 input error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import DEFAULT_TOLERANCES, Tolerances
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
from .qrt import complete_composition
from .translate import to_model


def _tolerances(args) -> Tolerances:
    if getattr(args, "tolerance", None) is not None:
        return Tolerances.uniform(args.tolerance)
    return DEFAULT_TOLERANCES


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
    if not q.is_composition_complete():
        q = complete_composition(q)
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
            if not q.is_composition_complete():
                q = complete_composition(q)
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
            dims=tuple(int(d) for d in args.dims.split(",")),
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
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("translate", help="translate a theory into a model file")
    p.add_argument("file")
    p.add_argument("--star", action="store_true", help="include the convertibility preorder")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="model-check a formula against a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("theorems", help="run every theorem oracle over a family")
    p.add_argument("files", nargs="*", help="theory files to use instead of a generated family")
    p.add_argument("--models", nargs="*", help="model files injected into the image checks")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--cap", type=int, default=5, help="object size cap for category checks")
    p.add_argument("--no-corpus", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("generate", help="write a seeded family of theory files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--systems", type=int, default=3)
    p.add_argument("--dims", default="1,2,3")
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
