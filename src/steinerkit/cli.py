"""Command-line entry points: solve, train, bench, reduce.

Instance sources are either a SteinLib .stp path, a directory of .stp
files, or a compact generator spec like ``rr:n=30,m=0.2,w=1:5``; ``solve``
takes exactly one instance, so not a directory.  Every default, choice
list, ratio and cap comes from the module that owns it.  All randomness
flows from --seed, so every command is reproducible.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .bench import (
    ACTIVE_BUDGET,
    METHODS,
    PARAM_METHODS,
    REFERENCES,
    run_bench,
    solve_with_method,
)
from .generators import generate, parse_generator_spec
from .qnet import load_checkpoint, save_checkpoint
from .reductions import REDUCTIONS
from .rl import DdqnConfig, train, write_curve_csv
from .solvers import cost_ratio
from .steinlib import edge_list_text, parse_steinlib_file, write_steinlib_file

VALIDATION_SEED_OFFSET = 1_000_000
SOURCE_HELP = ".stp file, directory of .stp files, or generator spec"

# DdqnConfig fields settable from `train`, in --help order; each flag's
# type and default are the field's own
HYPER_FLAGS = ("rounds", "batch", "gamma", "lr", "k", "p_dim", "epsilon_start",
               "epsilon_end", "target_sync", "replay_cap")

SWEEPS = {
    "batch": (8, 16, 32, 64, 128),
    "lr": (1e-3, 1e-4, 1e-5),
    "k": (1, 2, 3, 4),
    "gamma": (0.2, 0.4, 0.8),
}


def _resolve(source: str, seed: int):
    """``(kind, instances)`` of what a source names: an existing "directory"'s
    .stp files in name order, parsed as they are taken; an existing "file",
    read as .stp whatever its suffix; else, unless it looks like a path, a
    "spec": the endless generator stream seeded seed, seed + 1, ..."""
    if not source.strip():  # Path("") is the working directory
        raise ValueError("the instance source is empty")
    path = Path(source)
    if path.is_dir():
        files = sorted(path.glob("*.stp"))
        if not files:
            raise ValueError(f"no .stp files under {source}")
        return "directory", map(parse_steinlib_file, files)
    if path.is_file():
        return "file", [parse_steinlib_file(path)]
    if source.endswith(".stp"):
        raise ValueError(f"instance file not found: {source}")
    if any(c in source.partition(":")[0] for c in (".", "/", os.sep)):
        raise ValueError(f"instance source not found: {source}")
    base = parse_generator_spec(source, seed=seed)
    return "spec", (generate(replace(base, seed=seed + i)) for i in itertools.count())


def _first(instances, count: int, flag: str) -> list:
    if count < 0:
        raise ValueError(f"{flag} must be non-negative, got {count}")
    return list(itertools.islice(instances, count))


def _config_from_args(args) -> DdqnConfig:
    return DdqnConfig(seed=args.seed, **{f: getattr(args, f) for f in HYPER_FLAGS})


def _require_checkpoint(args, methods):
    if not any(m in PARAM_METHODS for m in methods):
        return None
    if not args.checkpoint:
        raise ValueError(f"methods {' and '.join(map(repr, PARAM_METHODS))} "
                         f"need --checkpoint")
    return load_checkpoint(args.checkpoint)[0]


def cmd_solve(args) -> int:
    kind, instances = _resolve(args.instance, args.seed)
    if kind == "directory":
        raise ValueError(f"solve takes one instance, not the directory {args.instance}")
    instance = next(iter(instances))
    params = _require_checkpoint(args, [args.method])
    tree, wall = solve_with_method(instance, args.method, params=params,
                                   active_budget=args.rounds, seed=args.seed)
    report = {
        "instance": instance.id,
        "method": args.method,
        "cost": tree.cost,
        "edges": [[u, v, w] for u, v, w in tree.edges],
        "vertices": sorted(tree.vertices),
        "terminals": instance.terminal_list,
        "wall_time": wall,
    }
    if instance.known_opt is not None:
        report["known_opt"] = instance.known_opt
        report["ratio_vs_opt"] = cost_ratio(tree.cost, instance.known_opt)
    if instance.bound is not None:
        report["bound"] = instance.bound
        report["ratio_vs_bound"] = cost_ratio(tree.cost, instance.bound)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.tree_out:
        Path(args.tree_out).write_text(edge_list_text(tree.edges))
    print(f"{args.method} cost {tree.cost:g} on {instance.id}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    out = args.out or "train"
    kind, instances = _resolve(args.source, args.seed)
    if kind == "spec":  # a fresh stream for every run; validation seeded apart
        validation = _resolve(args.source, args.seed + VALIDATION_SEED_OFFSET)[1]
        streams = (_resolve(args.source, args.seed)[1] for _ in itertools.count())
    else:  # every file parsed once, then cycled by every run
        validation = instances = list(instances)
        streams = (itertools.cycle(instances) for _ in itertools.count())
    validation = _first(validation, args.validation, "--validation")

    if args.sweep:
        field = args.sweep
        # every value's config is checked before any of them trains
        configs = [replace(_config_from_args(args), **{field: v}) for v in SWEEPS[field]]
        for value, cfg, stream in zip(SWEEPS[field], configs, streams):
            _, curve = train(stream, cfg, validation_instances=validation)
            tag = f"{value:g}" if isinstance(value, float) else str(value)
            write_curve_csv(curve, f"{out}.sweep-{field}-{tag}.curve.csv")
            final = f"{curve[-1].episode_cost:g}" if curve else "none (0 rounds)"
            print(f"sweep {field}={tag}: final episode cost {final}", file=sys.stderr)
        return 0

    cfg = _config_from_args(args)
    params, curve = train(next(streams), cfg, validation_instances=validation)
    ckpt = f"{out}.ckpt.json"
    save_checkpoint(params, ckpt, meta={"config": asdict(cfg)})
    write_curve_csv(curve, f"{out}.curve.csv")
    print(f"checkpoint written to {ckpt}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    _, source = _resolve(args.source, args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("no methods given")
    params = _require_checkpoint(args, methods)
    instances = _first(source, args.trials, "--trials")
    report = run_bench(instances, methods, reference=args.reference,
                       params=params, active_budget=args.rounds,
                       seed=args.seed, workers=args.workers)
    include_timing = not args.no_timing
    out = args.out or "bench"
    report.write_csv(f"{out}.csv", include_timing=include_timing)
    report.write_json(f"{out}.json", include_timing=include_timing)
    for method, ratio in report.aggregates().items():
        print(f"{method}: mean ratio vs {args.reference} = {ratio:.4f} "
              f"over {len(instances)} instances")
    return 0


def cmd_reduce(args) -> int:
    parse, reduce = REDUCTIONS[args.kind]
    red = reduce(*parse(Path(args.source).read_text()))
    witness_map = {
        **red.metadata(),
        "roles": {str(v): role for v, role in sorted(red.roles.items())},
    }
    if args.check:  # before any file is written, so a solver error leaves none
        witness_map["check"] = check = red.certify()

    out = args.out or red.instance.name
    stp_path = f"{out}.stp"
    write_steinlib_file(red.instance, stp_path)
    Path(f"{out}.witness.json").write_text(json.dumps(witness_map, indent=1) + "\n")
    print(f"wrote {stp_path}; bound = {red.bound:g}")
    if args.check:
        verdict = "YES" if check["yes_instance"] else "NO"
        print(f"optimal cost {check['optimal_cost']:g} -> {verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinerkit",
        description="Steiner tree toolkit: solvers, training, benchmarks, reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    checkpoint_help = f"trained parameters ({'/'.join(PARAM_METHODS)})"

    p = sub.add_parser("solve", help="solve one instance with a chosen method")
    p.add_argument("instance", help=".stp file or generator spec (not a directory)")
    p.add_argument("--method", choices=METHODS, default="classic")
    p.add_argument("--checkpoint", help=checkpoint_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=ACTIVE_BUDGET,
                   help="active-search budget")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--tree-out", help="write the tree edge list here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train the solver on an instance source")
    p.add_argument("source", help=SOURCE_HELP)
    p.add_argument("--seed", type=int, default=0)
    defaults = DdqnConfig()
    for name in HYPER_FLAGS:
        value = getattr(defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)
    p.add_argument("--validation", type=int, default=20,
                   help="instances for checkpoint selection: the source's first "
                        "ones (a spec's seeded from --seed + 1000000; a file's or "
                        "directory's are the training instances themselves)")
    p.add_argument("--sweep", choices=tuple(SWEEPS),
                   help="emit one learning curve per value of this knob")
    p.add_argument("--out", help="output prefix (checkpoint + curve)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="benchmark methods over an instance set")
    p.add_argument("source", help=SOURCE_HELP)
    p.add_argument("--methods", default="classic,exact",
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--reference", choices=REFERENCES, default="classic")
    p.add_argument("--trials", type=int, default=200,
                   help="how many instances to take from the source")
    p.add_argument("--checkpoint", help=checkpoint_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=ACTIVE_BUDGET,
                   help="active-search budget")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timing", action="store_true",
                   help="zero wall times so reports are byte-reproducible")
    p.add_argument("--out", help="output prefix (CSV + JSON)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reduce", help="reduce SAT/MVC/X3C to a Steiner instance")
    p.add_argument("kind", choices=tuple(REDUCTIONS))
    p.add_argument("source", help="DIMACS CNF / 'n m k' edges / triples file")
    p.add_argument("--check", action="store_true",
                   help="solve exactly and decode the witness")
    p.add_argument("--out", help="output prefix (.stp + witness map)")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
