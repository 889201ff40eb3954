"""The pulseforge command line: argument parsing, one handler per
subcommand, and the console entry point.

Exit codes: 0 when every check passed, 1 when one failed, 2 on a usage
or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .harness import (
    GenerationError,
    GeneratorSpec,
    pulse_bound,
    refuse_oversized_spec,
    resolve_tree,
    sweep_rows,
    verify_model_check,
    verify_outcome,
    write_csv,
    write_json,
)
from .protocol import compile_even_rules, compile_general_rules
from .simulator import (
    SeededRandom,
    StateCapExceededError,
    explore_all_schedules,
    new_simulation,
    run,
)
from .topology import (
    decode_parens,
    encode_parens,
    enumerate_subtrees,
    is_edge_symmetric,
    layer_decomposition,
)


def _parse_range(text):
    """"lo..hi" or one value, as a range; nothing is built per value."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty range %r" % (text,))
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


def _parse_ids(text):
    if text is None:
        return None
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _seed(args):
    """--seed if given, else PULSEFORGE_SEED, else 0. Only the
    subcommands that take --seed read the variable."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PULSEFORGE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError("PULSEFORGE_SEED must be an integer, got %r"
                         % raw) from None


@contextlib.contextmanager
def _output(out_path):
    """The --out file, opened for writing with newline="", or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text, out_path):
    """Write text, which ends without a newline, and a newline."""
    with _output(out_path) as fh:
        fh.write(text + "\n")


def _report_failures(checks):
    """Print every failed check to stderr; the exit code they imply."""
    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        print("check failed: %s (expected %s, observed %s)"
              % (c["name"], c["expected"], c["observed"]), file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args):
    t = resolve_tree(args.tree)
    state = new_simulation(t, args.alg, _parse_ids(args.ids),
                           record_trace=args.trace is not None)
    budget = args.budget or max(1, pulse_bound(t, args.alg, state.ids))
    outcome = run(state, SeededRandom(_seed(args)), budget)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in outcome.trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _emit(json.dumps(outcome.to_dict(), sort_keys=True, indent=2), args.out)
    return _report_failures(verify_outcome(outcome, t, args.alg)["checks"])


def _cmd_rules(args):
    t = resolve_tree(args.tree)
    if args.alg == "even":
        rules = compile_even_rules(layer_decomposition(t).diameter)
    else:
        rules = compile_general_rules(t)
    _emit("\n".join(rules.describe()), args.out)
    return 0


def _canonical_shapes(children):
    """The parenthesis string of each shape class 1..count, built in
    class order from the strings of its child classes, sorted."""
    enc = [None]
    for kids in children[1:]:
        enc.append("(" + "".join(sorted(enc[c] for c in kids)) + ")")
    return enc[1:]


def _cmd_layers(args):
    t = resolve_tree(args.tree)
    layering = layer_decomposition(t)
    index = enumerate_subtrees(t, layering)
    doc = {
        "n": t.n,
        "diameter": layering.diameter,
        "radius": layering.radius,
        "layers": [list(block) for block in layering.layers],
        "parent_of": list(layering.parent_of),
        "root": layering.root,
        "co_root": layering.co_root,
        "arbitrary_root": layering.arbitrary_root,
        "shape_count": index.count,
        "class_of": list(index.class_of),
        "quota_of": [index.quota_of(v) for v in range(t.n)],
        "canonical": _canonical_shapes(index.children),
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_symmetry(args):
    t = resolve_tree(args.tree)
    report = is_edge_symmetric(t)
    doc = {"symmetric": report.symmetric,
           "witness_edge": None if report.witness_edge is None
           else list(report.witness_edge)}
    _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_mc(args):
    t = resolve_tree(args.tree)
    ids = _parse_ids(args.ids)
    report = explore_all_schedules(t, args.alg, ids,
                                   max_states=args.max_states)
    _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2), args.out)
    return _report_failures(verify_model_check(report, t, ids)["checks"])


def _cmd_sweep(args):
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1, got %d" % args.seeds)
    if args.budget < 0:
        raise ValueError("--budget must not be negative, got %d"
                         % args.budget)
    ns = _parse_range(args.n) if args.n else [None]
    radii = _parse_range(args.radius) if args.radius else [None]
    kind = args.gen.replace("-", "_")
    if kind == "complete_binary":
        if args.radius is None:
            raise ValueError("complete-binary sweeps need --radius")
        refuse_oversized_spec(GeneratorSpec(kind, radius=radii[-1]))
        specs = [GeneratorSpec(kind, radius=r) for r in radii]
    else:
        if args.n is None:
            raise ValueError("--n is required for generator %r" % args.gen)
        refuse_oversized_spec(GeneratorSpec(kind, n=ns[-1]))
        specs = [GeneratorSpec(kind, n=n) for n in ns]
    first = _seed(args)
    results = sweep_rows(specs, args.alg, range(first, first + args.seeds),
                         budget=args.budget)
    write = write_json if args.format == "json" else write_csv
    with _output(args.out) as fh:
        failures = write(fh, results)
    return _report_failures(failures)


def _cmd_encode(args):
    t = resolve_tree(args.tree)
    root = args.root if args.root is not None else layer_decomposition(t).root
    if not 0 <= root < t.n:
        raise ValueError("root %d out of range" % root)
    _emit(encode_parens(t, root), args.out)
    return 0


def _cmd_decode(args):
    text = sys.stdin.read() if args.text == "-" else args.text
    t = decode_parens(text.strip())
    lines = ["%d %d" % edge for edge in t.edges()]
    _emit("\n".join(lines) if lines else "", args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pulseforge",
        description="Simulate and verify content-oblivious leader election "
                    "on trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tree=True, alg=None, seeded=False):
        if tree:
            p.add_argument("--tree", required=True,
                           help="edge-list file or builtin "
                                "(single, pathN, starN, binaryN, c5)")
        if alg:
            p.add_argument("--alg", required=True, choices=alg)
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="default from PULSEFORGE_SEED, else 0")
        p.add_argument("--out", default=None, help="write output here "
                       "instead of stdout")

    p = sub.add_parser("run", help="simulate one run, print the outcome")
    common(p, alg=("even", "general", "stabilizing"), seeded=True)
    p.add_argument("--budget", type=int, default=0,
                   help="max deliveries, 0 = the algorithm's pulse bound")
    p.add_argument("--ids", default=None,
                   help="comma-separated IDs for the stabilizing algorithm")
    p.add_argument("--trace", default=None,
                   help="write a JSONL delivery trace here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("rules", help="print the compiled rule set")
    common(p, alg=("even", "general"))
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("layers", help="print layering and subtree classes")
    common(p)
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("symmetry", help="test for edge symmetry")
    common(p)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("mc", help="exhaustive schedule exploration")
    common(p, alg=("even", "general", "stabilizing"))
    p.add_argument("--ids", default=None)
    p.add_argument("--max-states", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("sweep", help="batch experiments to CSV or JSON")
    common(p, tree=False, alg=("even", "general", "stabilizing"),
           seeded=True)
    p.add_argument("--gen", required=True,
                   choices=("path", "star", "complete-binary", "random",
                            "random-asymmetric"))
    p.add_argument("--n", default=None, help="size or range, e.g. 7 or 4..12")
    p.add_argument("--radius", default=None,
                   help="radius or range for complete-binary")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds, starting at --seed")
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("encode", help="advice string for a tree")
    common(p)
    p.add_argument("--root", type=int, default=None,
                   help="root vertex, default: the oracle winner")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="advice string back to an edge list")
    p.add_argument("text", help="parenthesis string, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decode)

    return parser


def cli(argv):
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # Every input error of the package is a ValueError, bar these; a
    # walk or run too large for memory is refused like one.
    except (ValueError, StateCapExceededError, GenerationError,
            OSError, MemoryError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
