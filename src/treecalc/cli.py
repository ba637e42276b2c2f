"""Command-line front end: identity verification, series expansion, and
exhaustive enumeration, with machine-readable output for scripting.

Exit codes are stable: 0 success (identities equal, oracles matched),
1 an identity or oracle check failed, 2 parse error, 3 size guard, 141
stdout closed early.  Configuration precedence is flags > TREECALC_*
environment variables > an optional JSON config file passed with --config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode
from math import factorial

from . import identities
from .combinat import (
    BinaryTree,
    PlaneTree,
    binary_trees,
    mary_trees,
    packed_words,
    permutations,
    plane_trees,
)
from .errors import ParseError, SizeGuardError, TreecalcError, refuse_large
from .fqsym import tree_term
from .series import TruncatedSeries, fixed_point_binary, fixed_point_mary, integrate

DEFAULT_MAX_DEGREE = 7
DEFAULT_ORDER = 8
OUTPUT_FORMATS = ("text", "json", "csv")


class CliConfig:
    max_degree = DEFAULT_MAX_DEGREE
    truncation_order = DEFAULT_ORDER
    output_format = "text"
    unsafe_large = False


# the JSON type of each config-file value; a JSON true is not an integer here
CONFIG_TYPES = {
    "max_degree": (int, "an integer"),
    "truncation_order": (int, "an integer"),
    "output_format": (str, "a string"),
    "unsafe_large": (bool, "true or false"),
}


def load_config(args: argparse.Namespace) -> CliConfig:
    config = CliConfig()
    try:
        if getattr(args, "config", None):
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError(f"the file must hold a JSON object, got {json.dumps(data)}")
            for name, (kind, spelled) in CONFIG_TYPES.items():
                value = data.get(name, getattr(config, name))
                if type(value) is not kind:
                    raise ValueError(f"{name} must be {spelled}, got {json.dumps(value)}")
                setattr(config, name, value)
            if config.output_format not in OUTPUT_FORMATS:
                raise ValueError(
                    f"output_format must be one of {', '.join(OUTPUT_FORMATS)}, "
                    f"got {config.output_format!r}"
                )
        if "TREECALC_MAX_DEGREE" in os.environ:
            config.max_degree = int(os.environ["TREECALC_MAX_DEGREE"])
        if "TREECALC_ORDER" in os.environ:
            config.truncation_order = int(os.environ["TREECALC_ORDER"])
        if config.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {config.max_degree}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad configuration: {exc}") from exc
    if getattr(args, "order", None) is not None:
        config.truncation_order = args.order
    # only identity and expand take an order; a flag overrides the setting
    if hasattr(args, "order") and config.truncation_order < 0:
        raise ParseError(f"order must be >= 0, got {config.truncation_order}")
    if getattr(args, "format", None):
        config.output_format = args.format
    if getattr(args, "unsafe_large", False):
        config.unsafe_large = True
    return config


def _print_json(payload: dict) -> None:
    """Print json.dumps(payload, indent=2), a list that comes last (the
    "items" or "per_tree" iterator of a command) row by row as it is read,
    each row, a string or an object of strings, through the C string
    encoder, since the indented encoder is pure Python.  The rest goes out
    with the first row, so a guard raised by the first read prints nothing."""
    last = next(reversed(payload))
    if last not in ("items", "per_tree"):
        print(json.dumps(payload, indent=2))
        return
    head = json.dumps({k: v for k, v in payload.items() if k != last}, indent=2)
    write = sys.stdout.write
    separator = f'{head[:-2]},\n  "{last}": [\n    '  # head ends with "\n}"
    for row in payload[last]:
        if type(row) is str:
            row = _encode(row)
        else:
            fields = [f"{_encode(key)}: {_encode(value)}" for key, value in row.items()]
            row = "{\n      " + ",\n      ".join(fields) + "\n    }"
        write(separator + row)
        separator = ",\n    "
    write("\n  ]\n}\n" if separator == ",\n    " else separator[:-5] + "]\n}\n")


def _print_payload(payload: dict, config: CliConfig, text_lines) -> None:
    if config.output_format == "json":
        _print_json(payload)
    elif config.output_format == "csv":
        import csv  # here, so that the other formats never load it (~0.3 MiB RSS)

        writer = csv.writer(sys.stdout, lineterminator="\n")
        rows = iter(payload.get("per_tree") or payload.get("items") or [
            {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        ])
        first = next(rows, None)  # rows are written as they come, after the first
        if isinstance(first, dict):  # its keys are the header
            writer.writerow(first)
            writer.writerows(map(dict.values, chain([first], rows)))
        elif first is not None:  # enumerated items, one field each: zip makes 1-tuples
            writer.writerows(zip(chain([first], rows)))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# hook
# ---------------------------------------------------------------------------


def cmd_hook(args: argparse.Namespace, config: CliConfig) -> int:
    tree = BinaryTree.from_text(args.tree)
    if tree.is_empty:
        raise ParseError("the empty tree has no hook data")
    n = tree.node_count
    statistic = args.q
    if statistic != "none":
        refuse_large(f"q-hook of a {n}-node tree", n, identities.QHOOK_GUARD, config.unsafe_large)
    closed_form, _ = identities.HOOK_STATISTICS[statistic]
    value = closed_form(tree)

    payload: dict = {
        "tree": tree.text,
        "nodes": n,
        "statistic": None if statistic == "none" else statistic,
        "value": str(value),
    }
    lines = [str(value)]
    exit_code = 0

    if args.oracle:
        refuse_large(f"oracle over S_{n}", n, config.max_degree, config.unsafe_large, "max degree")
        oracle_value = identities.hook_oracle(tree, statistic, unsafe_large=config.unsafe_large)
        match = oracle_value == value
        payload["oracle"] = {"value": str(oracle_value), "match": match}
        lines.append(f"oracle: {oracle_value} ({'match' if match else 'MISMATCH'})")
        if not match:
            exit_code = 1

    if args.dump:
        # guarded by the fiber it builds; a fiber in S_n holds at most n!
        fiber = identities.hook_count(tree)
        degree = min(config.max_degree, n)
        what = f"element dump of {fiber} permutations"
        refuse_large(what, fiber, factorial(degree), config.unsafe_large, f"{degree}! =")
        # built only for the format that prints it; CSV prints scalar fields only
        if config.output_format == "json":
            payload["element"] = tree_term(tree).to_json()
        elif config.output_format == "text":
            lines.append(json.dumps(tree_term(tree).to_json()))

    _print_payload(payload, config, lines)
    return exit_code


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def _needs(args: argparse.Namespace, flag: str):
    """The value of --flag, without which identity args.name cannot run."""
    value = getattr(args, flag)
    if value is None or value == "":
        raise ParseError(f"identity {args.name} needs --{flag}")
    return value


def _postnikov_n(args: argparse.Namespace) -> int:
    n = _needs(args, "n")
    if n < 1:
        raise ParseError(f"identity postnikov needs --n >= 1, got {n}")
    return n


def _ft_tree(args: argparse.Namespace) -> PlaneTree:
    tree = PlaneTree.from_text(_needs(args, "tree"))
    if tree.is_leaf:
        raise ParseError("identity ft needs a nonempty plane tree")
    return tree


# The choice tables below list each choice once, in the order --help shows
# them.  Every entry looks the library up when it is called, never holding a
# function itself, so a function rebound on its module is the one that runs.
IDENTITIES = {
    "postnikov": lambda args, config: identities.postnikov_check(_postnikov_n(args)),
    "eisenstein": lambda args, config: identities.eisenstein_check(config.truncation_order),
    "duliu": lambda args, config: identities.duliu_check(args.variant, _needs(args, "n"), args.m),
    "lagrange": lambda args, config: identities.lagrange_fixed_point_check(
        args.m, config.truncation_order
    ),
    "ft": lambda args, config: identities.ft_check(
        _ft_tree(args), unsafe_large=config.unsafe_large
    ),
}


def cmd_identity(args: argparse.Namespace, config: CliConfig) -> int:
    report = IDENTITIES[args.name](args, config)
    payload = report.to_json()
    if args.per_tree and report.per_tree_rows:
        payload["per_tree"] = report.per_tree_rows()  # streamed; to_json would list them
    lines = [
        f"identity={report.name} equal={'true' if report.equal else 'false'}",
        f"lhs={report.lhs}",
        f"rhs={report.rhs}",
    ]
    if "per_tree" in payload:  # each row as "tree: coefficient", as it is yielded
        lines = chain(lines, map(": ".join, map(dict.values, payload["per_tree"])))
    _print_payload(payload, config, lines)
    return 0 if report.equal else 1


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _inverse_linear_operator(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return integrate(x * y)


EQUATIONS = {
    "inverse-linear": lambda m, order: fixed_point_binary(
        _inverse_linear_operator, TruncatedSeries.constant(Fraction(1), order), order
    ),
    "postnikov": lambda m, order: fixed_point_binary(
        identities.postnikov_operator, TruncatedSeries.constant(Fraction(1), order), order
    ),
    "duliu": lambda m, order: fixed_point_mary(identities.lagrange_operator(m), m, order),
    "plane-q": lambda m, order: identities.plane_q_expansion(order),
}


def cmd_expand(args: argparse.Namespace, config: CliConfig) -> int:
    order = config.truncation_order
    equation = args.equation
    expansion = EQUATIONS[equation](args.m, order)
    total = expansion.total
    text = config.output_format == "text"

    def rows():
        # each row is built as its format prints it, each distinct term
        # formatted once: the engine interns them, so trees share objects
        shown: dict = {}  # id(term) -> its printed form
        for tree, term in expansion.terms:
            printed = shown.get(id(term))
            if printed is None:
                printed = shown[id(term)] = str(term) if text else json.dumps(term.to_json())
            yield f"{tree.text}: {printed}" if text else {"tree": tree.text, "term": printed}

    payload: dict = {
        "equation": equation,
        "order": order,
        "series": total.to_json(),
    }
    if args.per_tree and not text:
        payload["per_tree"] = rows()
    _print_payload(payload, config, chain([str(total)], rows() if args.per_tree and text else ()))
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


FAMILIES = {
    "binary-trees": lambda n, m, unsafe: binary_trees(n, unsafe_large=unsafe),
    "mary-trees": lambda n, m, unsafe: mary_trees(m, n, unsafe_large=unsafe),
    "plane-trees": lambda n, m, unsafe: plane_trees(n, unsafe_large=unsafe),
    "permutations": lambda n, m, unsafe: permutations(n, unsafe_large=unsafe),
    "packed-words": lambda n, m, unsafe: packed_words(n, unsafe_large=unsafe),
}


def cmd_enumerate(args: argparse.Namespace, config: CliConfig) -> int:
    stream = FAMILIES[args.family](args.n, args.m, config.unsafe_large)
    payload: dict = {"family": args.family, "n": args.n}
    if args.count_only:
        payload["count"] = sum(1 for _ in stream)
        lines = [str(payload["count"])]
    else:  # every format prints each item as it is yielded
        lines = payload["items"] = map(str, stream)
    _print_payload(payload, config, lines)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecalc",
        description="Exact tree-expansion calculus and hook-length identity checks.",
    )
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    parser.add_argument("--config", default=None, help="path to a JSON config file")
    parser.add_argument(
        "--unsafe-large",
        action="store_true",
        help="override the enumeration size guards",
    )

    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps an absent flag from clobbering the top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=OUTPUT_FORMATS, default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--unsafe-large", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p_hook = sub.add_parser("hook", parents=[common], help="hook-length values of a binary tree")
    p_hook.add_argument("tree", help="tree in the (left,right) grammar, '_' empty")
    p_hook.add_argument("--q", choices=identities.HOOK_STATISTICS, default="none")
    p_hook.add_argument("--oracle", action="store_true")
    p_hook.add_argument("--dump", action="store_true",
                        help="dump the fiber element as JSON")
    p_hook.set_defaults(func=cmd_hook)

    p_id = sub.add_parser("identity", parents=[common], help="verify an identity from the suite")
    p_id.add_argument("name", choices=IDENTITIES)
    p_id.add_argument("--n", type=int, default=None)
    p_id.add_argument("--m", type=int, default=1)
    p_id.add_argument("--order", type=int, default=None)
    p_id.add_argument("--variant", choices=("las1", "las2", "las3"), default="las2")
    p_id.add_argument("--tree", default=None)
    p_id.add_argument("--per-tree", action="store_true", dest="per_tree")
    p_id.set_defaults(func=cmd_identity)

    p_exp = sub.add_parser("expand", parents=[common], help="tree-expand a fixed-point equation")
    p_exp.add_argument("equation", choices=EQUATIONS)
    p_exp.add_argument("--order", type=int, default=None)
    p_exp.add_argument("--m", type=int, default=1)
    p_exp.add_argument("--per-tree", action="store_true", dest="per_tree")
    p_exp.set_defaults(func=cmd_expand)

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream a combinatorial family")
    p_enum.add_argument("family", choices=FAMILIES)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--m", type=int, default=1)
    p_enum.add_argument("--count-only", action="store_true", dest="count_only")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def check_sizes(args: argparse.Namespace) -> None:
    """Reject a negative --n or an arity --m below 1 before any work starts."""
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise ParseError(f"--n must be >= 0, got {n}")
    m = getattr(args, "m", None)
    if m is not None and m < 1:
        raise ParseError(f"--m must be >= 1, got {m}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_sizes(args)
        config = load_config(args)
        code = args.func(args, config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); 141 = 128 + SIGPIPE, as a shell reports it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot fail again
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except TreecalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
