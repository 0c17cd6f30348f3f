"""Command-line front end.

Thin shell over the library: parse arguments, call one function, print.
Exit codes: 0 success/PASS, 1 FAIL (witness printed) or output pipe closed
early, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import maps, qseries, verify
from .core import k_measure, parse, sol
from .shapes import (
    Border,
    alternating_index,
    dur2,
    dur2_sub,
    durfee_side,
    modular2_diagram,
    sub_durfee_side,
)


def _stats(p) -> tuple[dict, str]:
    """Every statistic of ``p``, as the JSON payload and the text built
    together in text order: ``sol`` for a strict partition, the sub-Durfee
    sides (with their type) for a nonempty one, ``alt`` for odd parts."""
    data: dict[str, object] = {"partition": str(p)}
    lines = [f"partition: {p}"]

    def add(key, value, kind=None):
        data[key] = value
        line = f"{key}={str(value).lower()}"
        if kind is not None:
            data[f"{key}_type"] = kind.value
            line += f" (type {kind.value})"
        lines.append(line)

    add("size", p.size)
    add("length", p.length)
    add("strict", p.is_strict())
    add("odd_parts", p.is_odd_parts())
    if p.is_strict():
        add("sol", sol(p))
    add("Dur", durfee_side(p))
    if p:
        kind, side = sub_durfee_side(p)
        add("dur", side, kind)
    add("Dur2", dur2(p))
    if p:
        kind, side = dur2_sub(p)
        add("dur2", side, kind)
    for k in (1, 2, 3):
        add(f"mu{k}", k_measure(p, k))
    if p.is_odd_parts():
        add("alt", alternating_index(p))
    return data, "\n".join(lines)


def _emit(args, data, text: str) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _cmd_stats(args) -> int:
    _emit(args, *_stats(parse(args.partition)))
    return 0


def _cmd_map(args) -> int:
    if args.name == "phi":
        case, image = maps.involution_phi(maps.parse_pair(args.argument))
        shown = f"{image.lam}|{image.eta}"
        _emit(args, {"map": "phi", "case": case.name, "image": shown}, f"{shown} [{case.name}]")
    else:  # sylvester or glaisher, a function of the same name in maps
        image = str(getattr(maps, args.name)(parse(args.argument)))
        _emit(args, {"map": args.name, "image": image}, image)
    return 0


def _cmd_series(args) -> int:
    params = {key: value for key, value in (("k", args.k), ("m", args.m)) if value is not None}
    text = qseries.build(args.name, args.order, **params).serialize()
    _emit(
        args,
        {"series": args.name, "order": args.order, "terms": text.splitlines()},
        text,
    )
    return 0


def _cmd_verify(args) -> int:
    bounds = {"nmax": args.nmax, "order": args.order, "k": args.k, "mmax": args.m}
    given = [key for key, value in bounds.items() if value is not None]
    if args.checker != "all":
        reports = [verify.verify(args.checker, **bounds)]  # unset (None) bounds are skipped
    elif given:
        raise ValueError(f"verify all runs at profile bounds; it does not accept {given}")
    else:
        reports = verify.verify_all(profile=args.profile)
    _emit(args, [r.to_dict() for r in reports], "\n".join(r.text() for r in reports))
    return 0 if all(reports) else 1


def _cmd_table(args) -> int:
    text = maps.involution_table(args.n)
    _emit(args, {"table": "involution", "n": args.n, "rows": text.splitlines()}, text)
    return 0


def _cmd_examples(args) -> int:
    sets = verify.example_sets(args.preset)
    data = {key: [str(p) for p in values] for key, values in sets.items()}
    text = "\n".join(f"{key}: " + ", ".join(values) for key, values in data.items())
    _emit(args, {"preset": args.preset, "sets": data}, text)
    return 0


def _cmd_diagram(args) -> int:
    text = modular2_diagram(parse(args.partition), Border(args.border)).render()
    _emit(
        args,
        {"partition": args.partition, "border": args.border, "rows": text.splitlines()},
        text,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-lab",
        description="Exact partition statistics, bijections, q-series and checkers.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="print every statistic of a partition")
    stats.add_argument("partition")
    stats.set_defaults(func=_cmd_stats)

    mp = commands.add_parser("map", help="apply a named transformation")
    mp.add_argument("name", choices=("sylvester", "glaisher", "phi"))
    mp.add_argument("argument", help="partition literal, or 'strict|labeled' for phi")
    mp.set_defaults(func=_cmd_map)

    series = commands.add_parser("series", help="emit a named series, one term per line")
    series.add_argument("name", choices=qseries.SERIES_NAMES)
    series.add_argument("--order", type=int, required=True)
    series.add_argument("--k", type=int, default=None)
    series.add_argument("--m", type=int, default=None)
    series.set_defaults(func=_cmd_series)

    ver = commands.add_parser("verify", help="run a checker, or 'all'")
    ver.add_argument("checker", choices=("all",) + tuple(verify.CHECKERS))
    ver.add_argument("--nmax", type=int, default=None)
    ver.add_argument("--order", type=int, default=None)
    ver.add_argument("--k", type=int, default=None)
    ver.add_argument("--m", type=int, default=None, help="mmax for LEMMA51")
    ver.add_argument("--profile", choices=("desk",), default="desk")
    ver.set_defaults(func=_cmd_verify)

    table = commands.add_parser("table", help="emit the two-column involution table")
    table.add_argument("name", choices=("involution",))
    table.add_argument("--n", type=int, default=6)
    table.set_defaults(func=_cmd_table)

    examples = commands.add_parser("examples", help="emit a worked example family")
    examples.add_argument("preset", choices=("16-4-2", "15-3-1"))
    examples.set_defaults(func=_cmd_examples)

    diagram = commands.add_parser("diagram", help="draw a 2-modular diagram")
    diagram.add_argument("partition")
    diagram.add_argument("--border", choices=("last", "right"), default="last")
    diagram.set_defaults(func=_cmd_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
