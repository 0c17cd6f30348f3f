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


def _stats_payload(p) -> dict:
    data: dict[str, object] = {
        "partition": str(p),
        "size": p.size,
        "length": p.length,
        "strict": p.is_strict(),
        "odd_parts": p.is_odd_parts(),
        "Dur": durfee_side(p),
        "Dur2": dur2(p),
        "mu1": k_measure(p, 1),
        "mu2": k_measure(p, 2),
        "mu3": k_measure(p, 3),
    }
    if p:
        kind, side = sub_durfee_side(p)
        data["dur"] = side
        data["dur_type"] = kind.value
        kind2, side2 = dur2_sub(p)
        data["dur2"] = side2
        data["dur2_type"] = kind2.value
    if p.is_strict():
        data["sol"] = sol(p)
    if p.is_odd_parts():
        data["alt"] = alternating_index(p)
    return data


def _stats_text(data: dict) -> str:
    lines = [f"partition: {data['partition']}"]
    lines.append(f"size={data['size']}")
    lines.append(f"length={data['length']}")
    lines.append(f"strict={str(data['strict']).lower()}")
    lines.append(f"odd_parts={str(data['odd_parts']).lower()}")
    if "sol" in data:
        lines.append(f"sol={data['sol']}")
    lines.append(f"Dur={data['Dur']}")
    if "dur" in data:
        lines.append(f"dur={data['dur']} (type {data['dur_type']})")
    lines.append(f"Dur2={data['Dur2']}")
    if "dur2" in data:
        lines.append(f"dur2={data['dur2']} (type {data['dur2_type']})")
    for key in ("mu1", "mu2", "mu3"):
        lines.append(f"{key}={data[key]}")
    if "alt" in data:
        lines.append(f"alt={data['alt']}")
    return "\n".join(lines)


def _emit(args, data: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _cmd_stats(args) -> int:
    data = _stats_payload(parse(args.partition))
    _emit(args, data, _stats_text(data))
    return 0


def _cmd_map(args) -> int:
    if args.name == "sylvester":
        image = maps.sylvester(parse(args.argument))
        _emit(args, {"map": "sylvester", "image": str(image)}, str(image))
    elif args.name == "glaisher":
        image = maps.glaisher(parse(args.argument))
        _emit(args, {"map": "glaisher", "image": str(image)}, str(image))
    elif args.name == "phi":
        pair = maps.parse_pair(args.argument)
        case, image = maps.involution_phi(pair)
        data = {
            "map": "phi",
            "case": case.name,
            "image": f"{image.lam}|{image.eta}",
        }
        _emit(args, data, f"{image.lam}|{image.eta} [{case.name}]")
    return 0


def _cmd_series(args) -> int:
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.m is not None:
        params["m"] = args.m
    series = qseries.build(args.name, args.order, **params)
    text = series.serialize()
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
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for report in reports:
            print(report.text() if not report.passed else report.line())
    return 0 if all(reports) else 1


def _cmd_table(args) -> int:
    text = maps.involution_table(args.n)
    _emit(args, {"table": "involution", "n": args.n, "rows": text.splitlines()}, text)
    return 0


def _cmd_examples(args) -> int:
    sets = verify.example_sets(args.preset)
    data = {key: [str(p) for p in values] for key, values in sets.items()}
    lines = []
    for key in ("A", "B", "D"):
        lines.append(f"{key}: " + ", ".join(data[key]))
    _emit(args, {"preset": args.preset, "sets": data}, "\n".join(lines))
    return 0


def _cmd_diagram(args) -> int:
    border = Border.RIGHT_BORDER if args.border == "right" else Border.LAST_CELL
    diagram = modular2_diagram(parse(args.partition), border)
    _emit(
        args,
        {"partition": args.partition, "border": args.border, "rows": diagram.render().splitlines()},
        diagram.render(),
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
