"""Command-line driver.

Subcommands: ``compile`` (EMA + rig + mesh -> bundle), ``synth``
(bundle + request -> rendered COLLADA clip), ``validate`` (bundle vs.
source EMA), ``dump`` (trajectory .pos dumps), ``fixture`` (generate the
synthetic test corpus).

Exit codes: 0 success, 1 usage error, 2 data/processing error,
3 validation threshold exceeded. Failures print one machine-parsable line:
``error:<module>:<code>: message``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .anim_db import build_unit_db
from .bundle import read_bundle, write_new_file
from .collada_io import write_collada
from .errors import EmarigError
from .fixture import FixtureSpec, write_fixture
from .pipeline import (
    DUMP_KINDS,
    build_bundle,
    compile_model,
    dump_trajectories,
    load_config,
    validate_model,
)
from .unit_synth import (
    SynthesisDefaults,
    SynthesisRequest,
    check_timeline,
    parse_request,
    render_plan,
    select_units,
)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="emarig",
        description="Compile EMA motion capture into an animated tongue/teeth "
        "model and synthesize new articulatory animation from it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile EMA data into a model bundle")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--out", required=True, help="bundle directory or .zip path")
    p.add_argument("--report", help="write per-frame residuals to this file")

    p = sub.add_parser("synth", help="select and render units from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--request", help="e.g. 't 0.08; a 0.15; m 0.09'")
    p.add_argument("--request-file", help="file holding the request syntax")
    p.add_argument("--out", required=True, help="output COLLADA file")
    p.add_argument("--config", help="pipeline config supplying [synthesis] defaults")
    for f in fields(SynthesisDefaults):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("validate", help="compare a bundle against source EMA")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--threshold", type=float, default=np.inf, help="max RMS in cm")

    p = sub.add_parser("dump", help="dump trajectories as a .pos file")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", required=True, choices=DUMP_KINDS)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "fixture", help="generate the synthetic test corpus", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--out", required=True, help="output directory")
    # Each flag, when given, sets the FixtureSpec field named by its dest.
    p.add_argument("--sweeps", dest="n_sweeps", metavar="SWEEPS", type=int)
    p.add_argument("--frames", dest="frames_per_sweep", metavar="FRAMES", type=int)
    p.add_argument("--rate", dest="rate_hz", metavar="RATE", type=float)
    p.add_argument("--no-head-motion", dest="head_motion", action="store_false")

    return parser


def _given(args, cls) -> dict:
    """The fields of dataclass `cls` that a flag on the command line sets."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _cmd_compile(args) -> int:
    result = compile_model(load_config(args.config))
    bundle = build_bundle(result, args.out)
    for line in result.report.lines():
        print(line)
    print(f"bundle            {bundle.path}")
    if args.report:
        rows = "".join(
            f"{i}\t{float(r)!r}\n" for i, r in enumerate(result.report.residuals)
        )
        write_new_file(args.report, "frame\tmax_residual_cm\n" + rows)
    return 0


def _cmd_synth(args) -> int:
    if bool(args.request) == bool(args.request_file):
        raise UsageError("provide exactly one of --request / --request-file")
    text = args.request or Path(args.request_file).read_text(encoding="utf-8")
    items = parse_request(text)

    defaults = load_config(args.config).synthesis if args.config else SynthesisDefaults()
    settings = replace(defaults, **_given(args, SynthesisDefaults))
    request = SynthesisRequest(items=items, **asdict(settings))

    loaded = read_bundle(args.bundle)
    if loaded.tier is None:
        raise EmarigError("bundle has no segmentation to synthesize from", module="cli")
    check_timeline(request.items, loaded.clip.rate_hz)
    db = build_unit_db(loaded.clip, loaded.tier)
    plan = select_units(db, request)

    print(f"{'slot':>4}  {'label':<8}{'source':>6}  {'warp':>8}  {'target':>10}")
    for i, (unit, warp, tc) in enumerate(
        zip(plan.units, plan.warp_factors, plan.target_costs)
    ):
        print(f"{i:>4}  {unit.label:<8}{unit.source_index:>6}  {warp:>8.4f}  {tc:>10.6g}")
    for j, jc in enumerate(plan.join_costs):
        print(f"join {j}->{j + 1}: {jc:.6g}")
    print(f"total cost {plan.total:.6g}")

    rendered = render_plan(plan, loaded.clip)
    write_new_file(args.out, write_collada(loaded.mesh, loaded.armature, rendered))
    print(f"rendered clip of {rendered.duration:g} s -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    if not args.threshold >= 0:
        raise UsageError(f"--threshold must be >= 0, got {args.threshold!r}")
    config = load_config(args.config)
    loaded = read_bundle(args.bundle)
    report = validate_model(loaded, config)
    for line in report.lines():
        print(line)
    if report.max_rms > args.threshold:
        print(f"FAIL: max rms {report.max_rms:.6g} cm exceeds {args.threshold:g} cm")
        return 3
    print("OK")
    return 0


def _cmd_dump(args) -> int:
    data = dump_trajectories(args.kind, load_config(args.config))
    write_new_file(args.out, data)
    print(f"wrote {len(data)} bytes -> {args.out}")
    return 0


def _cmd_fixture(args) -> int:
    try:
        spec = FixtureSpec(**_given(args, FixtureSpec))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config_path = write_fixture(args.out, spec)
    print(f"fixture written; config at {config_path}")
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "dump": _cmd_dump,
    "fixture": _cmd_fixture,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error:cli:usage: {exc}", file=sys.stderr)
        return 1
    except EmarigError as exc:
        print(exc.diagnostic(), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error:cli:io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
