"""Command line interface.

Subcommands:
  constants        print K_N, Q_N, c(N, s) and the s -> 1 limit as JSON
  sweep            run a sweep described by a JSON config file
  operator         fractional vs local operator values at a point
  mollifier-check  moment report for a built-in mollifier family

Exit codes: 0 success, 1 condition/assertion violation, 2 configuration
error (bad input), 3 integration failure, 4 internal error (any other
exception, a ValueError included; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .constants import bbm_constant, check_s_list, fractional_constant, fractional_constant_limit
from .corpus import resolve_field, resolve_potential
from .errors import ConditionViolation, ConfigurationError, IntegrationError, check_positive
from .functionals import check_mollifier
from .geometry import sphere_area
from .harness import (_FAMILY_KEYS, REPORT_FORMATS, _family_from_descriptor, default_spec,
                      load_config, render_report, run_sweep, write_text)
from .operator import operator_limit_scan


def _parse_numbers(text: str, kind: type = float) -> list:
    """Comma-separated finite numbers of the given kind, float or int."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ConfigurationError(f"expected comma-separated {what}, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigurationError(f"expected finite numbers, got {text!r}")
    return values


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        write_text(text, out)
    else:
        sys.stdout.write(text)


def _cmd_constants(args) -> int:
    k = bbm_constant(args.dim)
    payload = {
        "dim": args.dim,
        "K_N": k,
        "Q_N": 2.0 * k,
        "sphere_area": sphere_area(args.dim),
        "limit": fractional_constant_limit(args.dim),
    }
    if args.s is not None:
        payload["s"] = args.s
        payload["c"] = fractional_constant(args.dim, args.s)
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = run_sweep(cfg, threads=args.threads)
    _write_or_print(render_report(report, args.format), args.out)
    return 0


def _cmd_operator(args) -> int:
    u = resolve_field(args.field)
    A = resolve_potential(args.potential, u.dim)
    point = np.asarray(_parse_numbers(args.point), dtype=float)
    if point.size != u.dim:
        raise ConfigurationError(f"point has {point.size} coordinates, field {u.label!r} "
                                 f"is {u.dim}-dimensional")
    s_list = check_s_list(_parse_numbers(args.s_list))
    samples = operator_limit_scan(u, A, point, s_list, default_spec(u.dim))
    if args.format == "json":
        rows = [{"s": smp.s, "fractional": [smp.fractional.real, smp.fractional.imag],
                 "local": [smp.local.real, smp.local.imag], "discrepancy": smp.discrepancy}
                for smp in samples]
        text = json.dumps({"point": list(point), "rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["s,frac_re,frac_im,local_re,local_im,discrepancy"] + [
            f"{smp.s!r},{smp.fractional.real!r},{smp.fractional.imag!r},"
            f"{smp.local.real!r},{smp.local.imag!r},{smp.discrepancy!r}" for smp in samples]
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 0


def _cmd_mollifier_check(args) -> int:
    check_positive(args.delta, "delta")
    # Only the flags given enter the descriptor, so a flag of the other kind is refused.
    desc = {"kind": args.family}
    if args.indices is not None:
        desc["indices"] = _parse_numbers(args.indices, int)
    if args.s_list is not None:
        desc["s_list"] = _parse_numbers(args.s_list)
    if args.r_domain is not None:
        desc["r_domain"] = args.r_domain
    fam = _family_from_descriptor(desc, args.dim, 2.0)
    rows = [asdict(c) for c in check_mollifier(fam, args.delta)]
    _write_or_print(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bbm-magnetic",
        description="Magnetic fractional seminorms and their local limits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="dimensional and fractional constants")
    pc.add_argument("--dim", type=int, required=True)
    pc.add_argument("--s", type=float, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=_cmd_constants)

    ps = sub.add_parser("sweep", help="run a configured sweep")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    ps.add_argument("--threads", type=int, default=1)
    ps.set_defaults(fn=_cmd_sweep)

    po = sub.add_parser("operator", help="fractional vs local operator at a point")
    po.add_argument("--field", required=True)
    po.add_argument("--potential", required=True)
    po.add_argument("--point", required=True, help="comma-separated coordinates")
    po.add_argument("--s-list", required=True, help="comma-separated s values")
    po.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    po.add_argument("--out", default=None)
    po.set_defaults(fn=_cmd_operator)

    pm = sub.add_parser("mollifier-check", help="mollifier family moment report")
    pm.add_argument("--family", choices=tuple(_FAMILY_KEYS), required=True)
    pm.add_argument("--dim", type=int, required=True)
    pm.add_argument("--delta", type=float, required=True)
    pm.add_argument("--indices", default=None, help="gaussian family indices")
    pm.add_argument("--s-list", default=None, help="bbm family s values")
    pm.add_argument("--r-domain", type=float, default=None, help="bbm cutoff radius (2.0)")
    pm.set_defaults(fn=_cmd_mollifier_check)
    pm.add_argument("--out", default=None)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConditionViolation as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not bad input: keep it apart from 1-3
        import traceback  # only on this path: a sweep that succeeds never loads it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
