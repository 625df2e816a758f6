"""Command-line front end.

anop check FILE --predicate NAME     exit 0 Proven, 1 Refuted, 2 Numerical/Undetermined
anop spectrum FILE --of T*T|TT*|modulus
anop decompose FILE                  exit 0 valid certificate, 4 structure violation
anop certify FILE                    exit 0 normal proven, 2 not applicable,
                                     4 structure violation
anop audit
anop gallery NAME                    operator file on stdout

Any command may also exit 3 (not self-adjoint), 64 (usage), 65 (parse error)
or 70 (internal error, traceback on stderr); a crash never exits 1.

Reports embed the full run configuration and the tool version; identical
inputs produce byte-identical JSON.
"""

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass

from numpy.linalg import LinAlgError

from . import __version__
from .errors import (AnopError, NotAN, NotSelfAdjoint, SchemaError,
                     StarParanormalRefuted, StructureViolation)
from .serialize import load, operator_to_json_dict

EXIT_PROVEN = 0
EXIT_REFUTED = 1
EXIT_NUMERICAL = 2
EXIT_NOT_SELF_ADJOINT = 3
EXIT_STRUCTURE = 4
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


@dataclass
class RunConfig:
    tol: float = 1e-10
    trunc: int = 256
    samples: int = 100000
    seed: int = 42
    k_grid: int = 64
    max_peel: int = 64
    output: str = "text"

    def validate(self):
        if self.tol <= 0 or self.trunc <= 0 or self.samples <= 0 or \
           self.seed < 0 or self.k_grid <= 0 or self.max_peel <= 0:
            raise ValueError("run configuration values must be positive")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p):
    d = RunConfig()
    p.add_argument("--tol", type=float, default=d.tol)
    p.add_argument("--trunc", type=int, default=d.trunc)
    p.add_argument("--samples", type=int, default=d.samples)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--k-grid", type=int, default=d.k_grid, dest="k_grid")
    p.add_argument("--max-peel", type=int, default=d.max_peel, dest="max_peel")
    p.add_argument("--json", action="store_true", help="emit a JSON report")


def _config(args):
    seed = args.seed
    env = os.environ.get("ANOP_SEED")
    if env is not None:
        seed = int(env)
    cfg = RunConfig(tol=args.tol, trunc=args.trunc, samples=args.samples,
                    seed=seed, k_grid=args.k_grid, max_peel=args.max_peel,
                    output="json" if args.json else "text")
    cfg.validate()
    return cfg


def _report(payload, cfg):
    body = {"report": payload, "config": asdict(cfg), "version": __version__}
    if cfg.output == "json":
        return json.dumps(body, sort_keys=True, separators=(",", ":"),
                          allow_nan=True)
    lines = [f"anop {__version__}"]
    lines.extend(_textify(payload))
    lines.append(f"config: {json.dumps(asdict(cfg), sort_keys=True)}")
    return "\n".join(lines)


def _textify(payload, indent=""):
    lines = []
    if isinstance(payload, dict):
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{indent}{k}:")
                lines.extend(_textify(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.extend(_textify(v, indent + "  "))
            else:
                lines.append(f"{indent}- {v}")
    else:
        lines.append(f"{indent}{payload}")
    return lines


def _load_operator(path):
    try:
        return load(path)
    except FileNotFoundError:
        print(f"anop: cannot open {path}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except SchemaError as exc:
        print(f"anop: parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


PREDICATES = ("normal", "hyponormal", "paranormal", "star-paranormal",
              "norm-attaining", "an", "m-star-equals-m")


def cmd_check(args):
    cfg = _config(args)
    t = _load_operator(args.file)
    from . import decomposition, predicates
    name = args.predicate
    if name == "normal":
        v = predicates.is_normal(t)
    elif name == "hyponormal":
        v = predicates.hyponormal_check(t, cfg.tol)
    elif name == "paranormal":
        v = predicates.paranormal_refute(t, cfg.samples, cfg.seed)
    elif name == "star-paranormal":
        v = predicates.star_paranormal_check(t, cfg.tol, cfg.k_grid,
                                             cfg.samples, cfg.seed, cfg.trunc)
    elif name == "norm-attaining":
        v = predicates.norm_attaining_check(t, cfg.tol, cfg.trunc)
    elif name == "an":
        v = predicates.an_check(t, cfg.tol, cfg.trunc)
    else:
        v = decomposition.m_star_equals_m_check(t, cfg.tol, cfg.trunc)
    print(_report(v.to_json(), cfg))
    return {"Proven": EXIT_PROVEN, "Refuted": EXIT_REFUTED}.get(
        v.status, EXIT_NUMERICAL)


def cmd_spectrum(args):
    cfg = _config(args)
    t = _load_operator(args.file)
    from .spectral import cogram, gram, modulus_summary, positive_spectral_summary
    if args.of == "T*T":
        s = positive_spectral_summary(gram(t), cfg.tol, cfg.trunc)
    elif args.of == "TT*":
        s = positive_spectral_summary(cogram(t), cfg.tol, cfg.trunc)
    else:
        s = modulus_summary(t, cfg.tol, cfg.trunc)
    print(_report(s.to_json(), cfg))
    return 0


def cmd_decompose(args):
    cfg = _config(args)
    t = _load_operator(args.file)
    from .decomposition import peel_decompose
    cert = peel_decompose(t, cfg.tol, cfg.max_peel, cfg.samples, cfg.seed,
                          cfg.trunc)
    print(_report(cert.to_json(), cfg))
    return 0


def cmd_certify(args):
    cfg = _config(args)
    t = _load_operator(args.file)
    from .decomposition import certify_normal
    cert = certify_normal(t, cfg.tol, cfg.samples, cfg.seed, cfg.trunc,
                          cfg.max_peel)
    print(_report(cert.to_json(), cfg))
    return EXIT_PROVEN if cert.normal else EXIT_NUMERICAL


def cmd_audit(args):
    cfg = _config(args)
    from .gallery import audit
    report = audit(cfg.tol, min(cfg.samples, 5000), cfg.seed)
    if cfg.output == "json":
        print(_report(report.to_json(), cfg))
    else:
        print(report.to_text())
        print(f"config: {json.dumps(asdict(cfg), sort_keys=True)}")
    return 0


def cmd_gallery(args):
    from .gallery import build
    params = {}
    if args.scale is not None:
        params["scale"] = args.scale
    if args.params:
        params.update(json.loads(args.params))
    try:
        t = build(args.name, **params)
    except AnopError as exc:
        print(f"anop: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(operator_to_json_dict(t), sort_keys=True,
                     separators=(",", ":")))
    return 0


def main(argv=None):
    parser = _Parser(prog="anop",
                     description="operator predicates, spectra, decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a predicate on an operator file")
    p.add_argument("file")
    p.add_argument("--predicate", required=True, choices=PREDICATES)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="spectral summary of T*T, TT* or |T|")
    p.add_argument("file")
    p.add_argument("--of", default="modulus", choices=("T*T", "TT*", "modulus"))
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("decompose", help="peeled decomposition certificate")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("certify", help="normality certificate")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("audit", help="re-derive the worked-example claims")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gallery", help="write a named operator file to stdout")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--params", default=None,
                   help="JSON keyword arguments for parametric builders")
    p.set_defaults(func=cmd_gallery)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except NotSelfAdjoint as exc:
        print(f"anop: {exc}", file=sys.stderr)
        return EXIT_NOT_SELF_ADJOINT
    except AnopError as exc:
        print(f"anop: {type(exc).__name__}: {exc}", file=sys.stderr)
        structural = (StructureViolation, NotAN, StarParanormalRefuted)
        if args.func in (cmd_decompose, cmd_certify) and isinstance(exc, structural):
            return EXIT_STRUCTURE
        return EXIT_NUMERICAL
    except Exception as exc:
        # numpy's LinAlgError is a ValueError, but not a usage error
        if isinstance(exc, ValueError) and not isinstance(exc, LinAlgError):
            print(f"anop: {exc}", file=sys.stderr)
            return EXIT_USAGE
        traceback.print_exc()
        print(f"anop: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
