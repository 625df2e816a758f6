"""JSON operator files.

Top level is either {"spaces": [...], "blocks": [...]} or a builtin
shorthand {"builtin": "identity"|"right_shift"|"diag", ...}. Complex
literals are [re, im] where each part is a number or a rational string
"p/q"; a bare number is accepted on input and read as a real. Exact
values round-trip bit-exactly. Numbers, the coefficients of entry rules
among them, must be finite and at most 2**200 in magnitude, indices
(offset, row, col, r, c) must be integers, and the space list must not be
empty. A "dense" matrix is rectangular and, at a finite x finite position,
has that position's shape; entry indices r, c are at least 0, and no two
entries of a "finite_rank" block share them; a decay
{"C", "p"} needs C >= 0 and p > 0. A finite x finite block is written as
"dense" with its full matrix, any other block off the l2 diagonal as
"finite_rank". A file that breaks a rule raises SchemaError.
"""

import contextlib
import json
import math
from fractions import Fraction

from .blocks import BandedBlock, DenseBlock, FiniteRankBlock
from .diagonals import DiagonalSeq
from .errors import AnopError, SchemaError
from .operators import L2, OperatorExpr, finite
from .ratfn import RationalFn
from .scalars import Scalar

# larger literals overflow the float tier, where ||T^2 x||^2 grows with the
# fourth power of an entry
_MAX_MAGNITUDE = 2 ** 200


# -- scalar literals -----------------------------------------------------------

def _part_from_json(x, path):
    if isinstance(x, bool):
        raise SchemaError("boolean is not a number", path)
    if isinstance(x, int):
        v, exact = Fraction(x), True
    elif isinstance(x, float):
        if not math.isfinite(x):
            raise SchemaError(f"non-finite number {x!r}", path)
        v, exact = x, False
    elif isinstance(x, str):
        try:
            v, exact = Fraction(x), True
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {x!r}: {exc}", path)
    else:
        raise SchemaError(f"expected number or 'p/q' string, got {type(x).__name__}", path)
    if abs(v) > _MAX_MAGNITUDE:
        raise SchemaError(f"number {x!r} is out of range", path)
    return v, exact


def scalar_from_json(obj, path="value"):
    if isinstance(obj, (int, float, str)):
        re, ex = _part_from_json(obj, path)
        return Scalar.exact(re) if ex else Scalar.inexact(re)
    if isinstance(obj, list) and len(obj) == 2:
        re, ex1 = _part_from_json(obj[0], path + "[0]")
        im, ex2 = _part_from_json(obj[1], path + "[1]")
        if ex1 and ex2:
            return Scalar.exact(re, im)
        return Scalar.inexact(float(re), float(im))
    raise SchemaError("complex literal must be [re, im] or a bare real", path)


def _part_to_json(x, is_exact):
    if is_exact:
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(x)


def scalar_to_json(s):
    return [_part_to_json(s.re, s.is_exact), _part_to_json(s.im, s.is_exact)]


# -- operator encoding -----------------------------------------------------------

def operator_to_json_dict(op):
    spaces = []
    for sp in op.spaces:
        spaces.append({"kind": "l2"} if sp.kind == "l2"
                      else {"kind": "finite", "dim": sp.dim})
    blocks = []
    for (i, j) in sorted(op.blocks):
        blk = op.blocks[(i, j)]
        if isinstance(blk, BandedBlock):
            diags = []
            for off in sorted(blk.diagonals):
                d = blk.diagonals[off]
                ent = {"offset": off,
                       "prefix": [scalar_to_json(v) for v in d.prefix],
                       "limit": scalar_to_json(d.limit)}
                if d.rule is not None:
                    ent["rule"] = d.rule.to_json()
                if d.decay is not None:
                    ent["decay"] = {"C": d.decay[0], "p": d.decay[1]}
                diags.append(ent)
            blocks.append({"row": i, "col": j, "kind": "banded", "diagonals": diags})
        elif op.spaces[i].kind == op.spaces[j].kind == "finite":
            # a zero entry takes the tier of the block it sits in
            zero = Scalar.exact(0) if blk.is_exact_scalars() else Scalar.inexact(0)
            blocks.append({"row": i, "col": j, "kind": "dense", "matrix": [
                [scalar_to_json(blk.entries.get((r, c), zero)) for c in range(op.spaces[j].dim)]
                for r in range(op.spaces[i].dim)]})
        else:
            blocks.append({"row": i, "col": j, "kind": "finite_rank",
                           "entries": [{"r": r, "c": c, "value": scalar_to_json(v)}
                                       for (r, c), v in sorted(blk.entries.items())]})
    return {"spaces": spaces, "blocks": blocks}


def serialize(op):
    return json.dumps(operator_to_json_dict(op), sort_keys=True,
                      separators=(",", ":"))


# -- operator decoding -----------------------------------------------------------

def _index(obj, key, path):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{key!r} must be an integer, got {v!r}", path)
    return v


def _list(x, what, path):
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list", path)
    return x


@contextlib.contextmanager
def _building(path):
    """An AnopError raised while a diagonal or block is built, as a SchemaError."""
    try:
        yield
    except SchemaError:
        raise
    except AnopError as exc:
        raise SchemaError(str(exc), path) from None


def _certified(d):
    """d, with the decay certificate of its rule derived now, so that a rule
    whose certificate fails is refused while the file is read."""
    d.decay
    return d


def _finite_float(x, path):
    return float(_part_from_json(x, path)[0])


def _space_from_json(obj, path):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("space must be an object with a 'kind'", path)
    if obj["kind"] == "l2":
        return L2
    if obj["kind"] == "finite":
        dim = obj.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise SchemaError("finite space needs a positive integer 'dim'", path)
        return finite(dim)
    raise SchemaError(f"unknown space kind {obj['kind']!r}", path)


def _rule_from_json(obj, path):
    """An entry rule; each of its numbers passes the literal checks first."""
    if not isinstance(obj, dict):
        raise SchemaError("entry rule must be an object", path)
    for key in ("scale", "shift", "limit"):
        if obj.get(key) is not None:
            _part_from_json(obj[key], f"{path}.{key}")
    for key in ("num", "den"):
        if isinstance(obj.get(key), list):
            for k, c in enumerate(obj[key]):
                _part_from_json(c, f"{path}.{key}[{k}]")
    try:
        return RationalFn.from_json(obj)
    except Exception as exc:
        raise SchemaError(f"bad entry rule: {exc}", path)


def _diag_from_json(obj, path):
    if not isinstance(obj, dict) or "offset" not in obj:
        raise SchemaError("diagonal must be an object with an 'offset'", path)
    prefix = [scalar_from_json(v, f"{path}.prefix[{k}]")
              for k, v in enumerate(_list(obj.get("prefix", []), "prefix", path))]
    limit = scalar_from_json(obj["limit"], path + ".limit") if "limit" in obj \
        else Scalar.exact(0)
    rule = _rule_from_json(obj["rule"], path + ".rule") if "rule" in obj else None
    decay = None
    if "decay" in obj:
        d = obj["decay"]
        if not isinstance(d, dict) or "C" not in d or "p" not in d:
            raise SchemaError("decay must carry C and p", path + ".decay")
        decay = (_finite_float(d["C"], path + ".decay.C"),
                 _finite_float(d["p"], path + ".decay.p"))
    with _building(path):
        return _index(obj, "offset", path), \
            _certified(DiagonalSeq(prefix, limit, rule, decay))


def _builtin(obj, path="builtin"):
    name = obj["builtin"]
    scale = scalar_from_json(obj["scale"], path + ".scale") if "scale" in obj \
        else Scalar.exact(1)
    if name == "identity":
        diag = DiagonalSeq(limit=scale)
    elif name == "right_shift":
        return OperatorExpr((L2,), {(0, 0): BandedBlock(
            {1: DiagonalSeq(limit=scale)})})
    elif name == "diag":
        entries = [scale * scalar_from_json(v, f"{path}.entries[{k}]")
                   for k, v in enumerate(_list(obj.get("entries", []), "entries", path))]
        limit = scale * scalar_from_json(obj["limit"], path + ".limit") \
            if "limit" in obj else Scalar.exact(0)
        rule = None
        if "rule" in obj:
            rule = _rule_from_json(obj["rule"], path + ".rule")
            if scale.is_exact and scale.is_real():
                rule = rule.scale(Fraction(scale.re))
            else:
                raise SchemaError("diag rule requires an exact real scale", path)
        with _building(path):
            diag = _certified(DiagonalSeq(entries, limit, rule))
    else:
        raise SchemaError(f"unknown builtin {name!r}", path)
    return OperatorExpr((L2,), {(0, 0): BandedBlock({0: diag})})


def operator_from_json_dict(obj):
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    if "builtin" in obj:
        return _builtin(obj)
    if "spaces" not in obj:
        raise SchemaError("missing 'spaces'")
    if not isinstance(obj["spaces"], list) or not obj["spaces"]:
        raise SchemaError("'spaces' must be a non-empty list", "spaces")
    spaces = tuple(_space_from_json(s, f"spaces[{i}]")
                   for i, s in enumerate(obj["spaces"]))
    blocks = {}
    for bi, b in enumerate(_list(obj.get("blocks", []), "blocks", "blocks")):
        path = f"blocks[{bi}]"
        if not isinstance(b, dict) or "row" not in b or "col" not in b:
            raise SchemaError("block needs 'row' and 'col'", path)
        i, j = _index(b, "row", path), _index(b, "col", path)
        if not (0 <= i < len(spaces) and 0 <= j < len(spaces)):
            raise SchemaError("block row/col outside the space list", path)
        if (i, j) in blocks:
            raise SchemaError(f"duplicate block position ({i},{j})", path)
        with _building(path):
            blocks[(i, j)] = _block_from_json(b, path)
    with _building(None):
        return OperatorExpr(spaces, blocks)


def _block_from_json(b, path):
    kind = b.get("kind")
    if kind == "banded":
        diags = {}
        for di, d in enumerate(_list(b.get("diagonals", []), "diagonals", path)):
            off, seq = _diag_from_json(d, f"{path}.diagonals[{di}]")
            if off in diags:
                raise SchemaError(f"duplicate offset {off}", path)
            diags[off] = seq
        return BandedBlock(diags)
    if kind == "finite_rank":
        entries = {}
        for ei, e in enumerate(_list(b.get("entries", []), "entries", path)):
            epath = f"{path}.entries[{ei}]"
            if not isinstance(e, dict) or not {"r", "c", "value"} <= e.keys():
                raise SchemaError("entry needs r, c, value", epath)
            rc = (_index(e, "r", epath), _index(e, "c", epath))
            if rc in entries:
                raise SchemaError(f"duplicate entry ({rc[0]},{rc[1]})", epath)
            entries[rc] = scalar_from_json(e["value"], epath + ".value")
        return FiniteRankBlock(entries)
    if kind == "dense":
        return DenseBlock([[scalar_from_json(v, f"{path}.matrix[{r}][{c}]")
                            for c, v in enumerate(_list(row, "row", f"{path}.matrix[{r}]"))]
                           for r, row in enumerate(_list(b.get("matrix", []), "matrix", path))])
    raise SchemaError(f"unknown block kind {kind!r}", path)


def parse(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}")
    return operator_from_json_dict(obj)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
