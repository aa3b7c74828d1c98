"""Batch interface: instance files, property checks and theorem verification.

Instances are stored as JSON with every integer rendered as a decimal string
(lossless for arbitrary precision) and matrices row-major with explicit
dimensions.  Serialization is canonical: serialize(parse(file)) reproduces
the file byte for byte.

Exit codes: 0 pass, 1 property fails, 2 invalid input, 3 hypothesis failure
(verify only), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .coeff import (
    FREE,
    InvalidInstanceError,
    Module,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    TemplikitError,
    UnsupportedRingError,
)
from .constructors import builtin
from .deform import (
    DeformationPair,
    base_change_templicial,
    verify_degproj_lift,
    verify_thm_main,
    verify_wings_tensor,
)
from .kan import (
    check_deg_projective,
    check_levelwise,
    check_quasicategory,
    check_templicial_wings,
    ez_check,
)
from .quiver import Quiver, QuiverMorphism, tensor_layout, unit_quiver
from .templicial import TemplicialModule, validate_templicial

FORMAT_VERSION = "1"


class UsageError(TemplikitError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _enc_ring(ring):
    out = {"kind": ring.kind}
    if ring.p is not None:
        out["p"] = str(ring.p)
    if ring.m is not None:
        out["m"] = str(ring.m)
    return out


def _field(obj, key, path):
    """``obj[key]`` for a required key; a missing one is named by its JSON path."""
    if not isinstance(obj, dict):
        raise InvalidInstanceError(f"{path} is not a JSON object")
    if key not in obj:
        raise InvalidInstanceError(f"missing required field {path}.{key}")
    return obj[key]


def _items(obj, key, path):
    """(path, entry) for each entry of the required list ``obj[key]``."""
    return ((f"{path}.{key}[{k}]", entry)
            for k, entry in enumerate(_list(_field(obj, key, path), f"{path}.{key}")))


def _list(value, path):
    if not isinstance(value, list):
        raise InvalidInstanceError(f"{path} is not a JSON list")
    return value


def _count(obj, key, path, minimum=0):
    """The required JSON integer ``obj[key]``, at least ``minimum``."""
    value = _field(obj, key, path)
    if type(value) is not int or value < minimum:
        raise InvalidInstanceError(
            f"{path}.{key} is not an integer >= {minimum}: {value!r}")
    return value


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(value, path):
    """An integer stored as a decimal string."""
    if not (isinstance(value, str) and _DECIMAL.fullmatch(value)):
        raise InvalidInstanceError(f"{path} is not a decimal integer string: {value!r}")
    try:
        return int(value)
    except ValueError:  # more digits than the interpreter converts
        raise InvalidInstanceError(
            f"{path} has {len(value.lstrip('-'))} digits, more than the "
            f"{sys.get_int_max_str_digits()} that int() converts") from None


def _dec_ring(obj, path):
    kind = _field(obj, "kind", path)
    if not isinstance(kind, str):
        raise InvalidInstanceError(f"{path}.kind is not a string: {kind!r}")
    return Ring(kind,
                p=_decimal(obj["p"], f"{path}.p") if "p" in obj else None,
                m=_decimal(obj["m"], f"{path}.m") if "m" in obj else None)


def parse_ring_spec(text):
    """Ring descriptors: integers | rationals | prime-field:p | chain:p:m |
    dual-chain:p:m."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "integers":
            return Ring.integers()
        if kind == "rationals":
            return Ring.rationals()
        if kind == "prime-field":
            return Ring.prime_field(int(parts[1]))
        if kind == "chain":
            return Ring.chain(int(parts[1]), int(parts[2]))
        if kind == "dual-chain":
            return Ring.dual_chain(int(parts[1]), int(parts[2]))
    except (IndexError, ValueError, UnsupportedRingError) as exc:
        raise UsageError(f"bad ring descriptor {text!r}") from exc
    raise UsageError(f"unknown ring kind {kind!r}")


def _enc_label(label):
    if isinstance(label, str):
        return {"s": label}
    if isinstance(label, bool):
        raise TemplikitError("boolean vertex labels unsupported")
    if isinstance(label, int):
        return {"i": str(label)}
    if isinstance(label, tuple):
        return {"t": [_enc_label(x) for x in label]}
    raise TemplikitError(f"unserializable vertex label {label!r}")


def _dec_label(obj, path):
    if isinstance(obj, dict):
        if "s" in obj:
            if not isinstance(obj["s"], str):
                raise InvalidInstanceError(f"{path}.s is not a string: {obj['s']!r}")
            return obj["s"]
        if "i" in obj:
            return _decimal(obj["i"], f"{path}.i")
        if "t" in obj:
            return tuple(_dec_label(x, p) for p, x in _items(obj, "t", path))
    raise InvalidInstanceError(f"{path} is not a vertex label")


def _enc_elt(ring, x):
    if ring.kind == "rationals":
        return f"{x.numerator}/{x.denominator}"
    if ring.kind == "dual-chain":
        return [str(c) for c in x]
    return str(x)


def _dec_elt(ring, obj, path):
    if ring.kind == "rationals":
        num, sep, den = obj.partition("/") if isinstance(obj, str) else ("", "", "")
        if not sep:
            raise InvalidInstanceError(f"{path} is not a fraction string: {obj!r}")
        den = _decimal(den, path)
        if den == 0:
            raise InvalidInstanceError(f"{path} has denominator 0")
        return Fraction(_decimal(num, path), den)
    if ring.kind == "dual-chain":
        return ring.reduce(tuple(_decimal(c, path) for c in _list(obj, path)))
    return ring.reduce(_decimal(obj, path))


def _enc_factors(module):
    return ["free" if f == FREE else str(f) for f in module.factors]


def _dec_factors(ring, obj, path):
    return Module(ring, tuple(FREE if f == "free" else _decimal(f, f"{path}[{k}]")
                              for k, f in enumerate(_list(obj, path))))


def _enc_quiver(quiver):
    return {
        "homs": [
            {"source": _enc_label(a), "target": _enc_label(b),
             "factors": _enc_factors(mod)}
            for (a, b), mod in quiver.homs
        ]
    }


def _dec_quiver(ring, vertices, obj, path):
    homs = {}
    for p, entry in _items(obj, "homs", path):
        a = _dec_label(_field(entry, "source", p), f"{p}.source")
        b = _dec_label(_field(entry, "target", p), f"{p}.target")
        homs[(a, b)] = _dec_factors(ring, _field(entry, "factors", p), f"{p}.factors")
    return Quiver.build(ring, vertices, homs)


def _enc_qmorphism(f):
    ring = f.domain.ring
    zero = _enc_elt(ring, ring.zero())
    return [
        {"source": _enc_label(a), "target": _enc_label(b),
         "rows": len(mor.rows), "cols": mor.domain.ngens,
         "entries": [[_enc_elt(ring, row[j]) if j in row else zero
                      for j in range(mor.domain.ngens)] for row in mor.rows]}
        for (a, b), mor in f.components
    ]


def _dec_qmorphism(ring, dom, cod, obj, path):
    comps = {}
    for p, entry in _items(obj, "components", path):
        a = _dec_label(_field(entry, "source", p), f"{p}.source")
        b = _dec_label(_field(entry, "target", p), f"{p}.target")
        rows, cols = _count(entry, "rows", p), _count(entry, "cols", p)
        mat = tuple(tuple(_dec_elt(ring, x, f"{q}[{c}]") for c, x in enumerate(_list(row, q)))
                    for q, row in _items(entry, "entries", p))
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise TemplikitError(f"matrix dimensions inconsistent at ({a},{b})")
        comps[(a, b)] = Morphism(dom.hom(a, b), cod.hom(a, b), mat)
    return QuiverMorphism.build(dom, cod, comps)


def _enc_templicial(x):
    return {
        "ring": _enc_ring(x.ring),
        "vertices": [_enc_label(v) for v in x.vertices],
        "max_level": x.max_level,
        "levels": [_enc_quiver(q) for q in x.levels],
        "faces": [
            {"n": n, "j": j, "components": _enc_qmorphism(f)}
            for (n, j), f in x.faces
        ],
        "degeneracies": [
            {"n": n, "i": i, "components": _enc_qmorphism(f)}
            for (n, i), f in x.degeneracies
        ],
        "comultiplications": [
            {"k": k, "l": l, "components": _enc_qmorphism(f)}
            for (k, l), f in x.comults
        ],
    }


def _dec_templicial(obj, path):
    ring = _dec_ring(_field(obj, "ring", path), f"{path}.ring")
    vertices = tuple(_dec_label(v, p) for p, v in _items(obj, "vertices", path))
    max_level = _count(obj, "max_level", path)
    levels = tuple(_dec_quiver(ring, vertices, q, p) for p, q in _items(obj, "levels", path))

    def level_quiver(n, p):
        if n > len(levels):
            raise InvalidInstanceError(f"{p} refers to level {n} of {len(levels)}")
        return unit_quiver(ring, vertices) if n == 0 else levels[n - 1]

    faces = {}
    for p, entry in _items(obj, "faces", path):
        n, j = _count(entry, "n", p, 1), _count(entry, "j", p)
        faces[(n, j)] = _dec_qmorphism(ring, level_quiver(n, p), level_quiver(n - 1, p),
                                       entry, p)
    degens = {}
    for p, entry in _items(obj, "degeneracies", path):
        n, i = _count(entry, "n", p), _count(entry, "i", p)
        degens[(n, i)] = _dec_qmorphism(ring, level_quiver(n, p), level_quiver(n + 1, p),
                                        entry, p)
    comults = {}
    for p, entry in _items(obj, "comultiplications", path):
        k, l = _count(entry, "k", p), _count(entry, "l", p)
        layout = tensor_layout(ring, vertices, (level_quiver(k, p), level_quiver(l, p)))
        comults[(k, l)] = _dec_qmorphism(ring, level_quiver(k + l, p), layout.quiver, entry, p)
    return TemplicialModule.build(ring, vertices, max_level, levels,
                                  faces, degens, comults)


def serialize_instance(instance):
    if isinstance(instance, DeformationPair):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "deformation",
            "extension": {"source": _enc_ring(instance.extension.source),
                          "target": _enc_ring(instance.extension.target)},
            "deformed": _enc_templicial(instance.deformed),
            "special_fiber": _enc_templicial(instance.special_fiber),
        }
    return {"format_version": FORMAT_VERSION, "kind": "templicial",
            **_enc_templicial(instance)}


def parse_instance(obj):
    """Decode an instance file; a missing required field raises
    InvalidInstanceError naming its JSON path ($ is the file's root)."""
    if not isinstance(obj, dict):
        raise InvalidInstanceError("$ is not a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise TemplikitError(f"unsupported format_version {version!r}")
    kind = obj.get("kind")
    if kind == "templicial":
        return _dec_templicial(obj, "$")
    if kind == "deformation":
        ext = _field(obj, "extension", "$")
        source = _dec_ring(_field(ext, "source", "$.extension"), "$.extension.source")
        target = _dec_ring(_field(ext, "target", "$.extension"), "$.extension.target")
        theta = RingExtension(source, target)
        return DeformationPair(theta,
                               _dec_templicial(_field(obj, "deformed", "$"), "$.deformed"),
                               _dec_templicial(_field(obj, "special_fiber", "$"),
                                               "$.special_fiber"))
    raise TemplikitError(f"unknown instance kind {kind!r}")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_json(path, what):
    """The JSON document in the file ``path``, or on standard input for None."""
    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError covers UnicodeDecodeError, json.JSONDecodeError and a
    # number of more digits than int() converts
    except (OSError, ValueError, RecursionError) as exc:
        raise TemplikitError(f"cannot read {what} file {path or '<stdin>'}: {exc}") from exc


def load_instance(path):
    return parse_instance(_read_json(path, "instance"))


def save_instance(path, instance):
    text = canonical_json(serialize_instance(instance))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise TemplikitError(f"cannot write instance file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_to_dict(report):
    return {
        "prop": report.prop,
        "passed": report.passed,
        "status": report.status,
        "note": report.note,
        "items": [
            {"indices": [str(x) for x in item.indices],
             "passed": item.passed,
             "detail": item.detail,
             "cokernel": None if item.cokernel is None else str(item.cokernel)}
            for item in report.items
        ],
        "children": [report_to_dict(c) for c in report.children],
    }


def render_report_text(obj, indent=0):
    pad = "  " * indent
    head = f"{pad}{obj['prop']}: {'PASS' if obj['passed'] else 'FAIL'}"
    if obj.get("status", "checked") != "checked":
        head += f" ({obj['status']})"
    if obj.get("note"):
        head += f" -- {obj['note']}"
    lines = [head]
    for item in obj.get("items", ()):
        mark = "pass" if item["passed"] else "FAIL"
        line = f"{pad}  ({','.join(item['indices'])}): {mark}"
        if item.get("detail"):
            line += f" [{item['detail']}]"
        if item.get("cokernel"):
            line += f" cokernel {item['cokernel']}"
        lines.append(line)
    for child in obj.get("children", ()):
        lines.append(render_report_text(child, indent + 1))
    return "\n".join(lines)


def _typed(value, path, kind):
    if not isinstance(value, kind):
        raise InvalidInstanceError(f"{path} has the wrong type: {value!r}")


def _check_fields(obj, path, required, optional):
    for key, kind in required:
        _typed(_field(obj, key, path), f"{path}.{key}", kind)
    for key, kind in optional:
        if key in obj:
            _typed(obj[key], f"{path}.{key}", kind)


def _check_item(item, path):
    _check_fields(item, path, (("indices", list), ("passed", bool)),
                  (("detail", (str, type(None))), ("cokernel", (str, type(None)))))
    for k, index in enumerate(item["indices"]):
        _typed(index, f"{path}.indices[{k}]", str)


def _check_report(obj, path):
    """Check the fields of a stored report that ``render_report_text`` reads;
    a missing or wrong-typed one is named by its JSON path."""
    _check_fields(obj, path, (("prop", str), ("passed", bool)),
                  (("status", str), ("note", str)))
    for key, check in (("items", _check_item), ("children", _check_report)):
        for k, entry in enumerate(_list(obj.get(key, []), f"{path}.{key}")):
            check(entry, f"{path}.{key}[{k}]")


def emit_report(report, fmt, out=None):
    out = out or sys.stdout
    obj = {"format_version": FORMAT_VERSION, "report": report_to_dict(report)}
    if fmt == "json":
        out.write(canonical_json(obj))
    else:
        out.write(render_report_text(obj["report"]) + "\n")


def _report_exit(report):
    if report.status == "hypothesis-failure":
        return 3
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(minimum):
    """argparse type of an integer flag value >= ``minimum``."""
    def parse(text):
        if not _DECIMAL.fullmatch(text) or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {minimum}")
        return int(text)
    return parse


def _default_level(instance, requested):
    x = instance.deformed if isinstance(instance, DeformationPair) else instance
    return min(requested, x.max_level) if requested else min(4, x.max_level)


def _cmd_validate(args):
    instance = load_instance(args.file)
    reports = []
    if isinstance(instance, DeformationPair):
        reports.append(("deformed", validate_templicial(instance.deformed)))
        reports.append(("special_fiber", validate_templicial(instance.special_fiber)))
    else:
        reports.append(("instance", validate_templicial(instance)))
    ok = all(rep.ok for _, rep in reports)
    for name, rep in reports:
        print(f"{name}: {'valid' if rep.ok else 'INVALID'}")
        for failure in rep.failures:
            print(f"  {failure}")
    return 0 if ok else 2


_PROPERTIES = {
    "kan": lambda x, n: check_quasicategory(x, n),
    "wings": lambda x, n: check_templicial_wings(x, n),
    "degproj": lambda x, n: check_deg_projective(x, n),
    "levelwise-flat": lambda x, n: check_levelwise(x, "flat", n),
    "ez": lambda x, n: ez_check(x, n),
}


def _cmd_check(args):
    instance = load_instance(args.file)
    if isinstance(instance, DeformationPair):
        instance = instance.deformed
    n = _default_level(instance, args.max_level)
    report = _PROPERTIES[args.property](instance, n)
    emit_report(report, args.format)
    return _report_exit(report)


def _cmd_basechange(args):
    instance = load_instance(args.file)
    if isinstance(instance, DeformationPair):
        raise TemplikitError("basechange expects a single templicial instance")
    target = parse_ring_spec(args.to)
    theta = RingExtension(instance.ring, target)
    save_instance(args.output, base_change_templicial(theta, instance))
    print(f"wrote {args.output}")
    return 0


def _cmd_example(args):
    instance = builtin(args.name, args.max_level)
    save_instance(args.output, instance)
    print(f"wrote {args.output}")
    return 0


def _cmd_verify(args):
    instance = load_instance(args.file)
    if args.theorem in ("main", "degproj-lift"):
        if not isinstance(instance, DeformationPair):
            raise TemplikitError(f"theorem {args.theorem} needs a deformation pair file")
        n = _default_level(instance, args.max_level)
        if args.theorem == "main":
            report = verify_thm_main(instance, n)
        else:
            report = verify_degproj_lift(instance, n)
    else:
        if isinstance(instance, DeformationPair):
            instance = instance.special_fiber
        n = _default_level(instance, args.max_level)
        ring = instance.ring
        if args.module:
            try:
                module = Module(ring, tuple(FREE if f == "free" else int(f)
                                            for f in args.module.split(",")))
            except (ValueError, ShapeError, UnsupportedRingError) as exc:
                raise UsageError(f"bad module spec {args.module!r}: {exc}") from exc
        else:
            module = Module.free(ring, args.module_rank)
        report = verify_wings_tensor(instance, module, n)
    emit_report(report, args.format)
    return _report_exit(report)


def _cmd_report(args):
    obj = _read_json(args.file, "report")
    try:
        body = _field(obj, "report", "$")
        _check_report(body, "$.report")
    except InvalidInstanceError as exc:
        raise TemplikitError(f"invalid report: {exc}") from exc
    if args.format == "json":
        sys.stdout.write(canonical_json(obj))
    else:
        print(render_report_text(body))
    if body.get("status") == "hypothesis-failure":
        return 3
    return 0 if body.get("passed") else 1


def build_parser():
    parser = _Parser(prog="templikit",
                     description="validate and check templicial module instances")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="check a structural property")
    p.add_argument("file")
    p.add_argument("--property", required=True, choices=sorted(_PROPERTIES))
    p.add_argument("--max-level", type=_int_at_least(1), default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("basechange", help="reduce an instance along a ring surjection")
    p.add_argument("file")
    p.add_argument("--to", required=True, metavar="RING")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_basechange)

    p = sub.add_parser("example", help="materialize a built-in example")
    p.add_argument("name", choices=("s0_times_2", "paper_P", "paper_P_deformed"))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-level", type=_int_at_least(1), default=None)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("verify", help="verify a deformation theorem on an instance")
    p.add_argument("file")
    p.add_argument("--theorem", required=True,
                   choices=("main", "degproj-lift", "wings-tensor"))
    p.add_argument("--max-level", type=_int_at_least(1), default=None)
    p.add_argument("--module-rank", type=_int_at_least(0), default=1)
    p.add_argument("--module", default=None,
                   help="comma-separated factors, e.g. free,free,2")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-render a stored JSON report")
    p.add_argument("file", nargs="?")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 64
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(str(exc.report), file=sys.stderr)
        return 2
    except TemplikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
