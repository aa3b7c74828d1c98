"""CLI: serialization round trips, commands, exit codes."""

import io
import json
import sys
import time

import pytest

from templikit.cli import (
    canonical_json,
    load_instance,
    main,
    parse_instance,
    parse_ring_spec,
    save_instance,
    serialize_instance,
)
from templikit.coeff import Ring
from templikit.constructors import builtin, free_templicial, paper_p, sset_simplex
from templikit.deform import DeformationPair


def test_ring_spec_parsing():
    assert parse_ring_spec("integers") == Ring.integers()
    assert parse_ring_spec("chain:2:3") == Ring.chain(2, 3)
    assert parse_ring_spec("dual-chain:3:2") == Ring.dual_chain(3, 2)
    assert parse_ring_spec("prime-field:5") == Ring.prime_field(5)
    from templikit.cli import UsageError

    with pytest.raises(UsageError):
        parse_ring_spec("chain:oops")


@pytest.mark.parametrize("name", ["s0_times_2", "paper_P", "paper_P_deformed"])
def test_roundtrip_builtins(name):
    instance = builtin(name)
    blob = canonical_json(serialize_instance(instance))
    parsed = parse_instance(json.loads(blob))
    if isinstance(instance, DeformationPair):
        assert parsed.deformed == instance.deformed
        assert parsed.special_fiber == instance.special_fiber
        assert parsed.extension == instance.extension
    else:
        assert parsed == instance
    assert canonical_json(serialize_instance(parsed)) == blob


def test_roundtrip_free_over_rings():
    for ring in (Ring.integers(), Ring.chain(2, 3), Ring.dual_chain(2, 2),
                 Ring.rationals()):
        x = free_templicial(sset_simplex(1, 2), ring, 2)
        blob = canonical_json(serialize_instance(x))
        assert parse_instance(json.loads(blob)) == x


def test_example_then_check_degproj(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["example", "s0_times_2", "-o", str(out)]) == 0
    code = main(["check", str(out), "--property", "degproj", "--max-level", "2"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "(1,*,*)" in captured.replace("'", "")
    assert "Z/2" in captured


def test_example_then_verify_degproj_lift(tmp_path):
    out = tmp_path / "p.json"
    assert main(["example", "paper_P_deformed", "-o", str(out)]) == 0
    code = main(["verify", str(out), "--theorem", "degproj-lift", "--max-level", "3"])
    assert code == 0


def test_verify_main_hypothesis_failure(tmp_path):
    out = tmp_path / "p.json"
    main(["example", "paper_P_deformed", "-o", str(out)])
    code = main(["verify", str(out), "--theorem", "main", "--max-level", "2"])
    assert code == 3


def test_check_kan_pass_and_fail(tmp_path):
    good = tmp_path / "good.json"
    from templikit.cli import save_instance
    from templikit.constructors import sset_nerve_of_poset

    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 2)
    save_instance(str(good), free_templicial(sset, Ring.prime_field(2), 2))
    assert main(["check", str(good), "--property", "kan"]) == 0
    bad = tmp_path / "bad.json"
    save_instance(str(bad), paper_p(2))
    assert main(["check", str(bad), "--property", "kan"]) == 1
    assert main(["check", str(bad), "--property", "wings"]) == 1
    assert main(["check", str(bad), "--property", "levelwise-flat"]) == 0
    assert main(["check", str(bad), "--property", "ez"]) == 0


def test_validate_detects_corruption(tmp_path, capsys):
    path = tmp_path / "x.json"
    main(["example", "paper_P", "-o", str(path)])
    assert main(["validate", str(path)]) == 0
    data = json.loads(path.read_text())
    # corrupt one comultiplication entry
    comp = data["comultiplications"][0]["components"][0]
    comp["entries"][0][0] = "1" if comp["entries"][0][0] == "0" else "0"
    path.write_text(canonical_json(data))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "INVALID" in out


def test_basechange_command(tmp_path):
    src = tmp_path / "r.json"
    dst = tmp_path / "k.json"
    from templikit.cli import save_instance

    save_instance(str(src), free_templicial(sset_simplex(1, 2), Ring.chain(2, 3), 2))
    assert main(["basechange", str(src), "--to", "prime-field:2", "-o", str(dst)]) == 0
    reduced = load_instance(str(dst))
    assert reduced.ring == Ring.prime_field(2)
    assert main(["basechange", str(src), "--to", "chain:3:2", "-o", str(dst)]) == 2


def test_report_roundtrip(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "x.json"
    main(["example", "paper_P", "-o", str(inst)])
    capsys.readouterr()
    code = main(["check", str(inst), "--property", "kan", "--format", "json"])
    assert code == 1
    blob = capsys.readouterr().out
    rep = tmp_path / "report.json"
    rep.write_text(blob)
    assert main(["report", str(rep)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert main(["report", str(rep), "--format", "json"]) == 1
    assert capsys.readouterr().out == blob


def test_usage_errors():
    assert main(["unknown-command"]) == 64
    assert main([]) == 64
    assert main(["check"]) == 64


@pytest.mark.parametrize("name,argv", [
    ("paper_P", ("verify", "{file}", "--theorem", "wings-tensor", "--module", "free,x")),
    ("paper_P", ("verify", "{file}", "--theorem", "wings-tensor", "--module", "2")),
    ("paper_P", ("verify", "{file}", "--theorem", "wings-tensor", "--module-rank", "-1")),
    ("paper_P_deformed", ("verify", "{file}", "--theorem", "main", "--max-level", "-2")),
    ("paper_P", ("check", "{file}", "--property", "kan", "--max-level", "-1")),
    ("paper_P", ("check", "{file}", "--property", "kan", "--max-level", "0")),
    ("paper_P", ("example", "paper_P", "-o", "{out}", "--max-level", "-1")),
    ("paper_P", ("basechange", "{file}", "--to", "prime-field:4", "-o", "{out}")),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_bad_flag_value_is_usage_error(tmp_path, capsys, name, argv):
    """``argv`` runs on the example ``name`` written to {file}."""
    paths = {"{file}": str(tmp_path / "x.json"), "{out}": str(tmp_path / "out.json")}
    main(["example", name, "-o", paths["{file}"]])
    capsys.readouterr()
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("usage error: ")


_GOOD_REPORT = {"prop": "p", "passed": True,
                "items": [{"indices": ["1"], "passed": True, "detail": "", "cokernel": None}],
                "children": [{"prop": "q", "passed": False}]}


def _report_with(path, value):
    report = json.loads(json.dumps(_GOOD_REPORT))
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps({"format_version": "1", "report": report})


_MALFORMED_REPORTS = {
    "missing-file": (None, "missing.json"),
    "not-json": ("{not json", "cannot read report file"),
    "not-utf8": (b"\xff\xfe", "cannot read report file"),
    "too-deep": ("[" * 100000 + "]" * 100000, "cannot read report file"),
    "scalar": ("5", "$ is not a JSON object"),
    "report-scalar": ('{"report": 5}', "$.report is not a JSON object"),
    "report-empty": ('{"report": {}}', "$.report.prop"),
    "no-report": ('{"other": {}}', "$.report"),
    "passed-string": (_report_with(("passed",), "yes"), "$.report.passed"),
    "status-number": (_report_with(("status",), 3), "$.report.status"),
    "items-object": (_report_with(("items",), {}), "$.report.items"),
    "indices-string": (_report_with(("items", 0, "indices"), "1"), "$.report.items[0].indices"),
    "index-number": (_report_with(("items", 0, "indices", 0), 1), "$.report.items[0].indices[0]"),
    "cokernel-number": (_report_with(("items", 0, "cokernel"), 2), "$.report.items[0].cokernel"),
    "child-list": (_report_with(("children", 0), []), "$.report.children[0]"),
    "child-passed-null": (_report_with(("children", 0, "passed"), None),
                          "$.report.children[0].passed"),
}


@pytest.mark.parametrize("content,named", list(_MALFORMED_REPORTS.values()),
                         ids=list(_MALFORMED_REPORTS))
def test_malformed_report_is_invalid_input(tmp_path, capsys, content, named):
    file = tmp_path / "missing.json"
    if isinstance(content, bytes):
        file.write_bytes(content)
    elif content is not None:
        file.write_text(content)
    code = main(["report", str(file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert named in captured.err


def test_well_formed_report_renders(tmp_path, capsys):
    file = tmp_path / "r.json"
    file.write_text(_report_with(("note",), "n"))
    assert main(["report", str(file)]) == 0
    assert capsys.readouterr().out == "p: PASS -- n\n  (1): pass\n  q: FAIL\n"


@pytest.mark.parametrize("argv", [
    ("example", "s0_times_2", "-o", "{out}"),
    ("basechange", "{file}", "--to", "prime-field:2", "-o", "{out}"),
], ids=lambda v: v[0])
def test_unwritable_output_is_invalid_input(tmp_path, capsys, argv):
    paths = {"{file}": str(tmp_path / "x.json"),
             "{out}": str(tmp_path / "no-such-dir" / "out.json")}
    save_instance(paths["{file}"], free_templicial(sset_simplex(1, 2), Ring.chain(2, 3), 2))
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write instance file ")


def test_missing_file_is_invalid_input():
    assert main(["check", "/nonexistent.json", "--property", "kan"]) == 2


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000 + b"]" * 100000],
                         ids=("not-utf8", "too-deep"))
def test_unreadable_instance_is_invalid_input(tmp_path, capsys, content):
    file = tmp_path / "x.json"
    file.write_bytes(content)
    assert main(["check", str(file), "--property", "kan"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read instance file ")


def _with_prime(tmp_path, p):
    """The paper_P instance file with its prime-field ring's p replaced."""
    file = tmp_path / "x.json"
    assert main(["example", "paper_P", "-o", str(file)]) == 0
    blob = json.loads(file.read_text())
    blob["ring"]["p"] = str(p)
    file.write_text(json.dumps(blob))
    return file


def test_twenty_digit_prime_parses_quickly(tmp_path, capsys):
    file = _with_prime(tmp_path, 10000000000000000051)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["validate", str(file)]) in (0, 1)
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p", [3317044064679887385961981, 2 ** 89 - 1])
def test_prime_beyond_the_exact_range_is_invalid_input(tmp_path, capsys, p):
    file = _with_prime(tmp_path, p)
    capsys.readouterr()
    assert main(["validate", str(file)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "primes below 3317044064679887385961981" in err


def test_report_determinism(tmp_path, capsys):
    inst = tmp_path / "x.json"
    main(["example", "paper_P", "-o", str(inst)])
    capsys.readouterr()
    main(["check", str(inst), "--property", "kan", "--format", "json"])
    first = capsys.readouterr().out
    main(["check", str(inst), "--property", "kan", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def _key_paths(obj, path=()):
    """Every key of a JSON tree, entering the first entry of each list."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        yield from _key_paths(obj[0], path + (0,))


_EXAMPLES = {name: canonical_json(serialize_instance(builtin(name)))
             for name in ("paper_P", "paper_P_deformed")}


def _validate_without(tmp_path, capsys, name, path):
    """Exit code and stderr of `validate` on example ``name`` minus one key."""
    data = json.loads(_EXAMPLES[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    file = tmp_path / "x.json"
    file.write_text(json.dumps(data))
    code = main(["validate", str(file)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name,path", [
    pytest.param(name, path, id=f"{name}:{'.'.join(map(str, path))}")
    for name, blob in _EXAMPLES.items() for path in _key_paths(json.loads(blob))
])
def test_missing_key_is_invalid_input(tmp_path, capsys, name, path):
    code, err = _validate_without(tmp_path, capsys, name, path)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("path,named", [
    (("ring",), "$.ring"),
    (("faces", 0, "n"), "$.faces[0].n"),
    (("levels", 0, "homs", 0, "source", "s"), "$.levels[0].homs[0].source"),
])
def test_missing_key_names_json_path(tmp_path, capsys, path, named):
    code, err = _validate_without(tmp_path, capsys, "paper_P", path)
    assert code == 2
    assert named in err


# keys holding integers: JSON numbers, except the decimal strings of the ring
_INT_KEYS = ("max_level", "n", "j", "i", "k", "l", "rows", "cols")
_DECIMAL_KEYS = ("p", "m")


def _wrong_values(key, value):
    """A string, a list and a negative value in place of an integer ``value``."""
    if key in _DECIMAL_KEYS:
        return {"string": "x", "list": [value], "negative": "-" + value}
    return {"string": str(value), "list": [value], "negative": -1}


def _integer_paths(obj, path=()):
    for key_path in _key_paths(obj, path):
        if key_path[-1] in _INT_KEYS + _DECIMAL_KEYS:
            yield key_path


@pytest.mark.parametrize("name,path,kind", [
    pytest.param(name, path, kind, id=f"{name}:{'.'.join(map(str, path))}:{kind}")
    for name, blob in _EXAMPLES.items() for path in _integer_paths(json.loads(blob))
    for kind in ("string", "list", "negative")
])
def test_wrong_typed_integer_is_invalid_input(tmp_path, capsys, name, path, kind):
    data = json.loads(_EXAMPLES[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _wrong_values(path[-1], parent[path[-1]])[kind]
    file = tmp_path / "x.json"
    file.write_text(json.dumps(data))
    code = main(["validate", str(file)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("path,value,named", [
    (("degeneracies", 0, "n"), "2", "$.degeneracies[0].n"),
    (("ring", "p"), "x", "$.ring.p"),
    (("faces", 0, "n"), 99, "$.faces[0]"),
    (("levels", 0, "homs", 0, "factors", 0), "q", "$.levels[0].homs[0].factors[0]"),
    (("faces", 0, "components", 0, "entries", 0, 0), 1, "$.faces[0].components[0].entries[0][0]"),
])
def test_wrong_typed_value_names_json_path(tmp_path, capsys, path, value, named):
    data = json.loads(_EXAMPLES["paper_P"])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path / "x.json"
    file.write_text(json.dumps(data))
    assert main(["validate", str(file)]) == 2
    assert named in capsys.readouterr().err


def test_hom_on_unknown_vertex_is_invalid_input(tmp_path, capsys):
    data = json.loads(_EXAMPLES["paper_P"])
    data["levels"][0]["homs"][0]["source"] = {"s": "nowhere"}
    file = tmp_path / "x.json"
    file.write_text(json.dumps(data))
    assert main(["validate", str(file)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "unknown vertex" in line
