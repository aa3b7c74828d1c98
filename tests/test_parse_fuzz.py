"""Hostile instance files: mutated built-in examples fed to the parser and
to ``templikit validate``.

Each mutant either parses, and then serializes to a canonical file that
parses back to the same bytes, or is invalid input: ``validate`` exits 2
with a one-line message and no traceback.  The runs are derandomized and
keep no example database, so the suite stays deterministic.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from templikit.cli import canonical_json, main, parse_instance, serialize_instance
from templikit.coeff import TemplikitError
from templikit.constructors import builtin

FUZZ = settings(max_examples=60)

EXAMPLES = {name: canonical_json(serialize_instance(builtin(name)))
            for name in ("s0_times_2", "paper_P", "paper_P_deformed")}

# integers stay small: ring parameters are among them, and a large
# nilpotency m makes the ring constructor itself slow
SMALL_INTS = st.integers(-3, 12)
SCALARS = st.one_of(
    st.none(), st.booleans(), SMALL_INTS, st.floats(allow_nan=False, width=16),
    SMALL_INTS.map(str), st.sampled_from(["", "free", "x", "1/2", "-0", "07", "s", "t"]),
    st.text(max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["s", "i", "t", "n", "p"]),
                                            inner, max_size=2)),
    max_leaves=5)


def _paths(obj, path=()):
    """The path of every node below the root of a JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate(data, draw):
    """Apply one drawn edit at one drawn node: delete it, replace it by a
    drawn value or by another node of the file, or duplicate a list entry."""
    paths = list(_paths(data))
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = draw(st.sampled_from(["delete", "value", "transplant", "duplicate"]))
    if kind == "delete":
        del parent[key]
    elif kind == "value":
        parent[key] = draw(VALUES)
    elif kind == "transplant":
        donor = data
        for k in draw(st.sampled_from(paths)):
            donor = donor[k]
        parent[key] = json.loads(json.dumps(donor))
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = [parent[key], parent[key]]


def _validate(data):
    """Exit code, stdout and stderr of ``templikit validate`` on ``data``."""
    return _validate_text(json.dumps(data))


def _validate_text(text):
    """Exit code, stdout and stderr of ``templikit validate`` on a file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(name=st.sampled_from(sorted(EXAMPLES)), edits=st.integers(1, 3), data=st.data())
def test_mutated_instance_parses_or_is_invalid_input(name, edits, data):
    doc = json.loads(EXAMPLES[name])
    for _ in range(edits):
        if not doc:  # every key deleted: nothing left to edit
            break
        _mutate(doc, data.draw)
    try:
        instance = parse_instance(doc)
    except TemplikitError:
        instance = None
    if instance is not None:
        once = canonical_json(serialize_instance(instance))
        assert canonical_json(serialize_instance(parse_instance(json.loads(once)))) == once
    code, _, err = _validate(doc)
    assert "Traceback" not in err
    if instance is None:
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith(("error: ", "invalid instance: "))
    else:
        assert code in (0, 2)
        assert len(err.splitlines()) <= 1


def _one_line_exit_2(code, out, err):
    assert code == 2 and not out
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return line


def test_integer_beyond_the_digit_limit_is_invalid_input():
    # int() refuses decimal strings of more than 4,300 digits by default,
    # in an entry string and in a bare JSON number alike
    doc = json.loads(EXAMPLES["s0_times_2"])
    doc["comultiplications"][0]["components"][0]["entries"] = [["9" * 5000]]
    line = _one_line_exit_2(*_validate(doc))
    assert line.startswith("invalid instance: ")
    assert "comultiplications[0].components[0].entries[0][0]" in line
    doc["comultiplications"][0]["components"][0]["entries"] = [[0]]
    text = json.dumps(doc).replace("[[0]]", "[[" + "9" * 5000 + "]]", 1)
    assert _one_line_exit_2(*_validate_text(text)).startswith("error: ")
