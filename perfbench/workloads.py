"""The benchmark's workloads: seeded inputs, check sequences and oracles.

Every expected verdict below comes from the paper or the README, never from
the code under test:

- every nerve of a linear category is a quasi-category;
- a levelwise flat deformation of a nerve passes the main theorem;
- wings-tensor passes on a levelwise flat quasi-category (a free templicial
  module on the nerve of a poset);
- ``s0_times_2`` fails deg-projectivity first at n=1 with cokernel Z/2;
- ``paper_P`` fails the quasi-category check only at (a,c,2,1).

The CLI report digests are the exception: they were taken at the commit that
introduced this benchmark and pin the report bytes as a regression check.

Why each workload:

- ``qcat-nerve``: horn limits and ``eval_map`` over a prime field.  The cold
  pass builds ``hom_necklicial`` (about 1,200 ``eval_map`` misses); the warm
  pass hits the evaluator cache, so it isolates limits, ``Morphism`` and
  Smith.  Runnable by hand; left out of ``BENCHMARK.json`` as too unsteady
  at the gated run length (see README.md).
- ``thm-main-dual``: the only workload whose ring elements are tuples
  (F3[e]/(e^2)); also runs the ``deform`` harness (validation, base change,
  extension sequences).  It stands in for the N=4 nerve pair of the
  acceptance tests, which is too slow to repeat.
- ``wings-tensor-z``: many small integer Smith runs and small limits, plus a
  failing verdict (deg-projectivity of ``s0_times_2``).
- ``cli-examples``: fresh ``templikit`` processes on the built-in examples;
  the only workload where the degeneracy colimits carry real weight, and the
  one that pays import and cold caches on every command.
"""

from __future__ import annotations

import hashlib
import json
import random

LIBRARY = ("qcat-nerve", "thm-main-dual", "wings-tensor-z")
CLI = "cli-examples"
ALL = LIBRARY + (CLI,)

NERVE_LEVEL = 4
DUAL_LEVEL = 3
WINGS_LEVEL = 4
WINGS_TORSION = (2, 3, 4, 6, 9)


def draws(workload, seed):
    """The seeded parameters of a library workload's instance."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qcat-nerve":
        return {"c": [rng.randrange(3) for _ in range(2)]}
    if workload == "thm-main-dual":
        return {"c": [rng.randrange(3) for _ in range(3)],
                "d": [rng.randrange(3) for _ in range(3)]}
    if workload == "wings-tensor-z":
        return {"k": rng.choice(WINGS_TORSION)}
    raise ValueError(f"unknown library workload {workload!r}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# library workloads: build instances, then one pass = a list of operations
# ---------------------------------------------------------------------------


def build(workload, params):
    """Instances of one library workload; returns a zero-argument pass."""
    from templikit import coeff, constructors, deform, kan

    ring_f3 = coeff.Ring.prime_field(3)
    if workload == "qcat-nerve":
        coeffs = tuple(ring_f3.from_int(c) for c in params["c"])
        x = constructors.nerve(
            constructors.truncated_polynomial_category(ring_f3, coeffs), NERVE_LEVEL)
        return lambda: [("quasicategory", expect_nerve_qcat(
            kan.check_quasicategory(x, NERVE_LEVEL)))]
    if workload == "thm-main-dual":
        dual = coeff.Ring.dual_chain(3, 2)
        lifted = tuple(dual.reduce((c, d)) for c, d in zip(params["c"], params["d"]))
        base = tuple(ring_f3.from_int(c) for c in params["c"])
        pair = deform.DeformationPair(
            coeff.RingExtension(dual, ring_f3),
            constructors.nerve(constructors.truncated_polynomial_category(dual, lifted),
                               DUAL_LEVEL),
            constructors.nerve(constructors.truncated_polynomial_category(ring_f3, base),
                               DUAL_LEVEL))
        return lambda: [("thm-main", expect_thm_main(
            deform.verify_thm_main(pair, DUAL_LEVEL)))]
    if workload == "wings-tensor-z":
        ring_z = coeff.Ring.integers()
        poset = constructors.sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), WINGS_LEVEL)
        x = constructors.free_templicial(poset, ring_z, WINGS_LEVEL)
        module = coeff.Module(ring_z, (params["k"],))
        s0 = constructors.s0_times_2(WINGS_LEVEL)
        return lambda: [
            ("wings-tensor", expect_wings_tensor(
                deform.verify_wings_tensor(x, module, WINGS_LEVEL))),
            ("degproj", expect_s0_degproj(kan.check_deg_projective(s0, WINGS_LEVEL))),
        ]
    raise ValueError(f"unknown library workload {workload!r}")


def _horn_indices(label, n_max):
    return {label + (n, j) for n in range(2, n_max + 1) for j in range(1, n)}


def _outcome(report, problems):
    """(digest of the whole report, problems) of one operation."""
    return digest(str(report)), problems


def expect_nerve_qcat(report):
    problems = []
    if not (report.passed and all(i.passed for i in report.items)):
        problems.append("nerve is not reported as a quasi-category")
    if {i.indices for i in report.items} != _horn_indices(("*", "*"), NERVE_LEVEL):
        problems.append("horn items differ from (*,*,n,j) for 0<j<n<=4")
    return _outcome(report, problems)


def expect_thm_main(report):
    problems = []
    if not (report.passed and report.status == "checked"):
        problems.append(f"main theorem not passed ({report.status})")
    # children: the conclusion, then one proof skeleton per hom and small step
    if len(report.children) != 2:
        problems.append(f"expected 1 small step on one hom, got {len(report.children) - 1}")
    elif {i.indices for i in report.children[0].items} != _horn_indices(("*", "*"), DUAL_LEVEL):
        problems.append("conclusion items differ from the inner horns up to level 3")
    return _outcome(report, problems)


def expect_wings_tensor(report):
    problems = []
    if not (report.passed and report.status == "checked"):
        problems.append("wings-tensor did not pass")
    homs = [(a, b) for a in (("p0",), ("p1",)) for b in (("p0",), ("p1",))]
    expected = set().union(*(_horn_indices(h, WINGS_LEVEL) for h in homs))
    if {i.indices for i in report.items} != expected:
        problems.append("wings-tensor items differ from the horns of the four homs")
    if not report.children or not report.children[0].passed:
        problems.append("wings-tensor diagnostics missing or failed")
    return _outcome(report, problems)


def expect_s0_degproj(report):
    problems = []
    first = report.first_failure()
    if report.passed or first is None:
        problems.append("s0_times_2 reported deg-projective")
    elif first.indices[0] != 1 or str(first.cokernel) != "Z/2":
        problems.append(f"first failure {first.indices} {first.cokernel}, expected n=1 Z/2")
    return _outcome(report, problems)


# ---------------------------------------------------------------------------
# cli-examples: a fixed corpus of commands on built-in example files
# ---------------------------------------------------------------------------

# (name, extra flags) of the example files the set-up writes
EXAMPLES = (
    ("paper_P_deformed", ("--max-level", "4")),
    ("paper_P", ()),
    ("s0_times_2", ()),
)

# (argv with {file} placeholders, expected exit code, stdout digest pinned at
# the commit that introduced the benchmark, semantic check of the output)
COMMANDS = (
    (("verify", "{paper_P_deformed}", "--theorem", "degproj-lift", "--format", "json"),
     0, "8b3dcb57de2407f9", "passes"),
    (("check", "{paper_P}", "--property", "kan", "--format", "json"),
     1, "f68c7fd4edd12b32", "paper_P-kan"),
    (("check", "{paper_P}", "--property", "ez", "--format", "json"),
     0, "3f0ee18d363e1b89", "passes"),
    (("check", "{s0_times_2}", "--property", "degproj", "--format", "json"),
     1, "a15b66cf32210d8e", "s0-degproj"),
    (("validate", "{paper_P_deformed}"),
     0, "55f2e502cbac0338", "valid"),
)


def check_cli_output(kind, stdout):
    """Problems with one command's output, judged by the paper's verdicts."""
    if kind == "valid":
        lines = stdout.splitlines()
        return [] if lines == ["deformed: valid", "special_fiber: valid"] else [
            f"validate printed {lines!r}"]
    try:
        report = json.loads(stdout)["report"]
    except (ValueError, KeyError):
        return ["output is not a JSON report"]
    failing = [(tuple(i["indices"]), i["cokernel"]) for i in report["items"]
               if not i["passed"]]
    if kind == "passes":
        return [] if report["passed"] else ["report did not pass"]
    if kind == "paper_P-kan":
        return [] if [f[0] for f in failing] == [("a", "c", "2", "1")] else [
            f"paper_P failing items {failing}, expected only (a,c,2,1)"]
    if kind == "s0-degproj":
        if not failing or failing[0][0][0] != "1" or failing[0][1] != "Z/2":
            return [f"s0_times_2 failing items {failing}, expected first n=1 Z/2"]
        return []
    raise ValueError(kind)
