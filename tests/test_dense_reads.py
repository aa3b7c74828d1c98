"""No dense view is read on the library's paths.

A morphism keeps its sparse rows; ``Morphism.matrix``, the dense view, is
for the public surface only.  Smith's inputs are densified from the rows
directly (``coeff._presentation_matrix``), its transforms come back as
sparse rows, and the instance encoder writes the rows with the zeros filled
in.  Every test here runs with the dense view patched to raise: the
benchmark's library workloads, every part of an analysis, the
factorizations through monos, epis, limits and colimits, and the encoding of
the built-in examples.
"""

import random

import pytest

from templikit import cli
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    analyze,
    factor_through_colimit,
    factor_through_epi,
    factor_through_limit,
    factor_through_mono,
    finite_colimit,
    finite_limit,
)
from templikit.constructors import (
    builtin,
    free_templicial,
    nerve,
    s0_times_2,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)
from templikit.deform import DeformationPair, verify_thm_main, verify_wings_tensor
from templikit.kan import check_deg_projective
from test_coeff import rand_diagram, rand_module, rand_morphism
from test_deform import _report_digest

Z = Ring.integers()
F3 = Ring.prime_field(3)
D32 = Ring.dual_chain(3, 2)
RINGS = [Z, Ring.rationals(), F3, Ring.chain(2, 3), D32, Ring.dual_chain(3, 3)]

PARTS = ("kernel", "kernel_inclusion", "image", "image_inclusion", "cokernel",
         "cokernel_projection", "injective", "surjective", "split_mono", "is_iso")


@pytest.fixture(autouse=True)
def refuse_dense_views(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense view of a morphism was read")

    monkeypatch.setattr(Morphism, "matrix", property(refuse))


def test_wings_tensor_over_z():
    poset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
    report = verify_wings_tensor(free_templicial(poset, Z, 4), Module(Z, (3,)), 4)
    assert _report_digest(report) == "b2d522c43fcaf29f"


def test_deg_projective_of_s0_times_2():
    report = check_deg_projective(s0_times_2(4), 4)
    assert _report_digest(report) == "7c5f028a5e839859"


def test_main_theorem_on_the_dual_nerve_pair():
    c, d = (2, 0, 0), (2, 1, 1)
    pair = DeformationPair(
        RingExtension(D32, F3),
        nerve(truncated_polynomial_category(D32, tuple(map(D32.reduce, zip(c, d)))), 3),
        nerve(truncated_polynomial_category(F3, tuple(map(F3.from_int, c))), 3))
    assert _report_digest(verify_thm_main(pair, 3)) == "92903168b9b2693d"


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_every_analysis_part(ring):
    rng = random.Random(41)
    for _ in range(15):
        dom, cod = rand_module(ring, rng), rand_module(ring, rng)
        ana = analyze(rand_morphism(ring, dom, cod, rng))
        for part in PARTS:
            getattr(ana, part)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_factorizations(ring):
    rng = random.Random(43)
    for _ in range(10):
        dom, cod, src = (rand_module(ring, rng) for _ in range(3))
        f = rand_morphism(ring, dom, cod, rng)
        ana = analyze(f)
        incl, proj = ana.kernel_inclusion, ana.cokernel_projection
        u = rand_morphism(ring, src, incl.domain, rng)
        assert factor_through_mono(incl, incl.compose(u)) == u
        g = rand_morphism(ring, proj.codomain, src, rng)
        assert factor_through_epi(proj, g.compose(proj)) == g
        diagram = rand_diagram(ring, rng, max_nodes=4)
        lim = finite_limit(diagram)
        assert factor_through_limit(lim, lim.cone, lim.module) == Morphism.identity(lim.module)
        colim = finite_colimit(diagram)
        assert factor_through_colimit(colim, colim.cocone, colim.module) == \
            Morphism.identity(colim.module)


def test_integer_maps_with_free_factors():
    # over Z with a free factor the predicates read the kernel and cokernel
    # witnesses instead of counting
    f = Morphism(Module(Z, (2, FREE)), Module(Z, (4, FREE, FREE)), ((2, 0), (0, 3), (0, 6)))
    ana = analyze(f)
    assert ana.injective and not ana.surjective
    assert ana.cokernel == Module(Z, (6, FREE))


def _dense_qmorphism(f):
    # the encoding of a quiver morphism read off the dense views
    ring = f.domain.ring
    return [{"source": cli._enc_label(a), "target": cli._enc_label(b),
             "rows": len(mor.matrix), "cols": mor.domain.ngens,
             "entries": [[cli._enc_elt(ring, x) for x in row] for row in mor.matrix]}
            for (a, b), mor in f.components]


@pytest.mark.parametrize("name,level", [("s0_times_2", None), ("paper_P", None),
                                        ("paper_P_deformed", 4)])
def test_encoding_the_built_in_examples(monkeypatch, name, level):
    blob = cli.canonical_json(cli.serialize_instance(builtin(name, level)))
    # the reference run reads the dense views, so they are let through
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_enc_qmorphism", _dense_qmorphism)
    assert cli.canonical_json(cli.serialize_instance(builtin(name, level))) == blob
