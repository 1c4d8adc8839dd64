"""Projective skeleton, Auslander algebra, simple-image criterion."""

import pytest

from greenring.errors import ZeroMap
from greenring.indec import IndecLabel, identify, realize
from greenring.projcat import (build_skeleton, has_simple_image_direct,
                               has_simple_image_lemma, skeleton_check,
                               verify_auslander_iso)
from greenring.ratlin import RatMatrix
from greenring.rep import hom_basis, submodule


def test_skeleton_objects():
    assert build_skeleton("K2").names == ["P(0)", "P(1)"]
    assert build_skeleton("DK1").names == ["P(0)", "P(1)", "St(0)", "St(1)"]


def test_skeleton_structure_constants_consistent():
    for name in ("K1", "K2", "DK1"):
        assert skeleton_check(build_skeleton(name))


def test_skeleton_hom_dims_k2():
    sk = build_skeleton("K2")
    assert all(sk.hom_dim(i, j) == 2 for i in range(2) for j in range(2))


def test_skeleton_hom_dims_dk1():
    sk = build_skeleton("DK1")
    # St(r) is simple projective: one-dimensional endomorphisms, no
    # maps between the two Steinbergs or to/from the 4-dim projectives
    # except the two-dimensional hom spaces among P(0), P(1)
    assert sk.hom_dim(2, 2) == 1 and sk.hom_dim(3, 3) == 1
    assert sk.hom_dim(2, 3) == 0 and sk.hom_dim(3, 2) == 0
    assert sk.hom_dim(0, 2) == 0 and sk.hom_dim(2, 0) == 0
    assert sk.hom_dim(0, 1) == 2


def test_skeleton_json():
    d = build_skeleton("K2").to_json_dict()
    assert d["objects"] == ["P(0)", "P(1)"]
    assert "hom_dims" in d or "homs" in d or "comp" in d


def test_auslander_iso():
    for m in (1, 2):
        rep = verify_auslander_iso(m)
        assert rep.ok, rep.lines()


def test_simple_image_agreement():
    sk = build_skeleton("K2")
    mods = [realize(IndecLabel.parse(n), "K2") for n in sk.names]
    for i, src in enumerate(mods):
        for k, tgt in enumerate(mods):
            for phi in hom_basis(src, tgt):
                direct = has_simple_image_direct(phi, src, tgt)
                lemma = has_simple_image_lemma(phi, sk, i, k)
                assert direct == lemma


def test_simple_image_rejects_zero_map():
    sk = build_skeleton("K2")
    p0 = realize(IndecLabel.proj(0), "K2")
    zero = RatMatrix.zeros(4, 4)
    with pytest.raises(ZeroMap):
        has_simple_image_direct(zero, p0, p0)
    with pytest.raises(ZeroMap):
        has_simple_image_lemma(zero, sk, 0, 0)


def test_simple_image_examples():
    p0 = realize(IndecLabel.proj(0), "K2")
    # identity: image is all of P(0), not simple
    assert not has_simple_image_direct(RatMatrix.identity(4), p0, p0)
    # a radical-square map has simple (socle) image
    soc = p0.word_action(p0.algebra.index[(1, 2)])
    assert has_simple_image_direct(soc, p0, p0)


def test_image_of_the_socle_map_is_simple():
    p0 = realize(IndecLabel.proj(0), "K2")
    soc = p0.word_action(p0.algebra.index[(1, 2)])
    img, _ = submodule(p0, soc.col_dicts())
    assert identify(img) == [IndecLabel.simple(0)]
