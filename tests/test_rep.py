"""Module operations: tensor, dual, hom, covers, decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring import rep
from greenring.errors import GreenRingError
from greenring.hopf import build_dk1, build_km
from greenring.indec import EtaPoint, IndecLabel, identify, realize
from greenring.ratlin import Rat, RatMatrix
from greenring.rep import (ModuleRep, check_module, decompose, direct_sum,
                           dual, hom_basis, injective_hull, is_isomorphic,
                           projective_cover, quotient_module, radical_vectors,
                           regular_module, socle_vectors, submodule, tensor,
                           trivial_module)

K2 = build_km(2)


def V(r):
    return realize(IndecLabel.simple(r), "K2")


def P(r):
    return realize(IndecLabel.proj(r), "K2")


def test_trivial_and_regular_are_modules():
    assert check_module(trivial_module(K2)).ok
    assert check_module(regular_module(K2)).ok


def test_check_module_catches_bad_action():
    bad = ModuleRep(K2, 1, {
        "K": RatMatrix.diagonal([Rat(2)]),
        "x1": RatMatrix.zeros(1, 1),
        "x2": RatMatrix.zeros(1, 1)})
    assert not check_module(bad).ok


def test_tensor_unit():
    for m in (P(0), V(1)):
        t = tensor(trivial_module(K2), m)
        ok, _ = is_isomorphic(t, m)
        assert ok


def test_tensor_dims_multiply():
    t = tensor(P(0), P(1))
    assert t.dim == 16
    assert check_module(t).ok


def test_dual_is_involution_up_to_iso():
    for m in (V(1), P(0), realize(IndecLabel.syz_pos(2, 1), "K2")):
        ok, _ = is_isomorphic(dual(dual(m)), m)
        assert ok


def test_hom_dimensions():
    assert len(hom_basis(P(0), P(0))) == 2
    assert len(hom_basis(P(0), P(1))) == 2
    assert len(hom_basis(V(0), V(1))) == 0
    assert len(hom_basis(V(0), V(0))) == 1


def test_hom_basis_intertwines():
    for t in hom_basis(P(0), P(1)):
        for lbl in ("K", "x1", "x2"):
            assert t * P(0).actions[lbl] == P(1).actions[lbl] * t


def test_radical_socle_of_projective():
    p = P(0)
    assert len(radical_vectors(p)) == 3
    assert len(socle_vectors(p)) == 1


def test_submodule_quotient_dims():
    p = P(0)
    rad = radical_vectors(p)
    sub, incl = submodule(p, rad)
    quo, proj = quotient_module(p, rad)
    assert sub.dim == 3 and quo.dim == 1
    assert check_module(sub).ok and check_module(quo).ok
    assert incl.rank() == 3 and proj.rank() == 1


def test_projective_cover_of_simple():
    cover, cov = projective_cover(V(0))
    ok, _ = is_isomorphic(cover, P(0))
    assert ok
    assert cov.rank() == 1


def test_injective_hull_embeds():
    m = realize(IndecLabel.syz_pos(1, 0), "K2")
    hull, emb = injective_hull(m)
    assert emb.rank() == m.dim
    for lbl in ("K", "x1", "x2"):
        assert emb * m.actions[lbl] == hull.actions[lbl] * emb


def test_decompose_regular():
    parts = decompose(regular_module(K2))
    assert sorted(p.dim for p in parts) == [4, 4]
    tags = sorted("P0" if is_isomorphic(p, P(0))[0] else "P1"
                  for p in parts)
    assert tags == ["P0", "P1"]


def test_decompose_respects_known_sum():
    m = direct_sum([V(0), P(1), realize(IndecLabel.syz_neg(1, 1), "K2")])
    parts = decompose(m)
    assert sorted(p.dim for p in parts) == [1, 3, 4]


def test_decompose_dk1_regular():
    parts = decompose(regular_module(build_dk1()))
    assert sorted(p.dim for p in parts) == [2, 2, 2, 2, 4, 4]


def test_is_isomorphic_negative():
    assert not is_isomorphic(P(0), P(1))[0]
    assert not is_isomorphic(V(0), V(1))[0]


def test_is_isomorphic_witness_invertible():
    ok, t = is_isomorphic(dual(P(0)), P(0))
    assert ok and t.rank() == 4


LABELS = [IndecLabel.simple(0), IndecLabel.simple(1), IndecLabel.proj(0),
          IndecLabel.syz_pos(1, 0), IndecLabel.syz_neg(1, 1),
          IndecLabel.mtype(1, 0, EtaPoint.finite(2, 3)),
          IndecLabel.mtype(2, 1, EtaPoint.infinity())]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
def test_decompose_inverts_direct_sum(labels):
    m = direct_sum([realize(l, "K2") for l in labels])
    parts = decompose(m)
    assert sorted(p.dim for p in parts) == sorted(l.dim() for l in labels)
    for lbl in labels:
        assert any(is_isomorphic(p, realize(lbl, "K2"))[0] for p in parts)


def _k2_module(k):
    zero = RatMatrix.zeros(len(k), len(k))
    return ModuleRep(K2, len(k), {"K": RatMatrix.from_rows(k),
                                  "x1": zero, "x2": zero})


def test_k_eigenbasis_keeps_a_diagonal_k():
    for m in [realize(l, "K2") for l in LABELS] + [
            tensor(P(0), V(1)), rep.principal_projective(build_km(3), 1)[0]]:
        assert rep._k_eigenbasis(m) is m


def test_k_eigenbasis_diagonalizes_k():
    m = _k2_module([[1, 1], [0, -1]])
    e = rep._k_eigenbasis(m)
    assert check_module(e).ok
    assert e.actions["K"] == RatMatrix.diagonal([1, -1])
    # the witness P = [ker(K - I) | ker(K + I)] is invertible, A P = P A'
    plus, minus = rep._k_eigen_split(m.actions["K"], m.dim)
    p = RatMatrix.from_columns(plus + minus, rows=m.dim)
    assert p.rank() == m.dim
    for lbl, a in m.actions.items():
        assert a * p == p * e.actions[lbl]


def test_non_involutive_k_is_an_error():
    m = _k2_module([[2, 0], [1, 1]])
    assert not check_module(m).ok
    with pytest.raises(GreenRingError, match="involution"):
        identify(m)
