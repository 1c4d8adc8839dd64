"""Hopf algebra construction and axiom checks."""

import pytest

from greenring import hopf
from greenring.errors import OutOfRange
from greenring.hopf import (HopfAlgebraData, build_dk1, build_km,
                            check_hopf_axioms, get_algebra, jacobson_radical)
from greenring.ratlin import ONE, ZERO, _echelon, _scaled


def test_dimensions():
    for m in range(1, 7):
        assert build_km(m).dim == 2 ** (m + 1)
    assert build_dk1().dim == 16


def test_km_out_of_range():
    with pytest.raises(OutOfRange):
        build_km(0)
    with pytest.raises(OutOfRange):
        build_km(7)


def test_axioms_km():
    for m in (1, 2, 3):
        report = check_hopf_axioms(build_km(m))
        assert report.ok, report.lines()


def test_axioms_dk1():
    report = check_hopf_axioms(build_dk1())
    assert report.ok, report.lines()


def _k2_with(comult_x1=None, antipode_x1=None):
    """K2 from its generator data, with Delta(x1) or S(x1) replaced."""
    words = hopf._increasing_words(3)
    i = words.index
    comult = [{(i((0,)), i((0,))): ONE}] + [
        {(i((0,)), i((g,))): ONE, (i((g,)), i(())): ONE} for g in (1, 2)]
    antipode = [{i((0,)): ONE}] + [{i((0, g)): -ONE} for g in (1, 2)]
    if comult_x1 is not None:
        comult[1] = {(i(p), i(q)): c for (p, q), c in comult_x1.items()}
    if antipode_x1 is not None:
        antipode[1] = {i(w): c for w, c in antipode_x1.items()}
    return HopfAlgebraData("K2", ["K", "x1", "x2"], words,
                           hopf._km_rewrite(2), comult, [ONE, ZERO, ZERO],
                           antipode)


def _failures(report):
    return {name for name, (ok, _) in report.results.items() if not ok}


def test_axioms_fail_on_broken_structures():
    assert _failures(check_hopf_axioms(_k2_with())) == set()
    # Delta(x1) = x1 (x) 1 + 1 (x) x1 is coassociative and counital, but
    # not multiplicative: it breaks x1 x2 = -x2 x1
    bad_delta = check_hopf_axioms(
        _k2_with(comult_x1={((1,), ()): ONE, ((), (1,)): ONE}))
    assert _failures(bad_delta) == {"bialgebra compatibility", "antipode"}
    assert "FAIL antipode: x1" in bad_delta.lines()
    bad_s = check_hopf_axioms(_k2_with(antipode_x1={(0, 1): ONE}))
    assert _failures(bad_s) == {"antipode"}
    assert "FAIL antipode: x1" in bad_s.lines()


def test_defining_relations_k2():
    a = build_km(2)
    k = a.index[(0,)]
    x1 = a.index[(1,)]
    x2 = a.index[(2,)]
    unit = a.unit
    assert a.mult[(k, k)] == unit
    assert a.mult[(x1, x1)] == {}
    # anticommutation: x2 x1 = -x1 x2
    x1x2 = a.index[(1, 2)]
    assert a.mult[(x2, x1)] == {x1x2: -list(a.mult[(x1, x2)].values())[0]}


def test_dk1_cross_relation():
    a = build_dk1()
    ai = a.index[(0,)]
    di = a.index[(3,)]
    # da + ad = 1 - bc
    da = dict(a.mult[(di, ai)])
    for k, v in a.mult[(ai, di)].items():
        da[k] = da.get(k, 0) + v
        if not da[k]:
            del da[k]
    bc = a.index[(1, 2)]
    assert da == {a.index[()]: 1, bc: -1}


def test_radical_dimensions():
    # K_m: radical spanned by all words containing an odd generator
    assert len(jacobson_radical(build_km(1))) == 2
    assert len(jacobson_radical(build_km(2))) == 6
    assert len(jacobson_radical(build_dk1())) == 6


@pytest.mark.parametrize("m", range(1, 7))
def test_km_radical_is_the_span_of_odd_words(m):
    a = build_km(m)
    odd = [{a.index[w]: ONE} for w in a.words if any(w)]
    assert len(odd) == 2 ** (m + 1) - 2
    assert span(jacobson_radical(a)) == span(odd)


def span(vectors):
    """The reduced echelon form of the span of sparse vectors, as
    _echelon's primitive integer rows: it depends only on the span."""
    return _echelon([_scaled(v)[0] for v in vectors])


def test_get_algebra():
    assert get_algebra("K2").name == "K2"
    assert get_algebra("DK1").name == "DK1"
    with pytest.raises(Exception):
        get_algebra("bogus")


def test_antipode_squared_is_conjugation_by_k():
    # S^2(xi) = K xi K^{-1} = -xi, so S^2 != id but S^4 = id
    a = build_km(2)
    s = a.antipode_matrix()
    assert s * s != s.__class__.identity(a.dim)
    assert (s * s) * (s * s) == s.__class__.identity(a.dim)
