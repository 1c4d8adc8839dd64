"""Green ring arithmetic: closed-form fusion vs oracle, presentations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from greenring.green import (GreenElement, STANDARD_ETAS, dimension_character,
                             green_mul, green_mul_labels, green_mul_oracle,
                             verify_presentation)
from greenring.indec import EtaPoint, IndecLabel

ETA = EtaPoint.finite(2, 3)
K2_LABELS = [IndecLabel.simple(0), IndecLabel.simple(1),
             IndecLabel.proj(0), IndecLabel.proj(1),
             IndecLabel.syz_pos(1, 0), IndecLabel.syz_pos(2, 1),
             IndecLabel.syz_neg(1, 1), IndecLabel.syz_neg(2, 0),
             IndecLabel.mtype(1, 0, ETA), IndecLabel.mtype(2, 1, ETA),
             IndecLabel.mtype(1, 1, EtaPoint.infinity())]
DK1_LABELS = K2_LABELS + [IndecLabel.steinberg(0), IndecLabel.steinberg(1)]


def gel(label):
    return GreenElement.from_label(label)


def test_element_arithmetic():
    x = gel(IndecLabel.proj(0)) + gel(IndecLabel.simple(1)).scale(2)
    y = x - gel(IndecLabel.simple(1))
    assert y.coeffs[IndecLabel.simple(1)] == 1
    assert (x - x).is_zero()
    assert x.is_nonnegative() and not (y - x).is_nonnegative()


def test_element_text_and_json_roundtrip():
    x = gel(IndecLabel.proj(0)).scale(2) - gel(IndecLabel.simple(0))
    assert str(x) == "-V(0) + 2*P(0)"
    assert GreenElement.from_json_list(x.to_json_list()) == x


def test_unit_element():
    one = gel(IndecLabel.simple(0))
    for lbl in K2_LABELS:
        assert green_mul(one, gel(lbl)) == gel(lbl)


def test_known_products():
    # the sign-twist action of V(1)
    v1 = gel(IndecLabel.simple(1))
    assert green_mul(v1, v1) == gel(IndecLabel.simple(0))
    # P(0) x P(1) = 2 P(0) + 2 P(1)
    prod = green_mul(gel(IndecLabel.proj(0)), gel(IndecLabel.proj(1)))
    want = gel(IndecLabel.proj(0)).scale(2) + gel(IndecLabel.proj(1)).scale(2)
    assert prod == want
    # syzygies compose: O(+1,0) x O(-1,0) = V(0) + 2 P(0)  (stable = unit)
    prod = green_mul_labels(IndecLabel.syz_pos(1, 0),
                            IndecLabel.syz_neg(1, 0))
    assert prod.coeffs[IndecLabel.simple(0)] == 1


def test_dimension_character_is_multiplicative():
    a = gel(IndecLabel.syz_pos(2, 0))
    b = gel(IndecLabel.mtype(2, 1, ETA))
    assert (dimension_character(green_mul(a, b))
            == dimension_character(a) * dimension_character(b))


def test_closed_form_matches_oracle_k2_sample():
    sample = K2_LABELS
    for a in sample:
        for b in sample:
            assert green_mul_labels(a, b) == green_mul_oracle(a, b), (a, b)


def _syzygy(sign, s, r):
    return (IndecLabel.syz_pos if sign > 0 else IndecLabel.syz_neg)(s, r)


def _syzygy_products(max_sum, r_pairs):
    """Every O(+-s,ra) * O(+-n,rb) with s, n >= 1, s + n <= max_sum."""
    return [(_syzygy(sa, s, ra), _syzygy(sb, n, rb))
            for s in range(1, max_sum) for n in range(1, max_sum - s + 1)
            for sa in (1, -1) for sb in (1, -1) for ra, rb in r_pairs]


def test_closed_form_matches_oracle_on_deep_syzygy_products():
    """Products of syzygies reach O(+-(s+n)): the oracle identifies every
    one of them, down to depth 16, and agrees with the closed form."""
    products = (_syzygy_products(16, [(0, 0)])
                + _syzygy_products(6, [(0, 1), (1, 0), (1, 1)]))
    assert len(products) == 480 + 180
    for a, b in products:
        assert green_mul_labels(a, b) == green_mul_oracle(a, b), (a, b)


def test_closed_form_matches_oracle_dk1_sample():
    sample = [IndecLabel.steinberg(0), IndecLabel.steinberg(1),
              IndecLabel.simple(1), IndecLabel.proj(0),
              IndecLabel.syz_pos(1, 1), IndecLabel.mtype(1, 0, ETA)]
    for a in sample:
        for b in sample:
            assert (green_mul_labels(a, b, "DK1")
                    == green_mul_oracle(a, b, "DK1")), (a, b)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DK1_LABELS), st.sampled_from(DK1_LABELS),
       st.sampled_from(DK1_LABELS))
def test_commutative_and_associative(a, b, c):
    ab = green_mul_labels(a, b, "DK1")
    assert ab == green_mul_labels(b, a, "DK1")
    bc = green_mul_labels(b, c, "DK1")
    assert green_mul(ab, gel(c), "DK1") == green_mul(gel(a), bc, "DK1")


def test_duality_is_ring_involution():
    for a in DK1_LABELS:
        for b in (IndecLabel.steinberg(0), IndecLabel.syz_pos(1, 0),
                  IndecLabel.mtype(1, 1, ETA)):
            assert (green_mul_labels(a, b, "DK1").dual()
                    == green_mul_labels(a.dual(), b.dual(), "DK1"))


def test_standard_etas_cover_all_kinds():
    vals = {str(e) for e in STANDARD_ETAS}
    assert {"0", "1", "-1", "inf"} <= vals


def test_presentation_dk1():
    report = verify_presentation("DK1", max_n=2)
    assert report.ok, report.lines()


def test_presentation_k2():
    report = verify_presentation("K2", max_n=2)
    assert report.ok, report.lines()
