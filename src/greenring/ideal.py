"""Tensor ideals of the K2 module category, and negligibility.

A proper additive tensor ideal is determined by a function f from the
rational projective line to the positive integers extended by infinity:
the ideal contains M_k(r,eta) exactly when f(eta) > k, and always
contains the projectives.  IdealSpec stores f as a finite support map
plus a default value.

The base case is the negligible ideal: M is negligible when the pivotal
quantum trace T -> tr(rho(pivot) . T) vanishes on all of End(M); the
pivot is the group-like K (the generator b over DK1, rep.pivot).
Projectives are negligible, and the trace splits over a direct sum of
submodules, so is_negligible cuts the projective blocks off first.  Over
DK1 the central bc splits M into a K2 block and a Steinberg block, which
is projective (rep._bc_blocks); the free part F is peeled off the K2
module (rep._peel_projectives), and only the remainder R is tested.  The
test is one row-space membership: End(R) is the kernel of the
intertwining constraints C (rep.hom_rows) over their live unknowns, and
a linear functional vanishes on ker C exactly when it lies in the row
space of C, so no basis of End(R) is built.
"""

from __future__ import annotations

from math import inf

from .errors import (InvalidIdealSpec, InvalidLabel, NegativeCoefficient,
                     NotEndomorphism)
from .indec import EtaPoint, identify
from .rep import (_bc_blocks, _k_eigenbasis, _peel_projectives, hom_rows,
                  pivot)
from .ratlin import in_row_space, trace_product


class IdealSpec:
    """Improper, or Proper with membership bound f: EtaPoint -> Z+ u {inf}.

    support maps EtaPoint to a bound (int >= 1 or math.inf); default is
    the bound applied to every eta not in the support.
    """

    def __init__(self, proper, support=None, default=1):
        self.proper = bool(proper)
        self.support = {}
        self.default = default
        if self.proper:
            if not _valid_bound(default):
                raise ValueError(f"bad default bound {default!r}")
            for eta, bound in (support or {}).items():
                if not isinstance(eta, EtaPoint):
                    raise ValueError("support keys must be EtaPoints")
                if not _valid_bound(bound):
                    raise ValueError(f"bad bound {bound!r}")
                if bound != default:
                    self.support[eta] = bound

    @classmethod
    def improper(cls):
        return cls(False)

    @classmethod
    def projective(cls):
        """The smallest tensor ideal: projectives only (f identically 1)."""
        return cls(True)

    def bound(self, eta):
        return self.support.get(eta, self.default)

    def member_label(self, label):
        """Is a single indecomposable label in the ideal?"""
        if not self.proper:
            return True
        if label.kind == "P":
            return True
        if label.kind == "M":
            return self.bound(label.eta) > label.n
        if label.kind == "St":
            raise InvalidLabel("ideal membership is defined over K2 labels")
        return False

    def __eq__(self, other):
        if not isinstance(other, IdealSpec):
            return NotImplemented
        if self.proper != other.proper:
            return False
        if not self.proper:
            return True
        return self.default == other.default and self.support == other.support

    def __repr__(self):
        if not self.proper:
            return "IdealSpec(improper)"
        sup = ", ".join(f"{e}:{_bound_str(b)}"
                        for e, b in sorted(self.support.items(),
                                           key=lambda kv: kv[0].sort_key()))
        return f"IdealSpec(default={_bound_str(self.default)}, {{{sup}}})"

    def to_json_dict(self):
        if not self.proper:
            return {"proper": False}
        return {
            "proper": True,
            "default": _bound_str(self.default),
            "support": [{"eta": str(e), "bound": _bound_str(b)}
                        for e, b in sorted(self.support.items(),
                                           key=lambda kv: kv[0].sort_key())],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict.  Raises InvalidIdealSpec for a value
        that is not an object, an unknown key, a "proper" that is not a
        boolean, a support that is not a list of {"eta", "bound"} objects,
        a bound that is not a positive integer or "inf", or a point named
        twice; a bad eta is an InvalidLabel."""
        if not isinstance(d, dict):
            raise InvalidIdealSpec("an ideal spec must be a JSON object")
        unknown = set(d) - {"proper", "default", "support"}
        if unknown:
            raise InvalidIdealSpec(f"unknown ideal spec keys: "
                                   f"{', '.join(sorted(unknown))}")
        proper = d.get("proper", True)
        if not isinstance(proper, bool):
            raise InvalidIdealSpec(f"'proper' must be true or false, "
                                   f"not {proper!r}")
        if not proper:
            return cls.improper()
        support = d.get("support", [])
        if not (isinstance(support, list)
                and all(isinstance(e, dict) and set(e) == {"eta", "bound"}
                        and isinstance(e["eta"], str) for e in support)):
            raise InvalidIdealSpec("'support' must be a list of objects "
                                   "with the keys 'eta' (a string) and "
                                   "'bound'")
        bounds = {}
        for e in support:
            eta = EtaPoint.parse(e["eta"])
            if eta in bounds:
                raise InvalidIdealSpec(f"'support' names the point {eta} "
                                       f"twice (eta {e['eta']!r})")
            bounds[eta] = _parse_bound(e["bound"])
        return cls(True, bounds, _parse_bound(d.get("default", "1")))


def _valid_bound(b):
    return b == inf or (isinstance(b, int) and b >= 1)


def _bound_str(b):
    return "inf" if b == inf else str(b)


def _parse_bound(value):
    """A bound from a positive integer, its decimal string, or "inf"."""
    if value == "inf":
        return inf
    try:
        b = int(value) if type(value) is str and value.isdecimal() else value
    except ValueError:  # past int()'s limit on the number of digits
        raise InvalidIdealSpec(f"a bound of {len(value)} digits is too "
                               "long") from None
    if type(b) is not int or b < 1:
        raise InvalidIdealSpec(f"a bound must be a positive integer or "
                               f"'inf', not {value!r}")
    return b


def ideal_closure(generators):
    """Smallest additive tensor ideal of K2 containing the generators.

    Simples and syzygy modules tensor-generate the unit, so any such
    generator makes the ideal improper; M_n(r,eta) forces the bound at
    eta up to n+1; projective generators add nothing.
    """
    support = {}
    for lbl in generators:
        if lbl.kind in ("V", "O+", "O-"):
            return IdealSpec.improper()
        if lbl.kind == "St":
            raise InvalidLabel("ideal_closure takes K2 labels")
        if lbl.kind == "M":
            cur = support.get(lbl.eta, 1)
            support[lbl.eta] = max(cur, lbl.n + 1)
    return IdealSpec(True, support, 1)


def ideal_contains(spec, x):
    """Membership of a nonnegative GreenElement, summand by summand."""
    for lbl, c in x.coeffs.items():
        if c < 0:
            raise NegativeCoefficient(
                f"membership undefined for virtual class {c}*{lbl}")
    return all(spec.member_label(lbl) for lbl in x.coeffs)


# ---------------------------------------------------------------------
# negligibility via the pivotal quantum trace


def quantum_trace(m, t):
    """tr(rho(pivot) . T) for an endomorphism T of M."""
    if not (t.rows == m.dim and t.cols == m.dim):
        raise NotEndomorphism("shape mismatch")
    for lbl, _ in m.algebra.generators:
        act = m.actions[lbl]
        if t * act != act * t:
            raise NotEndomorphism(f"does not commute with {lbl}")
    return trace_product(pivot(m), t)


def qdim(m):
    """Quantum dimension: quantum trace of the identity."""
    return pivot(m).trace()


def is_negligible(m):
    """True iff the quantum trace vanishes on all of End(M).

    The identity is in End(M) and tr(K id) = qdim(M), so a nonzero qdim
    is an exact certificate that M is not negligible, read before any
    system is built.

    Then two projective blocks are cut off, and only what is left is
    tested; this is exact, for two reasons.

    Block split.  For M = X + Y, a direct sum of submodules, the pivot
    acts on each summand, so tr(K T) = tr(K T_XX) + tr(K T_YY) for T in
    End(M).  T_XX ranges over all of End(X) and T_YY over all of End(Y),
    so M is negligible iff both X and Y are; and negligibility is an
    isomorphism invariant.

    Projectives are negligible.  Neither K_m nor DK1 is semisimple.  Were
    tr(K f) != 0 for some f in End(P), P projective, then the trace would
    make the unit V(0) a retract of P (x) P*, which is projective; V(0)
    is not projective.

    The blocks.  Over DK1 the central involution bc splits M into its
    eigenspaces (rep._bc_blocks).  The -1 block is a sum of Steinberg
    modules, which are projective; the +1 block is a K2 module, on which
    the pivot b acts as K and whose DK1 maps are its K2 maps.  Then the
    peel gives M = F + R, F free and R isomorphic to M / F, so the peel's
    quotient can stand for R.

    The membership test.  With K the pivot matrix and T vectorized as in
    rep.hom_rows (unknown i * d + j is T[i, j]), tr(K T) = sum of
    K[j, i] T[i, j] is the functional phi with phi[i * d + j] = K[j, i].
    End(M) is the kernel of the constraint rows C over the live unknowns,
    every other unknown being 0 on End(M); so only phi's entries on live
    unknowns matter, and phi vanishes on ker C iff that restriction is in
    row(C), because the annihilator of ker C is (ker C)-perp = row(C).
    """
    if qdim(m):
        return False
    if m.algebra.name == "DK1":
        m = _bc_blocks(m)[0]
    _, m = _peel_projectives(_k_eigenbasis(m))
    d = m.dim
    rows, live = hom_rows(m, m)
    piv, _ = pivot(m).int_form()  # a positive multiple of K
    live = set(live)
    phi = {i * d + j: v for (j, i), v in piv.items() if i * d + j in live}
    return in_row_space(rows, phi, d * d)


def is_quasi_dominated(m):
    """True iff every indecomposable summand is simple or negligible.

    Labels the summands and applies the classification: simples and
    negligible indecomposables (projectives and the M-family; Steinberg
    modules over DK1 are projective) qualify.
    """
    for lbl in identify(m):
        if lbl.kind in ("V", "P", "M", "St"):
            continue
        return False
    return True
