"""The classified indecomposables and the labelling machinery.

Labels follow the text syntax V(r), P(r), O(+s,r), O(-s,r), M(n,r,eta),
St(r).  realize() produces one canonical matrix presentation per label;
identify() inverts it on arbitrary modules via invariants plus an
explicit isomorphism certificate.  The eta-parameter convention for the
M-family is pinned down by the calibration test in the test suite, not
by any outside source.
"""

from __future__ import annotations

import re

from .errors import (GreenRingError, InvalidLabel, NoSolution, NotInR0,
                     OutOfRange)
from .hopf import build_dk1, build_km
from .ratlin import (ONE, Rat, RatMatrix, ZERO, kernel_basis, rat_from_str,
                     rat_to_str, solve_linear, span_coordinates)
from .rep import (ModuleRep, decompose, dk1_as_k2_actions,
                  injective_hull, is_isomorphic, k2_as_dk1_actions,
                  projective_cover, quotient_module, radical_vectors,
                  submodule)


class EtaPoint:
    """A point of the rational projective line: Finite(p/q) or Infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        # value: Rat for a finite point, None for infinity
        self.value = None if value is None else Rat(value)

    @classmethod
    def finite(cls, p, q=1):
        return cls(Rat(p, q))

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.value is None

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text == "inf":
            return cls.infinity()
        try:
            return cls(rat_from_str(text))
        except (ValueError, ZeroDivisionError):
            raise InvalidLabel(f"bad eta value: {text!r}")

    def __str__(self):
        return "inf" if self.value is None else rat_to_str(self.value)

    def __repr__(self):
        return f"EtaPoint({self})"

    def __eq__(self, other):
        return isinstance(other, EtaPoint) and self.value == other.value

    def __hash__(self):
        return hash(("EtaPoint", None if self.value is None
                     else (int(self.value.numerator),
                           int(self.value.denominator))))

    def sort_key(self):
        if self.value is None:
            return (1, 0, 0)
        return (0, Rat(self.value), 0)


_KINDS = ("V", "P", "O+", "O-", "M", "St")


class IndecLabel:
    """Tagged label of a classified indecomposable.

    kind is one of V, P, O+, O-, M, St; r is the parity twist; s is the
    syzygy depth (O kinds), n the M-family size, eta the M-family point.
    """

    __slots__ = ("kind", "r", "s", "n", "eta")

    def __init__(self, kind, r, s=None, n=None, eta=None):
        if kind not in _KINDS:
            raise InvalidLabel(f"unknown label kind {kind!r}")
        if r not in (0, 1):
            raise InvalidLabel(f"parity must be 0 or 1, got {r!r}")
        if kind in ("O+", "O-"):
            if not (isinstance(s, int) and s >= 1):
                raise InvalidLabel("syzygy depth must be a positive integer")
        elif s is not None:
            raise InvalidLabel("s only valid for syzygy labels")
        if kind == "M":
            if not (isinstance(n, int) and n >= 1):
                raise InvalidLabel("M-family size must be a positive integer")
            if not isinstance(eta, EtaPoint):
                raise InvalidLabel("M-family label needs an EtaPoint")
        elif n is not None or eta is not None:
            raise InvalidLabel("n, eta only valid for M labels")
        self.kind = kind
        self.r = r
        self.s = s
        self.n = n
        self.eta = eta

    # -- constructors ------------------------------------------------
    @classmethod
    def simple(cls, r):
        return cls("V", r)

    @classmethod
    def proj(cls, r):
        return cls("P", r)

    @classmethod
    def syz_pos(cls, s, r):
        return cls("O+", r, s=s)

    @classmethod
    def syz_neg(cls, s, r):
        return cls("O-", r, s=s)

    @classmethod
    def mtype(cls, n, r, eta):
        return cls("M", r, n=n, eta=eta)

    @classmethod
    def steinberg(cls, r):
        return cls("St", r)

    # -- structure ---------------------------------------------------
    def dim(self):
        if self.kind == "V":
            return 1
        if self.kind == "P":
            return 4
        if self.kind in ("O+", "O-"):
            return 2 * self.s + 1
        if self.kind == "M":
            return 2 * self.n
        return 2  # St

    def dual(self):
        """Label of the dual module."""
        if self.kind == "O+":
            return IndecLabel("O-", self.r, s=self.s)
        if self.kind == "O-":
            return IndecLabel("O+", self.r, s=self.s)
        if self.kind == "M":
            return IndecLabel("M", 1 - self.r, n=self.n, eta=self.eta)
        if self.kind == "St":
            # evaluation forces the parity flip: St(1-r) x St(r) = P(0)
            # has head V(0), while St(r) x St(r) = P(1) does not
            return IndecLabel("St", 1 - self.r)
        return self

    def valid_for(self, algebra_name):
        if self.kind == "St":
            return algebra_name == "DK1"
        return True

    # -- text form ---------------------------------------------------
    def __str__(self):
        if self.kind == "V":
            return f"V({self.r})"
        if self.kind == "P":
            return f"P({self.r})"
        if self.kind == "O+":
            return f"O(+{self.s},{self.r})"
        if self.kind == "O-":
            return f"O(-{self.s},{self.r})"
        if self.kind == "M":
            return f"M({self.n},{self.r},{self.eta})"
        return f"St({self.r})"

    def __repr__(self):
        return f"IndecLabel[{self}]"

    _RES = {
        "V": re.compile(r"V\((\d+)\)\Z"),
        "P": re.compile(r"P\((\d+)\)\Z"),
        "O": re.compile(r"O\(([+-])(\d+),(\d+)\)\Z"),
        "M": re.compile(r"M\((\d+),(\d+),([^,()]+)\)\Z"),
        "St": re.compile(r"St\((\d+)\)\Z"),
    }

    @classmethod
    def parse(cls, text):
        t = text.strip().replace(" ", "")
        m = cls._RES["V"].match(t)
        if m:
            return cls("V", _parity(m.group(1)))
        m = cls._RES["P"].match(t)
        if m:
            return cls("P", _parity(m.group(1)))
        m = cls._RES["O"].match(t)
        if m:
            kind = "O+" if m.group(1) == "+" else "O-"
            s = int(m.group(2))
            if s < 1:
                raise InvalidLabel(f"syzygy depth must be >= 1: {text!r}")
            return cls(kind, _parity(m.group(3)), s=s)
        m = cls._RES["M"].match(t)
        if m:
            n = int(m.group(1))
            if n < 1:
                raise InvalidLabel(f"M-family size must be >= 1: {text!r}")
            return cls("M", _parity(m.group(2)), n=n,
                       eta=EtaPoint.parse(m.group(3)))
        m = cls._RES["St"].match(t)
        if m:
            return cls("St", _parity(m.group(1)))
        raise InvalidLabel(f"cannot parse label {text!r}")

    # -- identity ----------------------------------------------------
    def _key(self):
        return (self.kind, self.r, self.s, self.n, self.eta)

    def __eq__(self, other):
        return isinstance(other, IndecLabel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def sort_key(self):
        ek = self.eta.sort_key() if self.eta is not None else (0, 0, 0)
        return (_KINDS.index(self.kind), self.s or 0, self.n or 0,
                self.r, ek)


def _parity(text):
    r = int(text)
    if r not in (0, 1):
        raise InvalidLabel(f"parity must be 0 or 1, got {r}")
    return r


# ---------------------------------------------------------------------
# canonical realizations


_realize_cache = {}


def realize(label, algebra="K2"):
    """Canonical module for a label; identical matrices for equal labels."""
    if algebra not in ("K2", "DK1"):
        raise InvalidLabel(f"unsupported algebra {algebra!r}")
    if not label.valid_for(algebra):
        raise InvalidLabel(f"{label} is not a module label over {algebra}")
    key = (label._key(), algebra)
    if key not in _realize_cache:
        _realize_cache[key] = _realize_fresh(label, algebra)
    return _realize_cache[key]


def _realize_fresh(label, algebra):
    if label.kind == "St":
        return _steinberg_module(label.r)
    m = _realize_k2(label)
    if algebra == "DK1":
        return k2_as_dk1_actions(m)
    return m


def _realize_k2(label):
    k2 = build_km(2)
    if label.kind == "V":
        sign = ONE if label.r == 0 else -ONE
        return ModuleRep(k2, 1, {"K": RatMatrix.diagonal([sign]),
                                 "x1": RatMatrix.zeros(1, 1),
                                 "x2": RatMatrix.zeros(1, 1)})
    if label.kind == "P":
        from .rep import principal_projective
        return principal_projective(k2, label.r)[0]
    if label.kind == "O+":
        return syzygy(label.s, label.r)
    if label.kind == "O-":
        return syzygy(-label.s, label.r)
    # M-family: basis a_1..a_n then b_1..b_n
    n = label.n
    sign = ONE if label.r == 0 else -ONE
    kdata = {}
    for i in range(n):
        kdata[(i, i)] = sign
        kdata[(n + i, n + i)] = -sign
    x1 = {}
    x2 = {}
    if label.eta.is_infinite:
        # xi2 a_i = b_i ; xi1 a_i = b_{i-1}
        for i in range(n):
            x2[(n + i, i)] = ONE
            if i > 0:
                x1[(n + i - 1, i)] = ONE
    else:
        ev = label.eta.value
        for i in range(n):
            x1[(n + i, i)] = ONE
            if ev:
                x2[(n + i, i)] = ev
            if i > 0:
                x2[(n + i - 1, i)] = ONE
    return ModuleRep(k2, 2 * n, {"K": RatMatrix(2 * n, 2 * n, kdata),
                                 "x1": RatMatrix(2 * n, 2 * n, x1),
                                 "x2": RatMatrix(2 * n, 2 * n, x2)})


def _steinberg_module(r):
    dk1 = build_dk1()
    sign = ONE if r == 0 else -ONE
    return ModuleRep(dk1, 2, {
        "b": RatMatrix.diagonal([sign, -sign]),
        "c": RatMatrix.diagonal([-sign, sign]),
        "a": RatMatrix(2, 2, {(0, 1): ONE}),
        "d": RatMatrix(2, 2, {(1, 0): Rat(2)}),
    })


def syzygy(k, r):
    """Omega^k V(r): iterated (co)kernels through projective covers.

    Positive k takes kernels of covers, negative k cokernels into
    injective hulls; the size guard keeps |k| <= 8.
    """
    if not isinstance(k, int) or k == 0:
        raise OutOfRange("syzygy index must be a nonzero integer")
    if abs(k) > 8:
        raise OutOfRange("syzygy index limited to |k| <= 8")
    m = _realize_k2(IndecLabel.simple(r))
    if k > 0:
        for _ in range(k):
            p, cov = projective_cover(m)
            m, _ = submodule(p, kernel_basis(cov))
    else:
        for _ in range(-k):
            hull, emb = injective_hull(m)
            m, _ = quotient_module(hull, emb.col_dicts())
    return m


# ---------------------------------------------------------------------
# DK1 <-> K2 transport


def in_r0(m):
    """True when the two group-likes of DK1 act identically on M."""
    if m.algebra.name != "DK1":
        raise InvalidLabel("in_r0 applies to DK1 modules only")
    return m.actions["b"] == m.actions["c"]


def restrict_pi(m):
    """View a DK1 module with equal group-like actions as a K2 module."""
    if m.algebra.name != "DK1":
        raise InvalidLabel("restrict_pi applies to DK1 modules only")
    if not in_r0(m):
        raise NotInR0("the two group-likes act differently on this module")
    return dk1_as_k2_actions(m)


def inflate_pi(m):
    """Inflate a K2 module to DK1 along the quotient map."""
    if m.algebra.name != "K2":
        raise InvalidLabel("inflate_pi applies to K2 modules only")
    return k2_as_dk1_actions(m)


# ---------------------------------------------------------------------
# identification


def identify(m):
    """Labels of all indecomposable summands of M, sorted canonically."""
    labels = [identify_indecomposable(s) for s in decompose(m)]
    labels.sort(key=lambda l: l.sort_key())
    return labels


def identify_indecomposable(m):
    """Label of a module already known to be indecomposable."""
    if m.algebra.name == "DK1":
        if in_r0(m):
            return identify_indecomposable(restrict_pi(m))
        # not in r0 and indecomposable: must be a Steinberg module, and
        # tr(bad) is +2 on St(0) and -2 on St(1)
        tr = (m.actions["b"] * m.actions["a"] * m.actions["d"]).trace()
        if tr in (2, -2):
            label = IndecLabel.steinberg(0 if tr == 2 else 1)
            if is_isomorphic(m, realize(label, "DK1"))[0]:
                return label
        raise GreenRingError(f"dim-{m.dim} DK1 module outside r0 is not "
                             "Steinberg")
    d = m.dim
    candidates = []
    if d == 1:
        candidates = [IndecLabel.simple(0), IndecLabel.simple(1)]
    else:
        rank12 = _x1x2(m).rank()
        if d == 4 and rank12 == 1:
            candidates = [IndecLabel.proj(0), IndecLabel.proj(1)]
        elif d % 2 == 1:
            s = (d - 1) // 2
            head_dim = d - len(radical_vectors(m))
            if head_dim == s + 1:
                candidates = [IndecLabel.syz_pos(s, r) for r in (0, 1)]
            elif head_dim == s:
                candidates = [IndecLabel.syz_neg(s, r) for r in (0, 1)]
        else:
            lbl = _mtype_candidate(m)
            if lbl is not None:
                candidates = [lbl]
    if len(candidates) > 1:
        # the two parities differ in an invariant: keep the one that agrees
        kind = candidates[0].kind
        inv = _parity_invariant(m, kind)
        candidates = [l for l in candidates
                      if _parity_invariant(realize(l, "K2"), kind) == inv]
    for lbl in candidates:
        ok, _ = is_isomorphic(m, realize(lbl, "K2"))
        if ok:
            return lbl
    raise GreenRingError(
        f"dim-{d} indecomposable matched no classified label")


def _parity_invariant(m, kind):
    """An isomorphism invariant of a K2 module that separates V(0) from
    V(1), O(+-s,0) from O(+-s,1), and P(0) from P(1).

    For P it is the sign by which K acts on the line im(x1.x2), else the
    trace of K.
    """
    if kind != "P":
        return m.actions["K"].trace()
    x12 = _x1x2(m)
    (i, j), v = next(iter(x12.data.items()))
    return (m.actions["K"] * x12)[i, j] / v


def _x1x2(m):
    """Action of the word x1.x2, cached on the module."""
    return m.word_action(m.algebra.index[(1, 2)])


def _mtype_candidate(m):
    """Guess M(n,r,eta) invariants from the head-to-radical pencil."""
    n = m.dim // 2
    rad = radical_vectors(m)
    if len(rad) != n:
        return None
    head, _ = quotient_module(m, rad)
    if head.dim != n:
        return None
    # K acts on the head by a single sign, which fixes r
    kh = head.actions["K"]
    ident = RatMatrix.identity(n)
    if kh == ident:
        r = 0
    elif kh == ident.scale(-ONE):
        r = 1
    else:
        return None
    # induced pencil head -> rad: coordinates of xi_i(lift) in the rad
    # basis, the head lifted to the columns that are no pivot of rad
    pivots = {min(v) for v in rad}
    pos = {j: k for k, j in enumerate(c for c in range(m.dim)
                                      if c not in pivots)}
    incl = RatMatrix.from_columns(rad, m.dim)
    pencil = []
    for lbl in ("x1", "x2"):
        lifted = RatMatrix(m.dim, n, {(i, pos[j]): v for (i, j), v
                                      in m.actions[lbl].data.items()
                                      if j in pos})
        try:
            pencil.append(span_coordinates(incl, lifted))
        except NoSolution:
            return None
    a1, a2 = pencil
    if a1.rank() < n:
        return IndecLabel.mtype(n, r, EtaPoint.infinity())
    # eta = trace(a1^{-1} a2)/n, an invariant of the pencil
    tr = ZERO
    for j, col in enumerate(a2.col_dicts()):
        x, _ = solve_linear(a1, col)
        tr += x.get(j, ZERO)
    return IndecLabel.mtype(n, r, EtaPoint(tr / n))


def label_dim(label):
    return label.dim()
