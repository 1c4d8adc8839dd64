"""The classified indecomposables and the labelling machinery.

Labels follow the text syntax V(r), P(r), O(+s,r), O(-s,r), M(n,r,eta),
St(r).  realize() produces one canonical matrix presentation per label;
identify() inverts it on arbitrary modules.  Each K2 summand gets one
candidate label, read off its actions in a K-eigenbasis (the head and
radical K-eigenspaces, the sign of K on them, and eta from the
head-to-radical pencil), certified by one explicit isomorphism to its
realization.  Over DK1 the bc = 1 block is a K2 module, and the bc = -1
block's Steinberg copies are certified by one checked witness.  The
eta-parameter convention for the M-family is pinned down by the
calibration test in the test suite, not by any outside source.
"""

from __future__ import annotations

import re

from .errors import AlgebraMismatch, GreenRingError, InvalidLabel, OutOfRange
from .hopf import build_km
from .ratlin import (ONE, Rat, RatMatrix, _echelon, kernel_basis,
                     rat_from_str, rat_to_str)
from .rep import (ModuleRep, _bc_blocks, _k_eigenbasis, _steinberg_parities,
                  decompose, inflate_pi, injective_hull, is_isomorphic,
                  principal_projective, projective_cover, quotient_module,
                  steinberg_module, submodule)


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
        return steinberg_module(label.r)
    m = _realize_k2(label)
    if algebra == "DK1":
        return inflate_pi(m)
    return m


def _realize_k2(label):
    k2 = build_km(2)
    if label.kind == "V":
        sign = ONE if label.r == 0 else -ONE
        return ModuleRep(k2, 1, {"K": RatMatrix.diagonal([sign]),
                                 "x1": RatMatrix.zeros(1, 1),
                                 "x2": RatMatrix.zeros(1, 1)})
    if label.kind == "P":
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


def syzygy(k, r):
    """Omega^k V(r): iterated (co)kernels through projective covers.

    Positive k takes kernels of covers, negative k cokernels into
    injective hulls.
    """
    if not isinstance(k, int) or k == 0:
        raise OutOfRange("syzygy index must be a nonzero integer")
    m = _realize_k2(IndecLabel.simple(r))
    if k > 0:
        for _ in range(k):
            p, cov = projective_cover(m)
            m, _ = submodule(p, kernel_basis(cov))
    else:
        for _ in range(-k):
            hull, emb = injective_hull(m)
            m, _ = quotient_module(hull, emb.transpose().int_rows())
    return m


# ---------------------------------------------------------------------
# identification


def identify(m):
    """Labels of all indecomposable summands of M, sorted canonically; over
    DK1 one per summand of its bc blocks (rep._bc_blocks)."""
    if m.algebra.name == "DK1":
        k2, st, _, _ = _bc_blocks(m)
        labels = identify(k2) + [IndecLabel.steinberg(r)
                                 for r in _steinberg_parities(st)]
    else:
        labels = [identify_indecomposable(s) for s in decompose(m)]
    labels.sort(key=lambda l: l.sort_key())
    return labels


def identify_indecomposable(m):
    """Label of a K2 module already known to be indecomposable.

    One candidate label is read off the actions in a K-eigenbasis (see
    _k2_candidate) and certified by one is_isomorphic call against its
    realization.
    """
    if m.algebra.name != "K2":
        raise AlgebraMismatch(f"identify_indecomposable labels K2 modules, "
                              f"not {m.algebra.name} ones; identify also "
                              "labels DK1 modules")
    m = _k_eigenbasis(m)
    label = _k2_candidate(m)
    if label is not None and is_isomorphic(m, realize(label, "K2"))[0]:
        return label
    raise GreenRingError(
        f"dim-{m.dim} indecomposable matched no classified label")


def _k2_candidate(m):
    """The one label an indecomposable K2 module with diagonal K can carry,
    read off its actions; None when the counts fit no label.

    If x1.x2 != 0, M is P(r), and K acts on the socle im(x1.x2) by
    (-1)^r.  Otherwise x1 and x2 map one K-eigenspace, the head (sign
    sigma), onto the other, the radical: s+1 of 2s+1 dimensions in the
    head is O(+s,r), s of 2s+1 is O(-s,r), and n of 2n is M(n,r,eta).  On
    V(r) and O(+-s,r) tr K = (-1)^(r+s); on M(n,r,eta) sigma = (-1)^r.
    """
    d = m.dim
    k_diag, _ = m.actions["K"].int_form()  # a positive multiple of K
    signs = [k_diag.get((j, j), 0) for j in range(d)]
    x12 = m.word_action(m.algebra.index[(1, 2)])
    if not x12.is_zero():
        i, _ = next(iter(x12.int_form()[0]))
        return IndecLabel.proj(0 if signs[i] > 0 else 1)
    if d == 1:
        return IndecLabel.simple(0 if signs[0] > 0 else 1)
    cols = {j for g in ("x1", "x2") for _, j in m.actions[g].int_form()[0]}
    if not cols:
        return None
    sigma = signs[min(cols)]
    head = [j for j in range(d) if signs[j] == sigma]
    if d % 2:
        s = d // 2
        r = 0 if m.actions["K"].trace() == (-1) ** s else 1
        if len(head) == s + 1:
            return IndecLabel.syz_pos(s, r)
        if len(head) == s:
            return IndecLabel.syz_neg(s, r)
        return None
    if len(head) != d // 2:
        return None
    rad = [i for i in range(d) if signs[i] != sigma]
    return IndecLabel.mtype(d // 2, 0 if sigma > 0 else 1,
                            _pencil_eta(m, head, rad))


def _pencil_eta(m, head, rad):
    """eta = tr(A1^-1 A2)/n, Ai the block of xi from the head columns to
    the radical rows; inf when A1 is singular.

    One reduced echelon form of [A1 | A2] gives it: A1 is invertible iff
    the pivots are the first n columns, and then the reduced rows are
    [I | A1^-1 A2].
    """
    n = len(head)
    pos = {j: b for b, j in enumerate(head)}
    pos.update({m.dim + j: n + b for b, j in enumerate(head)})
    at = {i: a for a, i in enumerate(rad)}
    rows = [{} for _ in rad]
    ints, _ = m.actions["x1"].hstack(m.actions["x2"]).int_form()
    for (i, j), v in ints.items():
        if i in at and j in pos:
            rows[at[i]][pos[j]] = v
    pivot_cols, pivot_rows = _echelon(rows)
    if pivot_cols != list(range(n)):
        return EtaPoint.infinity()
    tr = sum(Rat(row.get(n + c, 0), row[c])
             for c, row in zip(pivot_cols, pivot_rows))
    return EtaPoint(tr / n)
