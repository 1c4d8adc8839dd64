"""The classified indecomposables and the labelling machinery.

Labels follow the text syntax V(r), P(r), O(+s,r), O(-s,r), M(n,r,eta),
St(r).  realize() produces one canonical matrix presentation per label;
identify() inverts it on arbitrary modules.  Over K2 every label but P(r)
is realized as its Kronecker block of the pencil (x1, x2), of shape
label_shape(label): an L block of size s is V(r) (s = 0) or O(+s, r), an
LT block O(-s, r), and a regular Jordan block of size n at the point eta
of P^1 is M(n, r, eta), with r read off the sign of K on the head.
identify peels the projective summands off and splits the remainder into
those blocks (rep.kronecker_route), whose one checked basis change
certifies every label at once; shape_label reads each label off its
block.  syzygy builds Omega^k V(r) independently, by projective covers and
injective hulls, and pins down what O(+-s, r) means.  Over DK1 the bc = 1
block is a K2 module, and the bc = -1 block's Steinberg copies are
certified by one checked witness.  The eta-parameter convention for the
M-family, eta = tr(A1^-1 A2)/n for the head-to-radical blocks Ai of xi and
infinity when A1 is singular, is pinned down by the calibration test in
the test suite, not by any outside source.
"""

from __future__ import annotations

import re

from .errors import AlgebraMismatch, GreenRingError, InvalidLabel, OutOfRange
from .hopf import build_km
from .ratlin import Rat, kernel_basis, rat_from_str, rat_to_str
# decompose and is_isomorphic are imported for the callers that take them
# from here; identify calls neither
from .rep import (_bc_blocks, _k_eigen_change, _steinberg_parities,
                  decompose, inflate_pi, injective_hull, is_isomorphic,
                  kronecker_block, kronecker_route, principal_projective,
                  projective_cover, quotient_module, steinberg_module,
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
        return steinberg_module(label.r)
    m = _realize_k2(label)
    if algebra == "DK1":
        return inflate_pi(m)
    return m


def _realize_k2(label):
    """P(r) is the cached principal projective, every other label its
    Kronecker block."""
    if label.kind == "P":
        return principal_projective(build_km(2), label.r)[0]
    return kronecker_block(label_shape(label))


def syzygy(k, r):
    """Omega^k V(r): iterated (co)kernels through projective covers.

    Positive k takes kernels of covers, negative k cokernels into
    injective hulls.  realize does not use it: it is the construction
    that O(+k, r) (k > 0) and O(-|k|, r) (k < 0) name, built independently
    of their Kronecker blocks.
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
    """Labels of all indecomposable summands of M, sorted canonically.

    Over K2 the peeled P(r) are labelled by the peel, and each Kronecker
    block of the remainder by its shape (shape_label), after
    kronecker_route has checked the basis change to the sum of the blocks.
    Over DK1 one label per summand of its bc blocks (rep._bc_blocks).
    """
    if m.algebra.name == "DK1":
        k2, st, _, _ = _bc_blocks(m)
        labels = identify(k2) + [IndecLabel.steinberg(r)
                                 for r in _steinberg_parities(st)]
    elif m.algebra.name == "K2":
        summands, shapes, _ = kronecker_route(m)
        labels = [shape_label(s) for s in shapes]
        # the peel returns the cached principal projectives
        p0 = principal_projective(m.algebra, 0)[0]
        labels += [IndecLabel.proj(0 if s is p0 else 1) for s in summands]
    else:
        raise AlgebraMismatch(f"identify labels K2 and DK1 modules, not "
                              f"{m.algebra.name} ones")
    labels.sort(key=lambda l: l.sort_key())
    return labels


def witness(m):
    """(labels, g) for a K2 module M with no projective summand, checked:
    M.actions[x] * g == g * (+) realize(labels[i]).actions[x] for every
    generator x, with g invertible.  identify returns the same labels,
    sorted; GreenRingError when M has a projective summand."""
    summands, shapes, g = kronecker_route(m)
    if summands:
        raise GreenRingError("witness covers modules with no projective "
                             "summand")
    # realize(shape_label(s)) is kronecker_block(s), and with no free part
    # the route's remainder is M in its K-eigenbasis
    change = _k_eigen_change(m)
    return ([shape_label(s) for s in shapes],
            g if change is None else change[1] * g)


def identify_indecomposable(m):
    """Label of a K2 module that identify finds indecomposable;
    GreenRingError when it finds another number of summands."""
    if m.algebra.name != "K2":
        raise AlgebraMismatch(f"identify_indecomposable labels K2 modules, "
                              f"not {m.algebra.name} ones; identify also "
                              "labels DK1 modules")
    labels = identify(m)
    if len(labels) != 1:
        raise GreenRingError(f"a dim-{m.dim} module with {len(labels)} "
                             "summands is not indecomposable")
    return labels[0]


def shape_label(shape):
    """The label of the Kronecker block rep.kronecker_block(shape).

    The head sign is (-1)^r on M(n, r, eta).  On V(r) and O(+-s, r),
    tr K = (-1)^(r+s): an L block of size s has s + 1 heads and s radical
    vectors, so tr K is the head sign, and an LT block one head fewer than
    radical vectors, so tr K is minus the head sign.
    """
    kind, sign, size, eta = shape
    if kind == "M":
        return IndecLabel.mtype(size, 0 if sign > 0 else 1, EtaPoint(eta))
    trace = sign if kind == "L" else -sign
    r = (trace < 0) ^ (size % 2)
    if kind == "LT":
        return IndecLabel.syz_neg(size, r)
    return IndecLabel.syz_pos(size, r) if size else IndecLabel.simple(r)


def label_shape(label):
    """The Kronecker block shape of a V, O(+-s) or M label, the inverse of
    shape_label: realize(label, "K2") is kronecker_block(label_shape(label)).
    V(r) and O(+s, r) are ("L", (-1)^(r+s), s, None), with s = 0 for V;
    O(-s, r) is ("LT", -(-1)^(r+s), s, None); M(n, r, eta) is ("M",
    (-1)^r, n, eta)."""
    if label.kind in ("P", "St"):
        raise InvalidLabel(f"{label} is not a Kronecker block")
    sign = -1 if label.r else 1
    if label.kind == "M":
        return ("M", sign, label.n, label.eta.value)
    s = label.s or 0
    trace = -sign if s % 2 else sign
    if label.kind == "O-":
        return ("LT", -trace, s, None)
    return ("L", trace, s, None)
