"""The angle triple and the moduli spaces it indexes, on Python floats.

A triple is stored as its cosines, and everything here reads them: the
existence rule of each family (which the builders in `families` call too)
and the strata of the moduli space of protohomogeneous k-subspaces of H^n,
each within the one end band REGION_TOL.  The module
imports only the standard library, so the moduli layer loads without
numpy.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = [
    "AngleTriple",
    "ModuliStratum",
    "StratumMembership",
    "strata_for",
    "moduli_membership",
    "moduli_describe",
]

HALF_PI = math.pi / 2.0

# The band of each existence rule and of each end angle: a triple within it
# of the rule's boundary, or a cosine within it of 0 or 1, lies on it.  The
# builders and the moduli strata read the same predicates, so every triple a
# stratum holds is one the builders can build; a computed cosine is read on
# its own scale (`subspace._ExactStructure`), so it enters them as it is.
REGION_TOL = 1e-10


def _finite_clip01(x: float, what: str) -> float:
    """x clipped to [0, 1], refused unless finite; -0.0 becomes 0.0."""
    if not math.isfinite(x):
        raise ValueError(f"{what} {x} is not finite")
    return min(max(0.0, x), 1.0)


def _count(value, name: str) -> int:
    """``value`` as a Python int, refused by ``name`` unless it is an int
    (Python or numpy); a bool, a float or a string is refused."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an int, got {value!r}")


def _sign(value, name: str) -> int:
    """``value`` as the int +1 or -1 (Python or numpy), refused by ``name`` otherwise."""
    if type(value) is bool or not hasattr(value, "__index__") or value not in (1, -1):
        raise ValueError(f"{name} must be the int +1 or -1, got {value!r}")  # True == 1 == 1.0
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float, refused by ``name`` unless a real number (not a bool)."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _triple(value, name: str) -> "AngleTriple":
    """``value``, refused by ``name`` unless it is an `AngleTriple`."""
    if not isinstance(value, AngleTriple):
        raise ValueError(f"{name} must be an AngleTriple, got {type(value).__name__}")
    return value


def _cos_of(phi: float, name: str) -> float:
    """cos(phi), refused by ``name`` unless phi is a real number, and unless
    it is a finite angle in [0, pi/2]."""
    if not 0.0 <= _real(phi, name) <= HALF_PI:  # a NaN fails the comparison, so it is refused here
        raise ValueError(f"angle {phi} lies outside [0, pi/2]")
    return math.cos(phi)


@dataclass(frozen=True, init=False)
class AngleTriple:
    """Angles 0 <= phi1 <= phi2 <= phi3 <= pi/2, stored as their cosines
    c1 >= c2 >= c3 in [0, 1], which every predicate, gate and builder reads
    (`cos_tuple`); the angles (`phi1`, `as_tuple`) are their acos.
    ``AngleTriple(phi1, phi2, phi3)`` takes angles and stores their cosines."""

    _cos: tuple[float, float, float]

    def __init__(self, phi1: float, phi2: float, phi3: float):
        cos = tuple(map(_cos_of, (phi1, phi2, phi3), ("phi1", "phi2", "phi3")))
        if not phi1 <= phi2 <= phi3:
            raise ValueError(f"angles must be sorted ascending, got {(phi1, phi2, phi3)}")
        object.__setattr__(self, "_cos", cos)

    @classmethod
    def _stored(cls, c1: float, c2: float, c3: float) -> "AngleTriple":
        """The triple of cosines already in [0, 1] and descending, unchecked."""
        triple = object.__new__(cls)
        object.__setattr__(triple, "_cos", (c1, c2, c3))
        return triple

    @classmethod
    def from_cosines(cls, cosines) -> "AngleTriple":
        """The triple storing the three real cosines, given in any order,
        clipped to [0, 1] and sorted.  A NaN or an infinite cosine is
        refused, as are a bool, a string and a complex number."""
        try:
            values = [] if isinstance(cosines, (str, bytes)) else list(cosines)
        except TypeError:  # a single value
            values = [cosines]
        if len(values) != 3:
            raise ValueError(f"cosines must be three real numbers, got {cosines!r}")
        return cls._stored(*sorted((_finite_clip01(_real(c, "cosines"), "cosine")
                                    for c in values), reverse=True))

    @classmethod
    def from_cos2_eigenvalues(cls, lams) -> "AngleTriple":
        """The triple of squared cosines, given as Python floats (`ndarray.tolist`),
        each clipped once: the square root of a value in [0, 1] lies there too."""
        if len(lams) != 3:
            raise ValueError(f"lams must hold three squared cosines, got {len(lams)}")
        return cls._stored(*sorted((math.sqrt(_finite_clip01(v, "squared cosine"))
                                    for v in lams), reverse=True))

    phi1 = property(lambda self: math.acos(self._cos[0]))
    phi2 = property(lambda self: math.acos(self._cos[1]))
    phi3 = property(lambda self: math.acos(self._cos[2]))

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(map(math.acos, self._cos))

    def cos_tuple(self) -> tuple[float, float, float]:
        """The three stored cosines as floats, descending."""
        return self._cos

    def cos2(self) -> tuple[float, float, float]:
        """The squared cosines, descending."""
        return tuple(c * c for c in self._cos)


# The existence rules, one predicate on cosines each, read by the builders
# (`families`) and by the strata below.

def _class_rank(x, sign: int) -> int | None:
    """The sign-class rule at the cosines ``x``: the class exists iff
    cos(phi1) + cos(phi2) - sign cos(phi3) <= 1.  Its Gram rank: 2 within
    REGION_TOL of that boundary, 3 inside it; None outside."""
    margin = x[0] + x[1] - sign * x[2] - 1.0
    if margin > REGION_TOL:
        return None
    return 2 if margin >= -REGION_TOL else 3


def _v3_rank(c: float, sign: int) -> int | None:
    """The 3-dimensional rule at c = cos(phi): the plus class exists at every
    phi, the minus class for cos(phi) <= 1/2 (phi >= pi/3).  The rank of its
    e_1, e_2: 1 for the minus class within REGION_TOL of cos(phi) = 1/2,
    where e_2 = -e_1 and it fits in H^2, else 2; None outside."""
    if sign == 1:
        return 2
    if c - 0.5 > REGION_TOL:
        return None
    return 1 if c - 0.5 >= -REGION_TOL else 2


def _phi2_is_phi3(x) -> bool:
    """The phi1 = 0 rule at the cosines ``x``: a constant-angle triple with
    phi1 = 0 has phi2 = phi3."""
    return abs(x[1] - x[2]) <= REGION_TOL


@dataclass(frozen=True)
class ModuliStratum:
    """One stratum of the moduli space of protohomogeneous k-subspaces."""

    name: str
    kind: str  # point | curve | region | region_with_Z2 | surface
    description: str
    multiplicity: int
    # The region test on the cosines of a triple (`AngleTriple.cos_tuple`),
    # within REGION_TOL; an existence rule is one of the predicates above.
    predicate: Callable[[tuple[float, ...]], bool] = field(repr=False)
    annotation: str | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "multiplicity": self.multiplicity,
            "action": "subspace-induced",
        }
        if self.annotation:
            out["annotation"] = self.annotation
        return out


def _point_stratum(name, cosines, description, annotation=None) -> ModuliStratum:
    def pred(x) -> bool:
        return all(abs(a - b) <= REGION_TOL for a, b in zip(x, cosines))

    return ModuliStratum(name, "point", description, 1, pred, annotation=annotation)


def _in_minus_region(x) -> bool:
    return _class_rank(x, -1) is not None and x[2] > REGION_TOL


def _on_v3_curve(x) -> bool:
    """The triple is (phi, phi, pi/2)."""
    return abs(x[0] - x[1]) <= REGION_TOL and x[2] <= REGION_TOL


# Every stratum is built once, at import: the strata of the (k, n) moduli
# space depend on k and n only through the class of k and the ratio k / n,
# so `strata_for` picks rows of one table that no input changes.
_SUM_REGIONS = (
    ModuliStratum(
        "single_class_region", "region",
        "triples with cos(phi1)+cos(phi2)-cos(phi3) <= 1 outside the "
        "two-class region; one subspace class per triple",
        1, lambda x: _class_rank(x, 1) is not None and not _in_minus_region(x)),
    ModuliStratum(
        "two_class_region", "region_with_Z2",
        "triples with cos(phi1)+cos(phi2)+cos(phi3) <= 1 and "
        "phi3 != pi/2; two inequivalent classes per triple",
        2, _in_minus_region),
)
_SUM_BOUNDARY = (ModuliStratum(
    "boundary_sum_surface", "surface",
    "triples with cos(phi1)+cos(phi2)+-cos(phi3) = 1; blocks on "
    "the rank-two boundary fit three quaternionic dimensions each",
    1, lambda x: 2 in (_class_rank(x, 1), _class_rank(x, -1))),)
_COMPLEXIFIED = (ModuliStratum(
    "complexified_curve", "curve",
    "triples (0, phi, phi), phi in [0, pi/2]",
    1, lambda x: x[0] >= 1.0 - REGION_TOL and _phi2_is_phi3(x)),)
_QUATERNIONIC = (_point_stratum(
    "quaternionic_point", (1.0, 1.0, 1.0),
    "the quaternionic subspace, angles (0, 0, 0)",
    annotation="tubes around a totally geodesic quaternionic "
               "hyperbolic subspace"),)
_KAHLER = (ModuliStratum(
    "kahler_angle_curve", "curve",
    "triples (phi, pi/2, pi/2), phi in [0, pi/2]",
    1, lambda x: x[1] <= REGION_TOL and x[2] <= REGION_TOL),)
_TOTALLY_COMPLEX = (_point_stratum(
    "totally_complex_point", (1.0, 0.0, 0.0),
    "the totally complex subspace, angles (0, pi/2, pi/2)"),)
_V3_CURVES = (
    ModuliStratum(
        "single_branch_curve", "curve",
        "triples (phi, phi, pi/2), phi in [0, pi/3) or phi = pi/2; "
        "one subspace class per angle",
        1, lambda x: _on_v3_curve(x) and (x[0] <= REGION_TOL or _v3_rank(x[0], -1) is None)),
    ModuliStratum(
        "two_branch_curve", "curve",
        "triples (phi, phi, pi/2), phi in [pi/3, pi/2); two "
        "inequivalent classes per angle",
        2, lambda x: _on_v3_curve(x) and x[0] > REGION_TOL and _v3_rank(x[0], -1) is not None),
)
_IMAGINARY_LINE = (_point_stratum(
    "imaginary_line_point", (1.0, 1.0, 0.0),
    "the imaginary span of a vector, angles (0, 0, pi/2)"),)
_V3_POINTS = _IMAGINARY_LINE + (ModuliStratum(
    "compact_branch_point", "point",
    "the single 3-dimensional class at phi = pi/3 that fits two "
    "quaternionic dimensions",
    1, lambda x: _on_v3_curve(x) and _v3_rank(x[0], -1) == 1),)
_TOTALLY_REAL = (_point_stratum(
    "totally_real_point", (0.0, 0.0, 0.0),
    "the totally real subspace, angles (pi/2, pi/2, pi/2)"),)
_LINE = (replace(_TOTALLY_REAL[0], annotation="solvable foliation"),)


def strata_for(k: int, n: int) -> list[ModuliStratum]:
    """The strata of the moduli space of protohomogeneous k-subspaces of H^n,
    as a new list of the one table's row for (k, n); k and n are ints."""
    k, n = _count(k, "k"), _count(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= 4 * n:
        raise ValueError(f"k must lie in [0, 4n] = [0, {4 * n}], got {k}")
    if k == 0:
        row = ()
    elif k % 4 == 0:
        row = (_SUM_REGIONS if k <= n else _SUM_BOUNDARY if 3 * k <= 4 * n
               else _COMPLEXIFIED if k <= 2 * n else _QUATERNIONIC)
    elif k % 2 == 0:
        row = _KAHLER if k <= n else _TOTALLY_COMPLEX if k <= 2 * n else ()
    elif k == 3:  # n = 1, 2 hold only the points
        row = _V3_CURVES if k <= n else _V3_POINTS if k <= 2 * n else _IMAGINARY_LINE
    else:
        row = () if k > n else _LINE if k == 1 else _TOTALLY_REAL
    return list(row)


@dataclass(frozen=True)
class StratumMembership:
    """A stratum containing a triple, tagged with one of its classes."""

    stratum: ModuliStratum
    branch: int | None = None

    def to_dict(self) -> dict:
        out = self.stratum.to_dict()
        if self.branch is not None:
            out["branch"] = self.branch
        return out


def moduli_membership(k: int, n: int, triple: AngleTriple) -> list[StratumMembership]:
    """The strata of the (k, n) moduli space containing the triple.

    Strata carrying two inequivalent classes contribute one entry per
    class, tagged branch +1 and -1.
    """
    k, n = _count(k, "k"), _count(n, "n")
    x = _triple(triple, "triple").cos_tuple()
    if k < 1:
        raise ValueError("membership needs k >= 1")
    return [StratumMembership(stratum, branch) for stratum in strata_for(k, n)
            if stratum.predicate(x)
            for branch in ((1, -1) if stratum.multiplicity == 2 else (None,))]


_SPECIAL_ACTIONS = [
    {
        "action": "N",
        "description": "the action producing the horosphere foliation",
    },
    {
        "action": "K",
        "description": "the action producing geodesic spheres centered at a point",
    },
    {
        "action": "SU(1,n+1)",
        "description": "the action producing tubes around a totally geodesic "
                       "complex hyperbolic subspace of half dimension",
    },
]


def moduli_describe(k: int, n: int) -> dict:
    """Machine-readable stratification of the (k, n) moduli space.

    The ranges are those of `strata_for`, checked for every k: n >= 1 and
    0 <= k <= 4n, else ValueError.  k = 0 holds no stratum and lists the
    three special cohomogeneity-one actions; k >= 1 lists the strata with
    their action labels.
    """
    k, n = _count(k, "k"), _count(n, "n")
    strata = [s.to_dict() for s in strata_for(k, n)]
    actions = {"special_actions": list(_SPECIAL_ACTIONS)} if k == 0 else {}
    return {"k": k, "n": n, **actions, "strata": strata}

