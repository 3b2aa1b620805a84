"""Geodesic length spectra from explicit Fuchsian group generators.

Both built-in groups are free, so conjugacy classes of group elements
are exactly cyclic words in the generators and their inverses, and an
element is primitive iff its cyclic word is aperiodic.  Enumeration
therefore emits Lyndon words (lexicographically minimal aperiodic
necklace representatives) with the free-reduction adjacency constraint,
which visits every primitive conjugacy class exactly once.  The words of
every length up to the word radius come from one depth-first walk of the
constrained prenecklace tree (Cattell, Ruskey, Sawada, Serra, Miers,
J. Algorithms 2000): each node's matrix is its parent's product times
the new letter, one 2x2 multiply per node.

Completeness is only guaranteed within the explored word ball; the
output records the word radius so callers can reason about truncation.
"""

import math
import re
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    DomainError,
    UnknownGroupError,
)

__all__ = [
    "Mobius", "GroupPresentation", "SpectrumEntry", "LengthSpectrum",
    "SurfaceData", "builtin_group", "enumerate_length_spectrum",
    "spectrum_to_json", "MERGE_TOL", "NODE_BUDGET",
]

# enumerated lengths closer than this merge into one entry
MERGE_TOL = 1e-9
# prenecklace tree nodes the one walk may visit, each counted once,
# before it gives up
NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class Mobius:
    """Real 2x2 matrix of determinant 1, identified with its negative."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-12:
            raise DomainError("Mobius determinant %r != 1" % det)

    def __matmul__(self, other):
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self):
        return Mobius(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self):
        return self.a + self.d


@dataclass(frozen=True)
class SurfaceData:
    """Topology of a finite-area hyperbolic surface with cusps."""

    genus: int
    cusps: int
    components: int = 1

    def __post_init__(self):
        if self.cusps < 1 or self.components < 1 or self.genus < 0:
            raise DomainError("invalid surface data")
        if self.euler_characteristic >= 0:
            raise DomainError("surface must have negative Euler characteristic")

    @property
    def euler_characteristic(self):
        return 2 * self.components - 2 * self.genus - self.cusps

    @property
    def area(self):
        # Gauss-Bonnet
        return -2.0 * math.pi * self.euler_characteristic


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    name: str
    surface: SurfaceData = None

    def __post_init__(self):
        if not self.generators:
            raise DomainError("GroupPresentation needs generators")


@dataclass(frozen=True)
class SpectrumEntry:
    length: float
    mult: int
    pinched: bool = False


@dataclass(frozen=True)
class LengthSpectrum:
    """Primitive geodesic lengths with multiplicities, sorted ascending."""

    entries: tuple
    cutoff: float
    surface: SurfaceData
    word_radius: int = None

    def __post_init__(self):
        prev = -math.inf
        for e in self.entries:
            if e.length <= 0.0:
                raise DomainError("spectrum lengths must be positive")
            if e.length < prev:
                raise DomainError("spectrum entries must be sorted")
            if e.mult < 1:
                raise DomainError("multiplicities must be >= 1")
            if e.length > self.cutoff + 1e-12:
                raise DomainError("entry length exceeds cutoff")
            if e.length - prev <= MERGE_TOL:
                raise DomainError("duplicate entries within merge tolerance")
            prev = e.length


_TORUS_RE = re.compile(r"^once-punctured-torus\(([^)]+)\)$")


def builtin_group(name):
    """Built-in Fuchsian groups.

    "thrice-punctured-sphere": the level-2 congruence group, free on the
    parabolics [[1,2],[0,1]] and [[1,0],[2,1]]; genus 0, three cusps.

    "once-punctured-torus(tr)": free on two hyperbolic generators of
    equal trace tr > 2*sqrt(2), normalized so the commutator is
    parabolic of trace -2.
    """
    if name == "thrice-punctured-sphere":
        gens = (Mobius(1.0, 2.0, 0.0, 1.0), Mobius(1.0, 0.0, 2.0, 1.0))
        return GroupPresentation(gens, name, SurfaceData(genus=0, cusps=3))
    m = _TORUS_RE.match(name)
    if m:
        try:
            tau = float(m.group(1))
        except ValueError:
            raise UnknownGroupError("bad trace parameter in %r" % name)
        if not (math.isfinite(tau) and tau > 2.0 * math.sqrt(2.0)):
            raise DomainError("once-punctured torus needs a finite "
                              "generator trace > 2*sqrt(2)")
        # trace triple (tau, tau, z) on the Markov-type surface
        # x^2 + y^2 + z^2 = xyz; smaller root keeps z in (2, 4]
        z = (tau * tau - tau * math.sqrt(tau * tau - 8.0)) / 2.0
        eta = (-z + math.sqrt(z * z - 4.0)) / 2.0
        a = Mobius(tau, 1.0, -1.0, 0.0)
        b = Mobius(0.0, eta, -1.0 / eta, tau)
        return GroupPresentation((a, b), name, SurfaceData(genus=1, cusps=1))
    raise UnknownGroupError("unknown group %r" % name)


def _letters(group):
    """Generator letters ordered G0, G0^-1, G1, G1^-1, ...; inverse is ^1."""
    out = []
    for g in group.generators:
        out.append(g)
        out.append(g.inv())
    return out


def enumerate_length_spectrum(group, max_length, max_word_length=None):
    """All primitive hyperbolic classes of length <= max_length whose
    cyclically reduced words fit in the explored radius.

    max_length must be finite and positive; the word radius defaults to
    max(6, ceil(max_length)).  Classes of g and g^-1 are counted
    separately.  Equal lengths within MERGE_TOL merge into one entry
    with aggregated multiplicity.
    """
    if not (math.isfinite(max_length) and max_length > 0):
        raise DomainError("max_length must be finite and positive")
    if max_word_length is None:
        max_word_length = max(6, int(math.ceil(max_length)))
    if max_word_length < 1:
        raise DomainError("max_word_length must be >= 1")
    mats = [(g.a, g.b, g.c, g.d) for g in _letters(group)]
    word = [0] * (max_word_length + 1)
    lengths = []
    nodes = NODE_BUDGET

    def keep(trace):
        # the length of a hyperbolic class of this trace, up to max_length
        half = abs(trace) / 2.0
        if half > 1.0 + 1e-12:
            ell = 2.0 * math.acosh(half)
            if ell <= max_length:
                lengths.append(ell)

    def walk(m, p, a, b, c, d):
        # the children of the prefix word[1..m], which has period p and
        # product [[a, b], [c, d]], and the subtrees below them
        nonlocal nodes
        back = word[m] ^ 1  # a letter may not follow its inverse
        forced = word[m + 1 - p]
        for j in range(forced, len(mats)):
            if j == back:
                continue
            nodes -= 1
            if nodes < 0:
                raise BudgetExceededError("word enumeration budget exhausted")
            word[m + 1] = j
            e, f, g, h = mats[j]
            a1, d1 = a * e + b * g, c * f + d * h
            # a letter above the forced one makes the period m + 1, so the
            # child is Lyndon; it is emitted unless its last letter cancels
            # its first
            if j != forced and (j ^ 1) != word[1]:
                keep(a1 + d1)
            if m + 1 < max_word_length:
                walk(m + 1, p if j == forced else m + 1,
                     a1, a * f + b * h, c * e + d * g, d1)

    # the one-letter words are Lyndon, and each product is its own matrix
    nodes -= len(mats)
    if nodes < 0:
        raise BudgetExceededError("word enumeration budget exhausted")
    for j, mat in enumerate(mats):
        word[1] = j
        keep(mat[0] + mat[3])
        if max_word_length > 1:
            walk(1, 1, *mat)

    lengths.sort()
    entries = []
    i = 0
    while i < len(lengths):
        j = i
        while j + 1 < len(lengths) and lengths[j + 1] - lengths[i] <= MERGE_TOL:
            j += 1
        entries.append(SpectrumEntry(lengths[i], j - i + 1))
        i = j + 1
    return LengthSpectrum(tuple(entries), float(max_length), group.surface,
                          word_radius=max_word_length)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def spectrum_to_json(spec):
    obj = {
        "surface": {
            "genus": spec.surface.genus,
            "cusps": spec.surface.cusps,
            "components": spec.surface.components,
        },
        "cutoff": spec.cutoff,
        "entries": [
            {"length": e.length, "mult": e.mult, "pinched": e.pinched}
            for e in spec.entries
        ],
    }
    if spec.word_radius is not None:
        obj["word_radius"] = spec.word_radius
    return obj
