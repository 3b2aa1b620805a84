"""Geodesic length spectra from explicit Fuchsian group generators.

Both built-in groups are free, so conjugacy classes of group elements
are exactly cyclic words in the generators and their inverses, and an
element is primitive iff its cyclic word is aperiodic.  Enumeration
therefore walks Lyndon words (lexicographically minimal aperiodic
necklace representatives) with the free-reduction adjacency constraint,
which visits every primitive conjugacy class exactly once.

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
# tree nodes the word enumeration may visit before it gives up
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


def _lyndon_traces(num_letters, n, visit, budget):
    """Constrained Lyndon-word DFS (Cattell-Ruskey-Sawada style).

    Generates every aperiodic necklace of length n over ``num_letters``
    letters in which no letter is followed (cyclically) by its inverse,
    calling ``visit(word)`` once per word.  ``budget`` is a one-element
    node counter decremented per tree node.
    """
    word = [0] * (n + 1)

    def allowed(prev, nxt):
        return (prev ^ 1) != nxt

    def gen(t, p):
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError("word enumeration budget exhausted")
        if t > n:
            if p == n and allowed(word[n], word[1]):
                visit(word[1:n + 1])
            return
        forced = word[t - p]
        if t == 1 or allowed(word[t - 1], forced):
            word[t] = forced
            gen(t + 1, p)
        for j in range(forced + 1, num_letters):
            if t > 1 and not allowed(word[t - 1], j):
                continue
            word[t] = j
            gen(t + 1, t)

    gen(1, 1)


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
    letters = _letters(group)
    mats = [(g.a, g.b, g.c, g.d) for g in letters]
    lengths = []
    budget = [NODE_BUDGET]

    def visit(word):
        a, b, c, d = mats[word[0]]
        for idx in word[1:]:
            e, f, g2, h = mats[idx]
            a, b, c, d = (a * e + b * g2, a * f + b * h,
                          c * e + d * g2, c * f + d * h)
        half = abs(a + d) / 2.0
        if half <= 1.0 + 1e-12:
            return
        ell = 2.0 * math.acosh(half)
        if ell <= max_length:
            lengths.append(ell)

    for n in range(1, max_word_length + 1):
        _lyndon_traces(len(letters), n, visit, budget)

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
