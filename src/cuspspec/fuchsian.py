"""Geodesic length spectra from explicit Fuchsian group generators.

Both built-in groups are free, so conjugacy classes of group elements
are exactly cyclic words in the generators and their inverses, and an
element is primitive iff its cyclic word is aperiodic.  Enumeration
therefore emits Lyndon words (lexicographically minimal aperiodic
necklace representatives) with the free-reduction adjacency constraint,
which visits every primitive conjugacy class exactly once.  The words of
every length up to the word radius come from one depth-first walk of the
constrained prenecklace tree (Cattell, Ruskey, Sawada, Serra, Miers,
J. Algorithms 2000), taken in blocks of up to BLOCK nodes of one depth.
Words are packed into integers.  One array step per letter finds a
block's children ending in it and multiplies their parents' products by
its matrix (one 2x2 multiply per inner node, in left-to-right order); at
the word radius it forms only the Lyndon children's traces.  A radius
whose tree must hold more than NODE_BUDGET nodes, by a counting bound, is
refused before the walk starts.

Completeness is only guaranteed within the explored word ball; the
output records the word radius so callers can reason about truncation.
"""

import math
import re
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    UnknownGroupError,
)

__all__ = [
    "Mobius", "GroupPresentation", "SpectrumEntry", "LengthSpectrum",
    "SurfaceData", "builtin_group", "enumerate_length_spectrum",
    "MERGE_TOL", "NODE_BUDGET",
]

# enumerated lengths closer than this merge into one entry
MERGE_TOL = 1e-9
# prenecklace tree nodes the one walk may visit, each counted once,
# before it gives up
NODE_BUDGET = 20_000_000
# tree nodes expanded together by one array step of the walk.  Radius 14
# on the sphere takes 0.12 s at 1024, 0.086 s at 2048 and 0.073 s at 4096
# on a 2-core Xeon, while its walk allocates at most 1.0, 1.7 and 3.1 MB
# (tracemalloc peak); larger blocks buy little time for more memory
BLOCK = 2048


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
        return GroupPresentation(gens, SurfaceData(genus=0, cusps=3))
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
        # x^2 + y^2 + z^2 = xyz; the smaller root z = 4 tau / r keeps z in
        # (2, 4], and z - 2 = 16 / r^2 is formed without cancellation
        r = tau + math.sqrt(tau * tau - 8.0)
        z, zm2 = 4.0 * tau / r, 16.0 / (r * r)
        # z - 2 is about 4 / tau^2, while the walk's products round the
        # commutator trace by about eps * tau^4 (8.8e-13 at tau = 4000),
        # which beyond this bound (tau near 4.1e3) nears the 1e-12
        # hyperbolic test
        if not zm2 > 64.0 * sys.float_info.epsilon * tau * tau:
            raise DomainError("once-punctured torus trace %r is too large: "
                              "its commutator is lost to rounding" % tau)
        eta = (-z + math.sqrt(zm2 * (z + 2.0))) / 2.0
        a = Mobius(tau, 1.0, -1.0, 0.0)
        b = Mobius(0.0, eta, -1.0 / eta, tau)
        return GroupPresentation((a, b), SurfaceData(genus=1, cusps=1))
    raise UnknownGroupError("unknown group %r" % name)


def _letters(group):
    """Generator letters ordered G0, G0^-1, G1, G1^-1, ...; inverse is ^1."""
    out = []
    for g in group.generators:
        out.append(g)
        out.append(g.inv())
    return out


def _fewest_nodes(k, radius, cap):
    """A proven lower bound on the number of constrained prenecklace tree
    nodes of depth 1..radius over k letters (k/2 free generators); the sum
    stops as soon as it passes cap.

    A cyclically reduced word of length n is a closed walk of n steps on
    the letters, where any letter may follow any other but its inverse.
    The step matrix is J - P (J all ones, P the inverse swap), with
    eigenvalues k - 1 once, -1 (k/2 - 1 times) and 1 (k/2 times), so
    there are (k-1)^n + (k/2 - 1)(-1)^n + k/2 >= (k-1)^n such words.
    Rotation keeps a word cyclically reduced, and a rotation class has at
    most n members, so there are at least (k-1)^n / n classes.  The least
    rotation of each class is a freely reduced prenecklace, hence a tree
    node of depth n, and distinct classes give distinct nodes.
    """
    total = 0
    power = 1
    for n in range(1, radius + 1):
        power *= k - 1
        total += -(-power // n)
        if total > cap:
            break
    return total


def enumerate_length_spectrum(group, max_length, max_word_length=None):
    """All primitive hyperbolic classes of length <= max_length whose
    cyclically reduced words fit in the explored radius.

    max_length must be finite and positive; the word radius defaults to
    max(6, ceil(max_length)).  Classes of g and g^-1 are counted
    separately.  Equal lengths within MERGE_TOL merge into one entry
    with aggregated multiplicity.  BudgetExceededError is raised once the
    walk passes NODE_BUDGET tree nodes, and before it starts when the
    tree up to the radius must hold more.
    """
    if not (math.isfinite(max_length) and max_length > 0):
        raise DomainError("max_length must be finite and positive")
    if max_word_length is None:
        max_word_length = max(6, int(math.ceil(max_length)))
    if max_word_length < 1:
        raise DomainError("max_word_length must be >= 1")
    nodes = NODE_BUDGET
    letters = [(g.a, g.b, g.c, g.d) for g in _letters(group)]
    k = len(letters)
    if _fewest_nodes(k, max_word_length, nodes) > nodes:
        raise BudgetExceededError("word enumeration budget exhausted")
    # |trace| / 2 above this gives a length above max_length; the slack
    # leaves the exact test to math.acosh below
    try:
        top = math.cosh(max_length / 2.0) * (1.0 + 1e-9)
    except OverflowError:
        top = math.inf
    lengths = array("d")

    def keep(trace):
        # the lengths of these traces' hyperbolic classes, to max_length
        half = np.abs(trace) / 2.0
        half = half[(half > 1.0 + 1e-12) & (half <= top)]
        ell = 2.0 * np.fromiter(map(math.acosh, half.tolist()), float)
        lengths.frombytes(ell[ell <= max_length].tobytes())

    # the one-letter words are Lyndon, and each product is its own matrix
    nodes -= k
    if nodes < 0:
        raise BudgetExceededError("word enumeration budget exhausted")
    a, b, c, d = np.array(letters).T
    keep(a + d)
    # a word packs bits to a letter, its first letter highest; within the
    # budget it fits 63 bits unless k = 2, where each word repeats a letter
    bits = (k - 1).bit_length()
    mask = (1 << bits) - 1
    stack = []
    if max_word_length > 1:
        stack.append((1, np.arange(k), np.ones(k, dtype=int), a, b, c, d))
    while stack:
        # a block of prefixes of m letters, their codes, periods p and
        # products [[a, b], [c, d]]; expand it letter by letter
        m, code, p, a, b, c, d = stack.pop()
        forced = (code >> bits * (p - 1)) & mask
        first, last = code >> bits * (m - 1), code & mask
        traces, kids = [], []
        for j, (e, f, g, h) in enumerate(letters):
            # a letter may not follow its inverse
            grow = (last != j ^ 1) & (forced <= j)
            nodes -= np.count_nonzero(grow)
            # a letter above the forced one makes the period m + 1, so the
            # child is Lyndon; it is emitted unless its last letter cancels
            # its first
            emit = grow & (forced < j) & (first != j ^ 1)
            if m + 1 == max_word_length:
                i = np.flatnonzero(emit)
                traces.append((a[i] * e + b[i] * g) + (c[i] * f + d[i] * h))
                continue
            i = np.flatnonzero(grow)
            a0, b0, c0, d0 = a[i], b[i], c[i], d[i]
            a1, d1 = a0 * e + b0 * g, c0 * f + d0 * h
            traces.append((a1 + d1)[emit[i]])
            kids.append(((code[i] << bits) | j,
                         np.where(forced[i] < j, m + 1, p[i]),
                         a1, a0 * f + b0 * h, c0 * e + d0 * g, d1))
        if nodes < 0:
            raise BudgetExceededError("word enumeration budget exhausted")
        keep(np.concatenate(traces))
        if kids:
            # copies, not views, so that each block is freed once expanded
            cols = [np.concatenate(x) for x in zip(*kids)]
            for s in range(0, len(cols[0]), BLOCK):
                stack.append((m + 1, *(x[s:s + BLOCK].copy() for x in cols)))

    ell = np.frombuffer(lengths)
    ell.sort()
    # a run of lengths, each within MERGE_TOL of the one before, splits
    # into entries greedily: a head and the later lengths within MERGE_TOL
    heads = (np.flatnonzero(np.diff(ell) > MERGE_TOL) + 1).tolist()
    entries = []
    for i, end in zip([0] + heads, heads + [len(ell)]):
        while i < end:
            j = i + int(np.searchsorted(ell[i:end] - ell[i], MERGE_TOL,
                                        "right"))
            entries.append(SpectrumEntry(float(ell[i]), j - i))
            i = j
    return LengthSpectrum(tuple(entries), float(max_length), group.surface,
                          word_radius=max_word_length)
