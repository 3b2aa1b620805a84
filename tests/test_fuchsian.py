import dataclasses
import itertools
from collections import Counter
import json
import math
import tracemalloc

import mpmath as mp
import pytest

from conftest import arithmetic_spectrum
from cuspspec import fuchsian
from cuspspec.errors import (
    BudgetExceededError,
    DomainError,
    UnknownGroupError,
)
from cuspspec.fuchsian import (
    GroupPresentation,
    LengthSpectrum,
    Mobius,
    SpectrumEntry,
    SurfaceData,
    builtin_group,
    enumerate_length_spectrum,
)


def _brute_force_lengths(group, max_length, radius):
    """Independent oracle: enumerate all freely reduced words up to the
    given length, canonicalize each cyclically reduced word by minimal
    rotation, keep one representative per conjugacy class, keep
    primitive classes only, and collect geodesic lengths."""
    letters = []
    for g in group.generators:
        letters.append(g)
        letters.append(g.inv())
    k = len(letters)

    def inv(i):
        return i ^ 1

    def is_reduced(w):
        return all(w[i + 1] != inv(w[i]) for i in range(len(w) - 1))

    def cyclically_reduced(w):
        return len(w) < 2 or w[0] != inv(w[-1])

    def is_primitive(w):
        n = len(w)
        for d in range(1, n):
            if n % d == 0 and w == w[d:] + w[:d]:
                return False
        return True

    def canonical(w):
        return min(tuple(w[i:] + w[:i]) for i in range(len(w)))

    seen = set()
    lengths = []
    for n in range(1, radius + 1):
        for w in itertools.product(range(k), repeat=n):
            w = list(w)
            if not (is_reduced(w) and cyclically_reduced(w)
                    and is_primitive(w)):
                continue
            key = canonical(w)
            if key in seen:
                continue
            seen.add(key)
            # multiply raw entries: rounding in long products can push
            # the determinant past the Mobius constructor tolerance
            a, b, c, d = (letters[w[0]].a, letters[w[0]].b,
                          letters[w[0]].c, letters[w[0]].d)
            for i in w[1:]:
                g2 = letters[i]
                a, b, c, d = (a * g2.a + b * g2.c, a * g2.b + b * g2.d,
                              c * g2.a + d * g2.c, c * g2.b + d * g2.d)
            if abs(a + d) <= 2.0 + 1e-12:
                continue
            ell = 2.0 * math.acosh(abs(a + d) / 2.0)
            if ell <= max_length:
                lengths.append(ell)
    lengths.sort()
    return lengths


def _reference_walk(group, max_length, radius):
    """Reference: the per-node recursive walk of the constrained
    prenecklace tree that the blocked walk replaced.  Returns the merged
    (length, mult) entries and the number of tree nodes visited."""
    mats = [(g.a, g.b, g.c, g.d) for g in fuchsian._letters(group)]
    word = [0] * (radius + 1)
    lengths = []
    nodes = 0

    def keep(trace):
        half = abs(trace) / 2.0
        if half > 1.0 + 1e-12:
            ell = 2.0 * math.acosh(half)
            if ell <= max_length:
                lengths.append(ell)

    def walk(m, p, a, b, c, d):
        nonlocal nodes
        back = word[m] ^ 1
        forced = word[m + 1 - p]
        for j in range(forced, len(mats)):
            if j == back:
                continue
            nodes += 1
            word[m + 1] = j
            e, f, g, h = mats[j]
            a1, d1 = a * e + b * g, c * f + d * h
            if j != forced and (j ^ 1) != word[1]:
                keep(a1 + d1)
            if m + 1 < radius:
                walk(m + 1, p if j == forced else m + 1,
                     a1, a * f + b * h, c * e + d * g, d1)

    nodes += len(mats)
    for j, mat in enumerate(mats):
        word[1] = j
        keep(mat[0] + mat[3])
        if radius > 1:
            walk(1, 1, *mat)

    lengths.sort()
    entries = []
    i = 0
    while i < len(lengths):
        j = i
        while j + 1 < len(lengths) and lengths[j + 1] - lengths[i] <= 1e-9:
            j += 1
        entries.append((lengths[i], j - i + 1))
        i = j + 1
    return entries, nodes


GROUPS = ("thrice-punctured-sphere", "once-punctured-torus(3.0)",
          "once-punctured-torus(3.47)")


class TestMobius:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            Mobius(1.0, 1.0, 1.0, 1.0)

    def test_product_and_inverse(self):
        a = Mobius(1.0, 2.0, 0.0, 1.0)
        b = Mobius(1.0, 0.0, 2.0, 1.0)
        p = a @ b
        assert (p.a, p.b, p.c, p.d) == (5.0, 2.0, 2.0, 1.0)
        ident = p @ p.inv()
        assert abs(ident.a - 1.0) < 1e-12 and abs(ident.b) < 1e-12


class TestSurfaceData:
    def test_area_gauss_bonnet(self):
        s = SurfaceData(genus=0, cusps=3)
        assert abs(s.area - 2.0 * math.pi) < 1e-14

    def test_rejects_nonnegative_euler(self):
        with pytest.raises(DomainError):
            SurfaceData(genus=0, cusps=2)
        with pytest.raises(DomainError):
            SurfaceData(genus=1, cusps=0)


class TestBuiltinGroups:
    def test_sphere_generators_parabolic(self):
        g = builtin_group("thrice-punctured-sphere")
        for gen in g.generators:
            assert abs(abs(gen.trace) - 2.0) < 1e-14
        assert g.surface.cusps == 3

    def test_torus_commutator_parabolic(self):
        g = builtin_group("once-punctured-torus(3.0)")
        a, b = g.generators
        comm = a @ b @ a.inv() @ b.inv()
        assert abs(comm.trace + 2.0) < 1e-9
        assert g.surface.genus == 1 and g.surface.cusps == 1

    @pytest.mark.parametrize("tau, rel", [(40.0, 1e-12), (400.0, 1e-12),
                                          (4000.0, 1e-9)])
    def test_torus_short_curve_first(self, tau, rel):
        # the short curve has trace z, the smaller root of z^2 - tau^2 z
        # + 2 tau^2 = 0; it leads the spectrum, with no rounded commutator
        # read as a shorter geodesic ahead of it
        with mp.workdps(40):
            t = mp.mpf(tau)
            ref = float(2 * mp.acosh((t * t - t * mp.sqrt(t * t - 8)) / 4))
        spec = enumerate_length_spectrum(
            builtin_group("once-punctured-torus(%r)" % tau), 6.0, 4)
        first = spec.entries[0]
        assert first.mult == 2 and abs(first.length / ref - 1.0) < rel

    def test_torus_trace_bound(self):
        with pytest.raises(DomainError):
            builtin_group("once-punctured-torus(2.8)")

    def test_unknown_name(self):
        with pytest.raises(UnknownGroupError):
            builtin_group("modular-something")
        with pytest.raises(UnknownGroupError):
            builtin_group("once-punctured-torus(abc)")


class TestEnumeration:
    def test_systole_sphere(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 6)
        assert abs(spec.entries[0].length - 2.0 * math.acosh(3.0)) < 1e-12

    def test_matches_brute_force_oracle(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 8.0, 7)
        oracle = _brute_force_lengths(g, 8.0, 7)
        flat = [e.length for e in spec.entries for _ in range(e.mult)]
        assert len(flat) == len(oracle)
        assert all(abs(x - y) < 1e-9 for x, y in zip(flat, oracle))

    def test_matches_brute_force_torus(self):
        # tau = 3.0 has integer traces that collapse the spectrum; 3.47
        # is a generic trace like those of the det benchmark
        for name in ("once-punctured-torus(3.0)",
                     "once-punctured-torus(3.47)"):
            g = builtin_group(name)
            spec = enumerate_length_spectrum(g, 7.0, 6)
            oracle = _brute_force_lengths(g, 7.0, 6)
            flat = [e.length for e in spec.entries for _ in range(e.mult)]
            assert len(flat) == len(oracle)
            assert all(abs(x - y) < 1e-9 for x, y in zip(flat, oracle))

    def test_even_multiplicities(self):
        # classes of g and g^-1 are both counted, and the built-in
        # groups admit a symmetry pairing them at equal length
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 9.0, 9)
        assert all(e.mult % 2 == 0 for e in spec.entries)

    def test_deterministic(self):
        g = builtin_group("thrice-punctured-sphere")
        s1 = enumerate_length_spectrum(g, 8.0, 8)
        s2 = enumerate_length_spectrum(g, 8.0, 8)
        assert s1 == s2

    def test_no_duplicates_at_merge_resolution(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 10.0, 10)
        gaps = [b.length - a.length
                for a, b in zip(spec.entries, spec.entries[1:])]
        assert all(gap > 1e-9 for gap in gaps)

    def test_word_radius_recorded(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 6.0, 5)
        assert spec.word_radius == 5

    def test_budget_exhaustion(self, monkeypatch):
        g = builtin_group("thrice-punctured-sphere")
        monkeypatch.setattr(fuchsian, "NODE_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            enumerate_length_spectrum(g, 6.0, 12)

    @pytest.mark.parametrize("name", GROUPS)
    @pytest.mark.parametrize("max_length", [10.0, 40.0])
    def test_matches_reference_walk(self, name, max_length):
        # the same doubles as the per-node walk, not just close ones
        g = builtin_group(name)
        spec = enumerate_length_spectrum(g, max_length, 10)
        entries, _ = _reference_walk(g, max_length, 10)
        assert [(e.length, e.mult) for e in spec.entries] == entries

    @pytest.mark.parametrize("name", GROUPS)
    def test_tiny_blocks_match_reference_walk(self, name, monkeypatch):
        # blocks of 5 nodes split the children of every letter across
        # blocks; at radius 2 the first block is already at leaf depth
        monkeypatch.setattr(fuchsian, "BLOCK", 5)
        g = builtin_group(name)
        for radius in (1, 2, 3, 4, 10):
            spec = enumerate_length_spectrum(g, 40.0, radius)
            entries, _ = _reference_walk(g, 40.0, radius)
            assert [(e.length, e.mult) for e in spec.entries] == entries

    @pytest.mark.parametrize("gens, radius", [
        # two letters of one bit each: words of 100 letters overflow the
        # packed code, which every word of one repeated letter survives
        ((Mobius(2.0, 0.0, 0.0, 0.5),), 100),
        # six letters in three bits each, two codes unused
        ((Mobius(1.0, 2.0, 0.0, 1.0), Mobius(1.0, 0.0, 2.0, 1.0),
          Mobius(3.0, 2.0, 4.0, 3.0)), 5),
    ])
    def test_other_letter_counts_match_reference_walk(self, gens, radius):
        g = GroupPresentation(gens)
        spec = enumerate_length_spectrum(g, 12.0, radius)
        entries, _ = _reference_walk(g, 12.0, radius)
        assert entries
        assert [(e.length, e.mult) for e in spec.entries] == entries

    @pytest.mark.parametrize("name", GROUPS[:2])
    @pytest.mark.parametrize("max_length", [8.0, 10.0])
    @pytest.mark.parametrize("radius", [None, 16])
    def test_within_exhaustive_oracle(self, name, max_length, radius):
        # the walk lists no class the complete spectrum lacks; it may miss
        # some (words around a cusp need a radius of about e^{L/2}/2)
        oracle = arithmetic_spectrum(name, max_length)
        spec = enumerate_length_spectrum(builtin_group(name), max_length,
                                         radius)
        walk = Counter()
        for e in spec.entries:
            trace = 2.0 * math.cosh(e.length / 2.0)
            assert abs(trace - round(trace)) < 1e-9 * trace
            walk[round(trace)] += e.mult
        assert all(n <= oracle[trace] for trace, n in walk.items())

    def test_walk_memory_bounded(self):
        # a deterministic stand-in for the spectrum job's peak RSS: 1.7 MB
        # at BLOCK 2048, 2.2 MB when the blocks of one depth were views
        # that kept all of that depth's children alive
        g = builtin_group("thrice-punctured-sphere")
        tracemalloc.start()
        try:
            enumerate_length_spectrum(g, 14.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6

    @pytest.mark.parametrize("name", GROUPS[::2])
    def test_budget_counts_every_node_once(self, name, monkeypatch):
        g = builtin_group(name)
        _, count = _reference_walk(g, 8.0, 8)
        monkeypatch.setattr(fuchsian, "NODE_BUDGET", count)
        enumerate_length_spectrum(g, 8.0, 8)
        monkeypatch.setattr(fuchsian, "NODE_BUDGET", count - 1)
        with pytest.raises(BudgetExceededError):
            enumerate_length_spectrum(g, 8.0, 8)

    @pytest.mark.parametrize("name", GROUPS[::2])
    def test_node_lower_bound_holds(self, name):
        g = builtin_group(name)
        for radius in range(1, 11):
            _, count = _reference_walk(g, 1.0, radius)
            bound = fuchsian._fewest_nodes(4, radius, math.inf)
            assert 3 ** radius / radius <= bound <= count

    def test_huge_radius_refused_by_the_bound(self):
        # refused before the walk, which at radius 20 would visit the
        # whole budget of nodes before it failed
        g = builtin_group("thrice-punctured-sphere")
        budget = fuchsian.NODE_BUDGET
        for radius in (20, 1200, 10 ** 8):
            assert fuchsian._fewest_nodes(4, radius, budget) > budget
            with pytest.raises(BudgetExceededError):
                enumerate_length_spectrum(g, 6.0, radius)

    def test_argument_validation(self):
        g = builtin_group("thrice-punctured-sphere")
        with pytest.raises(DomainError):
            enumerate_length_spectrum(g, -1.0, 6)
        with pytest.raises(DomainError):
            enumerate_length_spectrum(g, 6.0, 0)


class TestSpectrumValidation:
    def test_sorted_required(self):
        s = SurfaceData(genus=0, cusps=3)
        with pytest.raises(DomainError):
            LengthSpectrum((SpectrumEntry(2.0, 1), SpectrumEntry(1.0, 1)),
                           5.0, s)

    def test_duplicates_rejected_for_plain_entries(self):
        s = SurfaceData(genus=0, cusps=3)
        with pytest.raises(DomainError):
            LengthSpectrum((SpectrumEntry(2.0, 1), SpectrumEntry(2.0, 1)),
                           5.0, s)

    def test_cutoff_enforced(self):
        s = SurfaceData(genus=0, cusps=3)
        with pytest.raises(DomainError):
            LengthSpectrum((SpectrumEntry(6.0, 1),), 5.0, s)


class TestSerialization:
    def test_json_round_trip(self):
        g = builtin_group("thrice-punctured-sphere")
        spec = enumerate_length_spectrum(g, 7.0, 7)
        # the spectrum command writes dataclasses.asdict of the spectrum
        obj = json.loads(json.dumps(dataclasses.asdict(spec)))
        entries = tuple(SpectrumEntry(**e) for e in obj.pop("entries"))
        surface = SurfaceData(**obj.pop("surface"))
        assert LengthSpectrum(entries, surface=surface, **obj) == spec
