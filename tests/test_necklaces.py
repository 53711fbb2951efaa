import itertools
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import valuation

from gwbinom.necklaces import (
    BLUE,
    RED,
    TYPE1,
    TYPE2,
    AxisIndex,
    EnumerationLimitError,
    Necklace,
    _cycle,
    _flip_fixed_orbits,
    _from_word,
    _lyndon_counts,
    _mirror_words,
    _necklaces,
    _odd_twisted_count,
    _reflect,
    _rot_mask,
    _twisted_step,
    _word,
    aperiodic_count,
    axis_distance,
    classify_flip_fixed,
    color_swap,
    color_swap_fixed,
    count_even_orbits,
    count_even_twisted_orbits,
    count_even_twisted_swap_fixed,
    enumerate_orbits,
    enumerate_twisted_orbits,
    even_orbit_counts,
    flip,
    insert_axis_beads,
    interleave_decompose,
    interleave_fiber_size,
    interleave_parts,
    odd_flip_fixed_closed_form,
    odd_flip_fixed_count,
    orbit_catalog,
    orbit_record_of,
    rotate,
    strip_axis_beads,
    swap_action,
    twisted_orbit_record_of,
)


def neck(n, *positions):
    return Necklace.from_positions(n, positions)


@st.composite
def necklaces(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    mask = draw(st.integers(0, (1 << n) - 1))
    return Necklace(n, mask)


# --- generators -----------------------------------------------------------


def test_rotate_examples():
    assert rotate(neck(4, 0, 1), 1) == neck(4, 1, 2)
    l = neck(7, 0, 3, 5)
    assert rotate(l, 0) == l
    assert rotate(l, 7) == l
    assert rotate(neck(4, 0, 2), 2) == neck(4, 0, 2)


def test_flip_examples():
    assert flip(neck(4, 1)) == neck(4, 3)
    assert flip(neck(5, 0, 2)) == neck(5, 0, 3)


def test_reflect_is_r_m_f():
    # bead q of the image under r^m f, p -> m - p, is bead m - q; m = 0 is
    # the flip and m = n - 1 the reversed word the axis search looks for
    for n in range(1, 9):
        for mask in range(1 << n):
            word = Necklace(n, mask).bitstring()
            for m in range(n):
                assert _reflect(word, m) == "".join(word[(m - q) % n] for q in range(n))
            assert _reflect(word, n - 1) == word[::-1]


def test_word_matches_the_padded_binary_form():
    # the marker-bit slice against the zero-padded format it replaced
    cases = [(m, n) for n in range(1, 13) for m in range(1 << n)]
    cases += [(m, 63) for m in (0, 1, 1 << 62, (1 << 63) - 1)]
    for m, n in cases:
        assert _word(m, n) == f"{m:0{n}b}"[::-1], (m, n)
        assert _from_word(_word(m, n)).blues == m


@pytest.mark.parametrize("size, blues", [(True, 1), (3, 1.0), ("3", 1), (2.0, 0), (3, False)])
def test_necklace_rejects_non_int_fields(size, blues):
    # True would pass the range check as a 1-bead necklace
    with pytest.raises(TypeError, match="int required"):
        Necklace(size, blues)


def test_color_swap_examples():
    assert color_swap(neck(4, 0, 1)) == neck(4, 2, 3)
    assert color_swap(neck(2, 0)) == neck(2, 1)


@given(necklaces(), st.integers(-20, 20), st.integers(-20, 20))
def test_rotation_composes(l, a, b):
    assert rotate(rotate(l, a), b) == rotate(l, a + b)


@given(necklaces())
def test_involutions(l):
    assert flip(flip(l)) == l
    assert color_swap(color_swap(l)) == l


@given(necklaces())
def test_dihedral_relation(l):
    # r f r = f
    assert rotate(flip(rotate(l, 1)), 1) == flip(l)


# reference implementation on position sets, independent of the bitmask ops
def _ref_rotate(n, blues, k):
    return frozenset((p + k) % n for p in blues)


def _ref_flip(n, blues):
    return frozenset((n - p) % n for p in blues)


def _ref_swap(n, blues):
    return frozenset(range(n)) - blues


@given(necklaces(max_size=63), st.integers(-30, 30))
def test_bitmask_ops_match_position_set_reference(l, k):
    n = l.size
    blues = frozenset(p for p in range(n) if l.blues >> p & 1)
    assert l == Necklace.from_positions(n, blues)
    assert [c == "1" for c in l.bitstring()] == [p in blues for p in range(n)]
    assert rotate(l, k) == Necklace.from_positions(n, _ref_rotate(n, blues, k))
    assert flip(l) == Necklace.from_positions(n, _ref_flip(n, blues))
    assert color_swap(l) == Necklace.from_positions(n, _ref_swap(n, blues))
    if n % 2 == 0:
        assert interleave_parts(l) == (
            Necklace.from_positions(n // 2, {p // 2 for p in blues if p % 2 == 0}),
            Necklace.from_positions(n // 2, {p // 2 for p in blues if p % 2}))


@given(necklaces())
def test_canonical_form_matches_position_set_reference(l):
    blues = frozenset(p for p in range(l.size) if l.blues >> p & 1)
    rotations = {tuple(sorted(_ref_rotate(l.size, blues, k))) for k in range(l.size)}
    rec = orbit_record_of(l)
    assert rec.period == len(rotations)
    masks = {sum(1 << p for p in rot) for rot in rotations}
    assert rec.canonical.blues == min(masks)


# --- orbit enumeration ----------------------------------------------------


def test_enumerate_orbits_examples():
    assert sorted(r.period for r in enumerate_orbits(4, 2)) == [2, 4]
    assert sorted(r.period for r in enumerate_orbits(6, 2)) == [3, 6, 6]
    for n in (1, 5, 9):
        recs = enumerate_orbits(n, 0)
        assert len(recs) == 1 and recs[0].period == 1


def test_orbit_record_canonical_is_minimal_mask():
    rec = orbit_record_of(neck(6, 2, 3, 5))
    masks = {rotate(neck(6, 2, 3, 5), k).blues for k in range(6)}
    assert rec.canonical.blues == min(masks)
    assert rec.period == len(masks)


def test_class_equation():
    for n in range(1, 17):
        for j in range(n + 1):
            recs = enumerate_orbits(n, j)
            assert sum(r.period for r in recs) == comb(n, j)
            assert len({r.canonical for r in recs}) == len(recs)


def test_counts_invariant_under_rerooting():
    # structural data must not depend on which representative seeds the orbit
    for n in range(1, 11):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                for k in range(n):
                    again = orbit_record_of(rotate(rec.canonical, k))
                    assert again == rec


def _least_turn(word):
    """The least rotation of word and its period, by rotating the string."""
    n = len(word)
    turns = [word[k:] + word[:k] for k in range(n)]
    return min(turns), next(k for k in range(1, n + 1) if turns[k % n] == word)


def test_gap_walk_matches_brute_force():
    # every cell with n <= 14 against the least rotations of all C(n, j) masks
    for n in range(1, 15):
        for j in range(n + 1):
            found = set()
            for ones in itertools.combinations(range(n), j):
                least, period = _least_turn("".join("1" if i in ones else "0" for i in range(n)))
                found.add((int(least, 2), period))
            assert list(_necklaces(n, j)) == sorted(found), (n, j)


def test_gap_walk_counts_every_cell_to_twenty():
    # each cell's orbits are the aperiodic ones of its divisor cells, and
    # the walk yields them ascending, each period dividing n
    for n in range(1, 21):
        for j in range(n + 1):
            walk = list(_necklaces(n, j))
            g = gcd(n, j)
            assert len(walk) == sum(aperiodic_count(n // d, j // d)
                                    for d in range(1, g + 1) if g % d == 0), (n, j)
            masks = [least for least, _ in walk]
            assert all(a < b for a, b in zip(masks, masks[1:])), (n, j)
            assert all(n % period == 0 for _, period in walk), (n, j)


def test_gap_walk_at_the_word_width():
    n = 63
    for j in (0, 1, 2, 61, 62, 63):
        walk = list(_necklaces(n, j))
        g = gcd(n, j)
        assert len(walk) == sum(aperiodic_count(n // d, j // d) for d in range(1, g + 1) if g % d == 0), j
        for least, period in walk:
            word = f"{least:0{n}b}"
            assert word.count("1") == j
            assert _least_turn(word) == (word, period), (j, word)


def test_gap_walk_is_lazy():
    # the walk keeps O(n) state: a list of the 32,066 pairs of (22, 11)
    # would peak near 3 MB
    tracemalloc.start()
    try:
        assert sum(1 for _ in _necklaces(22, 11)) == 32066
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_count_even_orbits_examples():
    assert count_even_orbits(4, 1) == 1
    assert count_even_orbits(4, 2) == 2
    assert count_even_orbits(3, 1) == 0


def test_row_walk_matches_the_density_pruned_cells():
    # two algorithms: one unpruned successor-rule walk to n = 20 against the
    # gap walk of each cell of every row k <= 20; row 0, the empty necklace,
    # has no even orbit
    rows = even_orbit_counts(20)
    assert rows[0] == [0]
    for k in range(1, 21):
        assert rows[k] == [count_even_orbits(k, j) for j in range(k + 1)], k
    assert even_orbit_counts(4) == rows[:5]
    with pytest.raises(EnumerationLimitError, match="budget"):
        even_orbit_counts(25)
    with pytest.raises(ValueError, match="positive n"):
        even_orbit_counts(0)


def test_unpruned_walk_meets_each_lyndon_word_once():
    # a Lyndon word is a word strictly less than each of its proper rotations;
    # the successor walk tallies each one of length p <= n once, by popcount
    for n in range(1, 13):
        lyndon = [[0] * (p + 1) for p in range(n + 1)]
        for p in range(1, n + 1):
            for word in map("".join, itertools.product("01", repeat=p)):
                if all(word < word[i:] + word[:i] for i in range(1, p)):
                    lyndon[p][word.count("1")] += 1
        assert _lyndon_counts(n) == lyndon, n


def test_lyndon_tally_matches_moreaus_formula():
    # the successor walk against Moebius inversion, at every length to 26
    counts = _lyndon_counts(26)
    for p in range(1, 27):
        assert counts[p] == [aperiodic_count(p, i) for i in range(p + 1)], p


def _successor_walk(n):
    """The Lyndon tally from the successor rule run over every n-bit
    prenecklace in turn, with no replay: the reference for _lyndon_counts."""
    reps = [0] + [((1 << p * -(-n // p)) - 1) // ((1 << p) - 1) for p in range(1, n + 1)]
    cuts = [0] + [p * -(-n // p) - n for p in range(1, n + 1)]
    counts = [[0] * (p + 1) for p in range(n + 1)]
    w, p = 0, 1
    while True:
        counts[p][w.bit_count()] += 1
        m = w * reps[p] >> cuts[p]
        tail = (m ^ (m + 1)).bit_length() - 1
        if tail == n:
            return counts
        w, p = (m >> tail) + 1, n - tail


def test_replayed_walk_matches_the_step_by_step_walk():
    # the replay of each (F, S) sub-walk, counted once per prefix, tallies
    # what stepping through every prenecklace does
    for n in range(1, 23):
        assert _lyndon_counts(n) == _successor_walk(n), n


def test_row_walk_makes_no_call_per_prenecklace():
    # even_orbit_counts(16) meets 14,000 prenecklaces; a Python call per
    # prenecklace would show as thousands of call events
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event) if event == "call" else None)
    try:
        rows = even_orbit_counts(16)
    finally:
        sys.setprofile(None)
    assert rows[16][8] == count_even_orbits(16, 8)
    assert len(calls) < 30, len(calls)


def test_row_walk_checks_its_rank(monkeypatch):
    # dropping 001, an odd-length word that no even row counts, still breaks
    # the rank of (3, 1) and every row after it
    lyndon = _lyndon_counts

    def dropped(n):
        counts = lyndon(n)
        counts[3][1] -= 1
        return counts

    monkeypatch.setattr("gwbinom.necklaces._lyndon_counts", dropped)
    with pytest.raises(RuntimeError, match=r"add up to 0 masks, not C\(3, 1\)"):
        even_orbit_counts(6)


def test_odd_bead_count_has_no_even_orbits():
    for n in (1, 3, 5, 7, 9, 11):
        for j in range(n + 1):
            assert count_even_orbits(n, j) == 0


def test_aperiodic_count_examples():
    assert aperiodic_count(4, 2) == 1
    assert aperiodic_count(6, 3) == 3
    assert aperiodic_count(5, 2) == 2
    with pytest.raises(ValueError, match="positive n required, got 0"):
        aperiodic_count(0, 0)


def test_aperiodic_count_matches_enumeration():
    for n in range(1, 17):
        for j in range(n + 1):
            brute = sum(1 for r in enumerate_orbits(n, j) if r.period == n)
            assert aperiodic_count(n, j) == brute


def test_divisor_class_equation_with_fractional_terms():
    for n in range(1, 17):
        for j in range(n + 1):
            total = sum(
                d * aperiodic_count(d, j * d // n)
                for d in range(1, n + 1)
                if n % d == 0 and (j * d) % n == 0
            )
            assert total == comb(n, j)


def _totient(m):
    from math import gcd

    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def test_orbit_count_matches_totient_formula():
    # independent count of rotation orbits: (1/n) sum over d | gcd(n,j) of
    # phi(d) * C(n/d, j/d)
    from math import gcd

    for n in range(1, 17):
        for j in range(n + 1):
            g = gcd(n, j) if j else n
            total = sum(
                _totient(d) * comb(n // d, j // d) for d in range(1, g + 1) if g % d == 0
            )
            assert total % n == 0
            assert total // n == len(enumerate_orbits(n, j))


def test_even_orbit_count_matches_inversion_formula():
    # the enumeration agrees with summing full-period counts over the even
    # divisors: |even orbits| = sum over even d | n of N(d, j*d/n)
    # beyond 24 beads, cells with few masks are within the budget
    cells = [(n, j) for n in range(1, 17) for j in range(n + 1)]
    cells += [(n, j) for n in range(25, 41) for j in range(3)] + [(40, 3)]
    for n, j in cells:
        by_inversion = sum(
            aperiodic_count(d, j * d // n)
            for d in range(2, n + 1, 2)
            if n % d == 0 and (j * d) % n == 0
        )
        assert count_even_orbits(n, j) == by_inversion


# each gated enumerator as a function of a cell (n, j); even_orbit_counts
# takes only n and gates its row's largest cell
_GATED = {
    "enumerate_orbits": enumerate_orbits,
    "count_even_orbits": count_even_orbits,
    "even_orbit_counts": lambda n, j: even_orbit_counts(n),
    "odd_flip_fixed_count": odd_flip_fixed_count,
    "classify_flip_fixed": classify_flip_fixed,
    "orbit_catalog": lambda n, j: orbit_catalog(n, j, classify=True),
}


@pytest.mark.parametrize("name", sorted(_GATED))
def test_gated_enumerators_refuse_before_enumerating(monkeypatch, name):
    # the cell check, then the word width, then the budget, all before the
    # generator is called
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._lyndon_counts", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._flip_fixed_orbits", no_enumeration)
    enumerator = _GATED[name]
    refusals = [
        (0, 0, ValueError, "positive n required, got 0"),
        (-3, 0, ValueError, "positive n required, got -3"),
        (26, 13, EnumerationLimitError, r"C\(26, 13\) = 10400600 masks exceeds the enumeration budget"),
    ]
    if name != "even_orbit_counts":
        refusals += [
            (64, 65, ValueError, "need 0 <= j <= n, got j=65, n=64"),
            (5, -1, ValueError, "need 0 <= j <= n, got j=-1, n=5"),
            (64, 2, EnumerationLimitError, "n=64 exceeds the hard limit of 63 beads"),
        ]
    for n, j, error, message in refusals:
        with pytest.raises(error, match=message):
            enumerator(n, j)


def test_enumeration_budget():
    with pytest.raises(EnumerationLimitError, match="budget"):
        enumerate_orbits(25, 12)
    with pytest.raises(EnumerationLimitError, match="budget"):
        enumerate_twisted_orbits(13)
    assert len(enumerate_orbits(30, 2)) == 15


def _ref_orbits(n, j):
    """Brute force on position sets: (canonical, period, flip_fixed, axes)
    of every (n, j) rotation orbit, ordered by canonical mask."""
    seen, out = set(), []
    for blues in map(frozenset, itertools.combinations(range(n), j)):
        if blues in seen:
            continue
        rotations = {_ref_rotate(n, blues, k) for k in range(n)}
        seen |= rotations
        least = min(sum(1 << p for p in r) for r in rotations)
        canon = frozenset(p for p in range(n) if least >> p & 1)
        period = len(rotations)
        flipped = _ref_flip(n, canon)
        # r^m f fixes canon; classes are m modulo the shifts 2 * period * t
        ms = [m for m in range(n) if _ref_rotate(n, flipped, m) == canon]
        reps = {}
        for m in ms:
            reps.setdefault(m % gcd(2 * period, n), m)
        axes = tuple(
            AxisIndex(m, TYPE2 if any((2 * p - m) % n == 0 for p in range(n)) else TYPE1)
            for m in sorted(reps.values())
        )
        out.append((Necklace(n, least), period, flipped in rotations, axes))
    return sorted(out, key=lambda rec: rec[0].blues)


def _records(n, j):
    return [(r.canonical, r.period, r.flip_fixed, r.axes) for r in enumerate_orbits(n, j)]


def test_enumeration_matches_brute_force():
    for n in range(1, 15):
        for j in range(n + 1):
            assert _records(n, j) == _ref_orbits(n, j), (n, j)


@given(st.sampled_from([(n, j) for n in range(1, 21) for j in range(n + 1) if comb(n, j) <= 2000]))
def test_enumeration_matches_brute_force_on_small_cells(cell):
    ref = _ref_orbits(*cell)
    assert _records(*cell) == ref
    assert count_even_orbits(*cell) == sum(1 for rec in ref if rec[1] % 2 == 0)


@cache
def _ref_flip_fixed(n, j):
    """Brute force: (least, period, axis types) of each flip-fixed (n, j)
    orbit, and its kind, the f_1 words of its two mirror words: 1 for an odd
    n, and for an even n 1 with both axis types, 2 with between-beads (type
    1) axes only and 0 with through-beads (type 2) axes only."""
    kind_of = {(TYPE1, TYPE2): 1, (TYPE1,): 2, (TYPE2,): 0}
    return tuple((canon.blues, period, types, 1 if n % 2 else kind_of[types])
                 for canon, period, flip_fixed, axes in _ref_orbits(n, j) if flip_fixed
                 for types in [tuple(sorted({a.axis_type for a in axes}))])


def test_mirror_words_meet_each_flip_fixed_orbit_twice():
    # the two-pairs lemma, against brute force: each word fixed by f_0 or
    # f_1 lies in a flip-fixed orbit, and each such orbit holds two of them;
    # and the kind lemma: its kind is 1 exactly when its period is odd
    for n in range(1, 17):
        for j in range(n + 1):
            ref = _ref_flip_fixed(n, j)
            fixed = [least for least, _, _, _ in ref]
            leasts = []
            for eps, mask in _mirror_words(n, j):
                word = _word(mask, n)
                assert mask.bit_count() == j and _reflect(word, eps) == word, (n, j, eps, word)
                leasts.append(min(_rot_mask(mask, n, k) for k in range(n)))
            leasts.sort()
            assert leasts[::2] == leasts[1::2] == fixed, (n, j)
            assert all((kind == 1) == (period % 2 == 1) for _, period, _, kind in ref), (n, j)
            assert _flip_fixed_orbits(n, j) == [(least, kind) for least, _, _, kind in ref], (n, j)


def test_flip_fixed_counts_match_brute_force_with_no_walk_or_search(monkeypatch):
    # both counts read the mirror listing's kinds alone: no gap walk, row
    # tally or axis search runs
    def no_walk(*args):
        raise AssertionError("walked or searched")

    for name in ("_necklaces", "_lyndon_counts", "_axes"):
        monkeypatch.setattr(f"gwbinom.necklaces.{name}", no_walk)
    for n in range(1, 17):
        for j in range(n + 1):
            ref = _ref_flip_fixed(n, j)
            assert odd_flip_fixed_count(n, j) == sum(period % 2 for _, period, _, _ in ref), (n, j)
            if n % 2 == 0:
                even = [types for _, period, types, _ in ref if period % 2 == 0]
                want = {"type1_even": even.count((TYPE1,)), "type2_even": even.count((TYPE2,)),
                        "odd_fixed": len(ref) - len(even)}
                assert asdict(classify_flip_fixed(n, j)) == want, (n, j)


def _flipped_first_eps(n, j):
    """_mirror_words with the first word's eps flipped: each orbit still
    meets two words, but the first one's kind is off by one."""
    words = _mirror_words(n, j)
    eps, mask = next(words)
    yield 1 - eps, mask
    yield from words


def test_mirror_word_of_the_wrong_kind_raises(monkeypatch):
    # the first mirror word of (4, 2), 0101, read as fixed by f_1: its orbit,
    # named 1010 and of period 2, still meets two words, but now one of f_1
    monkeypatch.setattr("gwbinom.necklaces._mirror_words", _flipped_first_eps)
    for count in (classify_flip_fixed, odd_flip_fixed_count, orbit_catalog):
        with pytest.raises(RuntimeError, match="the orbit of 1010, of period 2, has 1 of its 2"
                                               " mirror words fixed by f_1"):
            count(4, 2)


def _swapped_first_kind(n, j):
    """The cell's listing with its first orbit's kinds 0 and 2 swapped: the
    kind stays even, so the lister's own parity check still holds."""
    (least, kind), *rest = _flip_fixed_orbits(n, j)
    return [(least, 2 - kind), *rest]


def test_listed_kind_that_disagrees_with_the_axes_raises(monkeypatch):
    # 1100, the first listed orbit of (4, 2), has only between-beads (type 1)
    # axes, so kind 2; listed as kind 0, only through-beads axes would do
    monkeypatch.setattr("gwbinom.necklaces._flip_fixed_orbits", _swapped_first_kind)
    for walk in (enumerate_orbits, orbit_catalog):
        with pytest.raises(RuntimeError, match=r"the orbit of 1100, of kind 0, has axis types \[1\]"):
            walk(4, 2)


def test_records_build_words_only_for_listed_orbits(monkeypatch):
    # 20 of the 80 orbits of (12, 6) are listed: the records build only
    # their words, for the axis search; the catalog also prints all 80
    import gwbinom.necklaces as necklaces

    words, word = [], necklaces._word
    monkeypatch.setattr(necklaces, "_word", lambda mask, n: words.append(mask) or word(mask, n))
    records = enumerate_orbits(12, 6)
    assert len(records) == 80
    assert words == [rec.canonical.blues for rec in records if rec.flip_fixed]
    words.clear()
    orbit_catalog(12, 6)
    assert len(words) == 100


def test_catalog_lists_the_mirror_words_once(monkeypatch):
    calls = []
    words = _mirror_words
    monkeypatch.setattr("gwbinom.necklaces._mirror_words",
                        lambda n, j: calls.append((n, j)) or words(n, j))
    orbit_catalog(12, 6, classify=True)
    assert calls == [(12, 6)]


def test_mirror_word_and_walk_faults_raise(monkeypatch):
    # a repeated mirror word meets its orbit three times; a listed orbit
    # that the flip moves fails its search; a walk without 000111 never
    # meets that listed orbit.  Only the catalog and the records merge the
    # walk with the listing.
    words, walk = _mirror_words, _necklaces

    def repeated(n, j):
        yield next(words(n, j))
        yield from words(n, j)

    with monkeypatch.context() as m:
        m.setattr("gwbinom.necklaces._mirror_words", repeated)
        with pytest.raises(RuntimeError, match=r"mirror words of \(6, 3\) do not meet each"):
            orbit_catalog(6, 3)
    with monkeypatch.context() as m:
        m.setattr("gwbinom.necklaces._flip_fixed_orbits", lambda n, j: [(0b001011, 1)])
        with pytest.raises(RuntimeError, match="the flip moves the listed orbit of 110100"):
            enumerate_orbits(6, 3)
    monkeypatch.setattr("gwbinom.necklaces._necklaces",
                        lambda n, j: (pair for pair in walk(n, j) if pair != (0b000111, 6)))
    with pytest.raises(RuntimeError, match=r"walk of \(6, 3\) never met the listed orbit of 111000"):
        orbit_catalog(6, 3)


def test_even_count_keeps_no_per_mask_state():
    # a seen set of the C(20, 10) = 184,756 masks would take about 10 MB
    tracemalloc.start()
    try:
        assert count_even_orbits(20, 10) == 9252
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- symmetry axes --------------------------------------------------------


def test_four_consecutive_blues_has_unique_type1_axis():
    rec = orbit_record_of(neck(6, 1, 2, 3, 4))
    assert rec.flip_fixed and rec.period == 6
    assert len(rec.axes) == 1
    assert rec.axes[0].axis_type == TYPE1


def test_period_three_orbit_has_two_axes_of_different_type():
    # six beads, blues at 0,1,3,4: period 3, one axis of each type, distance 3/2
    rec = orbit_record_of(neck(6, 0, 1, 3, 4))
    assert rec.period == 3 and rec.flip_fixed
    assert {a.axis_type for a in rec.axes} == {TYPE1, TYPE2}
    assert axis_distance(rec, rec.axes[0], rec.axes[1]) == Fraction(3, 2)


def test_monochrome_axes():
    rec = orbit_record_of(neck(5))
    assert rec.period == 1 and rec.flip_fixed
    assert [a.axis_type for a in rec.axes] == [TYPE2]
    rec = orbit_record_of(neck(6))
    assert {a.axis_type for a in rec.axes} == {TYPE2, TYPE1}
    assert axis_distance(rec, rec.axes[0], rec.axes[1]) == Fraction(1, 2)


def test_symmetry_axes_accessor_empty_iff_not_flip_fixed():
    for n in range(1, 13):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                assert bool(rec.axes) == rec.flip_fixed


def test_axis_count_and_distance_laws():
    # unique axis class when n/period is odd, else two at distance period/2
    for n in range(1, 15):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                if not rec.flip_fixed:
                    continue
                if (n // rec.period) % 2:
                    assert len(rec.axes) == 1
                else:
                    assert len(rec.axes) == 2
                    d = axis_distance(rec, rec.axes[0], rec.axes[1])
                    assert d == Fraction(rec.period, 2)


def test_axis_distance_formula_matches_the_separation_scan():
    # the gcd formula against the least folded separation over all n shifts,
    # for every orbit and every pair of reflection exponents with n <= 12
    for n in range(1, 13):
        scans = {}  # period -> doubled distance by (b - a) mod n
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                p = rec.period
                scan = scans.get(p) or scans.setdefault(p, [
                    min(min(d, n - d) for d in ((s + 2 * p * t) % n for t in range(n)))
                    for s in range(n)])
                for a, b in itertools.product(range(n), repeat=2):
                    assert axis_distance(rec, AxisIndex(a, 0), AxisIndex(b, 0)) \
                        == Fraction(scan[(b - a) % n], 2)


def test_odd_n_axes_are_type2():
    for n in (3, 5, 7, 9):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                assert all(a.axis_type == TYPE2 for a in rec.axes)


def test_type_intersection_is_odd_period():
    # even n: an orbit has axes of both types iff it is flip-fixed of odd period
    for n in range(2, 15, 2):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                types = {a.axis_type for a in rec.axes}
                both = types == {TYPE1, TYPE2}
                assert both == (rec.flip_fixed and rec.period % 2 == 1)
                if rec.flip_fixed and rec.period % 2 == 0:
                    assert len(types) == 1


def test_classify_flip_fixed_examples():
    counts = classify_flip_fixed(4, 2)
    assert (counts.type1_even, counts.type2_even, counts.odd_fixed) == (1, 1, 0)
    counts = classify_flip_fixed(6, 4)
    assert counts.odd_fixed == 1  # the period-3 orbit carries both axis types
    for n in (2, 6, 10):
        counts = classify_flip_fixed(n, 0)
        assert (counts.type1_even, counts.type2_even, counts.odd_fixed) == (0, 0, 1)
    with pytest.raises(ValueError):
        classify_flip_fixed(5, 2)


def test_flip_fixed_decomposition_formulas():
    # type-1 even count and the two type-2 count formulas, by enumeration
    for n in range(2, 15, 2):
        for j in range(0, n + 1, 2):
            counts = classify_flip_fixed(n, j)
            half_odd_fixed = odd_flip_fixed_count(n // 2, j // 2)
            assert 2 * counts.type1_even == comb(n // 2, j // 2) - half_odd_fixed
            if n % 4 == 2:
                corr = comb((n - 2) // 4, (j - 2) // 4 if j % 4 == 2 else j // 4)
                assert counts.type1_even + counts.type2_even == comb(n // 2, j // 2) - corr
            else:
                type2_all = counts.type2_even + counts.odd_fixed
                assert 2 * type2_all == comb(n // 2, j // 2) + odd_flip_fixed_count(n, j)


def test_odd_flip_fixed_closed_form():
    for n in range(1, 17):
        for j in range(n + 1):
            assert odd_flip_fixed_closed_form(n, j) == odd_flip_fixed_count(n, j)
    # the reduction must use the valuation of n when v2(j) > v2(n)
    assert odd_flip_fixed_closed_form(5, 2) == 2
    assert odd_flip_fixed_closed_form(12, 8) == 1


# --- interleaving ---------------------------------------------------------


def test_interleave_parts_and_examples():
    even_half, odd_half = interleave_parts(neck(4, 0, 2))
    assert even_half == neck(2, 0, 1)  # all blue
    assert odd_half == neck(2)  # all red
    a, b = interleave_decompose(orbit_record_of(neck(6, 0, 2, 3, 5)))
    assert a == b == orbit_record_of(neck(3, 0, 1))


def test_interleave_pair_independent_of_representative():
    for n in (4, 6, 8, 10):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                for k in range(n):
                    again = interleave_decompose(orbit_record_of(rotate(rec.canonical, k)))
                    assert again == interleave_decompose(rec)


def test_interleave_balanced_split_example():
    # ten beads, blues 0,1,5,9: halves have one and three blues
    a, b = interleave_decompose(orbit_record_of(neck(10, 0, 1, 5, 9)))
    assert {a.j, b.j} == {1, 3}
    assert a.size == b.size == 5
    assert a.flip_fixed and b.flip_fixed


def test_interleave_fiber_size_cases():
    # flip-fixed of odd period: (period+1)/2, e.g. period five -> three
    rec5 = orbit_record_of(neck(5, 0, 1))
    assert rec5.flip_fixed and rec5.period == 5
    assert interleave_fiber_size((rec5, rec5)) == 3
    # not flip-fixed: the period
    rec6 = orbit_record_of(neck(6, 0, 1, 3))
    assert not rec6.flip_fixed
    pair = tuple(sorted((rec6, orbit_record_of(flip(rec6.canonical))),
                        key=lambda r: r.canonical.blues))
    assert interleave_fiber_size(pair) == 6
    # flip-fixed of even period two: one
    rec2 = orbit_record_of(neck(2, 0))
    assert rec2.flip_fixed and rec2.period == 2
    assert interleave_fiber_size((rec2, rec2)) == 1
    # mismatched sizes rejected
    with pytest.raises(ValueError):
        interleave_fiber_size((rec5, rec2))
    # pairs not of the form ([l], flip [l]) have empty fiber
    allblue = orbit_record_of(neck(2, 0, 1))
    allred = orbit_record_of(neck(2))
    assert interleave_fiber_size((allblue, allred)) == 0


def _type1_fibers(n, j):
    fibers = {}
    for rec in enumerate_orbits(n, j):
        if rec.flip_fixed and any(a.axis_type == TYPE1 for a in rec.axes):
            fibers.setdefault(interleave_decompose(rec), []).append(rec)
    return fibers


def test_interleave_fiber_sizes_by_brute_force():
    for n in (2, 4, 6, 8, 10, 12):
        for j in range(n + 1):
            fibers = _type1_fibers(n, j)
            half = n // 2
            seen = set()
            for j1 in range(min(j, half) + 1):
                if j - j1 > half:
                    continue
                for a in enumerate_orbits(half, j1):
                    b = orbit_record_of(flip(a.canonical))
                    if b.j != j - j1:
                        continue
                    pair = tuple(sorted((a, b), key=lambda r: r.canonical.blues))
                    if pair in seen:
                        continue
                    seen.add(pair)
                    assert interleave_fiber_size(pair) == len(fibers.get(pair, []))
            # no fiber escapes the ([l], flip[l]) form
            for pair, members in fibers.items():
                assert interleave_fiber_size(pair) == len(members)


def test_diagonal_fiber_period_profile():
    # over a flip-fixed diagonal pair of odd period p, exactly one member of
    # the fiber keeps period p and the other (p-1)/2 double it
    for n in (4, 6, 8, 10, 12):
        for j in range(0, n + 1, 2):
            for a in enumerate_orbits(n // 2, j // 2):
                if not a.flip_fixed:
                    continue
                members = [rec for rec in _type1_fibers(n, j).get((a, a), [])]
                periods = sorted(rec.period for rec in members)
                if a.period % 2:
                    assert periods == sorted([a.period] + [2 * a.period] * ((a.period - 1) // 2))
                else:
                    assert periods == [2 * a.period] * (a.period // 2)


# --- stripping and inserting axis beads -----------------------------------


def test_strip_axis_beads_opposite_blues():
    # eight beads with two opposite blues: one axis strips the blues down to
    # the all-red six-necklace, the other strips two reds
    rec = orbit_record_of(neck(8, 0, 4))
    assert rec.flip_fixed and rec.period == 4
    type2 = [a for a in rec.axes if a.axis_type == TYPE2]
    assert len(type2) == 2
    images = {strip_axis_beads(rec, a).canonical for a in type2}
    assert orbit_record_of(neck(6)).canonical in images
    assert orbit_record_of(neck(6, 0, 3)).canonical in images


def test_strip_axis_beads_validation():
    rec = orbit_record_of(neck(8, 0, 4))
    type1_axis = AxisIndex(1, TYPE1)
    with pytest.raises(ValueError):
        strip_axis_beads(rec, type1_axis)
    with pytest.raises(ValueError):
        strip_axis_beads(rec, AxisIndex(2, TYPE2))  # does not fix the orbit
    odd_j = orbit_record_of(neck(8, 0))
    with pytest.raises(ValueError):
        strip_axis_beads(odd_j, AxisIndex(0, TYPE2))


def test_strip_axis_beads_refuses_on_axis_beads_of_two_colors(monkeypatch):
    # with n and j even the two on-axis beads share a color; a rotation that
    # put a blue and a red on the axis would splice in the wrong blue count
    rec = orbit_record_of(neck(4, 0, 2))
    monkeypatch.setattr("gwbinom.necklaces.rotate", lambda l, k: neck(4, 0))
    with pytest.raises(RuntimeError) as info:
        strip_axis_beads(rec, AxisIndex(0, TYPE2))
    assert str(info.value) == "on-axis beads differ in color; invariant violation"


def test_insert_axis_beads_all_red():
    grown = insert_axis_beads(orbit_record_of(neck(6)), RED)
    assert grown == orbit_record_of(neck(8))
    grown = insert_axis_beads(orbit_record_of(neck(6)), BLUE)
    assert grown == orbit_record_of(neck(8, 0, 4))


def test_insert_axis_beads_validation():
    not_fixed = orbit_record_of(neck(6, 0, 1, 3))
    with pytest.raises(ValueError):
        insert_axis_beads(not_fixed, BLUE)
    no_type1 = orbit_record_of(neck(5, 0))
    with pytest.raises(ValueError):
        insert_axis_beads(no_type1, BLUE)
    with pytest.raises(ValueError):
        insert_axis_beads(orbit_record_of(neck(6)), "green")


def test_strip_insert_roundtrip():
    for n in (4, 8, 12, 16):
        for j in range(0, n + 1, 2):
            for rec in enumerate_orbits(n, j):
                if not rec.flip_fixed:
                    continue
                for axis in rec.axes:
                    if axis.axis_type != TYPE2:
                        continue
                    stripped = strip_axis_beads(rec, axis)
                    assert stripped.flip_fixed
                    assert any(a.axis_type == TYPE1 for a in stripped.axes)
                    color = BLUE if rec.canonical.bitstring()[axis.m // 2] == "1" else RED
                    assert insert_axis_beads(stripped, color) == rec


def test_insert_surjects_with_fibers_one_or_two():
    # fibers of size two arise exactly over images with two distinct
    # through-beads axis classes
    for n in (4, 8, 12, 16):
        for j in range(0, n + 1, 2):
            type2 = [rec for rec in enumerate_orbits(n, j)
                     if rec.flip_fixed and any(a.axis_type == TYPE2 for a in rec.axes)]
            image_counts = {}
            for jj, color in ((j - 2, BLUE), (j, RED)):
                if not 0 <= jj <= n - 2:
                    continue
                for rec in enumerate_orbits(n - 2, jj):
                    if rec.flip_fixed and any(a.axis_type == TYPE1 for a in rec.axes):
                        img = insert_axis_beads(rec, color)
                        image_counts[img] = image_counts.get(img, 0) + 1
            assert set(image_counts) == set(type2)
            for img, count in image_counts.items():
                two_axes = sum(1 for a in img.axes if a.axis_type == TYPE2) == 2
                assert count == (2 if two_axes else 1)


# --- twisted action -------------------------------------------------------


def test_twisted_rotation_step():
    # one step of the twisted action: rotate one bead, then swap colors
    assert color_swap(rotate(neck(2, 0), 1)) == neck(2, 0)
    assert color_swap(rotate(neck(4, 0, 1), 1)) == neck(4, 0, 3)


def test_twisted_orbits_j1():
    recs = enumerate_twisted_orbits(1)
    assert [r.twisted_period for r in recs] == [1, 1]
    assert not any(r.swap_fixed for r in recs)


def test_twisted_orbits_j2():
    recs = enumerate_twisted_orbits(2)
    assert sum(r.twisted_period for r in recs) == 6
    assert sorted(r.twisted_period for r in recs) == [1, 1, 4]
    assert count_even_twisted_orbits(2) == 1
    assert count_even_twisted_swap_fixed(2) == 1


def test_twisted_period_sums_and_divisibility():
    for j in range(1, 9):
        recs = enumerate_twisted_orbits(j)
        assert sum(r.twisted_period for r in recs) == comb(2 * j, j)
        assert all((2 * j) % r.twisted_period == 0 for r in recs)


def test_twisted_orbits_match_walks_from_every_balanced_mask():
    # independent of the necklace generator: the distinct records of the
    # twisted orbits through all C(2j, j) balanced masks; j = 9 is the
    # first with an odd-length orbit whose least point is an odd number of
    # steps from the start it is walked from
    for j in range(1, 10):
        records = {
            twisted_orbit_record_of(Necklace.from_positions(2 * j, pos))
            for pos in itertools.combinations(range(2 * j), j)
        }
        assert enumerate_twisted_orbits(j) == tuple(sorted(records, key=lambda r: r.canonical.blues))


def test_twisted_orbits_refuse_bad_j_when_called():
    for twisted in (enumerate_twisted_orbits, count_even_twisted_orbits):
        with pytest.raises(ValueError, match="positive j"):
            twisted(0)
        with pytest.raises(EnumerationLimitError, match="budget"):
            twisted(13)


def _swap_halves(word, d):
    """word is (v v')^k for the d-bead word v, v' its color swap."""
    v = word[:d]
    return word == (v + v.translate(str.maketrans("01", "10"))) * (len(word) // (2 * d))


def test_twisted_length_equals_the_walk():
    # the lemma behind O(j), necklace by necklace on the gap walk: the orbit
    # walk has the same length from both starts of every (2j, j) necklace,
    # its least mask and that mask rotated by one bead, and it is odd exactly
    # when the word is (v v')^(j/d) for an odd d | j, the least such d; O(j)
    # counts those necklaces
    for j in range(1, 11):
        n = 2 * j
        step = _twisted_step(n)
        odd = 0
        for least, _ in _necklaces(n, j):
            length = len(_cycle(least, step))
            assert length == len(_cycle(_rot_mask(least, n, 1), step)), (j, least)
            forms = [d for d in range(1, j + 1, 2) if j % d == 0 and _swap_halves(_word(least, n), d)]
            assert length == min(forms) if forms else length % 2 == 0, (j, least)
            odd += length % 2
        assert _odd_twisted_count(j) == odd, j


def _least_masks(n, j):
    """The necklaces of n beads with j blues, by rotating int masks: each of
    the C(n, j) masks that is the least of its rotations, with its period."""
    full = (1 << n) - 1
    found = []
    for ones in itertools.combinations(range(n), j):
        mask = sum(1 << i for i in ones)
        m = mask
        for k in range(1, n + 1):
            m = ((m << 1) & full) | (m >> (n - 1))
            if m <= mask:
                break
        if m == mask:
            found.append((mask, k))
    return sorted(found)


def test_half_period_twisted_length_on_the_row_walk():
    # balanced necklaces found by rotating masks, not by the gap walk: an
    # odd twisted length is half the period and that rotation swaps the
    # colors, and O(j) counts the necklaces with one, so (18, 9) is checked
    # with no gap walk
    for j in range(1, 10):
        n = 2 * j
        step = _twisted_step(n)
        balanced = _least_masks(n, j)
        assert balanced == list(_necklaces(n, j))
        odd = [(m, period) for m, period in balanced if len(_cycle(m, step)) % 2]
        for m, period in odd:
            assert len(_cycle(m, step)) == period // 2
            assert _rot_mask(m, n, period // 2) == m ^ (1 << n) - 1, (j, m)
        assert _odd_twisted_count(j) == len(odd), j


def test_odd_twisted_count_is_half_the_odd_records():
    # each necklace of odd twisted length gives two twisted orbits, walked
    # from its least mask and from that mask's one-bead rotation
    counts = [_odd_twisted_count(j) for j in range(1, 11)]
    assert counts == [1, 1, 2, 1, 4, 2, 10, 1, 30, 4]
    for j, count in enumerate(counts, 1):
        assert 2 * count == sum(r.twisted_period % 2 for r in enumerate_twisted_orbits(j)), j


def test_odd_twisted_count_walks_no_orbit_and_keeps_no_set(monkeypatch):
    import gwbinom.necklaces as necklaces

    def refuse(*args):
        raise AssertionError("orbit walked, rotation called or set built")

    for name in ("_cycle", "_rot_mask", "_necklaces", "set"):
        monkeypatch.setattr(necklaces, name, refuse, raising=False)
    assert [_odd_twisted_count(j) for j in (9, 11, 12)] == [30, 94, 2]


def test_single_cell_counts_check_their_rank(monkeypatch):
    # the orbits of a cell's necklaces must cover its C(n, j) masks, and a
    # balanced cell has no odd period
    walk = _necklaces
    monkeypatch.setattr("gwbinom.necklaces._necklaces", lambda n, j: list(walk(n, j))[:-1])
    with pytest.raises(RuntimeError, match=r"add up to 48 masks, not C\(8, 3\)"):
        count_even_orbits(8, 3)
    with pytest.raises(RuntimeError, match=r"add up to 68 masks, not C\(8, 4\)"):
        count_even_twisted_orbits(4)
    monkeypatch.setattr("gwbinom.necklaces._necklaces", lambda n, j: iter([(0b0011, 3), (0b0101, 3)]))
    with pytest.raises(RuntimeError, match=r"odd periods \[3\] in the balanced \(4, 2\) cell"):
        count_even_twisted_orbits(2)


def test_even_twisted_count_matches_the_records():
    # two routes: one O(1) test per necklace against the walked, deduplicated orbits
    for j in range(1, 11):
        records = enumerate_twisted_orbits(j)
        assert count_even_twisted_orbits(j) == sum(r.twisted_period % 2 == 0 for r in records)


def test_even_twisted_count_sequence():
    assert [count_even_twisted_orbits(j) for j in range(1, 13)] == [
        0, 1, 2, 9, 22, 78, 236, 809, 2674, 9248, 31972, 112718,
    ]


def test_even_twisted_count_walks_no_orbit(monkeypatch):
    # neither an orbit walk nor a rotation call per necklace: the
    # necklaces are tallied by period, and O(j) lists words, not orbits
    def refuse(*args):
        raise AssertionError("orbit walked or rotation called")

    monkeypatch.setattr("gwbinom.necklaces._cycle", refuse)
    monkeypatch.setattr("gwbinom.necklaces._rot_mask", refuse)
    assert count_even_twisted_orbits(9) == 2674


def test_even_twisted_count_refuses_before_enumerating(monkeypatch):
    def no_enumeration(n, j):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    with pytest.raises(ValueError, match="positive j"):
        count_even_twisted_orbits(0)
    with pytest.raises(EnumerationLimitError, match="budget"):
        count_even_twisted_orbits(13)


def test_twisted_even_count_keeps_no_per_mask_state():
    # a seen set of the C(18, 9) = 48,620 balanced masks takes about 3.5 MB
    tracemalloc.start()
    try:
        assert count_even_twisted_orbits(9) == 2674
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_twisted_period_law():
    # twisted period equals the plain period, except on color-swap-fixed
    # orbits with v2(period) = 1, where it halves and becomes odd
    for j in range(1, 9):
        for rec in enumerate_twisted_orbits(j):
            urec = orbit_record_of(rec.canonical)
            if color_swap_fixed(urec) and valuation(2, urec.period) == 1:
                assert rec.twisted_period == urec.period // 2
                assert rec.twisted_period % 2 == 1
            else:
                assert rec.twisted_period == urec.period


def test_color_swap_fixed_matches_walked_orbit():
    # the string search against its definition: the swapped mask lies in
    # the rotation orbit walked from the canonical mask
    outcomes = set()
    for n in range(1, 13):
        for j in range(n + 1):
            for rec in enumerate_orbits(n, j):
                walked = _cycle(rec.canonical.blues, lambda m: _rot_mask(m, n, 1))
                expected = color_swap(rec.canonical).blues in walked
                assert color_swap_fixed(rec) == expected, (n, rec)
                outcomes.add(expected)
    assert outcomes == {False, True}


def test_swap_is_involution_preserving_period():
    for j in range(1, 8):
        for rec in enumerate_twisted_orbits(j):
            s = swap_action(rec)
            assert swap_action(s) == rec
            assert s.twisted_period == rec.twisted_period
            assert (s == rec) == rec.swap_fixed


def test_swap_example_not_fixed():
    t = twisted_orbit_record_of(neck(12, 0, 2, 4, 5, 8, 9))
    assert swap_action(t) != t


def test_swap_free_for_odd_j():
    for j in (1, 3, 5, 7):
        assert not any(r.swap_fixed for r in enumerate_twisted_orbits(j))


def test_swap_fixed_iff_color_swap_fixed_with_high_valuation():
    for j in range(1, 9):
        for rec in enumerate_twisted_orbits(j):
            urec = orbit_record_of(rec.canonical)
            expected = color_swap_fixed(urec) and valuation(2, urec.period) >= 2
            assert rec.swap_fixed == expected


def test_even_twisted_swap_fixed_parity_matches_even_count():
    for j in range(1, 9):
        assert (count_even_twisted_swap_fixed(j) - count_even_twisted_orbits(j)) % 2 == 0
    assert count_even_twisted_swap_fixed(1) == 0
    assert count_even_twisted_swap_fixed(2) % 2 == 1
    assert count_even_twisted_swap_fixed(3) % 2 == 0


def _triple_class(l):
    def triple(x):
        rec = orbit_record_of(x)
        p1, p2 = interleave_parts(x)
        return (
            rec.canonical.blues,
            orbit_record_of(p1).canonical.blues,
            orbit_record_of(p2).canonical.blues,
        )

    def exchanged(t):
        lm, am, bm = t
        half = l.size // 2
        el = orbit_record_of(color_swap(Necklace(l.size, lm))).canonical
        ea = orbit_record_of(color_swap(Necklace(half, bm))).canonical
        eb = orbit_record_of(color_swap(Necklace(half, am))).canonical
        return (el.blues, ea.blues, eb.blues)

    t = triple(l)
    return min(t, exchanged(t))


def test_triple_description_classes():
    # a twisted orbit determines (orbit, interleave halves) up to the color
    # exchange; the class map is surjective with fibers {T, swap T}, fiber
    # size two exactly when the halves agree as orbits and T is not
    # swap-fixed
    for j in range(1, 8):
        classes = {}
        for rec in enumerate_twisted_orbits(j):
            classes.setdefault(_triple_class(rec.canonical), []).append(rec)
        total = 0
        for members in classes.values():
            rec = members[0]
            s = swap_action(rec)
            a, b = interleave_decompose(orbit_record_of(rec.canonical))
            diagonal = a == b
            class_eq = _triple_class(rec.canonical) == _triple_class(s.canonical)
            assert class_eq == (diagonal or rec.swap_fixed)
            expected = 2 if (class_eq and s != rec) else 1
            assert len(members) == expected
            total += len(members)
        assert total == len(enumerate_twisted_orbits(j))
        # every balanced necklace lands in an enumerated class
        all_classes = {
            _triple_class(Necklace.from_positions(2 * j, pos))
            for pos in itertools.combinations(range(2 * j), j)
        }
        assert all_classes == set(classes)


# --- catalogs -------------------------------------------------------------


def test_orbit_catalog_schema():
    cat = orbit_catalog(4, 2)
    assert cat["n"] == 4 and cat["j"] == 2
    assert [o["period"] for o in cat["orbits"]] == [4, 2]
    assert cat["orbits"][0]["canonical"] == "1100"
    assert all(set(o) == {"canonical", "period", "flip_fixed", "axes"} for o in cat["orbits"])
    for orbit in cat["orbits"]:
        for axis in orbit["axes"]:
            assert set(axis) == {"m", "type"}


def test_orbit_catalog_matches_the_records_path():
    # the catalog builds its dicts from the generator; the records path
    # builds an OrbitRecord per orbit, and the two must not drift apart
    for n in range(1, 15):
        for j in range(n + 1):
            classify = n % 2 == 0
            want = {"n": n, "j": j, "orbits": [
                {"canonical": rec.canonical.bitstring(), "period": rec.period,
                 "flip_fixed": rec.flip_fixed,
                 "axes": [{"m": a.m, "type": a.axis_type} for a in rec.axes]}
                for rec in enumerate_orbits(n, j)]}
            if classify:
                want["classification"] = _records_classification(enumerate_orbits(n, j))
            assert orbit_catalog(n, j, classify=classify) == want


def _records_classification(records):
    """classify_flip_fixed's counts, taken from a record of every orbit."""
    fixed = [rec for rec in records if rec.flip_fixed]
    even = [rec.axes[0].axis_type for rec in fixed if rec.period % 2 == 0]
    return {"type1_even": even.count(TYPE1), "type2_even": even.count(TYPE2),
            "odd_fixed": len(fixed) - len(even)}


def test_flip_fixed_counts_build_records_only_for_flip_fixed_orbits(monkeypatch):
    import gwbinom.necklaces as necklaces

    for n in range(1, 15):
        for j in range(n + 1):
            records = enumerate_orbits(n, j)
            want = _records_classification(records)
            assert odd_flip_fixed_count(n, j) == want["odd_fixed"], (n, j)
            if n % 2 == 0:
                assert asdict(classify_flip_fixed(n, j)) == want, (n, j)

    # 20 of the 80 orbits of (12, 6) are flip-fixed; the counts build no
    # record and search no word, and the catalog builds no record and
    # searches only the doubled words of those 20, the orbits their mirror
    # words list
    records = enumerate_orbits(12, 6)
    assert len(records) == 80 and sum(rec.flip_fixed for rec in records) == 20
    fixed = [rec.canonical.bitstring() * 2 for rec in records if rec.flip_fixed]
    built, searched = [], []
    real_record = necklaces.OrbitRecord
    monkeypatch.setattr(necklaces, "OrbitRecord",
                        lambda *args: built.append(args) or real_record(*args))

    def searches(frame, event, arg):  # the search is str.find, a C call
        if event == "c_call" and arg.__name__ == "find" and type(arg.__self__) is str:
            searched.append(arg.__self__)

    def profiled(call):
        built.clear()
        searched.clear()
        sys.setprofile(searches)
        try:
            return call()
        finally:
            sys.setprofile(None)

    for count in (classify_flip_fixed, odd_flip_fixed_count):
        profiled(lambda: count(12, 6))
        assert built == [] and searched == [], count
    for classify in (False, True):
        profiled(lambda: orbit_catalog(12, 6, classify=classify))
        assert built == [] and searched == fixed, classify

    # one orbit of any cell, flip-fixed or not: its record searches it
    for rec in (records[0], next(rec for rec in records if not rec.flip_fixed)):
        assert profiled(lambda: orbit_record_of(rotate(rec.canonical, 5))) == rec
        assert len(built) == 1 and searched == [rec.canonical.bitstring() * 2]

    # an odd n is refused before the generator is walked or any word listed
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(necklaces, "_necklaces", no_enumeration)
    monkeypatch.setattr(necklaces, "_flip_fixed_orbits", no_enumeration)
    with pytest.raises(ValueError, match="even n required, got 23"):
        classify_flip_fixed(23, 11)


def test_orbit_catalog_classification():
    cat = orbit_catalog(6, 4, classify=True)
    assert cat["classification"] == {"type1_even": 1, "type2_even": 1, "odd_fixed": 1}
    with pytest.raises(ValueError):
        orbit_catalog(5, 2, classify=True)
