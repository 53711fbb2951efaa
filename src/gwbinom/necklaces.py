"""Necklaces of blue and red beads under rotation, reflection, and color swap.

A necklace is a length-n circular word over {blue, red} with bead 0 at the
top; positions run counterclockwise.  Bead sets are stored as bitmasks
(bit p set = bead p blue), so rotation is a word rotate and the encoding
caps n at the word width of 63 beads.  Only the mask primitives (the
rotations, the orbit steps and the necklace walks) and the word form,
_word (behind Necklace.bitstring) and its inverse _from_word, rely on
that layout; every other relabelling of beads (each reflection r^m f, by
_reflect, the interleave halves, cutting out or splicing in axis beads,
and the run lengths in the partitions module) is a slice or splice of the
word.  On top of the three generators

  * rotate(l, k)     -- positions shift by k mod n,
  * flip(l)          -- reflection through the top bead, p -> (n - p) mod n,
  * color_swap(l)    -- exchange blue and red everywhere,

the module enumerates rotation orbits with their periods, lists the orbits
of a cell that the flip preserves from their mirror words, those fixed by
p -> -p or p -> 1 - p, with the kind, how many the latter fixes, that gives
their symmetry axes' types (type 1 passes between beads, type 2 through at
least one bead) and every flip-fixed count (_flip_fixed_orbits), reads the
axes it prints off one search of the reversed word in the doubled word
(_axes), splits an even-length orbit into its two interleaved half-length
orbits, strips or inserts the pair of beads sitting on a through-beads
axis, and enumerates the twisted orbits in which one group step rotates a
single bead and then swaps the two colors.

Orbits come from one enumerator, _necklaces, the FKM necklace generator
with O(n) state.  It walks a cell's gap sequences, the runs of red beads
before each blue one read from the top bit, with larger gaps ranking
first (Ruskey and Sawada's fixed-density form), and yields each rotation
orbit of the cell once, as its least mask and period, in ascending mask
order.  even_orbit_counts counts the even-period orbits of every cell of
every row up to n from one tally of the Lyndon words of length at most
n by popcount, _lyndon_counts, since each necklace is a power of one
Lyndon word.  The single-cell counts tally the gap walk's periods once,
_periods, which checks that the orbits' sizes add up to C(n, j).  The
twisted orbits are walked by the one orbit walk, _cycle, from the
necklaces' least masks and their one-bead rotations, since two twisted
steps make a two-bead rotation; counting the even ones walks no orbit:
they are the balanced necklaces less the (v v')^(j/d) of odd twisted
length, which _odd_twisted_count lists from their half-words v.  No
enumeration keeps a set of the points it has met.

Enumerations are bounded by the C(n, j) masks of a cell: check_enumeration,
every enumerator's one gate, refuses a non-cell, n beyond the 63-bit encoding
and any cell with more than MAX_MASKS masks before any work starts, and a
walk to n must fit row n's largest cell, (n, n // 2).  Nothing is memoised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations
from math import comb, gcd
from operator import itemgetter, lt

from .arith import (_require_balanced, _require_cell, _require_even, _require_int,
                    _require_positive, mobius)

WORD_BITS = 63
# The largest cell the former 24-bead cap admitted: C(24, 12) = 2,704,156 masks.
# Over 3 fresh processes each (Python 3.11.7, 2-vCPU Intel Xeon KVM guest, peak
# process RSS): enumerate_orbits(24, 12) 0.38-0.39 s in 32 MB; in 15 MB each,
# count_even_twisted_orbits(12) 0.09-0.11 s and even_orbit_counts(24), the tally
# over the 1,465,020 prenecklaces that counts every row up to 24, 0.31-0.40 s.
MAX_MASKS = comb(24, 12)

TYPE1 = 1  # axis missing every bead
TYPE2 = 2  # axis through at least one bead

BLUE = "blue"
RED = "red"


class EnumerationLimitError(ValueError):
    """An orbit enumeration would exceed the encoding or the mask budget."""


def check_enumeration(n: int, j: int) -> None:
    """The one gate of every enumeration: raise ValueError unless (n, j) is
    a cell, then EnumerationLimitError unless its C(n, j) masks fit the
    word width and the MAX_MASKS budget."""
    _require_positive(n, "n")
    _require_cell(n, j)
    if n > WORD_BITS:
        raise EnumerationLimitError(f"n={n} exceeds the hard limit of {WORD_BITS} beads")
    if comb(n, j) > MAX_MASKS:
        raise EnumerationLimitError(
            f"C({n}, {j}) = {comb(n, j)} masks exceeds the enumeration budget of {MAX_MASKS}"
        )


@dataclass(frozen=True, slots=True)
class Necklace:
    """A two-colored necklace: bead count and the bitmask of blue beads."""

    size: int
    blues: int

    def __post_init__(self) -> None:
        _require_int(self.size, self.blues)
        if not 1 <= self.size <= WORD_BITS:
            raise ValueError(f"size must be in [1, {WORD_BITS}], got {self.size}")
        if not 0 <= self.blues < 1 << self.size:
            raise ValueError(f"blues mask {self.blues:#x} out of range for size {self.size}")

    @classmethod
    def from_positions(cls, size: int, positions) -> "Necklace":
        mask = 0
        for p in positions:
            _require_int(p)
            if not 0 <= p < size:
                raise ValueError(f"position {p} out of range for size {size}")
            if mask >> p & 1:
                raise ValueError(f"position {p} given twice")
            mask |= 1 << p
        return cls(size, mask)

    @property
    def j(self) -> int:
        return self.blues.bit_count()

    def blue_positions(self) -> tuple[int, ...]:
        return tuple(p for p, c in enumerate(self.bitstring()) if c == "1")

    def bitstring(self) -> str:
        """Position 0 leftmost, '1' for blue."""
        return _word(self.blues, self.size)


def _word(mask: int, n: int) -> str:
    """The bitstring of the n-bead necklace with blue-bead mask mask: the
    binary digits of mask under a marker bit n, read from bit 0 up."""
    return bin(mask | 1 << n)[:2:-1]


def _from_word(word: str) -> Necklace:
    """The necklace whose bitstring is word."""
    return Necklace(len(word), int(word[::-1], 2))


def _rot_mask(mask: int, n: int, k: int) -> int:
    k %= n
    return ((mask << k) | (mask >> (n - k))) & ((1 << n) - 1)


def rotate(l: Necklace, k: int) -> Necklace:
    """Shift every position by k mod n."""
    _require_int(k)
    return Necklace(l.size, _rot_mask(l.blues, l.size, k))


def flip(l: Necklace) -> Necklace:
    """Reflect through the top bead: p -> (n - p) mod n.  An involution."""
    return _from_word(_reflect(l.bitstring(), 0))


def _reflect(word: str, m: int) -> str:
    """The word of the image under r^m f, p -> (m - p) mod n, for 0 <= m < n:
    bead q of the image is bead (m - q) mod n of word."""
    return word[m::-1] + word[:m:-1]


def color_swap(l: Necklace) -> Necklace:
    """Exchange the colors of all beads.  An involution."""
    return Necklace(l.size, l.blues ^ ((1 << l.size) - 1))


def _twisted_step(n: int):
    """One-bead rotation of n-bit masks followed by the color swap."""
    full = (1 << n) - 1
    return lambda m: (((m << 1) & full) | (m >> (n - 1))) ^ full


def _cycle(start, step) -> list:
    """The orbit of start under a permutation step, walked from start."""
    orbit = [start]
    m = step(start)
    while m != start:
        orbit.append(m)
        m = step(m)
    return orbit


@dataclass(frozen=True, slots=True)
class AxisIndex:
    """A symmetry-axis class of an orbit, named by the reflection exponent m.

    The reflection r^m f fixes the representative; its axis meets the
    circle at bead coordinates m/2 and (m + n)/2, so for even n the axis
    passes through beads exactly when m is even (type 2), and for odd n
    every axis passes through one bead.
    """

    m: int
    axis_type: int


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    """A rotation orbit: canonical necklace, period and axes.

    ``axes`` lists one representative per axis class of the orbit, i.e.
    per orbit of (necklace, axis) pairs under rotation, as _axes reads
    them off the canonical word; the orbit is flip-fixed exactly when
    they are not empty.
    """

    canonical: Necklace
    period: int
    axes: tuple[AxisIndex, ...]

    @property
    def flip_fixed(self) -> bool:
        return bool(self.axes)

    @property
    def size(self) -> int:
        return self.canonical.size

    @property
    def j(self) -> int:
        return self.canonical.j


def _axes(word: str, period: int) -> tuple[AxisIndex, ...]:
    """The axis classes of the orbit of word, of period period, from one
    search of the reversed word, _reflect(word, n - 1), in word + word;
    empty when it misses, as the flip then moves the orbit.  A window i
    holds it exactly when r^(n-1+i) f fixes word.  The fixing reflections
    are r^(m + t*period) f for the least such m, and rotating the word
    shifts every m by 2, so the classes are these m mod 2*period."""
    n = len(word)
    i = (word + word).find(word[::-1])
    if i < 0:
        return ()
    m = (n - 1 + i) % period
    ms = (m,) if n // period % 2 else (m, m + period)
    for m in ms:
        if _reflect(word, m) != word:
            raise RuntimeError(f"reflection m={m} does not fix {word} of period {period}")
    return tuple(AxisIndex(m, TYPE1 if n % 2 == 0 and m % 2 else TYPE2) for m in ms)


def _mirror_words(n: int, j: int):
    """Yield (eps, mask) for each n-bead word of popcount j fixed by f_eps,
    p -> (eps - p) mod n, eps = 0, 1: k of its on-axis beads (2p = eps mod
    n) and (j - k)/2 of its mirror pairs {p, (eps - p) mod n} are blue."""
    for eps in (0, 1):
        axis = [1 << p for p in range(n) if (2 * p - eps) % n == 0]
        pairs = [1 << p | 1 << (eps - p) % n for p in range(n) if p < (eps - p) % n]
        for k in range(j % 2, min(j, len(axis)) + 1, 2):
            for beads in combinations(axis, k):
                for two in combinations(pairs, (j - k) // 2):
                    yield eps, sum(beads) + sum(two)


def _flip_fixed_orbits(n: int, j: int) -> list[tuple[int, int]]:
    """(least, kind) of each (n, j) orbit that the flip fixes, ascending,
    from its mirror words rotated to least, with no walk; kind is how many
    of its two f_1 fixes.  Such an orbit holds n pairs (word, m) with r^m f
    fixing the word; rotating by s makes m into m + 2s, so as many pairs
    have m = 0 as any even m, as many m = 1 as any odd m, and two have
    m < 2: each least mask comes twice, or this raises.  For an odd n (and
    period), rotations reach every m: kind 1.  For an even n, the m fixing
    one word, m0 + t*period mod n, take both parities if the period is
    odd, kind 1, and else m0's, which rotations keep: kind 0, each axis
    through beads (type 2), or 2, each between them (type 1); or this raises."""
    full = (1 << n) - 1
    words = sorted([(min([d >> k & full for k in range(n)]), eps)
                    for eps, w in _mirror_words(n, j) for d in [w | w << n]])
    fixed = [least for least, _ in words[::2]]
    if [least for least, _ in words[1::2]] != fixed or not all(map(lt, fixed, fixed[1:])):
        raise RuntimeError(f"mirror words of ({n}, {j}) do not meet each flip-fixed orbit twice")
    listed = [(least, eps + other) for (least, eps), (_, other) in zip(words[::2], words[1::2])]
    for least, kind in listed:
        period = n // [(least | least << n) >> k & full for k in range(n)].count(least)
        if (kind == 1) != (period % 2 == 1):
            raise RuntimeError(f"the orbit of {_word(least, n)}, of period {period}, has"
                               f" {kind} of its 2 mirror words fixed by f_1")
    return listed


def _orbits(n: int, j: int):
    """Yield (least, word, period, axes, kind) for each rotation orbit of the
    (n, j) cell, ascending, with no OrbitRecord: the gap walk, _necklaces,
    merged with _flip_fixed_orbits, whose orbits alone are searched by _axes
    (252 of the 32,066 at (22, 11)) and have a kind; elsewhere axes is () and
    kind None.  A listed orbit the search misses or the walk never meets raises."""
    listed = iter(_flip_fixed_orbits(n, j))
    want, kind = next(listed, (None, None))
    for least, period in _necklaces(n, j):
        word = _word(least, n)
        if least != want:
            yield least, word, period, (), None
            continue
        axes = _axes(word, period)
        if not axes:
            raise RuntimeError(f"the flip moves the listed orbit of {word}")
        yield least, word, period, axes, kind
        want, kind = next(listed, (None, None))
    if want is not None:
        raise RuntimeError(f"the walk of ({n}, {j}) never met the listed orbit of {_word(want, n)}")


def orbit_record_of(l: Necklace) -> OrbitRecord:
    """Record of the rotation orbit containing l."""
    orbit = _cycle(l.blues, lambda m: _rot_mask(m, l.size, 1))
    least, period = min(orbit), len(orbit)
    return OrbitRecord(Necklace(l.size, least), period, _axes(_word(least, l.size), period))


def axis_distance(rec: OrbitRecord, a: AxisIndex, b: AxisIndex) -> Fraction:
    """Distance between two axis classes in bead units (half-integers allowed).

    Rotating by s beads moves the axis of r^m f to the axis of r^(m+2s) f,
    so the achievable separations are (b.m - a.m + 2*period*t) mod n; the
    distance is the smallest folded value, halved.  Exact arithmetic in
    doubled units throughout.
    """
    from fractions import Fraction

    n = rec.size
    separations = ((b.m - a.m + 2 * rec.period * t) % n for t in range(n))
    return Fraction(min(min(d, n - d) for d in separations), 2)


def _lyndon_counts(n: int) -> list[list[int]]:
    """counts[p][i], the number of Lyndon words of length p with i ones, for
    every p = 0..n, from one loop with no call per word.  Read MSB first,
    each n-bit prenecklace is the first n bits of w w w ... for the Lyndon
    word w of its first p bits, one prenecklace per w of length p <= n; the
    FKM recursion of _necklaces, run over bits, steps between them by its
    successor rule (Ruskey, Savage and Wang, J. Algorithms 13, 1992): drop
    the trailing ones and add one, which gives the next Lyndon word, and
    repeat that word to n bits."""
    # w repeated ceil(n / p) times, cut to its top n bits
    reps = [0] + [((1 << p * -(-n // p)) - 1) // ((1 << p) - 1) for p in range(1, n + 1)]
    cuts = [0] + [p * -(-n // p) - n for p in range(1, n + 1)]
    counts = [[0] * (p + 1) for p in range(n + 1)]
    w, p = 0, 1
    while True:
        counts[p][w.bit_count()] += 1
        m = w * reps[p] >> cuts[p]
        tail = (m ^ (m + 1)).bit_length() - 1  # trailing ones
        if tail == n:
            return counts
        w, p = (m >> tail) + 1, n - tail


def _necklaces(n: int, j: int):
    """Yield (least mask, period) of every rotation orbit of n-bit masks of
    popcount j, ascending by least mask.

    Read MSB first, the least mask is the lexicographically least rotation
    of its word, a necklace.  The FKM recursion grows a word a[1..n] in lex
    order as a prenecklace with Lyndon prefix length p: letter t copies
    a[t - p] or is any larger letter and sets p = t; the word is a
    necklace of period p when p divides n.  Here it runs over the cell's
    gap sequence, the block form of Ruskey and Sawada (SIAM J. Comput. 29,
    1999): g[t] is the number of zeros before the t-th one, j gaps that
    sum to n - j.  A necklace with j >= 1 ones ends in a 1, so its word is
    the j blocks 0^g[t] 1; its least rotation starts at a block, two such
    words compare block by block, and a larger gap is the smaller block.
    So the cell's necklaces, ascending, are the FKM walk over gaps with
    larger gaps ranking first, and a gap Lyndon prefix of length p with
    p | j is a period of n * p / j bits.  g[1] is the largest gap, so gaps
    t + 1 .. j hold at most room[t] = g[1] * (j - t) zeros, which prunes the
    walk; a gap shrunk by one leaves rem[t] + 1 zeros, so backing up needs
    no subtraction.  The last gap takes the zeros left and is kept when it
    does not exceed its copy source.  j = 0 and j = 1 give one necklace
    each.  The walk is a loop with O(n) state.
    """
    zeros = n - j
    if j < 2:
        yield j, n if j else 1
        return
    g = [0] * j  # g[t]: the zeros before blue t; g[0] is never read
    per = [1] * j  # per[t]: Lyndon-prefix length of g[1..t]
    rem = [0] * j  # rem[t]: the zeros left after g[1..t]
    mask = [1] * j  # mask[t]: the word of g[1..t], read MSB first
    # g[1], the largest gap, runs from all the zeros down to its least share
    for top in range(zeros, -(-zeros // j) - 1, -1):
        room = [top * (j - t) for t in range(j)]  # room[t]: most zeros gaps t + 1 .. j hold
        g[1], rem[1] = top, zeros - top
        t = 2
        while True:
            p, r, m = per[t - 1], rem[t - 1], mask[t - 1]
            # first branch: copy g[t - p], or take every zero left if fewer
            while t < j:
                x = g[t - p]
                if x > r:
                    x, p = r, t
                if r - x > room[t]:
                    break
                r -= x
                m = m << x + 1 | 1
                g[t] = x
                per[t] = p
                rem[t] = r
                mask[t] = m
                t += 1
            else:
                # the last gap takes the zeros left, at most its copy source
                x = g[j - p]
                if r <= x:
                    if r < x:
                        p = j
                    if j % p == 0:
                        yield m << r + 1 | 1, n * p // j
            # back up to the last gap that can shrink and still leave room:
            # the next branch there is one zero shorter, leaves rem[t] + 1
            # zeros and starts a new Lyndon prefix
            t -= 1
            while t > 1:
                if g[t] and rem[t] < room[t]:
                    break
                t -= 1
            else:
                break
            g[t] -= 1
            per[t] = t
            rem[t] += 1
            mask[t] = mask[t - 1] << g[t] + 1 | 1
            t += 1


def enumerate_orbits(n: int, j: int) -> tuple[OrbitRecord, ...]:
    """All rotation orbits of necklaces with j blues among n beads,
    sorted by canonical bitmask; _orbits searches only the flip-fixed ones."""
    check_enumeration(n, j)
    return tuple(OrbitRecord(Necklace(n, least), period, axes)
                 for least, _, period, axes, _ in _orbits(n, j))


def _periods(n: int, j: int) -> Counter:
    """How many necklaces of the (n, j) cell have each period, from one
    C-level tally of the gap walk.  The orbit of a necklace of period p has
    p masks, so the tally must add up to the cell's C(n, j) masks."""
    periods = Counter(map(itemgetter(1), _necklaces(n, j)))
    masks = sum(p * count for p, count in periods.items())
    if masks != comb(n, j):
        raise RuntimeError(f"necklace periods add up to {masks} masks, not C({n}, {j})")
    return periods


def count_even_orbits(n: int, j: int) -> int:
    """Number of rotation orbits with even period, from the cell's period
    tally, _periods, which checks the cell's rank."""
    check_enumeration(n, j)
    return sum(count for p, count in _periods(n, j).items() if p % 2 == 0)


def even_orbit_counts(n: int) -> list[list[int]]:
    """rows[k][j], the number of rotation orbits of k-bit masks of popcount
    j with even period, for every k = 0..n, from one walk, _lyndon_counts:
    a k-bead necklace of period p is w^(k/p) for a Lyndon word w of length
    p, whose orbit has p masks, so the Lyndon words weighted by length must
    add up to C(k, j) in every cell with k >= 1, else this raises.  Row 0 is
    the empty necklace, one orbit of odd period one.  The largest cell,
    (n, n // 2), must fit the enumeration budget."""
    check_enumeration(n, n // 2)
    rows = [[0] * (k + 1) for k in range(n + 1)]
    masks = [[0] * (k + 1) for k in range(n + 1)]
    for p, words in enumerate(_lyndon_counts(n)[1:], 1):
        for ones, count in enumerate(words):
            for k in range(p, n + 1, p):
                masks[k][ones * k // p] += p * count
                if p % 2 == 0:
                    rows[k][ones * k // p] += count
    for k in range(1, n + 1):
        for j, total in enumerate(masks[k]):
            if total != comb(k, j):
                raise RuntimeError(f"Lyndon words add up to {total} masks, not C({k}, {j})")
    return rows


def aperiodic_count(n: int, j: int) -> int:
    """Number of full-period rotation orbits, by Moebius inversion:
    (1/n) * sum over l | gcd(n, j) of mu(l) * C(n/l, j/l); the other
    divisors l of n give fractional binomials, which vanish."""
    _require_positive(n, "n")
    _require_cell(n, j)
    g = gcd(n, j)
    total = sum(mobius(l) * comb(n // l, j // l) for l in range(1, g + 1) if g % l == 0)
    q, r = divmod(total, n)
    if r:
        raise RuntimeError(f"inversion sum {total} not divisible by {n}")
    return q


def odd_flip_fixed_count(n: int, j: int) -> int:
    """Number of flip-fixed orbits of odd period, of kind 1 in _flip_fixed_orbits."""
    check_enumeration(n, j)
    return sum(kind == 1 for _, kind in _flip_fixed_orbits(n, j))


def odd_flip_fixed_closed_form(n: int, j: int) -> int:
    """Closed form for the odd-period flip-fixed orbit count.

    Halving both n and j while both are even leaves the count unchanged,
    so with M = min(v2(n), v2(j)) it reduces to a single binomial in the
    half-open cases:

      * v2(j) >  v2(n): C(n/2^(M+1) - 1/2, j/2^(M+1))
      * v2(j) == v2(n): C(n/2^(M+1) - 1/2, j/2^(M+1) - 1/2)
      * v2(j) <  v2(n): 0  (odd period forces an even blue count)

    where the shifted arguments are genuine integers.  j = 0 counts the
    all-red orbit, giving 1.  So: halve n and j while both are even; then
    an odd n gives C((n-1)/2, floor(j/2)) and an even n gives 0.
    """
    _require_positive(n, "n")
    _require_cell(n, j)
    while n % 2 == 0 and j % 2 == 0:
        n, j = n // 2, j // 2
    return comb((n - 1) // 2, j // 2) if n % 2 else 0


@dataclass(frozen=True)
class FlipFixedCounts:
    """Partition of the flip-fixed orbits of an even-size necklace set."""

    type1_even: int
    type2_even: int
    odd_fixed: int


def classify_flip_fixed(n: int, j: int) -> FlipFixedCounts:
    """Counts of flip-fixed orbits, for even n only: even period with a
    type-1 axis, even period with a type-2 axis, and odd period.  An
    even-period orbit's axes share one type and an odd-period one has both,
    so these are the orbits of kind 2, 0 and 1 in the cell's mirror
    listing, _flip_fixed_orbits, which checks that; no walk or search."""
    check_enumeration(n, j)
    _require_even(n, "n")
    return _kind_counts(kind for _, kind in _flip_fixed_orbits(n, j))


def _kind_counts(kinds) -> FlipFixedCounts:
    """classify_flip_fixed's counts from an even-n cell's flip-fixed kinds."""
    tally = Counter(kinds)
    return FlipFixedCounts(tally[2], tally[0], tally[1])


def color_swap_fixed(rec: OrbitRecord) -> bool:
    """True when the color-swapped necklace lies in the same rotation orbit,
    that is when its word is a window of the doubled word."""
    word = rec.canonical.bitstring()
    return color_swap(rec.canonical).bitstring() in word + word


def interleave_parts(l: Necklace) -> tuple[Necklace, Necklace]:
    """The even-position and odd-position beads of an even-size necklace,
    each reindexed to n/2 beads, as an ordered pair (even half first)."""
    _require_even(l.size, "size")
    word = l.bitstring()
    return _from_word(word[0::2]), _from_word(word[1::2])


def interleave_decompose(rec: OrbitRecord) -> tuple[OrbitRecord, OrbitRecord]:
    """Split an even-size orbit into the orbits of its even- and odd-position
    beads, as an unordered pair.

    The pair is independent of the representative: rerooting by two
    rotates both halves, rerooting by one exchanges them.  Returned
    sorted by canonical bitmask.
    """
    even_half, odd_half = interleave_parts(rec.canonical)
    a = orbit_record_of(even_half)
    b = orbit_record_of(odd_half)
    if b.canonical.blues < a.canonical.blues:
        a, b = b, a
    return a, b


def interleave_fiber_size(pair: tuple[OrbitRecord, OrbitRecord]) -> int:
    """Number of orbits with a type-1 axis that interleave to the given pair.

    Only pairs of the form ([l], flip[l]) occur as images; for those the
    count is the period of [l] when [l] is not flip-fixed, (period + 1)/2
    when it is flip-fixed of odd period, and period/2 when flip-fixed of
    even period.  Any other pair has an empty fiber.
    """
    a, b = pair
    if a.size != b.size:
        raise ValueError(f"mismatched sizes {a.size} and {b.size}")
    if orbit_record_of(flip(a.canonical)) != b:
        return 0
    if not a.flip_fixed:
        return a.period
    return (a.period + 1) // 2


def strip_axis_beads(rec: OrbitRecord, axis: AxisIndex) -> OrbitRecord:
    """Remove the two beads sitting on a type-2 axis of an orbit with both
    bead count and blue count even; the result lives on n-2 beads.

    With n and j both even, the two on-axis beads always share a color:
    off-axis beads pair up under the reflection, so the on-axis blues have
    the parity of j.
    """
    n = rec.size
    _require_even(n, "bead count")
    _require_even(rec.j, "blue count")
    if n < 4:
        raise ValueError(f"need at least 4 beads, got {n}")
    if axis.axis_type != TYPE2:
        raise ValueError("a type-2 (through-beads) axis is required")
    l = rec.canonical
    if _reflect(l.bitstring(), axis.m % n) != l.bitstring():
        raise ValueError(f"axis m={axis.m} does not fix the canonical representative")
    # With the on-axis bead m/2 moved to the front, the axis meets beads 0 and n/2.
    word = rotate(l, -(axis.m // 2)).bitstring()
    half = n // 2
    if word[0] != word[half]:
        raise RuntimeError("on-axis beads differ in color; invariant violation")
    return orbit_record_of(_from_word(word[1:half] + word[half + 1:]))


def insert_axis_beads(rec: OrbitRecord, color: str) -> OrbitRecord:
    """Insert two beads of the given color into the two gaps on a type-1
    axis of a flip-fixed orbit, producing a type-2-symmetric orbit on n+2
    beads.  Uses the least-m type-1 axis class (unique in the reduction
    where this map is applied)."""
    if color not in (BLUE, RED):
        raise ValueError(f"color must be {BLUE!r} or {RED!r}, got {color!r}")
    if not rec.flip_fixed:
        raise ValueError("flip-fixed orbit required")
    type1 = [a for a in rec.axes if a.axis_type == TYPE1]
    if not type1:
        raise ValueError("orbit has no between-beads (type-1) axis")
    # The axis of r^m f (m odd) passes between beads (m - 1)/2 and (m + 1)/2,
    # and between the two beads opposite them.
    i = (min(a.m for a in type1) + 1) // 2
    k = i + rec.size // 2
    word = rec.canonical.bitstring()
    bead = "1" if color == BLUE else "0"
    return orbit_record_of(_from_word(word[:i] + bead + word[i:k] + bead + word[k:]))


# ---------------------------------------------------------------------------
# Twisted action: one generator step rotates a bead and then swaps colors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TwistedOrbitRecord:
    """An orbit of the rotate-then-color-swap action on balanced necklaces."""

    canonical: Necklace
    twisted_period: int
    swap_fixed: bool


def _twisted_record(n: int, orbit: list[int]) -> TwistedOrbitRecord:
    canon = Necklace(n, min(orbit))
    # Swapping replaces the twisted orbit by that of the one-bead rotation;
    # squares of the generator are plain two-bead rotations, so this is an
    # involution on twisted orbits.
    swap_fixed = _rot_mask(canon.blues, n, 1) in orbit
    return TwistedOrbitRecord(canon, len(orbit), swap_fixed)


def twisted_orbit_record_of(l: Necklace) -> TwistedOrbitRecord:
    _require_balanced(l.size, l.j)
    return _twisted_record(l.size, _cycle(l.blues, _twisted_step(l.size)))


def _balanced_cell(j: int) -> int:
    """2j, once j >= 1 and the (2j, j) cell fits the enumeration budget."""
    _require_positive(j, "j")
    check_enumeration(2 * j, j)
    return 2 * j


def enumerate_twisted_orbits(j: int) -> tuple[TwistedOrbitRecord, ...]:
    """All twisted orbits of balanced necklaces with j blues among 2j beads,
    sorted by canonical bitmask.

    Two twisted steps make a two-bead rotation, so each twisted orbit is
    walked from a necklace's least mask m or from the one-bead rotation of
    m.  A twisted orbit of odd length is met from one start only.  One of
    even length splits into the points an even and an odd number of steps
    from its least one; they lie in one rotation orbit each, and the walk
    is kept from the start on the least point's side.
    """
    n = _balanced_cell(j)
    step = _twisted_step(n)
    starts = (s for least, _ in _necklaces(n, j) for s in (least, _rot_mask(least, n, 1)))
    orbits = (_cycle(start, step) for start in starts)
    records = (
        _twisted_record(n, orbit)
        for orbit in orbits
        if len(orbit) % 2 or orbit.index(min(orbit)) % 2 == 0
    )
    return tuple(sorted(records, key=lambda rec: rec.canonical.blues))


def swap_action(rec: TwistedOrbitRecord) -> TwistedOrbitRecord:
    """The twisted orbit of the one-bead rotation of the representative."""
    return twisted_orbit_record_of(rotate(rec.canonical, 1))


def _odd_twisted_count(j: int) -> int:
    """O(j), the number of balanced (2j, j) necklaces of odd twisted length
    d, with no walk.  Rotating such a necklace by d swaps its colors, so it
    is (v v')^(j/d) for an odd d | j, with v' the d-bead word v with its
    colors swapped and v v' primitive.  Each rotation of v v' is again one,
    so each d adds the primitive v v' of the 2^d words v, divided by 2d."""
    total = 0
    for d in (d for d in range(1, j + 1, 2) if j % d == 0):
        swap = (1 << d) - 1
        words = (_word(v | (v ^ swap) << d, 2 * d) for v in range(1 << d))
        # primitive: its doubled word holds it only at 0 and 2d
        primitive = sum((w + w).find(w, 1) == 2 * d for w in words)
        q, r = divmod(primitive, 2 * d)
        if r:
            raise RuntimeError(f"{primitive} primitive v v' are not whole {2 * d}-bead necklaces")
        total += q
    return total


def count_even_twisted_orbits(j: int) -> int:
    """Number of twisted orbits of even length, with no orbit walked: such
    an orbit joins a two-bead-rotation half of one necklace with the color
    swap of its other half, so these orbits match one for one the necklaces
    whose twisted length is even: the cell's necklaces, from its period
    tally, _periods, less the O(j) of odd twisted length, _odd_twisted_count.
    A balanced word has even period, so an odd period in the tally raises."""
    n = _balanced_cell(j)
    periods = _periods(n, j)
    if any(p % 2 for p in periods):
        raise RuntimeError(f"odd periods {sorted(periods)} in the balanced ({n}, {j}) cell")
    return sum(periods.values()) - _odd_twisted_count(j)


def count_even_twisted_swap_fixed(j: int) -> int:
    """Number of even-twisted-period orbits fixed by swapping; its parity
    equals the parity of the full even-twisted-period count."""
    return sum(
        1
        for rec in enumerate_twisted_orbits(j)
        if rec.twisted_period % 2 == 0 and rec.swap_fixed
    )


def orbit_catalog(n: int, j: int, classify: bool = False) -> dict:
    """JSON-ready catalog of the rotation orbits of (n, j) necklaces, with
    classify_flip_fixed's counts under "classification" when classify.

    Each orbit's dict is built from the word, period and axes that _orbits
    yields, with no OrbitRecord; only the flip-fixed orbits, 252 of the
    32,066 at (22, 11), are searched, and the kinds _orbits yields for them,
    from its one mirror listing, give the classification.  With classify,
    an odd n is refused before any enumeration or listing."""
    check_enumeration(n, j)
    if classify:
        _require_even(n, "n")
    orbits, kinds = [], []
    for _, word, period, axes, kind in _orbits(n, j):
        if axes:
            kinds.append(kind)
        listed = [{"m": a.m, "type": a.axis_type} for a in axes] if axes else []
        orbits.append({"canonical": word, "period": period, "flip_fixed": bool(axes), "axes": listed})
    out = {"n": n, "j": j, "orbits": orbits}
    if classify:
        out["classification"] = asdict(_kind_counts(kinds))
    return out
