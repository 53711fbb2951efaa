import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwbinom.necklaces import (
    Necklace,
    color_swap,
    color_swap_fixed,
    enumerate_orbits,
    orbit_record_of,
)
from gwbinom.partitions import (
    MarkedCyclicPartition,
    compositions,
    cyclic_composition_classes,
    decode,
    efixed_untwisted_count,
    encode,
    odd_period_composition_class_count,
    partition_period,
)


def neck(n, *positions):
    return Necklace.from_positions(n, positions)


def test_canonicalization_up_to_block_shift():
    assert MarkedCyclicPartition((2, 1, 1, 1, 2, 1, 1, 1)) == MarkedCyclicPartition(
        (1, 1, 2, 1, 1, 1, 2, 1)
    )
    assert MarkedCyclicPartition((6, 4)).runs == (6, 4)
    assert MarkedCyclicPartition((4, 1, 1, 2)).runs == (1, 2, 4, 1)


def test_validation():
    with pytest.raises(ValueError):
        MarkedCyclicPartition((3,))
    with pytest.raises(ValueError):
        MarkedCyclicPartition((3, 0))
    with pytest.raises(ValueError):
        MarkedCyclicPartition(())


@pytest.mark.parametrize("runs", [(1.9, 2.7), ("3", "1"), (True, 1), (2, 1, 1, False)])
def test_validation_rejects_non_int_runs(runs):
    # coercing with int() would truncate (1.9, 2.7) to (1, 2) and parse ("3", "1")
    with pytest.raises(TypeError, match="int required"):
        MarkedCyclicPartition(runs)
    assert MarkedCyclicPartition([3, 1]).runs == (3, 1)


def test_encode_run_examples():
    # ten-bead necklaces with four blues and their run encodings
    assert encode(orbit_record_of(neck(10, 1, 2, 3, 4))) == MarkedCyclicPartition((6, 4))
    assert encode(orbit_record_of(neck(10, 1, 4, 6, 9))) == MarkedCyclicPartition(
        (2, 1, 1, 1, 2, 1, 1, 1)
    )
    assert encode(orbit_record_of(neck(10, 0, 2, 3, 5))) == MarkedCyclicPartition(
        (1, 1, 4, 1, 1, 2)
    )


def test_encode_totals():
    rec = orbit_record_of(neck(10, 1, 2, 3, 4))
    p = encode(rec)
    assert p.total == 10
    assert p.unmarked_total == 4
    assert p.marked_total == 6


def test_encode_rejects_monochrome():
    with pytest.raises(ValueError):
        encode(orbit_record_of(neck(5)))
    with pytest.raises(ValueError):
        encode(orbit_record_of(neck(5, 0, 1, 2, 3, 4)))


def test_decode_inverts_encode():
    for n in range(2, 15):
        for j in range(1, n):
            for rec in enumerate_orbits(n, j):
                assert decode(encode(rec)) == rec


@st.composite
def two_colored(draw, max_size=63):
    n = draw(st.integers(2, max_size))
    return Necklace(n, draw(st.integers(1, (1 << n) - 2)))


@given(two_colored())
def test_decode_inverts_encode_up_to_63_beads(l):
    rec = orbit_record_of(l)
    assert decode(encode(rec)) == rec


def test_partition_period_examples():
    assert partition_period(MarkedCyclicPartition((6, 4))) == 2
    assert partition_period(MarkedCyclicPartition((2, 1, 1, 1, 2, 1, 1, 1))) == 4
    assert partition_period(MarkedCyclicPartition((1, 1, 4, 1, 1, 2))) == 6


def test_partition_period_matches_entry_rotation_orbit():
    # marks pin red runs to even offsets, so the entry-unit orbit of the
    # marked sequence has exactly twice the block-orbit size
    for runs in [(6, 4), (1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 3, 4, 1, 2, 3, 4)]:
        p = MarkedCyclicPartition(runs)
        marked_seq = tuple((r, i % 2 == 0) for i, r in enumerate(p.runs))
        orbit = {marked_seq[i:] + marked_seq[:i] for i in range(len(marked_seq))}
        assert partition_period(p) == len(orbit)


def test_color_swap_exchanges_markings():
    # encoding the color-swapped orbit block-rotates the runs by half a block
    for n in range(2, 13):
        for j in range(1, n):
            for rec in enumerate_orbits(n, j):
                p = encode(rec).runs
                swapped = encode(orbit_record_of(color_swap(rec.canonical))).runs
                exchanged = p[1:] + p[:1]
                classes = {exchanged[i:] + exchanged[:i] for i in range(0, len(p), 2)}
                assert swapped in classes


def test_render_and_json():
    p = MarkedCyclicPartition((6, 4))
    assert p.render() == "(6' 4)"
    assert p.to_json() == {"runs": [6, 4], "marked": [True, False]}


def test_composition_counts():
    for j in range(1, 12):
        assert sum(1 for _ in compositions(j)) == 2 ** (j - 1)


def test_cyclic_composition_class_equation():
    # sum of d * (number of classes of period d) recovers the composition count
    for j in range(1, 15):
        classes = cyclic_composition_classes(j)
        assert sum(period for _, period in classes) == 2 ** (j - 1)


def test_cyclic_composition_small():
    assert cyclic_composition_classes(1) == [((1,), 1)]
    assert cyclic_composition_classes(2) == [((1, 1), 1), ((2,), 1)]
    assert sorted(p for _, p in cyclic_composition_classes(3)) == [1, 1, 2]


def test_efixed_count_examples():
    assert efixed_untwisted_count(1) == 1


def test_efixed_total_even_for_larger_j():
    for j in range(2, 9):
        assert efixed_untwisted_count(j) % 2 == 0


def test_bijection_with_odd_period_composition_classes():
    # swap-fixed rotation orbits of balanced necklaces correspond to cyclic
    # composition classes of odd period, computed on both sides independently
    for j in range(1, 9):
        assert efixed_untwisted_count(j) == odd_period_composition_class_count(j)


def test_efixed_matches_direct_scan():
    for j in range(1, 7):
        direct = sum(1 for rec in enumerate_orbits(2 * j, j) if color_swap_fixed(rec))
        assert efixed_untwisted_count(j) == direct
