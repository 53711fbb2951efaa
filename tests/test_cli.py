import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from conftest import script_entry
from hypothesis import given
from hypothesis import strategies as st

from gwbinom import cli
from gwbinom.cli import main
from gwbinom.coefficients import (
    EnrichedCoefficient,
    _triangle_json,
    triangle_rows,
    triangle_to_json,
    untwisted_closed,
)
from gwbinom.gw import NONSQUARE_UNIT, ONE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_untwisted(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "8", "--j", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "55+u"
    assert lines[1] == "rank=56 disc=nonsquare"


def test_coeff_twisted(capsys):
    code, out, _ = run(capsys, "coeff", "--twisted", "--j", "4")
    assert code == 0
    assert out.splitlines()[0] == "69+u"


def test_coeff_with_oracle(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "4", "--j", "1", "--oracle")
    assert code == 0
    assert "oracle=3+u agree=yes" in out


def test_coeff_json(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "8", "--j", "3", "--oracle", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"]["display"] == "55+u"
    assert blob["value"]["rank"] == 56
    assert blob["oracle"]["display"] == "55+u"
    assert blob["agree"] is True


def test_coeff_csv(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "8", "--j", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,j,twisted,method,rank,disc,display"
    assert lines[1] == "8,3,False,closed,56,nonsquare,55+u"


def test_coeff_usage_errors(capsys):
    code, _, err = run(capsys, "coeff", "--n", "3", "--j", "5")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "coeff", "--j", "2")
    assert code == 2
    code, _, err = run(capsys, "coeff", "--twisted", "--n", "5", "--j", "4")
    assert code == 2


def test_triangle_text_golden(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "9")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows[2] == ["1", "1+u", "1"]
    assert rows[4] == ["1", "3+u", "6", "3+u", "1"]
    assert rows[6] == ["1", "5+u", "15", "20", "15", "5+u", "1"]
    assert rows[8] == ["1", "7+u", "28", "55+u", "70", "55+u", "28", "7+u", "1"]


def test_triangle_single_row(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "1")
    assert code == 0
    assert out == "1\n"


def test_triangle_json_roundtrip(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "7", "--format", "json")
    assert code == 0
    table = [[untwisted_closed(n, j) for j in range(n + 1)] for n in range(7)]
    assert json.loads(out) == triangle_to_json(table)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_triangle_command_builds_no_coefficient(capsys, monkeypatch, fmt):
    # the command renders from the class rows, with no per-cell wrapper
    made = []
    real_init = EnrichedCoefficient.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(EnrichedCoefficient, "__init__", counted)
    code, out, _ = run(capsys, "triangle", "--rows", "40", "--format", fmt)
    assert code == 0 and out
    assert made == []
    untwisted_closed(2, 1)
    assert len(made) == 1  # the patch does count


def test_triangle_json_renders_each_class_once(capsys, monkeypatch):
    # the mirrored half shares the walked half's classes and their renderings:
    # one gw_to_json call per cell j <= n // 2, 420 over 40 rows
    import gwbinom.coefficients as coefficients

    calls = []
    real = coefficients.gw_to_json
    monkeypatch.setattr(coefficients, "gw_to_json", lambda x: calls.append(x) or real(x))
    code, _, _ = run(capsys, "triangle", "--rows", "40", "--format", "json")
    assert code == 0
    assert len(calls) == sum(n // 2 + 1 for n in range(40)) == 420


def test_triangle_to_json_takes_a_table_built_cell_by_cell():
    # cells from untwisted_closed share no GWElem, so every cell is rendered
    table = [[untwisted_closed(n, j) for j in range(n + 1)] for n in range(60)]
    for rows in range(1, 61):
        assert triangle_to_json(table[:rows]) == _triangle_json(triangle_rows(rows)), rows
    # a cell past its row's end mirrors no other cell, though row[n - j] is itself
    row = [EnrichedCoefficient(0, j, False, v, "closed")
           for j, v in enumerate([ONE, NONSQUARE_UNIT])]
    assert [c["display"] for c in triangle_to_json([row])["triangle"][0]] == ["1", "u"]


def test_triangle_to_json_matches_the_command_bytes(capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "300", "--format", "json")
    assert code == 0
    table = [[untwisted_closed(n, j) for j in range(n + 1)] for n in range(300)]
    assert out == json.dumps(triangle_to_json(table), indent=2) + "\n"


def test_triangle_to_json_refuses_a_cell_out_of_place():
    table = [[untwisted_closed(n, j) for j in range(n + 1)] for n in range(6)]
    table[4][1], table[4][2] = table[4][2], table[4][1]
    with pytest.raises(ValueError, match=r"cell \(n=4, j=2\) found at row 4, position 1"):
        triangle_to_json(table)
    table[4][1], table[4][2] = table[4][2], table[4][1]
    table[3], table[5] = table[5], table[3]
    with pytest.raises(ValueError, match="found at row 3"):
        triangle_to_json(table)


# strings that look like the seam between two dicts of a run once encoded
_SEAMS = st.sampled_from(["}", "{", '",', "\n", "},\n  {", '"},\n    {"', "}\n{"])
_TEXT = (st.text(st.sampled_from('az"\\{}[]:, \n\t\x00\x1f\x7fé€\u2028😀') | st.characters(),
                 max_size=6)
         | st.builds(str.__add__, st.text("a{}", max_size=2), _SEAMS))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
            | st.floats() | st.sampled_from([1e16, 1e300, 5e-324, -0.0, 1.5e-7]) | _TEXT)
# a run: two or more non-empty dicts of scalars and empty containers
_RUN = st.lists(st.dictionaries(_TEXT, _SCALARS | st.sampled_from([[], {}, ()]),
                                min_size=1, max_size=3), min_size=2, max_size=3)


def _segments(kids):
    # a list of runs, each next to empty dicts, nested trees and scalars
    segment = _RUN | st.lists(kids | st.just({}), max_size=2)
    return st.lists(segment, max_size=4).map(lambda segments: sum(segments, []))


_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | _segments(kids)
                  | st.dictionaries(_TEXT, kids, max_size=4) | st.tuples(kids, kids)),
    max_leaves=30,
)


def _nest(tree, depth: int, run: list):
    # each list level holds a run after the tree, so runs sit at every indent
    for level in range(depth):
        tree = [tree, *run] if level % 2 else {"k": tree}
    return tree


@pytest.mark.parametrize("c_encoder", [cli.c_make_encoder, None], ids=["c", "fallback"])
@given(st.builds(_nest, _TREES, st.integers(0, 40), _RUN | st.just([])))
def test_chunks_are_indent_2_json(c_encoder, tree):
    # floats take exponent forms, nan and inf; strings carry quotes, braces,
    # newlines, control and non-ASCII characters, and the seams of a run;
    # containers nest and are empty; lists hold runs of flat dicts
    with mock.patch.object(cli, "c_make_encoder", c_encoder):
        assert "".join(cli._chunks(tree)) == json.dumps(tree, indent=2)


class _Dict(dict):
    pass


_FLAT = [{"a": 1, "b": "x}"}, {"a": [], "b": {}}, {"c": None, "d": -0.5}]
# catalog-shaped orbits: a flat one holds an empty "axes" list, a nested one axis dicts
_ORBIT = {"canonical": "0011", "period": 4, "flip_fixed": False, "axes": []}
_FIXED = {"canonical": "0101", "period": 2, "flip_fixed": True, "axes": [{"m": 1, "type": 1}]}


@pytest.mark.parametrize("c_encoder", [cli.c_make_encoder, None], ids=["c", "fallback"])
@pytest.mark.parametrize("items", [
    _FLAT,  # one whole run
    _FLAT + [{"a": {"b": 1}}],  # a run, then a nested dict only the last item shows
    _FLAT[:1] + [_Dict(a=1)] + _FLAT[1:],  # a dict subclass inside a run
    tuple(_FLAT),  # a tuple of run dicts
    [_FIXED, _ORBIT, _ORBIT],  # a nested dict first
    [_ORBIT, _FIXED, _FIXED, _ORBIT],  # two nested dicts in a row
    [_FIXED, _ORBIT, _FIXED],  # one flat dict between two nested ones
    (_ORBIT, _FIXED, _ORBIT),  # a tuple cut by a nested dict
    [_FLAT, _FLAT],  # lists, as the triangle's rows: cut at every item
    [_FLAT[0], {}, _FLAT[1]],  # an empty dict between two flat ones
], ids=["whole-run", "nested-last", "dict-subclass", "tuple",
        "nested-first", "nested-pair", "flat-between", "tuple-cut",
        "row-lists", "empty-between"])
def test_chunks_of_a_list_of_flat_dicts(c_encoder, items):
    with mock.patch.object(cli, "c_make_encoder", c_encoder):
        for tree in (items, {"k": items}, [[items, 1]]):
            assert "".join(cli._chunks(tree)) == json.dumps(tree, indent=2)


def test_chunks_make_no_call_per_run_item():
    # k flat orbits, one nested, k more: the runs are found by C-level
    # passes, so the Python calls do not grow with k
    def calls(k):
        tree = {"k": [_ORBIT] * k + [_FIXED] + [_ORBIT] * k}
        made = 0

        def count(frame, event, arg):
            nonlocal made
            made += event == "call"

        sys.setprofile(count)
        try:
            for _ in cli._chunks(tree):
                pass
        finally:
            sys.setprofile(None)
        return made

    # the collector stays off while counting: a collection inside the loop
    # runs the gc callbacks of other libraries, which count as calls
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert calls(100) == calls(1000)
    finally:
        if enabled:
            gc.enable()


def test_triangle_csv_row_count(capsys):
    rows = 9
    code, out, _ = run(capsys, "triangle", "--rows", str(rows), "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[-1] == ""  # trailing LF
    assert len(lines) - 2 == rows * (rows + 1) // 2  # header + cells


def test_twisted_sequence(capsys):
    code, out, _ = run(capsys, "twisted", "--max-j", "8")
    assert code == 0
    values = [line.split("\t")[1] for line in out.splitlines()]
    assert values == ["2", "5+u", "20", "69+u", "252", "924", "3432", "12869+u"]


def test_twisted_sequence_with_oracle(capsys):
    code, out, _ = run(capsys, "twisted", "--max-j", "4", "--oracle")
    assert code == 0
    assert all("agree=yes" in line for line in out.splitlines())


def test_necklaces_json_catalog(capsys):
    code, out, _ = run(capsys, "necklaces", "--n", "4", "--j", "2")
    assert code == 0
    cat = json.loads(out)
    assert [o["period"] for o in cat["orbits"]] == [4, 2]
    code, out, _ = run(capsys, "necklaces", "--n", "5", "--j", "0")
    cat = json.loads(out)
    assert len(cat["orbits"]) == 1 and cat["orbits"][0]["period"] == 1


def test_necklaces_classify(capsys):
    code, out, _ = run(capsys, "necklaces", "--n", "6", "--j", "4", "--classify")
    assert code == 0
    cat = json.loads(out)
    assert cat["classification"] == {"type1_even": 1, "type2_even": 1, "odd_fixed": 1}
    both = [o for o in cat["orbits"] if {a["type"] for a in o["axes"]} == {1, 2}]
    assert len(both) == 1 and both[0]["period"] == 3


def test_necklaces_classify_odd_n_is_usage_error(capsys):
    code, _, err = run(capsys, "necklaces", "--n", "5", "--j", "2", "--classify")
    assert code == 2 and "error" in err


def test_necklaces_classify_odd_n_fails_before_enumerating(capsys, monkeypatch):
    # C(23, 11) = 1,352,078 masks fit the budget; the odd n alone is refused
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._flip_fixed_orbits", no_enumeration)
    code, out, err = run(capsys, "necklaces", "--n", "23", "--j", "11", "--classify")
    assert (code, out, err) == (2, "", "error: even n required, got 23\n")


def test_necklaces_text(capsys):
    code, out, _ = run(capsys, "necklaces", "--n", "4", "--j", "2", "--format", "text")
    assert code == 0
    assert "orbits of (n=4, j=2): 2" in out


def test_necklaces_limit_breach(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._flip_fixed_orbits", no_enumeration)
    code, _, err = run(capsys, "necklaces", "--n", "26", "--j", "13")
    assert code == 2 and "enumeration budget" in err


def test_necklaces_limit_at_hard_cap_names_only_the_hard_limit(capsys, monkeypatch):
    # (64, 1) has only 64 masks: the bead cap alone refuses it, before the
    # mirror listing builds its n^2 bits of pair masks
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._flip_fixed_orbits", no_enumeration)
    code, _, err = run(capsys, "necklaces", "--n", "64", "--j", "1")
    assert code == 2
    assert "hard limit of 63 beads" in err
    assert "GWBINOM_MAX_N" not in err


def test_twisted_oracle_over_budget_fails_before_enumerating(capsys, monkeypatch):
    def no_enumeration(n, j):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    code, out, err = run(capsys, "twisted", "--max-j", "13", "--oracle")
    assert code == 2 and out == ""
    assert "enumeration budget" in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ("coeff", "--n", "20000", "--j", "10000"),
    ("coeff", "--twisted", "--j", "8000"),
    ("twisted", "--max-j", "8000"),
    # a j past n / 2 is refused like its mirror n - j
    ("coeff", "--n", "20000", "--j", "12000"),
    # C(n, k) >= 2^k refuses this one without computing the binomial
    ("coeff", "--n", "100000000", "--j", "50000000"),
])
def test_value_too_long_to_print_fails_before_output(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_triangle_rows_beyond_budget_fail_before_output(capsys, fmt):
    # C(999, 499) has 300 digits, so no triangle within MAX_ROWS meets the
    # int-string limit; 14293 rows is the first it would refuse by digits
    for rows in ("1001", "14293", "15000", "20000"):
        code, out, err = run(capsys, "triangle", "--rows", rows, "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: {rows} rows exceed the triangle budget of 1000 (MAX_ROWS)\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_twisted_max_j_beyond_budget_fails_before_output(capsys, monkeypatch, fmt):
    def no_cell(j):
        raise AssertionError("sequence started")

    monkeypatch.setattr("gwbinom.coefficients.twisted_closed", no_cell)
    code, out, err = run(capsys, "twisted", "--max-j", "4001", "--format", fmt)
    assert code == 2 and out == ""
    assert "budget of 4000 (MAX_TWISTED_J)" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "8", "--twisted-max-j", "4")
    assert code == 0
    assert "VERIFY PASS" in out


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--twisted-max-j", "0")
    assert code == 0


def test_verify_parallel_jobs(capsys):
    # twisted j = 4 is past max_n = 6: the one walk runs to 8 beads, serially
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--twisted-max-j", "4", "--jobs", "2")
    assert code == 0
    assert "VERIFY PASS" in out


def test_verify_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--max-n", "2", "--twisted-max-j", "1",
                             "--jobs", jobs)
        assert code == 2 and "--jobs" in err and out == ""


@pytest.mark.parametrize("argv, option", [
    (("--max-n", "0"), "--max-n must be at least 1, got 0"),
    (("--twisted-max-j", "-1"), "--twisted-max-j must be at least 0, got -1"),
])
def test_verify_sizes_out_of_range_name_their_option(capsys, argv, option):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option}\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--twisted-max-j", "2",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert all("seconds" in cell for cell in blob["cells"])


def test_verify_divergence_exit_code(capsys, monkeypatch):
    import gwbinom.coefficients as coefficients
    from gwbinom.gw import GWElem, gw_display

    real = coefficients.untwisted_closed

    def corrupted(n, j):
        if (n, j) == (4, 1):
            return real(4, 2)
        return real(n, j)

    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "untwisted_closed", corrupted)
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--twisted-max-j", "1")
    assert code == 1
    assert "DIVERGENCE" in out

    # each route of each family in turn is off by u - 1 on one cell, and the
    # divergence line names that cell, shows that route's wrong value and
    # ends with the cell's even-orbit count and correction parity
    def off_on(cell, route):
        def off(n, j, even):
            value = route(n, j, even)
            return value + GWElem(0, 1) if (n, j) == cell else value
        return off

    for twisted, cell, right, even, parity in (
            (False, (6, 3), real(6, 3).value, 4, 0),
            (True, (8, 4), coefficients.twisted_closed(4).value, 9, 1)):
        table = coefficients.ROUTES[twisted]
        wrong = gw_display(right + GWElem(0, 1))
        for name, _ in table:
            patched = tuple((k, off_on(cell, r) if k == name else r) for k, r in table)
            with monkeypatch.context() as patch:
                patch.setitem(coefficients.ROUTES, twisted, patched)
                code, out, _ = run(capsys, "verify", "--max-n", "6", "--twisted-max-j", "4")
            assert code == 1, name
            shown = " ".join(f"{k}={wrong if k == name else gw_display(right)}" for k, _ in table)
            kind = "twisted" if twisted else "untwisted"
            line = f"DIVERGENCE at {kind} (n={cell[0]}, j={cell[1]}): {shown} match=False"
            bad = next(row for row in out.splitlines() if row.startswith("DIVERGENCE"))
            assert bad.startswith(line), (name, out)
            assert bad.endswith(f" even_orbits={even} correction_parity={parity}"), (name, out)


def test_q_flag(capsys):
    code, _, err = run(capsys, "--q", "8", "triangle", "--rows", "2")
    assert code == 2 and "odd" in err
    for q in ("-3", "1", "15"):
        code, out, err = run(capsys, "--q", q, "triangle", "--rows", "2")
        assert code == 2 and out == "" and "odd prime power" in err
    for q in ("3", "9", "25"):
        code, out, _ = run(capsys, "--q", q, "triangle", "--rows", "2")
        assert code == 0
    # a large prime would cost sqrt(q) trial divisions, so q is capped first;
    # 9999999967 is the largest prime below the cap of 10^10
    code, out, err = run(capsys, "--q", "100000000000031", "triangle", "--rows", "2")
    assert code == 2 and out == "" and "at most 10000000000 (MAX_Q)" in err
    code, out, _ = run(capsys, "--q", "9999999967", "triangle", "--rows", "2")
    assert code == 0


def test_q_flag_factors_a_prime_once(capsys, monkeypatch):
    # the power check reuses the least prime factor instead of proving it
    # prime again by a second trial division
    import gwbinom.arith as arith
    import gwbinom.cli as cli

    calls = []

    def counted(m):
        calls.append(m)
        return factor(m)

    factor = arith._smallest_factor
    monkeypatch.setattr(arith, "_smallest_factor", counted)
    monkeypatch.setattr(cli, "_smallest_factor", counted)
    code, out, _ = run(capsys, "--q", "9999999967", "triangle", "--rows", "2")
    assert code == 0 and out
    assert calls == [9999999967]


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_determinism(capsys):
    first = run(capsys, "necklaces", "--n", "8", "--j", "4", "--classify")
    second = run(capsys, "necklaces", "--n", "8", "--j", "4", "--classify")
    assert first == second
    first = run(capsys, "triangle", "--rows", "9", "--format", "json")
    second = run(capsys, "triangle", "--rows", "9", "--format", "json")
    assert first == second


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gwbinom", "coeff", "--n", "2", "--j", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1+u"


def test_cli_import_leaves_out_the_process_pool():
    # no command starts a process pool; its imports would cost every run
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, gwbinom.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs one entry with the given arguments: a module as `python -m` runs it, or
# a "module:function" as the console script calls it.  Then reports on a last
# stderr line whether the cyclic collector was off with the start-up objects
# frozen, and which modules were loaded, and exits with the entry's code.
_MODULES_LOADED = """
import gc, importlib, runpy, sys
entry = sys.argv.pop(1)
try:
    if ":" in entry:
        module, function = entry.split(":")
        sys.exit(getattr(importlib.import_module(module), function)())
    runpy.run_module(entry, run_name="__main__", alter_sys=True)
finally:
    print(not gc.isenabled() and gc.get_freeze_count() > 0, *sorted(sys.modules), file=sys.stderr)
"""
_WATCHED = {"gwbinom.coefficients", "gwbinom.gw", "gwbinom.necklaces", "fractions", "csv"}
_CELLS = {"gwbinom.coefficients", "gwbinom.gw"}

# each command, and the watched modules it loads
_COMMAND_MODULES = [
    (["--help"], set()),
    (["coeff", "--n", "8", "--j", "3"], _CELLS),
    (["coeff", "--j", "3", "--twisted", "--format", "json"], _CELLS),
    (["coeff", "--n", "8", "--j", "3", "--format", "csv"], _CELLS | {"csv"}),
    (["coeff", "--n", "8", "--j", "3", "--oracle"], _CELLS | {"gwbinom.necklaces"}),
    (["triangle", "--rows", "6", "--format", "csv"], _CELLS | {"csv"}),
    (["triangle", "--rows", "6", "--format", "json"], _CELLS),
    (["twisted", "--max-j", "4"], _CELLS),
    (["twisted", "--max-j", "4", "--oracle"], _CELLS | {"gwbinom.necklaces"}),
    (["necklaces", "--n", "8", "--j", "4", "--classify"], {"gwbinom.necklaces"}),
    (["necklaces", "--n", "8", "--j", "4", "--format", "csv"], {"gwbinom.necklaces", "csv"}),
    (["verify", "--max-n", "4", "--twisted-max-j", "2"],
     _CELLS | {"gwbinom.necklaces", "fractions"}),
]


@pytest.mark.parametrize("argv, loaded", _COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in _COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, loaded):
    # a module a command does not call costs its import on every run
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _MODULES_LOADED, "gwbinom", *argv],
                          capture_output=True, text=True, env=env)
    collector_off, *modules = proc.stderr.splitlines()[-1].split()
    assert proc.returncode == 0 and collector_off == "True", proc.stderr
    assert _WATCHED.intersection(modules) == loaded


_ENTRY_COMMANDS = [["coeff", "--n", "8", "--j", "3"],
                   ["necklaces", "--n", "8", "--j", "4", "--classify", "--format", "json"]]


@pytest.mark.parametrize("argv", _ENTRY_COMMANDS, ids=" ".join)
def test_every_entry_runs_the_one_start_up(argv):
    # the console script, python -m gwbinom and python -m gwbinom.cli each
    # start in cli.run, so they print the same bytes with the collector off
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = []
    for entry in (script_entry(), "gwbinom", "gwbinom.cli"):
        proc = subprocess.run([sys.executable, "-c", _MODULES_LOADED, entry, *argv],
                              capture_output=True, env=env)
        *err, probe = proc.stderr.splitlines(keepends=True)
        collector_off, *modules = probe.decode().split()
        assert collector_off == "True", (entry, proc.stderr)
        runs.append((proc.returncode, proc.stdout, b"".join(err), _WATCHED.intersection(modules)))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1:] == runs[:1] * 2


def test_main_leaves_the_collector_alone(capsys):
    # every entry runs cli.run, which freezes and turns off the collector; main
    # leaves it alone, as it runs in tests, demos and the benchmark's traced passes too
    import gc

    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["necklaces", "--n", "8", "--j", "4"]) == 0
    assert main(["triangle", "--rows", "6"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_closed_stdout_exits_141_without_traceback():
    # 9 MB of JSON outgrows any pipe buffer, so the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gwbinom", "triangle", "--rows", "300", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
