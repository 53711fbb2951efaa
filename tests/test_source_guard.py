"""The package reads no environment knob, keeps no unbounded memo or
visited-point set, lays out beads as mask bits and states its integer,
cell, balance and parity rules in one module each, re-exports nothing,
defines no top-level name in two modules, defines no name that only tests
name, raises no RuntimeError that no test names, has one start-up that
every entry calls, and has no check that python -O strips or turns off."""

import ast
import re
import sys
from pathlib import Path

from conftest import script_entry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gwbinom"
FORBIDDEN = re.compile(r"os\.environ|getenv|functools\.cache|from functools import .*\bcache\b|lru_cache")
BEAD_LAYOUT = re.compile(r"<<|>>|\.blues\b")
VISITED_SET = re.compile(r"\bset\(\)")
# a hand-written bool test, or a "positive" ValueError not about a CLI option
INT_RULE = re.compile(r'isinstance\([^)]*\bbool\b|ValueError\(f"positive '
                      r'|ValueError\(f?"(?!--)[^"]*must be positive')
# a hand-written cell, balance or parity ValueError not about a CLI option
CELL_RULES = re.compile(r'ValueError\(f?"(?!--)[^"]*(0 <= j <= n|n = 2j|\b(even|balanced)\b[^"]*required)')


def _hits(pattern, exempt=()):
    return [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in exempt
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_env_knobs_or_memo_caches():
    assert _hits(FORBIDDEN) == []


def test_no_visited_point_sets():
    # enumerators yield each orbit once from a generator with O(n) state;
    # a set of the points met would grow with the C(n, j) masks
    assert _hits(VISITED_SET) == []


def test_bead_layout_stays_in_necklaces():
    # outside necklaces.py a necklace is handled as its word, never as bits
    assert _hits(BEAD_LAYOUT, exempt={"necklaces.py"}) == []


def test_int_rule_stays_in_arith():
    # "an int, not a bool, at least 1" is written once, in arith.py: a hand
    # copy elsewhere can drop its bool half and let True pass for 1
    assert _hits(INT_RULE, exempt={"arith.py"}) == []
    hits = [INT_RULE.search(line) is not None for line in (
        'raise ValueError(f"degree must be positive, got {n}")',
        'raise ValueError("size must be positive")',
        'raise ValueError(f"--max-j must be positive, got {args.max_j}")',
    )]
    assert hits == [True, True, False]


def test_cell_balance_and_parity_rules_stay_in_arith():
    # "0 <= j <= n", "n = 2j" and "even" are each written once, in arith.py,
    # so every family and layout that takes a cell refuses it the same way
    assert _hits(CELL_RULES, exempt={"arith.py"}) == []
    hits = [CELL_RULES.search(line) is not None for line in (
        'raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")',
        'raise ValueError(f"even size required, got {n}")',
        'raise ValueError(f"even bead and blue counts required, got n={n}, j={j}")',
        'raise ValueError(f"twisted coefficients need n = 2j, got n={n}, j={j}")',
        'raise ValueError(f"balanced necklace required, got j={l.j} on {l.size} beads")',
        'raise ValueError(f"--twisted requires n = 2j, got n={args.n}, j={args.j}")',
        'raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")',
    )]
    assert hits == [True, True, True, True, True, False, False]


def _with_function(node, func=None):
    """Each node of the tree, with the name of the function enclosing it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    yield node, func
    for child in ast.iter_child_nodes(node):
        yield from _with_function(child, func)


def _stdout_writes(tree):
    """(enclosing function, line) of each print( not given file=sys.stderr,
    and of each sys.stdout.write or sys.stdout.writelines."""
    hits = []
    for node, func in _with_function(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print" \
                and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                            for k in node.keywords):
            hits.append((func, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr in ("write", "writelines") \
                and ast.unparse(node.value) == "sys.stdout":
            hits.append((func, node.lineno))
    return hits


def test_only_emit_writes_stdout():
    # one renderer: JSON streams in pieces only if nothing else writes
    # stdout between them
    stray = [f"{path.name}:{line} in {func}"
             for path in sorted(SRC.glob("*.py"))
             for func, line in _stdout_writes(ast.parse(path.read_text()))
             if (path.name, func) != ("cli.py", "_emit")]
    assert stray == []
    assert _stdout_writes(ast.parse("def f():\n    print(1, file=sys.stdout)\n"
                                    "sys.stdout.write('x')\nprint(2, file=sys.stderr)\n")) \
        == [("f", 2), (None, 3)]


def _debug_only(tree):
    """Lines of each assert statement, __debug__ and sys.flags: python -O
    strips the first and changes what the other two read."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__"
                  or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.flags"
                  or isinstance(node, ast.ImportFrom) and node.module == "sys"
                  and any(alias.name == "flags" for alias in node.names))


def test_no_check_depends_on_the_optimize_flag():
    # every invariant check still runs under python -O
    stray = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _debug_only(ast.parse(path.read_text()))]
    assert stray == []
    assert _debug_only(ast.parse("assert x\nif __debug__:\n    y = sys.flags.optimize\n"
                                 "from sys import flags\nz = x.flags\n")) == [1, 2, 3, 4]


def test_package_init_is_only_its_docstring():
    # each name is imported from the module that defines it, by one path
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


def _top_level_names(tree):
    """Names a module binds at its top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_no_name_is_defined_in_two_modules():
    # one definition per rule: a name defined in two modules is two rules
    # that a reader, or a monkeypatch, can confuse
    seen, twice = {}, []
    for path in sorted(SRC.glob("*.py")):
        for name in _top_level_names(ast.parse(path.read_text())):
            if name in seen and seen[name] != path.name:
                twice.append(f"{name}: {seen[name]} and {path.name}")
            seen.setdefault(name, path.name)
    assert twice == []
    assert _top_level_names(ast.parse("def f(): pass\nclass C: pass\nX, Y = 1, 2\nZ: int = 3\n")) \
        == ["f", "C", "X", "Y", "Z"]


# paper lemmas that only tests check until verify checks them too
TEST_ONLY_LEMMAS = ["half_central_hyperbolic", "odd_flip_fixed_closed_form"]


def _named(path, text) -> set[str]:
    """The names a file uses: in Python, each identifier its AST reads (a
    name, an attribute or an imported name), so a docstring or comment names
    nothing; in any other file, such as README, each word."""
    if not str(path).endswith(".py"):
        return set(re.findall(r"\w+", text))
    named = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
    return named


def _dead_names(modules, readers):
    """(module, line, name) of each function, class, method or property that
    the modules define and neither they nor the readers name, by _named;
    dunders are called by Python itself.  Both map a file to its text."""
    named = set().union(*(_named(f, text) for f, text in {**readers, **modules}.items()))
    dead = []
    for f, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                dead.append((f, node.lineno, node.name))
    return dead


def test_every_defined_name_is_used():
    # a name that no command, demo, benchmark op or README example reaches
    # is dead code, even where a test calls it, so tests are no readers
    readers = {p: p.read_text() for d in ("demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))}
    readers[ROOT / "README.md"] = (ROOT / "README.md").read_text()
    modules = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(name for _, _, name in _dead_names(modules, readers)) == TEST_ONLY_LEMMAS
    assert _dead_names({"m.py": "def f():\n    g()\ndef g(): pass\nclass C:\n"
                                "    def __len__(self): pass\n    def h(self): pass\n"},
                       {"demo.py": "C().h()"}) == [("m.py", 1, "f")]
    # a docstring or comment calls nothing; a README word still counts
    doc = {"m.py": 'def f():\n    """f, as g calls it."""  # g()\ndef g(): pass\n'}
    assert _dead_names(doc, {"demo.py": "# f()"}) == [("m.py", 1, "f"), ("m.py", 3, "g")]
    assert _dead_names(doc, {"README.md": "f and g"}) == []


WORD_RUN = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*")


def _runtime_error_messages(tree):
    """(line, the longest run of words in the literal parts of its message)
    of each raise RuntimeError in tree; "" for a message with no words.  A
    run holds no brackets, so a test may name it in a regex too."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else None
        if ast.unparse(call.func if call else node.exc) != "RuntimeError":
            continue
        msg = call.args[0] if call and call.args else None
        parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
        runs = [run for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str)
                for run in WORD_RUN.findall(p.value)]
        found.append((node.lineno, max(runs, key=len, default="")))
    return sorted(found)


def test_every_runtime_error_is_named_by_a_test():
    # an invariant check that no test triggers is not known to fire; a test
    # names one by the longest run of words in its message
    tests = "\n".join(p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))
                      if p.name != Path(__file__).name)
    unnamed = [f"{path.name}:{line}: {part!r}"
               for path in sorted(SRC.glob("*.py"))
               for line, part in _runtime_error_messages(ast.parse(path.read_text()))
               if not part or part not in tests]
    assert unnamed == []
    assert _runtime_error_messages(ast.parse(
        'raise RuntimeError(f"{a} lost {b} of its beads")\nraise RuntimeError\n'
        'raise ValueError("no")\nraise RuntimeError(f"cell ({n}, {j}) lost beads")\n')) \
        == [(1, "of its beads"), (2, ""), (4, "lost beads")]


def _main_blocks(tree):
    """The body, as source, of each top-level `if __name__ == "__main__":`."""
    return ["\n".join(map(ast.unparse, node.body)) for node in tree.body
            if isinstance(node, ast.If)
            and ast.unparse(node.test) in ("__name__ == '__main__'", "'__main__' == __name__")]


def test_every_entry_calls_the_one_start_up():
    # the console script, python -m gwbinom and python -m gwbinom.cli start
    # in one function, the only code that freezes or turns off the collector,
    # so no entry skips it and none adds to it
    module, function = script_entry().split(":")
    assert module == "gwbinom.cli"
    calls = [(path.name, func, ast.unparse(node.func))
             for path in sorted(SRC.glob("*.py"))
             for node, func in _with_function(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("gc.freeze", "gc.disable")]
    assert calls == [("cli.py", function, "gc.freeze"), ("cli.py", function, "gc.disable")]
    assert _hits(re.compile(r"\bfrom gc import|\bimport gc as\b")) == []
    blocks = {path.name: _main_blocks(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: body for name, body in blocks.items() if body} == {"cli.py": [f"sys.exit({function}())"]}
    assert [ast.unparse(node) for node in ast.parse((SRC / "__main__.py").read_text()).body] \
        == ["import sys", f"from .cli import {function}", f"sys.exit({function}())"]
    assert _main_blocks(ast.parse("if __name__ == '__main__':\n    f()\n    g()\n"
                                  "if x:\n    h()\ndef k():\n    if __name__ == '__main__':\n        k()\n")) \
        == ["f()\ng()"]


def test_script_entry_reads_the_same_without_tomllib(monkeypatch):
    # Python 3.10 has no tomllib, so the entry is read from its line instead
    entry = script_entry()
    monkeypatch.setitem(sys.modules, "tomllib", None)
    assert script_entry() == entry
