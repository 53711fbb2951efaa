"""The package reads no environment knob, keeps no unbounded memo or
visited-point set, lays out beads as mask bits and states its integer,
cell, balance and parity rules in one module each, re-exports nothing,
defines no top-level name in two modules, and defines no name that
nothing else names."""

import ast
import re
from pathlib import Path

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


def _stdout_writes(tree):
    """(enclosing function, line) of each print( not given file=sys.stderr,
    and of each sys.stdout.write or sys.stdout.writelines."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print" \
                and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                            for k in node.keywords):
            hits.append((func, node.lineno))
        if isinstance(node, ast.Attribute) and node.attr in ("write", "writelines") \
                and ast.unparse(node.value) == "sys.stdout":
            hits.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
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


def test_every_defined_name_is_used():
    # a function, class, method or property named only on its own def line
    # is dead code; dunders are called by Python itself
    files = [p for d in ("src", "tests", "demos", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    lines = [(p, i, line) for p in files + [ROOT / "README.md"]
             for i, line in enumerate(p.read_text().splitlines(), 1)]
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, node.lineno)):
                dead.append(f"{path.name}:{node.lineno}: {node.name}")
    assert dead == []
