"""A mutation score for modules of ``src/ensemble_teleport``; not part of the test suite.

    python3 tools/mutants.py --modules cli --count 30 --seed 33

Each mutant changes one site of one module with one of three operators:

- ``compare``: a comparison turned around (``<`` and ``>``, ``<=`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``arith``: ``+`` and ``-`` swapped, or ``*`` and ``/``, in an expression or
  an augmented assignment;
- ``float``: a nonzero float constant doubled.

The sites of the chosen modules are listed in source order and ``--count`` of
them sampled with ``random.Random(--seed)``. Each mutant runs the module's
test files (``TESTS``) with ``pytest -x`` in a temporary copy of the
repository, so the checkout is never edited. A failing run kills the mutant;
a passing one lets it survive. The unmutated tests run first, once; a
mutant's run that takes more than ``TIMEOUT_FACTOR`` times their wall time
(and at least ``TIMEOUT_FLOOR`` seconds) is stopped and kills the mutant,
as a loop that never ends does. The script prints each mutant's site and
verdict, then the score: the share of mutants killed. A survivor that
changes behaviour is a missing test.

``EQUIVALENT`` lists the reviewed mutants that change no verdict, bit or
message, each with the reason in one line. An entry is keyed by the module,
the stripped text of the site's source line and ``old -> new``, not by line
number, so edits elsewhere in the module do not move it; it covers every
site of that operator swap on that line. A sampled site that matches an
entry is not run: it is printed as ``equivalent`` and counted apart from the
score. An entry that matches no site of a chosen module is reported as stale.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/ensemble_teleport")
# A mutant's test run may take TIMEOUT_FACTOR times the unmutated run's wall time, and at least
# TIMEOUT_FLOOR seconds; a run past that (a mutant that loops forever) counts as killed.
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 5.0, 30.0

# Module -> the test files that run against it.
TESTS = {
    "bell": ["tests/test_bell.py"],
    "cli": ["tests/test_cli.py", "tests/test_certified_sessions.py"],
    "conventions": ["tests/test_conventions.py"],
    "fidelity": ["tests/test_fidelity.py", "tests/test_certified_sessions.py"],
    "linalg": [
        "tests/test_linalg.py",
        "tests/test_check_tables.py",
        "tests/test_magnitude_bound.py",
        "tests/test_operator_oracle.py",
        "tests/test_bounding_prepass.py",
        "tests/test_bloch_rows.py",
        "tests/test_certified_sessions.py",
    ],
    "protocol": [
        "tests/test_protocol.py",
        "tests/test_receiver_state.py",
        "tests/test_bounding_prepass.py",
        "tests/test_bloch_rows.py",
        "tests/test_conventions.py",
        "tests/test_library_digests.py",
        "tests/test_certified_sessions.py",
    ],
}

# (module, stripped source line, "old -> new") -> why the mutant changes no verdict, bit or message.
EQUIVALENT = {
    ("linalg", "nan_unless_finite=lambda a, b, c, d: ((a + b + c + d) * 0.0).real,", "+ -> -"):
        "a signed sum of the four parts is non-finite when a part is or it overflows; require then decides the row",
}

COMPARE_SWAPS = {
    ast.Lt: ("<", ">"), ast.Gt: (">", "<"), ast.LtE: ("<=", ">="), ast.GtE: (">=", "<="),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
ARITH_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}


def _line_starts(text) -> list[int]:
    """The offset of each line of ``text`` (str or bytes), then its length."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_span(code: str, operator: str) -> tuple[int, int]:
    """Where ``operator`` stands in ``code``, the text between two operands, as tokens rather than characters."""
    words = operator.split()
    starts = _line_starts(code)
    seen = []
    try:  # the span may open a parenthesis that it does not close
        for token in tokenize.generate_tokens(io.StringIO(code).readline):
            if token.type in (tokenize.OP, tokenize.NAME):
                seen.append(token)
            if [t.string for t in seen[-len(words):]] == words:
                first, last = seen[-len(words)], seen[-1]
                return starts[first.start[0] - 1] + first.start[1], starts[last.end[0] - 1] + last.end[1]
    except tokenize.TokenError:
        pass
    raise ValueError(f"no {operator!r} in {code!r}")


class Site:
    """One mutation: ``old`` becomes ``new`` in the byte span [start, stop) of a module's source."""

    def __init__(self, module: str, line: int, text: str, kind: str, start: int, stop: int, old: str, new: str):
        self.module, self.line, self.text, self.kind = module, line, text, kind
        self.start, self.stop, self.old, self.new = start, stop, old, new

    @property
    def key(self) -> tuple[str, str, str]:
        """The site's key in ``EQUIVALENT``."""
        return self.module, self.text, f"{self.old} -> {self.new}"

    def apply(self, source: bytes) -> bytes:
        code = source[self.start:self.stop].decode()
        if self.kind == "float":
            mutated = self.new
        else:
            start, stop = _operator_span(code, self.old)
            mutated = code[:start] + self.new + code[stop:]
        return source[:self.start] + mutated.encode() + source[self.stop:]

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line} {self.kind} {self.old} -> {self.new}"


def sites(module: str, source: bytes) -> list[Site]:
    """Every site of the three operators in ``source``, in source order."""
    starts = _line_starts(source)
    lines = source.decode().splitlines()

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    def between(a: ast.AST, b: ast.AST) -> tuple[int, int]:
        return offset(a.end_lineno, a.end_col_offset), offset(b.lineno, b.col_offset)

    def site(node: ast.AST, kind: str, span: tuple[int, int], old: str, new: str) -> Site:
        return Site(module, node.lineno, lines[node.lineno - 1].strip(), kind, *span, old, new)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                found.append(site(node, "compare", between(operands[k], operands[k + 1]), *COMPARE_SWAPS[type(op)]))
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH_SWAPS:
            found.append(site(node, "arith", between(node.left, node.right), *ARITH_SWAPS[type(node.op)]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH_SWAPS:
            old, new = (text + "=" for text in ARITH_SWAPS[type(node.op)])
            found.append(site(node, "arith", between(node.target, node.value), old, new))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
            span = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
            found.append(site(node, "float", span, repr(node.value), repr(node.value * 2)))
    return sorted(found, key=lambda site: (site.start, site.kind))


def run_tests(tree: Path, tests: list[str], timeout: float | None = None) -> str:
    """``killed``, ``survived`` or ``killed (timeout)`` for the copy of the repository at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Mutation score of modules of src/ensemble_teleport.")
    parser.add_argument("--modules", nargs="+", choices=sorted(TESTS), default=sorted(TESTS),
                        help="modules to mutate (default: all)")
    parser.add_argument("--count", type=int, default=30, help="mutants to sample (default: 30)")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    args = parser.parse_args(argv)

    sources = {module: (ROOT / PACKAGE / f"{module}.py").read_bytes() for module in args.modules}
    every = [site for module in args.modules for site in sites(module, sources[module])]
    chosen = random.Random(args.seed).sample(every, min(args.count, len(every)))
    chosen.sort(key=lambda site: (site.module, site.start))
    print(f"{len(every)} sites in {', '.join(args.modules)}; {len(chosen)} sampled with seed {args.seed}", flush=True)
    keys = {site.key for site in every}
    for key in EQUIVALENT:
        if key[0] in args.modules and key not in keys:
            print(f"stale equivalent entry, no such site: {key}", file=sys.stderr)

    verdicts, equivalent = [], 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        start = time.monotonic()
        if run_tests(tree, sorted({test for module in args.modules for test in TESTS[module]})) != "survived":
            print("the unmutated tests fail; no score", file=sys.stderr)
            return 1
        elapsed = time.monotonic() - start
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * elapsed)
        print(f"unmutated run {elapsed:.1f} s; each mutant's run times out after {timeout:.0f} s", flush=True)
        for site in chosen:
            if site.key in EQUIVALENT:
                equivalent += 1
                print(f"{site}: equivalent", flush=True)
                continue
            target = tree / PACKAGE / f"{site.module}.py"
            target.write_bytes(site.apply(sources[site.module]))
            verdict = run_tests(tree, TESTS[site.module], timeout)
            target.write_bytes(sources[site.module])
            verdicts.append(verdict)
            print(f"{site}: {verdict}", flush=True)

    killed = sum(verdict != "survived" for verdict in verdicts)
    print(f"score: {killed}/{len(verdicts)} killed" + (f" ({killed / len(verdicts):.0%})" if verdicts else "")
          + f"; {equivalent} equivalent, not scored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
