"""Each tolerance is compared in one place, so a second copy of an invariant fails here.

HERMITICITY_TOL, TRACE_TOL and ANNIHILATION_TOL are bounds of the check
tables' invariants (``linalg``), which the runners compare; the one
comparison written out is ``linalg.hermitian_spectrum``'s, whose typed
NonHermitianError is its contract. EIGENVALUE_TOL, POSITIVE's bound, is
compared only by the PPT verdict, ``bell._ppt_test``. The invariants
themselves are never compared outside the runners.

Every ``(bound, message)`` invariant of ``linalg`` and ``fidelity`` has a
HOMES entry (``test_every_invariant_has_a_home``), so an inline copy of any
of them fails. EQ_TOL and AGREE_TOL are also bounds of invariants; besides
those, only preparation classification, the appendix-check verdict and the
fidelity report's agreement flag compare them.

Entries are bounded by MAX_ENTRY where operators and tensors enter
(``linalg.require_bounded``), so no code behind that check handles an
overflow: ``OverflowError`` is named only there and in ``linalg.modulus``
(``test_overflow_is_handled_only_at_the_bound``). The check is called only
where operators enter (``linalg._checked_entries``) and where preparation
tensors do (``test_bound_is_checked_only_where_inputs_enter``).
"""

import ast
from pathlib import Path

import ensemble_teleport
from ensemble_teleport import fidelity, linalg

SOURCES = sorted(Path(ensemble_teleport.__file__).parent.glob("*.py"))

# tolerance or invariant -> the functions that may compare against it
HOMES = {
    "HERMITICITY_TOL": {"linalg.hermitian_spectrum"},
    "TRACE_TOL": set(),
    "ANNIHILATION_TOL": set(),
    "EIGENVALUE_TOL": {"bell._ppt_test"},
    "HERMITIAN": set(),
    "UNIT_TRACE": set(),
    "POSITIVE": set(),
    "EQ_TOL": {
        "protocol.PreparationTensor.__post_init__",
        "protocol.PreparationTensor._known_index",
        "cli._cmd_appendix_check",
    },
    "AGREE_TOL": {"fidelity.fidelity_report"},
    "FINITE": set(),
    "_REAL_TRACE": set(),
    "_UNANNIHILATED": set(),
    "_REAL_OVERLAP": set(),
    "_FINITE_COEFFICIENTS": set(),
    "_COEFFICIENT_TRACE": set(),
    "_NONNEGATIVE": set(),
    "_COEFFICIENT_HERMITIAN": set(),
    "_COEFFICIENT_POSITIVE": set(),
    "_BLOCH_LENGTH": set(),
    "_TWO_SIDED_REAL": set(),
    "_TWO_SIDED_UNANNIHILATED": set(),
    "_REAL_COMPONENT": set(),
    "_UNANNIHILATED_COMPONENT": set(),
    "_REAL_VALUE": set(),
    "MAX_ENTRY": {"linalg.require_bounded"},
    "BOUNDED": set(),
}
# the names of HOMES that are bounds of the tolerance table rather than invariants
TOLERANCES = {name for name in HOMES if name.endswith("_TOL")} | {"MAX_ENTRY"}


class _Comparisons(ast.NodeVisitor):
    """(name, where) for each comparison that reads a name of HOMES, ``where`` the enclosing scope."""

    def __init__(self, module: str):
        self.scope = [module]
        self.aliases = {name: name for name in HOMES}
        self.found = set()

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in HOMES:
                self.aliases[alias.asname or alias.name] = alias.name

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Compare(self, node):
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in self.aliases:
                self.found.add((self.aliases[name], ".".join(self.scope)))


def comparisons(source: str, module: str) -> set:
    visitor = _Comparisons(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def package_comparisons() -> set:
    return {found for path in SOURCES for found in comparisons(path.read_text(encoding="utf-8"), path.stem)}


def test_each_tolerance_is_compared_only_in_its_home():
    strays = sorted((name, where) for name, where in package_comparisons() if where not in HOMES[name])
    assert strays == []


def test_every_home_is_seen():
    assert package_comparisons() == {(name, where) for name, homes in HOMES.items() for where in homes}


def test_a_copied_invariant_is_caught():
    source = (
        "from . import linalg\n"
        "from .linalg import TRACE_TOL as T\n"
        "class C:\n"
        "    def check(self, t):\n"
        "        return abs(t - 1) > T or t < linalg.ANNIHILATION_TOL\n"
    )
    assert comparisons(source, "m") == {("TRACE_TOL", "m.C.check"), ("ANNIHILATION_TOL", "m.C.check")}


def invariants(module) -> set:
    """The names of a module's ``(bound, message)`` invariants: a float bound and a callable message."""
    return {
        name
        for name, value in vars(module).items()
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], float) and callable(value[1])
    }


def test_every_invariant_has_a_home():
    found = invariants(linalg) | invariants(fidelity)
    assert "HERMITIAN" in found and "_REAL_VALUE" in found
    assert found == set(HOMES) - TOLERANCES


def test_a_copied_coefficient_invariant_is_caught():
    source = (
        "from .linalg import _COEFFICIENT_TRACE\n"
        "def check(c11, c22):\n"
        "    return abs(c11 + c22 - 1.0) <= _COEFFICIENT_TRACE[0]\n"
    )
    assert comparisons(source, "m") == {("_COEFFICIENT_TRACE", "m.check")}


# the functions that may name OverflowError: the magnitude check and the modulus that maps it to inf
OVERFLOW_HOMES = {"linalg.require_bounded", "linalg.modulus"}


class _OverflowNames(_Comparisons):
    """The enclosing scope of each use of the name OverflowError."""

    def visit_Compare(self, node):
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "OverflowError":
            self.found.add(".".join(self.scope))


def overflow_handlers(source: str, module: str) -> set:
    visitor = _OverflowNames(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_overflow_is_handled_only_at_the_bound():
    found = {where for path in SOURCES for where in overflow_handlers(path.read_text(encoding="utf-8"), path.stem)}
    assert found == OVERFLOW_HOMES


def test_a_new_overflow_handler_is_caught():
    source = (
        "class C:\n"
        "    def trace(self, e):\n"
        "        try:\n"
        "            return sum(map(abs, e))\n"
        "        except (OverflowError, ValueError):\n"
        "            return None\n"
    )
    assert overflow_handlers(source, "m") == {"m.C.trace"}


# the two calls of the magnitude check: where operators enter and where preparation tensors do
BOUND_CALLERS = ["linalg._checked_entries", "protocol.PreparationTensor.__post_init__"]


class _BoundCalls(_Comparisons):
    """The enclosing scope of each call of require_bounded, by its name, an alias or an attribute, once per call."""

    def __init__(self, module: str):
        super().__init__(module)
        self.aliases = {"require_bounded"}
        self.found = []

    def visit_ImportFrom(self, node):
        self.aliases |= {alias.asname for alias in node.names if alias.name == "require_bounded" and alias.asname}

    def visit_Compare(self, node):
        self.generic_visit(node)

    def visit_Call(self, node):
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in self.aliases:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def bound_calls(source: str, module: str) -> list:
    visitor = _BoundCalls(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_bound_is_checked_only_where_inputs_enter():
    found = [where for path in SOURCES for where in bound_calls(path.read_text(encoding="utf-8"), path.stem)]
    assert sorted(found) == BOUND_CALLERS


def test_a_new_bound_check_is_caught():
    source = (
        "from . import linalg\n"
        "from .linalg import require_bounded as bounded\n"
        "class C:\n"
        "    def trace(self, e):\n"
        "        bounded(e)\n"
        "        bounded(e[::-1])\n"
        "def norm(m):\n"
        "    return linalg.require_bounded(m.ravel().tolist())\n"
    )
    assert bound_calls(source, "m") == ["m.C.trace", "m.C.trace", "m.norm"]
