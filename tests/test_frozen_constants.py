"""No array that the package shares between calls can be made writable again.

A module-level array, or one a shared object caches, is frozen with
``linalg.frozen``: an array over an immutable bytes buffer. An array
flagged read-only is not enough when it owns its memory, or when it is a
view of a writable array: ``setflags(write=True)`` undoes the flag. This
test walks every package module's globals, through dicts, tuples, lists and
the package's own objects (so the cached maps of the shared preparation
tensors too), and fails on any array whose flag can be set.
"""

import importlib
import pkgutil
import types

import numpy as np
import pytest

import ensemble_teleport
from ensemble_teleport import (
    ClassicalMessage,
    CoefficientVector,
    compare_conventions,
    fidelity,
    linalg,
    protocol,
    run_session,
)
from ensemble_teleport.cli import _PREPS
from ensemble_teleport.linalg import frozen
from conftest import base_chain

MODULES = [
    importlib.import_module(f"ensemble_teleport.{info.name}")
    for info in pkgutil.iter_modules(ensemble_teleport.__path__)
]


def shared_arrays(root, where: str, seen: set) -> list:
    """(where, array) for every ndarray reachable from ``root``."""
    if id(root) in seen:
        return []
    seen.add(id(root))
    if isinstance(root, np.ndarray):
        return [(where, root)]
    if isinstance(root, dict):
        items = [(f"{where}[{key!r}]", value) for key, value in root.items()]
    elif isinstance(root, (tuple, list)):
        items = [(f"{where}[{k}]", value) for k, value in enumerate(root)]
    elif type(root).__module__.startswith("ensemble_teleport.") and hasattr(root, "__dict__"):
        items = [(f"{where}.{name}", value) for name, value in vars(root).items()]
    else:
        return []
    return [found for name, value in items for found in shared_arrays(value, name, seen)]


def package_arrays() -> list:
    seen = set()
    return [
        found
        for module in MODULES
        for name, value in vars(module).items()
        if not isinstance(value, (types.ModuleType, type, types.FunctionType))
        for found in shared_arrays(value, f"{module.__name__}.{name}", seen)
    ]


def can_be_made_writable(array: np.ndarray) -> bool:
    """Whether ``array`` or any ndarray along its ``.base`` takes ``setflags(write=True)``."""
    for link in base_chain(array):
        try:
            link.setflags(write=True)
        except ValueError:
            continue
        link.setflags(write=False)
        return True
    return False


def use_every_shared_tensor():
    """Build the maps and operators that the shared preparation tensors cache on first use."""
    c = CoefficientVector.from_components(0.3, 0.458)
    for u in _PREPS.values():  # the Bell tensors among them are protocol's shared ones
        u.session_map(True), u.session_map(False)
        compare_conventions(u, c)


def test_no_shared_array_can_be_made_writable():
    use_every_shared_tensor()
    found = package_arrays()
    # the walk reaches module constants, arrays in module dicts and the tensors' cached maps
    bell2 = protocol._BELL_TENSORS[2]
    reached = {id(array) for _, array in found}
    expected = (
        linalg._I2,
        linalg._HALF,
        fidelity._PURE_WIDTH,
        protocol._CORRECTION_MAPS[2],
        bell2.u,
        bell2._corrected_map,
        bell2.sender_operator,
    )
    assert {id(array) for array in expected} <= reached
    assert [where for where, array in found if can_be_made_writable(array)] == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.zeros(3),  # owns its memory
        lambda: np.zeros(3)[:],  # a view of a writable array
    ],
    ids=["owner", "view of a writable owner"],
)
def test_a_read_only_flag_alone_is_caught(make):
    array = make()
    array.setflags(write=False)
    assert can_be_made_writable(array)


def test_frozen_copies_and_cannot_be_thawed():
    source = np.arange(4.0)
    array = frozen(source, dtype=complex)
    assert array.dtype == complex and np.array_equal(array, source)
    assert not np.shares_memory(array, source)
    assert not can_be_made_writable(array)
    assert not can_be_made_writable(array[1:])
    source[0] = 9.0
    assert array[0] == 0.0
    grid = np.arange(12.0).reshape(3, 4)
    for source in (np.asfortranarray(grid), grid[::2, ::3]):
        array = frozen(source)
        assert array.flags.c_contiguous and array.shape == source.shape
        assert array.tobytes() == source.tobytes(order="C") and np.array_equal(array, source)
        assert not np.shares_memory(array, source)
        assert not can_be_made_writable(array)


def named_arrays() -> dict:
    """The arrays that sessions share or hand out, by name."""
    u = protocol.resolve_preparation(2)
    c = CoefficientVector.from_components(0.3, 0.458)
    return {
        "PreparationTensor.u": u.u,
        "coefficient_map": u.coefficient_map,
        "session_map(True)": u.session_map(True),
        "session_map(False)": u.session_map(False),
        "sender_operator": u.sender_operator,
        "CoefficientVector.row": c.row,
        "protocol._KNOWN_WEIGHTS": protocol._KNOWN_WEIGHTS,
        "protocol._SHARED_PAIR": protocol._SHARED_PAIR,
        "protocol._EPSILON": protocol._EPSILON,
        **{f"protocol._CORRECTION_MAPS[{k}]": t for k, t in protocol._CORRECTION_MAPS.items()},
        "fidelity._PURE_LOW": fidelity._PURE_LOW,
        "fidelity._PURE_WIDTH": fidelity._PURE_WIDTH,
        "fidelity._MIXED_LOW": fidelity._MIXED_LOW,
        "fidelity._MIXED_WIDTH": fidelity._MIXED_WIDTH,
        "linalg._I2": linalg._I2,
        "linalg._HALF": linalg._HALF,
        "linalg._WITH_PARTIAL_TRANSPOSE": linalg._WITH_PARTIAL_TRANSPOSE,
    }


def bell2_session_bits() -> tuple:
    record = run_session(CoefficientVector.from_components(0.3, 0.458), 2, ClassicalMessage.two_bits(2), bob_acts=True)
    return record.bob_state.tobytes(), record.fidelity


@pytest.mark.parametrize("name", sorted(named_arrays()))
def test_named_array_cannot_be_made_writable(name):
    before = bell2_session_bits()
    array = named_arrays()[name]
    with pytest.raises(ValueError):
        array.setflags(write=True)
    with pytest.raises(ValueError):
        array[...] = 0
    assert bell2_session_bits() == before


@pytest.mark.parametrize("name", sorted(named_arrays()))
def test_no_base_of_a_named_array_can_be_made_writable(name):
    assert not can_be_made_writable(named_arrays()[name])


def test_bell2_corrected_map_cannot_be_thawed_through_its_base():
    # A writable base of the shared corrected map, once zeroed, would make
    # every later Bell-2 corrected session raise "preparation annihilated the ensemble".
    before = bell2_session_bits()
    for link in base_chain(protocol.resolve_preparation(2).session_map(True)):
        with pytest.raises(ValueError):
            link.setflags(write=True)
        with pytest.raises(ValueError):
            link[...] = 0
    assert bell2_session_bits() == before
