import types

import ensemble_teleport


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(ensemble_teleport).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    exported = ensemble_teleport.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == public
    for name in exported:
        assert hasattr(ensemble_teleport, name)
