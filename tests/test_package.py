import types

import qconc


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(qconc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(qconc.__all__) == len(set(qconc.__all__))
    assert set(qconc.__all__) == public | {"__version__"}
