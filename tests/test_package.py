import inspect

import vhd


def test_all_lists_every_public_name_bound_in_the_package():
    bound = {
        name
        for name, value in vars(vhd).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(vhd.__all__) - {"__version__"} == bound
    assert len(vhd.__all__) == len(set(vhd.__all__))
