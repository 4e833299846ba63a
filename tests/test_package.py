"""The package's exports."""

import inspect

import kmsylow


def test_exports_resolve_and_list_every_public_name():
    assert all(hasattr(kmsylow, name) for name in kmsylow.__all__)
    assert len(set(kmsylow.__all__)) == len(kmsylow.__all__)
    public = {
        name
        for name, value in vars(kmsylow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(kmsylow.__all__)
