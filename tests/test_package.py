import sys

import relequil
from relequil.nbody import BasisConstructionError

LAYERS = ("matrix_core", "stability", "spectral_flow", "nbody")


def test_package_exports_the_layer_modules():
    # the package binds ``spectral_flow`` to the function, so the modules
    # come from sys.modules
    modules = [sys.modules[f"relequil.{name}"] for name in LAYERS]
    expected = ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert relequil.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for attr in mod.__all__:
            assert getattr(relequil, attr) is getattr(mod, attr), (mod.__name__, attr)
    assert relequil.BasisConstructionError is BasisConstructionError
    assert relequil.spectral_flow is modules[2].spectral_flow
