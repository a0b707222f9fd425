"""The benchmark's tracer patches vcas functions by (module, attribute) name.

A rename in vcas would otherwise break only the traced benchmark run; this
makes it break the test suite too.
"""

import importlib

from perfbench.tracer import SITES


def test_every_traced_site_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
