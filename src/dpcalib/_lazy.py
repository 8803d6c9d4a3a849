"""Modules loaded on first use.

scipy's ``special`` and ``optimize`` take about 0.6 s to import, and
the usefulness/l1/l2 path never touches them.  ``lazy_import`` hands out
a stand-in at once; the first attribute read imports the module, and the
stand-in takes on its namespace and becomes a plain module, so no later
read pays for the indirection.

The stdlib's ``importlib.util.LazyLoader`` does the same, but on Python
3.11 it is not thread-safe: a thread that reads an attribute while
another runs the module's code finds it missing (``AttributeError``).
Here the import goes through ``importlib.import_module``, whose per-module
lock makes a second thread wait for the first.
"""

from __future__ import annotations

import importlib
import sys
import types


class _Deferred(types.ModuleType):
    def __getattr__(self, attr):
        # only reached for a name the stand-in lacks
        module = importlib.import_module(self.__name__)
        self.__dict__.update(module.__dict__)  # one step under the GIL, then the class
        self.__class__ = types.ModuleType
        return getattr(module, attr)


def lazy_import(name: str) -> types.ModuleType:
    """The module ``name``: the one in ``sys.modules`` if it is imported
    already, else a stand-in that imports it when one of its attributes is
    first read (a missing module raises ``ModuleNotFoundError`` then)."""
    return sys.modules.get(name) or _Deferred(name)
