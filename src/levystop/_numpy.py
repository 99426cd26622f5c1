"""numpy, imported when code first reads one of its attributes.

`levy-stop root` on a config without tabulated marks or payoff is scalar
arithmetic, and importing numpy costs more than the rest of that launch.
The package's modules bind `np` from here. An already imported numpy, or
a None entry that blocks it, is reused as it is; a missing numpy fails
here with the usual ModuleNotFoundError. Otherwise `np` is numpy's module
object, empty until the first attribute read executes numpy into it.
Other threads wait for that under a lock: importlib.util.LazyLoader
(Python 3.11) lets them read the half-built module.
"""
import importlib.util
import sys
import threading
import types

_lock = threading.RLock()  # reentrant: numpy reads its own module while it runs
_loading = False


class _Lazy(types.ModuleType):
    def __getattribute__(self, name):
        global _loading
        with _lock:
            if type(self) is _Lazy and not _loading:
                _loading = True
                _spec.loader.exec_module(self)
                self.__class__ = types.ModuleType  # plain attribute reads from here on
        return types.ModuleType.__getattribute__(self, name)


if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    np.__class__ = _Lazy
