"""``scipy.special``'s compiled ufuncs without the package's ``__init__``.

``import scipy.special`` also loads scipy's array-API layer, which walks
``dir(numpy)`` and so loads ``numpy.f2py``, ``numpy.testing``, ``numpy.ma``
and more: about 0.2 s and 19 MB a process. pcfdr calls three plain ufuncs,
``gammaincc``, ``ndtr`` and ``ndtri``, and :func:`ufunc` takes each from the
first of two compiled modules that has it:

- ``scipy.special._special_ufuncs``, a C++ module that links only libstdc++
  and libm and imports no Python code. It holds ``gammaincc`` and ``ndtr``.
  It is loaded from its file, found through the import finders in scipy's
  folder without importing ``scipy``, and entered in ``sys.modules``.
- ``scipy.special._ufuncs``, which holds all three but also loads three
  more compiled modules and maps scipy's own OpenBLAS. It is imported under
  a stand-in ``scipy.special`` that is never executed and is taken out of
  ``sys.modules`` again. On scipy 1.17 only ``ndtri`` (Stouffer) comes from
  here; so does any ufunc that the first module lacks or cannot give.

A later ``import scipy.special``, by anyone, runs the real ``__init__``,
reuses both compiled modules from ``sys.modules`` and shares their ufuncs.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import threading
from types import ModuleType

_PACKAGE = "scipy.special"
_UFUNCS = _PACKAGE + "._ufuncs"
_CXX = _PACKAGE + "._special_ufuncs"


def ufunc(name: str):
    """The ufunc ``scipy.special.<name>``: from ``_special_ufuncs`` if that
    module loads and has it, else from ``_ufuncs``."""
    return getattr(_cxx(), name, None) or getattr(_ufuncs(), name)


def _cxx() -> ModuleType | None:
    """The module ``scipy.special._special_ufuncs``, loaded from its file
    unless it is in ``sys.modules``. None if no finder finds it or it fails
    to load. It is a single-phase extension: a second load, by the import
    system in another thread too, returns the same ufuncs."""
    if _CXX in sys.modules:
        return sys.modules[_CXX]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    path = [os.path.join(d, "special") for d in scipy.submodule_search_locations]
    try:
        spec = next(filter(None, (f.find_spec(_CXX, path) for f in sys.meta_path
                                  if hasattr(f, "find_spec"))), None)
        if spec is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    return sys.modules.setdefault(_CXX, module)


def _ufuncs() -> ModuleType:
    """The module ``scipy.special._ufuncs``. If neither it nor
    ``scipy.special`` is loaded and this is the only Python thread, it is
    imported under the stand-in package. Otherwise, or if the compiled
    module cannot be imported without its package's ``__init__``, it comes
    from ``import scipy.special``: an import in another thread that met the
    stand-in in ``sys.modules`` would keep it as the package, even after
    waiting on an import lock."""
    if _UFUNCS in sys.modules:
        return importlib.import_module(_UFUNCS)
    if _PACKAGE not in sys.modules and threading.active_count() == 1:
        import scipy  # noqa: F401  the stand-in's parent; cheap
        sys.modules[_PACKAGE] = importlib.util.module_from_spec(importlib.util.find_spec(_PACKAGE))
        try:
            return importlib.import_module(_UFUNCS)
        except ImportError:
            pass
        finally:
            del sys.modules[_PACKAGE]
    import scipy.special  # noqa: F401
    return importlib.import_module(_UFUNCS)
