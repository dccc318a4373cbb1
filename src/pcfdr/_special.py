"""``scipy.special``'s compiled ufuncs without the package's ``__init__``.

``import scipy.special`` also loads scipy's array-API layer, which walks
``dir(numpy)`` and so loads ``numpy.f2py``, ``numpy.testing``, ``numpy.ma``
and more: about 0.2 s and 19 MB a process. pcfdr calls only plain ufuncs
(``chdtrc``, ``ndtr``, ``ndtri``) of the compiled module
``scipy.special._ufuncs``, which :func:`ufuncs` imports under a stand-in
``scipy.special`` that is never executed and is taken out of
``sys.modules`` again. A later ``import scipy.special``, by anyone, runs the
real ``__init__`` and reuses the same compiled module and its ufuncs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading
from types import ModuleType

_PACKAGE = "scipy.special"
_UFUNCS = _PACKAGE + "._ufuncs"


def ufuncs() -> ModuleType:
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
