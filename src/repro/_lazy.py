"""Lazy package surfaces: a package imports an export's module on first use.

Every ``repro`` package ``__init__`` declares its exports once, as a
table from owning module to names, and takes its ``__all__``,
``__getattr__`` (PEP 562) and ``__dir__`` from :func:`lazy_surface`.
Importing a package therefore imports none of its modules.  The first
read of an export imports the module that owns it and caches the value
in the package's namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Tuple


def lazy_surface(
    namespace: Dict[str, object], exports: Mapping[str, str]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of the package whose globals are ``namespace``.

    ``exports`` maps each owning module, absolute or relative to the
    package (``".base"``), to the space-separated names the package
    exports from it.  An unknown name raises ``AttributeError``, which
    is also what lets ``from package import submodule`` fall back to
    importing the submodule.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items() for name in names.split()}

    def __getattr__(name: str) -> object:
        try:
            owner = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(owner, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    return list(owners), __getattr__, __dir__
