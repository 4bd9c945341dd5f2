"""Lazy re-exports for the ``repro`` packages (PEP 562).

Each package ``__init__`` names what it re-exports and from which
submodule, and imports none of them: a name resolves on first use, so
importing one submodule costs that submodule and its own imports, not the
whole package.  The shape is Scientific Python's SPEC 1 ``lazy_loader``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def attach(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``__getattr__, __dir__, __all__`` for ``package``, where ``exports``
    maps each submodule to the names the package re-exports from it.

    ``__getattr__`` imports an exported name's submodule and caches the
    value in the package namespace, so the next read is a plain attribute;
    a bare submodule name resolves to the submodule; anything else raises
    ``AttributeError`` naming the package.
    """
    origin = {name: sub for sub, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        sub = origin.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, list(origin)
