"""On-demand package facades (PEP 562).

A package ``__init__`` declares which submodule each public name lives in;
the submodule is imported the first time the name is read, so importing a
package costs nothing until one of its names is used::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".cilk": ("CilkScheduler", "simulate_work_stealing"),
        ".hdagg": ("HDaggScheduler",),
    })

``from pkg import name``, ``pkg.name``, ``from pkg import *`` and ``dir(pkg)``
all behave as if the names had been imported eagerly.  A resolved name is
bound into the package namespace, so later reads are plain attribute hits.
An exported name that is the submodule's own name (``".tables": ("tables",)``)
resolves to the submodule itself, and so does reading any other submodule
as an attribute (``repro.graphs.fine``), as it did when every facade
imported all of its submodules.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a package exporting ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a relative
    submodule name to the public names it provides.
    """
    package = namespace["__name__"]
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module_name = source.get(name)
        if module_name is None:
            qualified = f"{package}.{name}"
            if not name.isidentifier() or name.startswith("__") or not importlib.util.find_spec(qualified):
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            module_name = "." + name
        module = importlib.import_module(module_name, package)
        value = module if module_name == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return list(source), __getattr__, __dir__
