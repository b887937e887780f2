"""Registry contract audit: decorator metadata must match factory reality.

:func:`repro.registry.register_scheduler` carries declarative metadata —
the ``parameters`` a spec string may set.  Nothing else re-checks that
metadata against the decorated factory; this rule does, statically:

* a factory taking ``**overrides`` cannot have its parameters derived from
  its signature — it must declare ``parameters=`` explicitly;
* when ``parameters=`` is a resolvable tuple/list of string literals (a
  module-level constant counts), it must cover every named keyword of the
  factory, and — unless the factory takes ``**kwargs`` — must not declare
  parameters the factory does not accept (a spec string setting one would
  pass the registry's validation and then blow up in the factory).

Determinism is not registry metadata: each built scheduler reports it
through ``Scheduler.deterministic``, which a runtime test checks.

Computed ``parameters=`` expressions (e.g. built from a config class's
field names at import time) cannot be audited statically and are skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core import Finding, Rule, SourceModule

__all__ = ["RegistryContractRule"]


def _register_call(decorator: ast.AST) -> Optional[ast.Call]:
    """The ``register_scheduler(...)`` call of a decorator, if it is one."""
    if not isinstance(decorator, ast.Call):
        return None
    func = decorator.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return decorator if name == "register_scheduler" else None


def _literal_strings(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """A tuple/list of string constants as strings, else ``None``."""
    if isinstance(node, (ast.Tuple, ast.List)):
        values: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                values.append(element.value)
            else:
                return None
        return tuple(values)
    return None


def _constant_tuples(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b")`` string-tuple assignments."""
    out: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                values = _literal_strings(node.value)
                if values is not None:
                    out[target.id] = values
    return out


class RegistryContractRule(Rule):
    name = "registry-contract"
    description = (
        "@register_scheduler parameters= metadata must match "
        "the decorated factory's real signature"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        constants = _constant_tuples(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                call = _register_call(decorator)
                if call is not None:
                    findings.extend(self._check_factory(module, call, node, constants))
        return findings

    # ------------------------------------------------------------------
    def _check_factory(
        self,
        module: SourceModule,
        call: ast.Call,
        factory: ast.FunctionDef,
        constants: Dict[str, Tuple[str, ...]],
    ) -> Iterator[Finding]:
        entry = self._entry_name(call)
        label = f"scheduler {entry!r}" if entry else f"factory {factory.name}()"
        args = factory.args
        named = [a.arg for a in args.args + args.kwonlyargs if a.arg != "self"]
        has_var_kw = args.kwarg is not None

        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
        declared_node = keywords.get("parameters")
        if declared_node is None:
            if has_var_kw:
                yield module.finding(
                    self.name,
                    call,
                    f"{label}: the factory takes **{args.kwarg.arg} so its spec "
                    "parameters cannot be derived — declare parameters= explicitly",
                )
        else:
            declared = self._resolve(declared_node, constants)
            if declared is not None:
                for missing in sorted(set(named) - set(declared)):
                    yield module.finding(
                        self.name,
                        call,
                        f"{label}: factory argument {missing!r} is missing from "
                        "the declared parameters= metadata",
                    )
                if not has_var_kw:
                    for unknown in sorted(set(declared) - set(named)):
                        yield module.finding(
                            self.name,
                            call,
                            f"{label}: declared parameter {unknown!r} is not an "
                            "argument of the factory",
                        )

    # ------------------------------------------------------------------
    @staticmethod
    def _entry_name(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant):
            value = call.args[0].value
            if isinstance(value, str):
                return value
        return None

    @staticmethod
    def _resolve(
        node: ast.AST, constants: Dict[str, Tuple[str, ...]]
    ) -> Optional[Tuple[str, ...]]:
        values = _literal_strings(node)
        if values is not None:
            return values
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None
