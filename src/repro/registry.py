"""Scheduler registry v2: build any scheduler of the framework from a spec string.

The registry is the glue used by the command-line interface, the experiment
engine and the :mod:`repro.api` facade: every baseline, every initialization
heuristic, the local-search improvers and both combined schedulers (the
pipeline and the multilevel scheduler) are registered under the short names
used in the paper's tables.

Registration is declarative — a factory function decorated with
:func:`register_scheduler` carries per-scheduler metadata (description,
NUMA awareness) and its keyword parameters become reachable from a *spec
string*::

    make_scheduler("cilk")
    make_scheduler("multilevel(preset=default, min_coarse_nodes=16)")
    make_scheduler("hc(max_moves=200, init=source)")
    make_scheduler("framework(use_ilp_full=false, hc_time_limit=1.5)")

The grammar is ``name`` or ``name(key=value, ...)``; values are integers,
floats, booleans (``true``/``false``), ``none``, bracketed lists
(``coarsening_ratios=[0.3, 0.15]``), and bare or quoted strings.  Names and
table labels are case-insensitive everywhere.

Registration is eager (every name, description and parameter tuple exists as
soon as this module is imported), but each factory imports its scheduler
class when it is called, so building one scheduler loads only its modules.

Whether a run is reproducible is not registry metadata: it depends on the
resolved configuration (does a stage that runs have a wall-clock limit?),
so each built scheduler answers it through :attr:`Scheduler.deterministic`.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .pipeline.config import MultilevelConfig, PipelineConfig
from .scheduler import Scheduler

__all__ = [
    "SchedulerInfo",
    "TABLE_LABELS",
    "available_schedulers",
    "canonical_scheduler_spec",
    "canonical_table_label",
    "format_scheduler_spec",
    "make_scheduler",
    "parse_scheduler_spec",
    "register_scheduler",
    "registry_name_for_label",
    "scheduler_for_label",
    "scheduler_info",
    "split_scheduler_list",
]


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerInfo:
    """Metadata and factory of one registered scheduler."""

    name: str
    factory: Callable[..., Scheduler]
    description: str = ""
    #: Whether the algorithm takes per-pair NUMA coefficients into account.
    numa_aware: bool = True
    #: Keyword parameters reachable from a spec string.
    parameters: Tuple[str, ...] = ()
    #: The factory's default value of each parameter that has one.
    defaults: Dict[str, Any] = field(default_factory=dict, hash=False)

    def accepts(self, parameter: str) -> bool:
        """Whether a spec string may set ``parameter`` for this scheduler."""
        return parameter in self.parameters


_REGISTRY: Dict[str, SchedulerInfo] = {}


def register_scheduler(
    name: str,
    *,
    description: str = "",
    numa_aware: bool = True,
    parameters: Optional[Tuple[str, ...]] = None,
) -> Callable[[Callable[..., Scheduler]], Callable[..., Scheduler]]:
    """Decorator registering ``factory`` under ``name`` with metadata.

    The factory's keyword parameters (or the explicit ``parameters`` tuple,
    for factories taking ``**overrides``) define what spec strings may set.
    """

    def decorator(factory: Callable[..., Scheduler]) -> Callable[..., Scheduler]:
        key = name.strip().lower()
        if key in _REGISTRY:
            raise ValueError(f"scheduler {key!r} is already registered")
        named = [
            p
            for p in inspect.signature(factory).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        params = tuple(parameters) if parameters is not None else tuple(p.name for p in named)
        _REGISTRY[key] = SchedulerInfo(
            name=key,
            factory=factory,
            description=description,
            numa_aware=numa_aware,
            parameters=params,
            defaults={p.name: p.default for p in named if p.default is not p.empty},
        )
        return factory

    return decorator


# ----------------------------------------------------------------------
# Spec-string grammar
# ----------------------------------------------------------------------
_SPEC_RE = re.compile(r"^\s*(?P<name>[A-Za-z0-9_.+-]+)\s*(?:\(\s*(?P<args>.*?)\s*\))?\s*$", re.S)
_BARE_STRING_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*$")
#: A parameterized spec used as a *value* (e.g. ``hc(init=hccs(max_moves=5))``)
#: — kept verbatim as a string so improvers can stack without quoting.
_NESTED_SPEC_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*\(.*\)$", re.S)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def split_scheduler_list(text: str) -> List[str]:
    """Split a comma-separated list of scheduler specs at the top level.

    Commas inside parentheses, brackets or quotes do not split, so
    ``"hc(max_moves=5, init=source),cilk"`` yields two entries.
    """
    return [part for part in _split_top_level(text) if part]


def _split_top_level(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current: List[str] = []
    for ch in text:
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch in "([":
            depth += 1
            current.append(ch)
        elif ch in ")]":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if quote is not None or depth != 0:
        raise ValueError(f"unbalanced quotes or brackets in {text!r}")
    parts.append("".join(current).strip())
    return parts


def _parse_value(text: str) -> Any:
    text = text.strip()
    if not text:
        raise ValueError("empty value in scheduler spec")
    if text[0] in "\"'":
        if len(text) < 2 or text[-1] != text[0]:
            raise ValueError(f"unterminated string {text!r}")
        return text[1:-1]
    if (text[0], text[-1]) in (("[", "]"), ("(", ")")):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_value(part) for part in _split_top_level(inner))
    if _NESTED_SPEC_RE.match(text):
        return text
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if _BARE_STRING_RE.match(text):
        return text
    raise ValueError(f"cannot parse value {text!r} in scheduler spec")


def parse_scheduler_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Parse ``"name"`` / ``"name(key=value, ...)"`` into (name, kwargs).

    The name is lower-cased; keyword order is preserved as written.
    """
    match = _SPEC_RE.match(spec or "")
    if match is None:
        raise ValueError(
            f"invalid scheduler spec {spec!r}; expected 'name' or 'name(key=value, ...)'"
        )
    name = match.group("name").lower()
    args = match.group("args")
    kwargs: Dict[str, Any] = {}
    if args:
        for part in _split_top_level(args):
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip().lower()
            if not sep or not _IDENT_RE.match(key):
                raise ValueError(
                    f"invalid argument {part!r} in scheduler spec {spec!r}; "
                    "expected key=value"
                )
            if key in kwargs:
                raise ValueError(f"duplicate argument {key!r} in scheduler spec {spec!r}")
            kwargs[key] = _parse_value(value)
    return name, kwargs


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    text = str(value)
    if _BARE_STRING_RE.match(text) or _NESTED_SPEC_RE.match(text):
        return text
    return json.dumps(text)


def format_scheduler_spec(name: str, kwargs: Optional[Dict[str, Any]] = None) -> str:
    """Render a canonical spec string (lower-cased name, kwargs sorted by key)."""
    name = name.strip().lower()
    if not kwargs:
        return name
    rendered = ", ".join(f"{key}={_format_value(kwargs[key])}" for key in sorted(kwargs))
    return f"{name}({rendered})"


def canonical_scheduler_spec(
    spec: str,
    *,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> str:
    """Canonical form of a spec string, optionally merging request defaults.

    ``seed`` maps onto a ``seed`` parameter and ``time_budget`` onto a
    ``time_limit`` parameter (or, for schedulers like the portfolio that
    take a wall-clock ``budget`` instead, onto ``budget``) — only when the
    scheduler's factory accepts them and the spec string does not already
    set them.  Arguments equal to the factory's default are dropped and an
    ``init=`` spec is canonicalized in turn, so ``hc`` and ``hc(init=bspg)``
    share one spec (and cache key).  Parsing and re-rendering the result is
    an identity, which keeps work-item signatures and checkpoint resume stable.
    """
    name, kwargs = parse_scheduler_spec(spec)
    info = _lookup(name, spec)
    if seed is not None and info.accepts("seed") and "seed" not in kwargs:
        kwargs["seed"] = int(seed)
    if time_budget is not None:
        if info.accepts("time_limit") and "time_limit" not in kwargs:
            kwargs["time_limit"] = float(time_budget)
        elif info.accepts("budget") and "budget" not in kwargs:
            kwargs["budget"] = float(time_budget)
    init = kwargs.get("init")
    if isinstance(init, str):
        try:
            kwargs["init"] = canonical_scheduler_spec(init)
        except ValueError:
            pass  # left for make_scheduler to report
    for key, default in info.defaults.items():
        if key in kwargs and kwargs[key] == default:
            del kwargs[key]
    if info.accepts("preset"):
        _drop_preset_values(info, kwargs)
    return format_scheduler_spec(name, kwargs)


def _drop_preset_values(info: SchedulerInfo, kwargs: Dict[str, Any]) -> None:
    """Drop a default ``preset`` and every knob equal to its preset's value,
    so one computation has one spec (and cache key): ``framework(preset=fast,
    hc_max_moves=200)`` is ``framework``.  An unknown preset is kept."""
    preset = str(kwargs.get("preset", _DEFAULT_PRESET)).strip().lower()
    try:
        pipeline = PipelineConfig.preset(preset)
    except ValueError:
        return
    multilevel = MultilevelConfig(base_pipeline=pipeline)
    kwargs.pop("preset", None)
    for key in [k for k in kwargs if info.accepts(k)]:
        owner = pipeline if key in PipelineConfig.field_names() else multilevel
        if kwargs[key] == getattr(owner, key):
            del kwargs[key]
    if preset != _DEFAULT_PRESET:
        kwargs["preset"] = preset


# ----------------------------------------------------------------------
# Lookup and construction
# ----------------------------------------------------------------------
def available_schedulers() -> List[str]:
    """Sorted list of registered scheduler names."""
    return sorted(_REGISTRY)


def _lookup(name: str, spec: str) -> SchedulerInfo:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown scheduler {spec!r}; available: {', '.join(available_schedulers())}"
        ) from exc


def scheduler_info(spec: str) -> SchedulerInfo:
    """Metadata of the scheduler a spec string refers to (case-insensitive)."""
    name, _ = parse_scheduler_spec(spec)
    return _lookup(name, spec)


def make_scheduler(spec: str) -> Scheduler:
    """Instantiate a scheduler from a spec string (case-insensitive).

    Plain registry names (``"cilk"``) build the default configuration;
    parameterized specs (``"hc(max_moves=200)"``) pass the parsed keyword
    values to the registered factory.
    """
    name, kwargs = parse_scheduler_spec(spec)
    info = _lookup(name, spec)
    unknown = sorted(k for k in kwargs if not info.accepts(k))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for scheduler {name!r}; "
            f"accepted: {', '.join(info.parameters)}"
        )
    try:
        return info.factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot build scheduler from spec {spec!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Registered schedulers
# ----------------------------------------------------------------------
# Baselines (paper Section 4.1).
@register_scheduler(
    "cilk",
    description="Cilk work-stealing simulation baseline",
    numa_aware=False,
)
def _make_cilk(seed: int = 0) -> Scheduler:
    from .baselines.cilk import CilkScheduler

    return CilkScheduler(seed=seed)


@register_scheduler(
    "bl-est",
    description="Bottom-level earliest-start-time list scheduler",
)
def _make_bl_est() -> Scheduler:
    from .baselines.list_schedulers import BlEstScheduler

    return BlEstScheduler()


@register_scheduler(
    "etf",
    description="Earliest-task-first list scheduler",
)
def _make_etf() -> Scheduler:
    from .baselines.list_schedulers import EtfScheduler

    return EtfScheduler()


@register_scheduler(
    "hdagg",
    description="HDagg-style level-set aggregation baseline",
    numa_aware=False,
)
def _make_hdagg(aggregation_factor: float = 2.0, balance_slack: float = 1.1) -> Scheduler:
    from .baselines.hdagg import HDaggScheduler

    return HDaggScheduler(aggregation_factor=aggregation_factor, balance_slack=balance_slack)


@register_scheduler(
    "trivial",
    description="Everything on one processor (communication-free reference)",
    numa_aware=False,
)
def _make_trivial() -> Scheduler:
    from .baselines.trivial import TrivialScheduler

    return TrivialScheduler()


@register_scheduler(
    "greedy-mem",
    description="Memory-aware greedy list scheduler (respects per-processor memory bounds)",
    numa_aware=False,
)
def _make_greedy_mem(memory_bound: Optional[object] = None, policy: str = "est") -> Scheduler:
    from .baselines.memory import MemoryAwareGreedyScheduler

    return MemoryAwareGreedyScheduler(memory_bound=memory_bound, policy=policy)


@register_scheduler(
    "level-rr",
    description="Level-by-level round-robin assignment",
    numa_aware=False,
)
def _make_level_rr() -> Scheduler:
    from .baselines.trivial import LevelRoundRobinScheduler

    return LevelRoundRobinScheduler()


# Initialization heuristics (paper Section 4.2).
@register_scheduler(
    "bspg",
    description="BSPg greedy initialization heuristic",
    numa_aware=False,
)
def _make_bspg(idle_fraction: float = 0.5) -> Scheduler:
    from .heuristics.bspg import BspGreedyScheduler

    return BspGreedyScheduler(idle_fraction=idle_fraction)


@register_scheduler(
    "source",
    description="Source-partition initialization heuristic",
    numa_aware=False,
)
def _make_source() -> Scheduler:
    from .heuristics.source import SourceScheduler

    return SourceScheduler()


@register_scheduler(
    "ilp-init",
    description="Batch-by-batch ILP construction of an initial schedule",
)
def _make_ilp_init(
    max_variables: int = 2000,
    supersteps_per_batch: int = 3,
    time_limit: Optional[float] = 15.0,
) -> Scheduler:
    from .ilp.init import IlpInitScheduler

    return IlpInitScheduler(
        max_variables=max_variables,
        supersteps_per_batch=supersteps_per_batch,
        time_limit_per_batch=time_limit,
    )


# ILP-based standalone scheduler.
@register_scheduler(
    "ilp-full",
    description="Full BSP ILP seeded by an initialization heuristic",
)
def _make_ilp_full(
    time_limit: Optional[float] = 60.0,
    max_variables: int = 20_000,
    init: str = "bspg",
) -> Scheduler:
    from .ilp.full import IlpFullScheduler

    return IlpFullScheduler(
        initializer=make_scheduler(init),
        time_limit=time_limit,
        max_variables=max_variables,
    )


# Local-search improvers as standalone schedulers.
@register_scheduler(
    "hc",
    description="Hill climbing (HC) on top of an initialization scheduler",
)
def _make_hc(
    variant: str = "first",
    max_moves: Optional[int] = None,
    max_passes: Optional[int] = None,
    time_limit: Optional[float] = None,
    init: str = "bspg",
    memory_bound: Optional[object] = None,
) -> Scheduler:
    from .localsearch.schedulers import HillClimbingScheduler

    return HillClimbingScheduler(
        variant=variant,
        max_moves=max_moves,
        max_passes=max_passes,
        time_limit=time_limit,
        init=init,
        memory_bound=memory_bound,
    )


@register_scheduler(
    "hccs",
    description="Communication-schedule hill climbing (HCcs) on an initial schedule",
)
def _make_hccs(
    max_moves: Optional[int] = None,
    time_limit: Optional[float] = None,
    init: str = "bspg",
    memory_bound: Optional[object] = None,
) -> Scheduler:
    from .localsearch.schedulers import CommHillClimbingScheduler

    return CommHillClimbingScheduler(
        max_moves=max_moves, time_limit=time_limit, init=init, memory_bound=memory_bound
    )


@register_scheduler(
    "sa",
    description="Seeded simulated annealing on the HC move neighbourhood",
)
def _make_sa(
    steps: int = 2000,
    cooling: float = 0.995,
    initial_temperature: Optional[float] = None,
    time_limit: Optional[float] = None,
    seed: Optional[int] = 0,
    init: str = "bspg",
    memory_bound: Optional[object] = None,
) -> Scheduler:
    from .localsearch.schedulers import SimulatedAnnealingScheduler

    return SimulatedAnnealingScheduler(
        steps=steps,
        cooling=cooling,
        initial_temperature=initial_temperature,
        time_limit=time_limit,
        seed=seed,
        init=init,
        memory_bound=memory_bound,
    )


# Combined schedulers (paper Figures 3 and 4).  ``preset`` picks the limits
# (``PipelineConfig.preset``); the remaining keywords override single knobs.
_DEFAULT_PRESET = "fast"
_PIPELINE_PARAMS = ("preset",) + tuple(sorted(PipelineConfig.field_names()))


@register_scheduler(
    "framework",
    description="The paper's combined pipeline (init + HC/HCcs + ILP stages), fast limits",
    parameters=_PIPELINE_PARAMS,
)
def _make_framework(preset: str = _DEFAULT_PRESET, **overrides: Any) -> Scheduler:
    from .pipeline.framework import FrameworkScheduler

    return FrameworkScheduler(PipelineConfig.preset(preset).with_overrides(**overrides))


_MULTILEVEL_PARAMS = ("preset",) + tuple(
    sorted(MultilevelConfig.field_names() | PipelineConfig.field_names())
)


@register_scheduler(
    "multilevel",
    description="Multilevel coarsen-solve-refine scheduler, fast pipeline limits",
    parameters=_MULTILEVEL_PARAMS,
)
def _make_multilevel(preset: str = _DEFAULT_PRESET, **overrides: Any) -> Scheduler:
    from .multilevel.scheduler import MultilevelScheduler

    config = MultilevelConfig(base_pipeline=PipelineConfig.preset(preset))
    return MultilevelScheduler(config.with_overrides(**overrides))


# CCR-based dispatch between the two (the paper's suggested extension).
@register_scheduler(
    "adaptive",
    description="CCR-based dispatch between the pipeline and the multilevel scheduler",
)
def _make_adaptive(ccr_threshold: float = 8.0, margin: float = 0.5) -> Scheduler:
    from .portfolio.selector import AdaptiveScheduler

    return AdaptiveScheduler(ccr_threshold=ccr_threshold, margin=margin)


# Portfolio scheduling: per-instance selection + content-addressed caching.
@register_scheduler(
    "portfolio",
    description="Per-instance scheduler selection (feature rules or budgeted "
    "racing) with an optional content-addressed solution cache",
)
def _make_portfolio(
    mode: str = "rules",
    budget: Optional[float] = None,
    candidates: Optional[Tuple[str, ...]] = None,
    cache: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Scheduler:
    from .portfolio.selector import PortfolioScheduler

    return PortfolioScheduler(
        mode=mode,
        budget=budget,
        candidates=candidates,
        cache=cache,
        seed=seed,
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# Table labels
# ----------------------------------------------------------------------
#: Table label (as printed in the paper's tables and figures) -> registry
#: scheduler name.  This is the single place where the experiment layer maps
#: its column labels to registry entries; every baseline the runner records
#: is constructed through this table.  Lookups are case-insensitive.
TABLE_LABELS: Dict[str, str] = {
    "Cilk": "cilk",
    "HDagg": "hdagg",
    "BL-EST": "bl-est",
    "ETF": "etf",
    "Trivial": "trivial",
    "GreedyMem": "greedy-mem",
}

_LABEL_LOOKUP: Dict[str, str] = {label.lower(): name for label, name in TABLE_LABELS.items()}
_CANONICAL_LABELS: Dict[str, str] = {label.lower(): label for label in TABLE_LABELS}


def canonical_table_label(label: str) -> Optional[str]:
    """The canonical spelling of a known table label, or ``None``.

    ``"cilk"`` / ``"CILK"`` / ``"Cilk"`` all map to ``"Cilk"``; labels that
    are not registry table labels (stage labels like ``"Init"``, spec
    strings, ...) return ``None`` so callers can fall back to their own
    resolution.  This is the single case-insensitive label authority the
    experiment layer routes its cost lookups through.
    """
    return _CANONICAL_LABELS.get(label.strip().lower())


def registry_name_for_label(label: str) -> str:
    """Registry name of a table label like ``"Cilk"`` (case-insensitive)."""
    try:
        return _LABEL_LOOKUP[label.strip().lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown table label {label!r}; known: {', '.join(TABLE_LABELS)}"
        ) from exc


def scheduler_for_label(label: str) -> Scheduler:
    """Instantiate the baseline scheduler behind a table label."""
    return make_scheduler(registry_name_for_label(label))
