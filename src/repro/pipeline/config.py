"""Configuration of the combined scheduling pipeline (paper Fig. 3 / Fig. 4).

The defaults mirror the paper's experimental setup, with time limits scaled
down so that the pure-Python reproduction stays responsive; the
:meth:`PipelineConfig.paper` constructor restores the paper's limits and
:meth:`PipelineConfig.fast` shrinks everything further for tests and quick
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional

__all__ = ["PipelineConfig", "MultilevelConfig"]


@dataclass
class PipelineConfig:
    """Knobs of the combined scheduler (initializers + local search + ILPs)."""

    # --- initialization heuristics -----------------------------------
    use_bspg: bool = True
    use_source: bool = True
    use_ilp_init: bool = True
    #: ILPinit is only competitive (and affordable) for few processors; the
    #: paper restricts it to P = 4.
    ilp_init_max_processors: int = 4
    ilp_init_max_variables: int = 2000
    ilp_init_time_limit: Optional[float] = 10.0

    # --- local search --------------------------------------------------
    hc_variant: str = "first"
    hc_max_moves: Optional[int] = None
    hc_time_limit: Optional[float] = 10.0
    hccs_time_limit: Optional[float] = 2.0

    # --- ILP stages ------------------------------------------------------
    use_ilp_full: bool = True
    ilp_full_max_variables: int = 20_000
    ilp_full_time_limit: Optional[float] = 30.0
    use_ilp_partial: bool = True
    ilp_partial_max_variables: int = 4000
    ilp_partial_time_limit: Optional[float] = 10.0
    use_ilp_cs: bool = True
    ilp_cs_time_limit: Optional[float] = 10.0

    # ------------------------------------------------------------------
    @classmethod
    def fast(cls) -> "PipelineConfig":
        """Small limits for unit tests and smoke benchmarks."""
        return cls(
            use_ilp_init=False,
            hc_max_moves=200,
            hc_time_limit=2.0,
            hccs_time_limit=0.5,
            ilp_full_max_variables=4000,
            ilp_full_time_limit=3.0,
            ilp_partial_max_variables=1500,
            ilp_partial_time_limit=2.0,
            ilp_cs_time_limit=2.0,
        )

    @classmethod
    def heuristics_only(cls) -> "PipelineConfig":
        """Initializers + local search only (the paper's *huge* dataset mode)."""
        return cls(
            use_ilp_init=False,
            use_ilp_full=False,
            use_ilp_partial=False,
            use_ilp_cs=False,
        )

    @classmethod
    def paper(cls) -> "PipelineConfig":
        """The paper's time limits (minutes-to-hours; use only for full runs)."""
        return cls(
            hc_time_limit=270.0,
            hccs_time_limit=30.0,
            ilp_init_time_limit=120.0,
            ilp_full_time_limit=3600.0,
            ilp_partial_time_limit=180.0,
            ilp_cs_time_limit=300.0,
        )

    def wall_clock_limited(self) -> bool:
        """Whether a stage that runs has a wall-clock limit (an ILP stage's
        limit counts only when its ``use_*`` switch is on)."""
        limits = (
            (True, self.hc_time_limit),
            (True, self.hccs_time_limit),
            (self.use_ilp_init, self.ilp_init_time_limit),
            (self.use_ilp_full, self.ilp_full_time_limit),
            (self.use_ilp_partial, self.ilp_partial_time_limit),
            (self.use_ilp_cs, self.ilp_cs_time_limit),
        )
        return any(used and limit is not None for used, limit in limits)

    def without_ilp_cs(self) -> "PipelineConfig":
        """Copy with the communication-schedule ILP disabled (used inside the
        multilevel coarse solve, which re-runs ILPcs on the original DAG)."""
        return replace(self, use_ilp_cs=False)

    # ------------------------------------------------------------------
    # Registry / spec-string support
    # ------------------------------------------------------------------
    @classmethod
    def preset(cls, name: str) -> "PipelineConfig":
        """Named preset: ``default``, ``fast``, ``heuristics`` or ``paper``."""
        presets = {
            "default": cls,
            "fast": cls.fast,
            "heuristics": cls.heuristics_only,
            "paper": cls.paper,
        }
        try:
            return presets[str(name).strip().lower()]()
        except KeyError as exc:
            raise ValueError(
                f"unknown pipeline preset {name!r}; available: {', '.join(sorted(presets))}"
            ) from exc

    @classmethod
    def field_names(cls) -> "frozenset[str]":
        """Names of all configurable knobs (used by the scheduler registry)."""
        return frozenset(f.name for f in fields(cls))

    def with_overrides(self, **overrides: Any) -> "PipelineConfig":
        """Copy with the given knobs replaced; unknown names raise ValueError."""
        unknown = sorted(set(overrides) - self.field_names())
        if unknown:
            raise ValueError(
                f"unknown pipeline option(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(self.field_names()))}"
            )
        return replace(self, **overrides)


@dataclass
class MultilevelConfig:
    """Knobs of the multilevel scheduler (paper Fig. 4)."""

    #: Coarsening ratios to try; the best resulting schedule is returned.
    coarsening_ratios: tuple = (0.3, 0.15)
    #: Minimum size of the coarsened DAG (coarsening stops there regardless
    #: of the ratio) — the paper skips multilevel scheduling on the tiny
    #: dataset precisely because the coarse DAG would degenerate.
    min_coarse_nodes: int = 8
    light_edge_fraction: float = 1.0 / 3.0
    refine_interval: int = 5
    hc_moves_per_refinement: int = 100
    #: Optional per-processor memory bound applied to the machine before
    #: scheduling (``multilevel(memory_bound=...)`` spec strings); a scalar
    #: is broadcast, a tuple gives one value per processor.  ``None`` keeps
    #: whatever bound the machine itself carries.
    memory_bound: Optional[object] = None
    base_pipeline: PipelineConfig = field(default_factory=PipelineConfig.fast)

    def __post_init__(self) -> None:
        # Spec strings deliver ratio lists as tuples/lists of numbers; keep
        # the stored form a tuple so configs compare (and hash) by value.
        self.coarsening_ratios = tuple(float(r) for r in self.coarsening_ratios)
        if isinstance(self.memory_bound, (list, tuple)):
            self.memory_bound = tuple(float(b) for b in self.memory_bound)

    # ------------------------------------------------------------------
    # Registry / spec-string support
    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> "frozenset[str]":
        """Names of the multilevel-specific knobs (``base_pipeline`` excluded)."""
        return frozenset(f.name for f in fields(cls)) - {"base_pipeline"}

    def with_overrides(self, **overrides: Any) -> "MultilevelConfig":
        """Copy with knobs replaced; pipeline knobs fall through to the base
        pipeline config, unknown names raise ValueError."""
        own: Dict[str, Any] = {}
        base: Dict[str, Any] = {}
        unknown = []
        for key, value in overrides.items():
            if key in self.field_names():
                own[key] = value
            elif key in PipelineConfig.field_names():
                base[key] = value
            else:
                unknown.append(key)
        if unknown:
            raise ValueError(
                f"unknown multilevel option(s) {', '.join(sorted(unknown))}; available: "
                f"{', '.join(sorted(self.field_names() | PipelineConfig.field_names()))}"
            )
        pipeline = self.base_pipeline.with_overrides(**base) if base else self.base_pipeline
        return replace(self, base_pipeline=pipeline, **own)
