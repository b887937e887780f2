"""Graphviz DOT export of computational DAGs and BSP schedules.

A release-quality scheduling library needs a way to *look* at its inputs and
outputs; this module renders a DAG (optionally colored by a schedule's
processor assignment and ranked by superstep) in the Graphviz DOT format,
which every common viewer understands.  Only the text format is produced —
no Graphviz installation is required.
"""

from __future__ import annotations

from typing import Optional

from .dag import ComputationalDAG

__all__ = ["dag_to_dot", "schedule_to_dot"]

#: Fill colors cycled over processors in schedule renderings.
_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
    "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
    "#e31a1c", "#ff7f00", "#6a3d9a", "#b15928",
)


def _node_label(dag: ComputationalDAG, v: int, show_weights: bool) -> str:
    if not show_weights:
        return str(v)
    return f"{v}\\nw={int(dag.work[v])} c={int(dag.comm[v])}"


def dag_to_dot(
    dag: ComputationalDAG,
    *,
    show_weights: bool = True,
    graph_name: Optional[str] = None,
) -> str:
    """Render a DAG as a DOT digraph (node labels show the w/c weights)."""
    name = graph_name or dag.name or "dag"
    lines = [f'digraph "{name}" {{', "  rankdir=TB;", '  node [shape=ellipse, fontsize=10];']
    for v in dag.nodes():
        lines.append(f'  {v} [label="{_node_label(dag, v, show_weights)}"];')
    for (u, v) in dag.edges:
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def schedule_to_dot(
    schedule,
    *,
    show_weights: bool = False,
    graph_name: Optional[str] = None,
) -> str:
    """Render a BSP schedule: nodes colored by processor, ranked by superstep.

    Every superstep becomes a ``same``-rank group labelled ``s<k>`` so that
    the layout reflects the superstep structure; cross-processor edges are
    drawn dashed (they correspond to communication).
    """
    dag: ComputationalDAG = schedule.dag
    name = graph_name or f"{dag.name}-schedule"
    lines = [
        f'digraph "{name}" {{',
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontsize=10];',
    ]
    num_steps = schedule.num_supersteps
    order, bounds = (a.tolist() for a in schedule.superstep_blocks(num_steps))
    proc = schedule.proc.tolist()
    for s in range(num_steps):
        nodes = order[bounds[s]:bounds[s + 1]]
        if not nodes:
            continue
        lines.append(f"  subgraph cluster_step_{s} {{")
        lines.append(f'    label="superstep {s}"; color=gray; fontsize=10;')
        for v in nodes:
            p = proc[v]
            color = _PALETTE[p % len(_PALETTE)]
            label = _node_label(dag, v, show_weights) + f"\\np{p}"
            lines.append(f'    {v} [label="{label}", fillcolor="{color}"];')
        lines.append("  }")
    for (u, v) in dag.edges:
        style = "dashed" if proc[u] != proc[v] else "solid"
        lines.append(f'  {u} -> {v} [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
