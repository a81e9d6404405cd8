"""DSWP pipeline partitioning with dependence speculation.

Implements the planning half of the compiler: given a loop's PDG,

1. **speculate** away may-dependences whose profiled manifestation
   probability is below threshold (section 2.2's "even if inhibitors of
   parallelization are input dependent, speculating them away can still be
   done highly confidently") — legal *because* HMTX validates every access
   in hardware, so no software checks are emitted;
2. **condense** to the SCC DAG (DSWP's core construction);
3. assign SCCs to the three-stage template the runtime executes:
   stage 1 (sequential: the carried-dependence cycles), stage 2
   (replicable: PS-DSWP's parallel stage), stage 3 (ordered epilogue:
   reductions and output emission).

Loops whose dependence structure cannot flow forward through that template
are rejected with a diagnostic rather than silently mis-compiled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

import networkx as nx

from ..errors import ReproError
from .loopir import Loop, Statement
from .pdg import (
    Dependence,
    build_pdg,
    condense,
    remove_speculated,
    scc_is_sequential,
)


class PartitionError(ReproError):
    """The loop cannot be expressed in the 3-stage pipeline template."""


@dataclass
class PipelinePlan:
    """The compiler's partition of a loop into pipeline stages."""

    loop_name: str
    stage1: List[Statement]
    stage2: List[Statement]
    stage3: List[Statement]
    speculated: List[Dependence]
    scc_count: int

    @property
    def profitable(self) -> bool:
        """A pipeline with an empty parallel stage gains nothing."""
        return bool(self.stage2)

    @property
    def recommended_paradigm(self) -> str:
        """Which execution paradigm the partition calls for.

        No sequential front stage means nothing chases a loop-carried
        dependence: the iterations are independent and plain speculative
        DOALL (with the ordered epilogue for reductions) beats a pipeline.
        A non-empty stage 1 needs PS-DSWP's multithreaded transactions.
        An empty parallel stage is not worth parallelising at all.
        """
        if not self.stage2:
            return "Sequential"
        if not self.stage1:
            return "DOALL"
        return "PS-DSWP"

    def describe(self) -> str:
        lines = [f"pipeline plan for {self.loop_name!r} "
                 f"({self.scc_count} SCCs):"]
        for label, stage in (("stage 1 (sequential)", self.stage1),
                             ("stage 2 (parallel)", self.stage2),
                             ("stage 3 (ordered)", self.stage3)):
            names = ", ".join(s.name for s in stage) or "(empty)"
            lines.append(f"  {label}: {names}")
        if self.speculated:
            lines.append("  speculated dependences (validated by HMTX):")
            for dep in self.speculated:
                lines.append(f"    {dep.describe()}")
        return "\n".join(lines)


def plan_pipeline(loop: Loop, speculation_threshold: float = 0.1
                  ) -> PipelinePlan:
    """Partition ``loop`` into the 3-stage speculative pipeline."""
    loop.validate()
    pdg = build_pdg(loop)
    speculative_pdg, speculated = remove_speculated(pdg, speculation_threshold)
    condensation, membership = condense(speculative_pdg)
    order = {stmt.name: idx for idx, stmt in enumerate(loop.statements)}

    # Classify each SCC.
    sequential_sccs: Set[int] = set()
    for scc_id, members in condensation.nodes(data="members"):
        if scc_is_sequential(speculative_pdg, members):
            sequential_sccs.add(scc_id)

    # Ordered statements anchor stage 3; extend downstream so nothing
    # depends backwards on the epilogue.
    stage3_sccs: Set[int] = {membership[s.name] for s in loop.statements
                             if s.ordered}
    for scc_id in list(stage3_sccs):
        stage3_sccs.update(nx.descendants(condensation, scc_id))

    # Sequential SCCs (outside the epilogue) anchor stage 1; pull in their
    # ancestors so stage 1 never waits on a later stage.
    stage1_sccs: Set[int] = {scc for scc in sequential_sccs
                             if scc not in stage3_sccs}
    changed = True
    while changed:
        changed = False
        for scc_id in list(stage1_sccs):
            for ancestor in nx.ancestors(condensation, scc_id):
                if ancestor not in stage1_sccs:
                    stage1_sccs.add(ancestor)
                    changed = True

    if stage1_sccs & stage3_sccs:
        overlap = stage1_sccs & stage3_sccs
        members = [m for scc in overlap
                   for m in condensation.nodes[scc]["members"]]
        raise PartitionError(
            f"loop {loop.name!r}: statements {sorted(members)} are pinned "
            f"to both the sequential front stage and the ordered epilogue; "
            f"the 3-stage template cannot express this loop")

    stage2_sccs = set(condensation.nodes()) - stage1_sccs - stage3_sccs
    # A carried dependence inside stage 2 would make "replication" wrong.
    for scc_id in stage2_sccs:
        members = condensation.nodes[scc_id]["members"]
        if scc_is_sequential(speculative_pdg, members):
            raise PartitionError(
                f"loop {loop.name!r}: carried dependence among "
                f"{sorted(members)} survives in the parallel stage; raise "
                f"the speculation threshold or mark a statement ordered")

    # Stage-2 -> stage-1 edges would reverse the pipeline.
    for src, dst in condensation.edges():
        if src in stage2_sccs and dst in stage1_sccs:
            raise PartitionError(
                f"loop {loop.name!r}: the sequential stage consumes values "
                f"from the parallel stage; not pipelineable as 3 stages")

    def stage_statements(sccs: Set[int]) -> List[Statement]:
        names = [m for scc in sccs for m in condensation.nodes[scc]["members"]]
        return sorted((s for s in loop.statements if s.name in names),
                      key=lambda s: order[s.name])

    return PipelinePlan(
        loop_name=loop.name,
        stage1=stage_statements(stage1_sccs),
        stage2=stage_statements(stage2_sccs),
        stage3=stage_statements(stage3_sccs),
        speculated=speculated,
        scc_count=condensation.number_of_nodes(),
    )
