"""Loop intermediate representation for the automatic parallelizer.

The paper's closing argument (section 8): "A compiler could achieve
profitable automatic speculative parallelization with the help of low
overhead speculation validation via HMTX."  This package is that compiler,
scoped to the loops HMTX targets: a hot loop described as *statements* over
*symbolic locations*, with data dependences derived from their read/write
sets and speculation decisions driven by profile probabilities.

Locations come in two flavours:

* **scalars** — one memory word shared by all iterations.  A scalar written
  and read across iterations is a loop-carried dependence (the pointer
  chase, a reduction accumulator);
* **arrays** — one slot per iteration (``name[i]``).  Accesses stay within
  the iteration, so arrays never carry dependences.

Each statement supplies a *pure* compute function from its read values to
its written values.  The same function drives three things: the sequential
golden model, the simulated execution (values flow through the versioned
memory, so forwarding and conflict detection are exercised for real), and
the dependence analysis (which only needs the read/write sets).

``maybe_writes`` declares **may** dependences: locations the statement
writes only on some iterations, with a profiled probability.  Those are
what the speculative partitioner removes (section 2.2: "speculating them
away can still be done highly confidently ... Still, validation must be
conservatively performed") — HMTX's hardware validation is what makes that
legal without software checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

#: A statement's compute function: (iteration, read values) -> writes.
ComputeFn = Callable[[int, Mapping[str, int]], Mapping[str, int]]


@dataclass(frozen=True)
class Location:
    """A symbolic memory location of the loop."""

    name: str
    kind: str                  # "scalar" | "array"
    init: int = 0

    @property
    def is_scalar(self) -> bool:
        return self.kind == "scalar"


@dataclass(frozen=True)
class Statement:
    """One statement of the loop body.

    Parameters
    ----------
    name:
        Unique statement label.
    reads / writes:
        Symbolic locations accessed every iteration.
    compute:
        Pure function from (iteration, read values) to written values; must
        return a value for every location in ``writes`` (and for any
        ``maybe_writes`` location it decides to write this iteration).
    maybe_writes:
        ``{location: probability}`` — locations written on only some
        iterations (the *may* dependences a speculative compiler removes
        when the profiled probability is low).  ``compute`` includes such a
        location in its result exactly on the iterations that write it.
    work / branches:
        Compute cycles and branch count per execution (for the timing
        model and Table 1-style instruction mix).
    ordered:
        True for statements that must execute in original iteration order
        even in parallel execution (output emission, reductions) — they
        become the pipeline's sequential epilogue stage.
    """

    name: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    compute: ComputeFn
    maybe_writes: Dict[str, float] = field(default_factory=dict)
    work: int = 10
    branches: int = 1
    ordered: bool = False

    def all_writes(self) -> Tuple[str, ...]:
        return tuple(self.writes) + tuple(self.maybe_writes)


class Loop:
    """A hot loop: locations, statements, and an iteration count."""

    def __init__(self, name: str, iterations: int) -> None:
        self.name = name
        self.iterations = iterations
        self.locations: Dict[str, Location] = {}
        self.statements: List[Statement] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def scalar(self, name: str, init: int = 0) -> Location:
        return self._add_location(Location(name, "scalar", init))

    def array(self, name: str, init: int = 0) -> Location:
        return self._add_location(Location(name, "array", init))

    def _add_location(self, loc: Location) -> Location:
        if loc.name in self.locations:
            raise ValueError(f"duplicate location {loc.name!r}")
        self.locations[loc.name] = loc
        return loc

    def statement(self, name: str, reads=(), writes=(), compute=None,
                  maybe_writes=None, work: int = 10, branches: int = 1,
                  ordered: bool = False) -> Statement:
        """Append a statement (program order = append order)."""
        if any(s.name == name for s in self.statements):
            raise ValueError(f"duplicate statement {name!r}")
        stmt = Statement(
            name=name,
            reads=tuple(reads),
            writes=tuple(writes),
            compute=compute or (lambda i, env: {}),
            maybe_writes=dict(maybe_writes or {}),
            work=work,
            branches=branches,
            ordered=ordered,
        )
        for loc in list(stmt.reads) + list(stmt.all_writes()):
            if loc not in self.locations:
                raise ValueError(f"statement {name!r} uses undeclared "
                                 f"location {loc!r}")
        self.statements.append(stmt)
        return stmt

    # ------------------------------------------------------------------
    # Reference semantics (the golden model)
    # ------------------------------------------------------------------

    def interpret(self) -> Dict[str, object]:
        """Execute the loop sequentially in pure Python.

        Returns the final environment: scalars map to their value, arrays
        to a list of per-iteration values.
        """
        scalars = {name: loc.init for name, loc in self.locations.items()
                   if loc.is_scalar}
        arrays = {name: [loc.init] * self.iterations
                  for name, loc in self.locations.items() if not loc.is_scalar}

        def read(loc: str, i: int) -> int:
            if loc in scalars:
                return scalars[loc]
            return arrays[loc][i]

        for i in range(self.iterations):
            for stmt in self.statements:
                env = {loc: read(loc, i) for loc in stmt.reads}
                result = stmt.compute(i, env)
                for loc in stmt.all_writes():
                    if loc not in result:
                        if loc in stmt.maybe_writes:
                            continue        # not written this iteration
                        raise ValueError(
                            f"{stmt.name} did not produce {loc!r}")
                    if loc in scalars:
                        scalars[loc] = result[loc] & 0xFFFFFFFF
                    else:
                        arrays[loc][i] = result[loc] & 0xFFFFFFFF
        out: Dict[str, object] = dict(scalars)
        out.update(arrays)
        return out

    def validate(self) -> None:
        """Sanity-check the loop description."""
        if not self.statements:
            raise ValueError("loop has no statements")
        written = {loc for s in self.statements for loc in s.all_writes()}
        for stmt in self.statements:
            for loc in stmt.reads:
                location = self.locations[loc]
                if not location.is_scalar and loc not in written \
                        and location.init == 0:
                    # Reading a never-written, zero array is usually a bug
                    # in the loop description; allow but it is suspicious.
                    pass
