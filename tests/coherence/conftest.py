"""Coherence-suite plumbing for the frozen differential oracle.

``legacy_store.py`` is the seed's object-per-line cache, kept verbatim as
the oracle of ``test_store_differential.py``.  It imports
``victim_priority`` and the ``State``-typed transition functions, which
the simulator no longer carries: its one rule set works on integer state
codes.  Publish the ``State``-typed adapters of :mod:`.state_rules` under
those names so the oracle imports unchanged and runs on the same rules.
"""

from repro.coherence import cache, protocol

from . import state_rules

for _name in ("version_hits", "commit_transition", "abort_transition",
              "reset_transition"):
    setattr(protocol, _name, getattr(state_rules, _name))
cache.victim_priority = state_rules.victim_priority
del _name
