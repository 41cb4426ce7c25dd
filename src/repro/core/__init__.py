"""The paper's primary contribution.

* :mod:`repro.core.share_graph` -- Definition 3 (share graph) and register
  placements.
* :mod:`repro.core.loops` -- Definition 4 ((i, e_jk)-loops) and simple-cycle
  enumeration.
* :mod:`repro.core.timestamp_graph` -- Definition 5 (timestamp graph G_i).
* :mod:`repro.core.timestamp` -- the edge-indexed vector timestamp algorithm
  of Section 3.3 (advance / merge / predicate J) behind a pluggable
  *timestamp policy* interface, mirroring the paper's "family of algorithms".
* :mod:`repro.core.host` -- the effect-dispatch host the simulator,
  asyncio and client-server runtimes share.
* :mod:`repro.core.replica` -- the replica prototype of Section 2.1.
* :mod:`repro.core.system` -- peer-to-peer DSM wiring and the client API.
* :mod:`repro.core.causality` -- happened-before (Definition 1), causal
  pasts and causal dependency graphs (Definition 6).
* :mod:`repro.core.hoops` -- Helary & Milani's (minimal) x-hoops and the
  paper's counter-example analysis (Section 3.2, Appendix A).
"""

from repro.core.share_graph import ShareGraph
from repro.core.loops import LoopFinder, is_i_ejk_loop
from repro.core.timestamp_graph import TimestampGraph, timestamp_graph
from repro.core.timestamp import EdgeIndexedPolicy, Timestamp
from repro.core.replica import Replica
from repro.core.system import DSMSystem
from repro.core.causality import History

__all__ = [
    "ShareGraph",
    "LoopFinder",
    "is_i_ejk_loop",
    "TimestampGraph",
    "timestamp_graph",
    "EdgeIndexedPolicy",
    "Timestamp",
    "Replica",
    "DSMSystem",
    "History",
]
