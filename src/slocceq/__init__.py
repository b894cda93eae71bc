"""SLOCC equivalence checking for four-partite pure quantum states.

Decides whether two pure states of four parties are related by invertible
local operators. The decision pipeline decomposes both states into a
triple-state set across a chosen bipartition, screens them with sound
invariants, constructs candidate operators, one per party, in closed
form from the two flattenings or their singular frames, and accepts the
first candidate that re-verifies on the input amplitudes. Inequivalence
is established only through sound invariants; when no candidate
verifies the verdict is UNDECIDED.

Each public name has one import path, ``slocceq.<module>.<name>``; the
package root re-exports nothing.
"""

# Loaded here so that ``slocceq.<module>`` resolves after a bare
# ``import slocceq``, and so that this import, which ``bench/setup_probe.py``
# times, loads the seven pipeline modules and not the command line.
from . import catalog, decomposition, equivalence, invariants, solver, states, tensorops  # noqa: F401
