"""The dB-tree engine and the collaborators that attach to it.

* :mod:`repro.core.dbtree.engine` -- :class:`DBTreeEngine`: the action
  table, navigation, split mechanics, copy installation.
* :mod:`repro.core.dbtree.crash` -- :class:`CrashRecovery`: crash,
  detection, suspicion and rescission hooks, the recovery grace window
  (exists only with a crash plan).
* :mod:`repro.core.dbtree.mirrors` -- :class:`LeafMirrors`: passive
  leaf mirrors and re-homing (crash plan, ``replication_factor >= 2``
  and more than one processor).
* :mod:`repro.core.dbtree.timers` -- :class:`OpTimers`: per-operation
  timeouts with backed-off retries (``op_timeout``).
"""

from repro.core.dbtree.crash import CrashRecovery
from repro.core.dbtree.engine import DBTreeEngine
from repro.core.dbtree.mirrors import LeafMirrors
from repro.core.dbtree.timers import OpTimers

__all__ = [
    "CrashRecovery",
    "DBTreeEngine",
    "LeafMirrors",
    "OpTimers",
]
