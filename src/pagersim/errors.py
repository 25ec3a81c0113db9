"""Exception types raised by the simulator core.

Scenario-file problems (syntax, undeclared names) have their own hierarchy
in ``scenario.py``; everything here concerns a machine that is already
running.
"""


class SimulationError(Exception):
    """Base class for errors raised while a simulation is executing."""


class UnknownReceiverError(SimulationError):
    """A message was sent to a thread id that was never registered."""


class UnknownThreadError(SimulationError):
    """An operation referenced a thread id that does not exist."""


class NotSchedulableError(SimulationError):
    """A thread was asked to run while suspended or blocked."""


class DeadlockError(SimulationError):
    """The scheduler found no runnable thread."""


class MarkerOverflowError(SimulationError):
    """A page marker did not fit in the 31 bits reserved for it."""


class NotMappedError(SimulationError):
    """Unmap was attempted on a page with no present mapping."""


class BadRegionError(SimulationError):
    """A region id was outside the configured region table."""


class NotRegionManagerError(SimulationError):
    """A map/unmap call came from a thread that does not manage the region."""


class RevokedRegionError(SimulationError):
    """A map was attempted into a region whose management contract was revoked."""


class OutOfFramesError(SimulationError):
    """The physical frame pool was exhausted."""


class OverlappingRangeError(SimulationError):
    """A mapping-database insert overlapped an existing range."""


class NoDatabaseEntryError(SimulationError):
    """A reflected fault had no covering mapping-database range."""


class NoOutstandingFaultError(SimulationError):
    """A reply or reflection named a fault that is not in flight."""


class WrongPagerError(SimulationError):
    """A reply or reflection came from a thread that does not hold the fault."""


class SchemeMismatchError(SimulationError):
    """The scenario uses features the selected dispatch scheme lacks."""


class IncompleteCycleError(SimulationError):
    """Cycle metrics were requested for a fault whose thread never resumed."""
