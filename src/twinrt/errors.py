"""Exception hierarchy for the twin runtime.

Every error named by an operation contract has its own class so callers can
catch precisely. All inherit from TwinError.
"""

from __future__ import annotations


class TwinError(Exception):
    """Base class for all runtime errors."""


# --- gateway / wire ---------------------------------------------------------

class ConnectFailed(TwinError):
    """Transport-level connection to an asset failed."""


class CatalogMismatch(TwinError):
    """Asset advertised a different element catalog than the descriptor."""

    def __init__(self, message: str, differences: list[str] | None = None):
        super().__init__(message)
        self.differences = differences or []


class ProtocolError(TwinError):
    """Malformed or out-of-contract message on the wire."""


class NoSuchElement(TwinError):
    """Named element is not declared on the gateway."""


class WrongKind(TwinError):
    """Operation invoked against an element of a different kind."""


class ReadOnlyViolation(TwinError):
    """Write attempted on a ReadOnly property."""


class SchemaViolation(TwinError):
    """Value does not conform to the declared schema."""


class AssetFault(TwinError):
    """Asset reported a failure while executing a function."""


class Disconnected(TwinError):
    """Connection to the asset is gone; the handle is dead."""


# --- data manager -----------------------------------------------------------

class MissingMandatoryProperty(TwinError):
    """Record lacks an Origin or Timeliness property."""


class StorageFailure(TwinError):
    """A run output could not be opened, or a journal append or flush failed."""


class DanglingModelRef(TwinError):
    """Model element reference does not resolve."""


class CorruptJournal(TwinError):
    """Non-trailing malformed journal entry."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


# --- models -----------------------------------------------------------------

class DuplicateLanguage(TwinError):
    """language_id already registered."""


class IllFormedLanguage(TwinError):
    """Language schema references an undeclared kind or is inconsistent."""


class UnknownLanguage(TwinError):
    """language_id not registered."""


class DuplicateModel(TwinError):
    """model_id already exists."""


class UnknownModel(TwinError):
    """model_id does not exist."""


class IntegrityViolation(TwinError):
    """Model transformation violates language integrity rules.

    Carries the ids of the failing rules.
    """

    def __init__(self, message: str, failed_rules: list[str] | None = None):
        super().__init__(message)
        self.failed_rules = failed_rules or []


class NotResponsible(TwinError):
    """Manager is not responsible for the model and no delegation path exists."""


class UnknownOperator(TwinError):
    """operator_id not known to the manager or not applicable to the language."""


class ArgumentMismatch(TwinError):
    """Operator arguments do not match its parameter list."""


class DelegationCycle(TwinError):
    """Delegation would revisit a manager within one request."""


# --- engine -----------------------------------------------------------------

class UnresolvedModelSide(TwinError):
    """Mapping's model side does not resolve to an existing model property."""


class UnresolvedGatewaySide(TwinError):
    """Mapping's gateway side does not resolve to a declared gateway Property."""


class ReadOnlyTarget(TwinError):
    """DT-to-AS flow targets a ReadOnly gateway property."""


class MissingLastUpdateSupport(TwinError):
    """Bidirectional mapping on a model that does not maintain a last-update property."""


class DuplicateMapping(TwinError):
    """mapping_id already registered."""


class TransformFailure(TwinError):
    """Value transform could not be applied to the value."""


class TickSequenceError(TwinError):
    """tick(now) called with now != previous tick + 1."""


# --- services ---------------------------------------------------------------

class DuplicateService(TwinError):
    """service_id already registered."""


class DanglingGrantTarget(TwinError):
    """Grant names a model or gateway that does not exist."""


class PermissionDenied(TwinError):
    """Mediated request not covered by the service's grant.

    ``capability`` is the missing capability, e.g. ``command-gateway:tank01``.
    """

    def __init__(self, message: str, capability: str = ""):
        super().__init__(message)
        self.capability = capability


# --- conformance / config / cli ---------------------------------------------

class UnresolvedReference(TwinError):
    """Configuration contains a cross-reference that does not resolve."""


class ConfigParseError(TwinError):
    """Configuration file is syntactically or structurally invalid."""


class AuditFailed(TwinError):
    """Configuration audit reported Violated rules and --force was not given."""


class ScenarioAssertionFailed(TwinError):
    """An Expect step in a scenario script did not hold."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class NotRunning(TwinError):
    """No running twin reachable at the control address."""
