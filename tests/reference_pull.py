"""The read-every-time pull: the oracle for how ``Engine`` serves pulls.

This is the engine as it synchronized before pulls were served from drained
updates: every pull, AS->DT or bidirectional, reads the property over the
wire, even when the engine observes the property and has already drained
its newest value. That costs a round trip per pull, which is why the engine
reads an observed property only on a miss; the two must agree on every
decision, record and model value, and the property test in test_pull.py
holds them to it.
"""

from __future__ import annotations

from twinrt.engine import Engine, Mapping
from twinrt.values import Value


class ReadingEngine(Engine):
    """An ``Engine`` whose pulls always read the asset's property."""

    def _asset_value(self, mapping: Mapping) -> Value:
        handle = self.gateway(mapping.gateway_id)
        return handle.read_property(mapping.gateway_property).value
