"""Qubit teleportation as a generalized measurement.

Simulates remote ensemble preparation (steering), the four-outcome
teleportation POVM and its projective dilation, unambiguous state
discrimination, perfect conclusive teleportation over partially entangled
pure states, and quasi-conclusive teleportation over a filtered mixed
resource, together with the closed-form success probabilities and
fidelities of each protocol.

The API is the six modules ``linalg``, ``states``, ``povm``, ``steering``,
``protocols`` and ``cli``; the package namespace re-exports none of them.
"""

__version__ = "0.1.0"
