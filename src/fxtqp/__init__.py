"""QP-based synthesis of safe controllers with fixed-time reach guarantees.

Import each name from its module, e.g. ``fxtqp.scenarios`` or
``fxtqp.simulation``; the package re-exports nothing.
"""

__version__ = "0.1.0"
