"""Closed-loop benchmark of the fxtqp package (see perfbench/README.md)."""
