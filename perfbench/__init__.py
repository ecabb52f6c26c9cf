"""The repository benchmark: three workloads over the XSQL reproduction.

See ``perfbench/README.md`` for the workloads, metrics and command.
"""
