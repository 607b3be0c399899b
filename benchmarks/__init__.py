"""Benchmark suite: one module per experiment id, named in its docstring."""
