"""Operator tooling: inspect a running dB-tree.

* :mod:`repro.tools.dump` -- human-readable renderings of the tree
  (per-level node map, whole-cluster summary).
"""

from repro.tools.dump import cluster_summary, dump_tree

__all__ = ["cluster_summary", "dump_tree"]
