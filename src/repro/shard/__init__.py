"""Sharding: a forest of dB-trees behind a partition directory.

One dB-tree scales reads by replicating interior nodes; it cannot
scale past one root's growth path.  This package runs N independent
dB-trees -- one per shard of the key space -- behind a versioned
:class:`~repro.shard.directory.ShardDirectory`, with per-client
cached views that recover from staleness B-link-style (shed hints on
split, forward pointers on merge), load-driven shard split/merge fed
by each shard's leaf entry counts, and cross-shard range scans
stitched from per-shard B-link walks.

>>> from repro.shard import ShardedCluster
>>> forest = ShardedCluster(num_processors=4, shards=2,
...                         initial_boundaries=(500,), capacity=8,
...                         protocol="semisync", seed=11)
>>> forest.load({k: k * 10 for k in range(0, 1000, 7)}).ok
True
>>> forest.search_sync(700)
7000
>>> forest.check().ok
True
"""

from repro.shard.cluster import ShardedCluster
from repro.shard.directory import DirectoryView, ShardDirectory
from repro.shard.verify import check_shard_coverage, check_sharded

__all__ = [
    "ShardedCluster",
    "ShardDirectory",
    "DirectoryView",
    "check_shard_coverage",
    "check_sharded",
]
