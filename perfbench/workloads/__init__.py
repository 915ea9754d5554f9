"""The benchmark workloads, by the name ``--workload`` takes."""

from perfbench.workloads.fit_dense import FitDense
from perfbench.workloads.relearn_windows import RelearnWindows
from perfbench.workloads.shard_sparse import ShardSparse

WORKLOADS = {
    workload.name: workload
    for workload in (FitDense(), ShardSparse(), RelearnWindows())
}
