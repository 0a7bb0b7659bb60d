"""Golden digests of every program's ``SamplingReport``.

The sampling phase runs the real workload kernels, and everything
downstream (profile cache, fitted curves, plans, ``selfcheck``) reads
its report.  Kernel rewrites must leave every report bit-identical, so
each program's report at scale 2^-6 is pinned by the SHA-256 of its
canonical JSON.  The digests were recorded from the kernels as they
stood before the vectorised GBDT, SpMV-sweep and KMeans-update
rewrites, which must reproduce them exactly.  A kernel change that
moves any sampled byte count or time fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import DEFAULT_CONFIG
from repro.runtime.profcache import sampling_report_to_jsonable
from repro.runtime.sampling import SamplingPhase
from repro.workloads import get_workload, workload_names

SCALE = 2.0**-6

GOLDEN = {
    "blackscholes": "64899331fd9888f024c5e1594031066a9f8264c905110bebeae2088d7631bb15",
    "kmeans": "99d209c5091095e320b48c2d3b1d8145de74535e2a66cb7b85db5fba19f8a281",
    "lightgbm": "000128517925b1472c02a3c7fc265228828083151e87d23a0f99e631432b8ebd",
    "matrixmul": "ae7d66f41d6bc94378e5c3afe5f1b0a39723c794596d8e875fd6942c54c3b0bc",
    "mixedgemm": "d139e92d2035833c063610cd2dc6a2be8deb1b09981ccef43f3f1700ec279fdd",
    "pagerank": "805b455e5626a9aa1d3f5c9b1725a23bc62d14923553b884adcdca567a88a274",
    "sparsemv": "30a56be5d909fff86057fcfaa727d2dd5f840478e84cde2d593da5e233c90419",
    "tpch_q1": "ebcc9a88485e5c6d0cfd3dd5cd50d122e9c0c6f02bc07da38ff17bf5fd3b7a11",
    "tpch_q6": "37bf1d395ff3efae716ee6e53ed3f7267dfc160a3326d20ffd314a5c41856b3c",
    "tpch_q14": "903f0dc4676203f36e5634e245be28c7a980776aafcab0fdacede35840a98a0d",
}


def report_digest(name: str) -> str:
    workload = get_workload(name, scale=SCALE)
    report = SamplingPhase(DEFAULT_CONFIG).run(workload.program, workload.dataset)
    blob = json.dumps(
        sampling_report_to_jsonable(report),
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def test_every_program_is_pinned():
    assert sorted(GOLDEN) == sorted(workload_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampling_report_is_bit_identical(name):
    assert report_digest(name) == GOLDEN[name]
