"""The dataset's interval series against the per-interval reference loops.

``daily_rates``, ``interval_gflops`` and ``interval_dma_bytes_per_node``
reduce one columnar table of interval rows with numpy; the oracle in
``series_reference.py`` walks the intervals one at a time.  Integer sums
are exact and the float work is the same IEEE operations in the same
order, so the two must agree bit for bit, on a healthy campaign and on
a ``pathological`` one (dropped passes, missing nodes, interpolated
intervals), serial and sharded.
"""

import numpy as np
import pytest

from repro.core.study import resolve_config, run_study
from tests.core import series_reference as ref

CAMPAIGNS = {
    "healthy": ({"seed": 7, "n_days": 4, "n_nodes": 32, "n_users": 8}, None),
    "pathological": (
        {"seed": 7, "n_days": 4, "n_nodes": 32, "n_users": 8, "fault_profile": "pathological"},
        None,
    ),
    "pathological-sharded": (
        {"seed": 5, "n_days": 4, "n_nodes": 32, "n_users": 8, "fault_profile": "pathological"},
        2,
    ),
}


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def campaign(request):
    settings, shard_days = CAMPAIGNS[request.param]
    return request.param, run_study(resolve_config(settings), shard_days=shard_days, workers=1)


@pytest.fixture
def dataset(campaign):
    return campaign[1]


def test_pathological_campaigns_cover_the_hard_cases(campaign):
    name, dataset = campaign
    ivs = dataset.collector.intervals()
    if name.startswith("pathological"):
        assert any(iv.interpolated for iv in ivs)
        assert any(iv.n_nodes < dataset.config.n_nodes for iv in ivs)
    else:
        assert all(iv.n_nodes == dataset.config.n_nodes for iv in ivs)


def test_daily_rates_match_reference(dataset):
    expected = ref.daily_rates(dataset)
    assert len(expected) == dataset.config.n_days
    assert dataset.daily_rates() == expected


@pytest.mark.parametrize("series", ["interval_gflops", "interval_dma_bytes_per_node"])
def test_interval_series_match_reference_bitwise(dataset, series):
    times, values = getattr(dataset, series)()
    ref_times, ref_values = getattr(ref, series)(dataset)
    assert times.dtype == values.dtype == np.float64
    assert times.tobytes() == ref_times.tobytes()
    assert values.tobytes() == ref_values.tobytes()
    assert values.any()
