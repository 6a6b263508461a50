"""``collect_metrics``' campaign figures are the ``--json`` campaign block."""

from repro.analysis.export import dataset_summary
from repro.stats.metrics import collect_metrics

#: The ``--json`` campaign block's keys, in their order.
SUMMARY_KEYS = [
    "seed",
    "events_processed",
    "jobs_accounted",
    "daily_gflops_mean",
    "daily_gflops_max",
    "utilization_mean",
    "utilization_max",
    "interval_gflops_max",
    "busy_days",
    "time_weighted_mflops_per_node",
]

#: The metric dict's ``campaign.*`` keys, in their order: the block's
#: figures led by the job count, then the availability block.
CAMPAIGN_METRICS = [
    "campaign.jobs_accounted",
    "campaign.events_processed",
    "campaign.daily_gflops_mean",
    "campaign.daily_gflops_max",
    "campaign.utilization_mean",
    "campaign.utilization_max",
    "campaign.interval_gflops_max",
    "campaign.busy_days",
    "campaign.time_weighted_mflops_per_node",
    "campaign.availability",
    "campaign.node_down_hours",
    "campaign.jobs_killed",
]


class TestCampaignBlock:
    def test_every_campaign_figure_is_the_json_block_value(self, month_dataset):
        metrics = collect_metrics(month_dataset)
        block = dataset_summary(month_dataset)["campaign"]
        for key in SUMMARY_KEYS[1:]:
            assert metrics[f"campaign.{key}"] == float(block[key]), key

    def test_keys_keep_their_order(self, small_dataset):
        metrics = collect_metrics(small_dataset)
        assert [k for k in metrics if k.startswith("campaign.")] == CAMPAIGN_METRICS
        assert list(dataset_summary(small_dataset)["campaign"]) == SUMMARY_KEYS
