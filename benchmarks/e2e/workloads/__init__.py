"""The seven workloads, by the names ``BENCHMARK.json`` gives them."""

from workloads import (
    campaign,
    check_fuzz,
    explore,
    gcs_udp,
    service_http,
    service_sim,
)

WORKLOADS = {
    "campaign_fresh": campaign.campaign_fresh,
    "campaign_cascading": campaign.campaign_cascading,
    "check_fuzz": check_fuzz.check_fuzz,
    "explore": explore.explore,
    "service_sim": service_sim.service_sim,
    "service_http": service_http.service_http,
    "gcs_udp": gcs_udp.gcs_udp,
}
