"""One module per workload (the two coupled-model sizes share ``gcm``)."""
