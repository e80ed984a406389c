"""The host-time benchmark; see ``perf/README.md`` and ``perf/run.py``."""
