"""The benchmark measures the numpy backend and checks EMD with scipy;
without that stack its tests are skipped wholesale, like the repo's own
EMD-quality suites."""

try:
    import numpy  # noqa: F401
    import scipy  # noqa: F401
except ImportError:
    collect_ignore_glob = ["test_*.py"]
