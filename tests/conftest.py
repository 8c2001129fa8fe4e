import logging
import os
import sys

import pytest

# the checkout these tests live in, for this process and — through the
# inherited PYTHONPATH — every Ray worker, whichever test starts Ray
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def ray_session():
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()
