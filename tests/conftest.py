import logging
import os
import sys

import pytest

# the checkout these tests live in, for the driver and the Ray workers
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


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
        # workers do not inherit this process's sys.path
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()
