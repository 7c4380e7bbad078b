import shutil
import tempfile
from pathlib import Path

import pytest

from colprob import parse_model

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"
HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches the constants it finds in local source files while
    # tests are collected; keep that cache out of the checkout.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # test_properties.py is skipped then
        return
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    if HYPOTHESIS_HOME in config.stash:
        shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def examples_model():
    return parse_model((MODELS / "examples.colp").read_text())


@pytest.fixture(scope="session")
def channel_model():
    return parse_model((MODELS / "channel.colp").read_text())


@pytest.fixture(scope="session")
def two_coins_cd():
    # Two coin-shaped experiments named c and d, for cross-support queries.
    return parse_model("experiment c : H, T\nexperiment d : H, T\n")
