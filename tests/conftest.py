from pathlib import Path

import pytest
from hypothesis import settings

from heapabstract import parse_heap

# Property tests replay the same examples on every run, with no example
# database and no per-example deadline, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

FIXTURE_DIR = Path(__file__).parent / "fixtures"
GOLDEN_DIR = Path(__file__).parent / "golden"


def load_fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def load_component(name: str):
    return parse_heap(load_fixture_text(name)).components[0]


@pytest.fixture(scope="session")
def fig1():
    return load_component("fig1_sll.json")


@pytest.fixture(scope="session")
def fig2():
    return load_component("fig2_tree.json")


@pytest.fixture(scope="session")
def fig3():
    return load_component("fig3_cycle.json")


@pytest.fixture(scope="session")
def fig4():
    return load_component("fig4_dag.json")


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR
