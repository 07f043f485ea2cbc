from __future__ import annotations

import json
from pathlib import Path

import pytest

from affinetask import (Adversary, agreement_function, build_r_a,
                        check_fairness, chr2_complex, chr_complex,
                        enumerate_adversaries, make_k_of, make_superset_closed,
                        make_t_resilient)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
DATA_DIR = Path(__file__).resolve().parent / "data"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def chr_3():
    return chr_complex(3)


@pytest.fixture(scope="session")
def chr2_3():
    return chr2_complex(3)


@pytest.fixture(scope="session")
def fixture_adversaries() -> dict[str, Adversary]:
    return {
        "obstruction_free_1": make_k_of(3, 1),
        "obstruction_free_2": make_k_of(3, 2),
        "resilient_1": make_t_resilient(3, 1),
        "superset_closed_2_13": make_superset_closed(3, [[2], [1, 3]]),
    }


@pytest.fixture(scope="session")
def fair_live_adversaries() -> list[Adversary]:
    """Every fair n=3 adversary whose full set can run."""
    full = frozenset({1, 2, 3})
    return [a for a in enumerate_adversaries(3)
            if check_fairness(a).fair and agreement_function(a)(full) >= 1]


@pytest.fixture(scope="session")
def fixture_tasks(fixture_adversaries):
    return {name: build_r_a(adv) for name, adv in fixture_adversaries.items()}
