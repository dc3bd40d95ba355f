"""The config schema: every numeric key of every table rejects a bool, a
string and a value out of its bound, before any work and naming the key."""

import re

import pytest

from berglab import cli, config
from berglab.errors import ConfigInvalidError

SMALL_H1 = {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 6}
CANTOR = {"type": "cantor", "l0": 0.1, "alpha": 1.5, "J": 4}

#: a valid config of each pipeline, a valid spec of each domain and set type
PIPELINES = {
    "selfcheck": {"seed": 0},
    "capacity": {},
    "perfect": {"domain": SMALL_H1},
    "pommerenke": {"domain": {**SMALL_H1, "K": 10}},
    "kernel": {"domain": SMALL_H1},
    "metric": {"domain": SMALL_H1},
    "distance": {"domain": SMALL_H1},
    "fit": {"samples": [[1e-3, 1.0]] * 5},
}
DOMAINS = {"zalcman": SMALL_H1, "cantor": CANTOR}
SETS = {"circle": {"type": "circle", "r": 0.5}, "segment": {"type": "segment"}, "two_disks": {"type": "two_disks"},
        "cantor": CANTOR}

NUMERIC = (config.INT, config.NUM, "a non-empty list of numbers")
ROWS = [
    (scope, name, key, k)
    for scope, tables in (("pipeline", config.PIPELINES), ("domain", config.DOMAINS), ("set", config.SETS))
    for name, table in tables.items()
    for key, k in table.items()
    if k.kind in NUMERIC
]


def config_with(scope: str, name: str, key: str, value) -> dict:
    """A valid config whose ``key``, of the table ``name`` in ``scope``, is ``value``."""
    if scope == "pipeline":
        return {"pipeline": name, **PIPELINES[name], key: value}
    if scope == "domain":
        return {"pipeline": "perfect", "domain": {**DOMAINS[name], key: value}}
    return {"pipeline": "capacity", "set": {**SETS[name], key: value}}


def out_of_bound(k: config.Key):
    """A value that breaks the first condition of ``k.bound``."""
    op, b = k.bound.split(",")[0].split()
    value = float(b) - (op == ">=")
    value = int(value) if k.kind == config.INT else value
    return [value] if k.kind.startswith("a non-empty list") else value


def test_the_rows_cover_every_scope():
    assert {scope for scope, *_ in ROWS} == {"pipeline", "domain", "set"}
    assert len(ROWS) > 30


@pytest.mark.parametrize("scope, name, key, k", ROWS, ids=[f"{s}-{n}-{key}" for s, n, key, _ in ROWS])
def test_numeric_keys_reject_bools_strings_and_values_out_of_bound(tmp_path, scope, name, key, k):
    for value in [True, "1", *([out_of_bound(k)] if k.bound else [])]:
        with pytest.raises(ConfigInvalidError, match=f"{key} must be .*got {re.escape(repr(value))}"):
            cli.run(config_with(scope, name, key, value), str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_every_pipeline_has_one_table():
    assert list(cli.RUNNERS) == list(config.PIPELINES)
