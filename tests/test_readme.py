"""The README's library example runs as written, and its config reference is
the one rendered from ``berglab.config``, so API or schema drift fails the
suite."""

import json
import re
from pathlib import Path

from berglab import config

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = re.compile(r"<!-- config reference: .*? -->\n(.*?)<!-- end of config reference -->\n", flags=re.S)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def value_text(key: str, k: config.Key) -> str:
    if k.kind == "retired":
        return "retired"
    if k.kind in config.NESTED:
        return f"a {' or '.join(f'`{t}`' for t in k.bound)} {k.kind} spec"
    if type(k.bound) is tuple:
        return f"{k.kind}: " + ", ".join(f"`{b}`" for b in k.bound)
    if k.bound:
        return f"{k.kind} with " + " and ".join(f"{key} {c.strip()}" for c in k.bound.split(","))
    return k.kind


def default_text(k: config.Key) -> str:
    if k.default == "required":
        return "required"
    return "" if k.default is None else f"`{json.dumps(k.default)}`"


def config_reference() -> str:
    """One table row per key of every pipeline, domain type and set type."""
    rows = ["| spec | key | value | default | note |", "|---|---|---|---|---|"]
    for scope, tables in (("config", config.PIPELINES), ("domain", config.DOMAINS), ("set", config.SETS)):
        for name, table in tables.items():
            rows += [
                f"| `{name}` {scope} | `{key}` | {value_text(key, k)} | {default_text(k)} | {k.note} |"
                for key, k in table.items()
            ]
    return "\n".join(rows) + "\n"


def test_readme_config_reference_is_rendered_from_the_schema():
    found = REFERENCE.findall(README.read_text(encoding="utf-8"))
    assert found == [config_reference()], "README config reference differs; render it with:\n" + config_reference()
