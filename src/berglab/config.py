"""The config schema: each key of a pipeline config, a domain spec and a
capacity ``set`` spec, with its kind, default and bound.  The README's
config reference is rendered from these tables."""

import math
import operator
from typing import NamedTuple

from .asymptotics import MODELS
from .errors import ConfigInvalidError


class Key(NamedTuple):
    """``kind`` is a phrase of ``KINDS``; "retired", refused for the reason
    ``note`` gives; or what a tuple ``bound`` chooses among: strings, or the
    spec types of a ``domain`` or ``set``.  Otherwise ``bound`` holds
    conditions, such as "> 0, < 0.5", that a number or each of a list meets.
    ``note``, shown in the README, says how a pipeline derives a default of
    None, or who reads the key."""

    kind: str
    default: object = "required"
    bound: object = None
    note: str = ""


def _num(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


INT, NUM, PAIR = "an integer", "a number", "two integers [k_lo, k_hi]"
MODEL_LIST = f"a non-empty list of {', '.join(MODELS)}"
KINDS = {
    INT: lambda v: type(v) is int,
    NUM: _num,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a non-empty list of numbers": lambda v: type(v) is list and v != [] and all(map(_num, v)),
    MODEL_LIST: lambda v: type(v) is list and v != [] and all(type(m) is str and m in MODELS for m in v),
    PAIR: lambda v: type(v) is list and len(v) == 2 and all(type(k) is int for k in v),
    # NaN and infinity pass: the fit rejects them itself, as a module error
    "a list of [x, value] pairs of numbers": lambda v: type(v) is list
    and all(type(p) is list and len(p) == 2 and all(type(x) in (int, float) for x in p) for p in v),
}
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}

SEED = Key(INT, None, ">= 0", "only selfcheck reads it; the manifest records it")
SWEEP = {
    "domain": Key("domain", bound=("zalcman",)),
    "k_range": Key(PAIR, None, note="1 <= k_lo <= k_hi <= K; default [3, min(10, K - 1)], metric [2, min(6, K - 1)]"),
    "degree": Key("retired", None, note="every band sweep uses bergman.default_basis: polynomials up to degree 8 "
                  "and poles of orders 1 and 2 at each hole"),
}
H_RETIRED = Key("retired", None, note="perfect tests the zalcman domain's own h, its family at its alpha (h1) or "
                "beta (h2)")
PIPELINES = {
    "selfcheck": {"seed": Key(INT, bound=">= 0", note="seed of the Monte-Carlo spot check")},
    "capacity": {
        "set": Key("set", {"type": "circle", "r": 0.5}, ("circle", "segment", "two_disks", "cantor")),
        "schedule": Key("retired", None, note="the capacity estimate runs one search at the tolerance profile's n_cap "
                        "(fast 32, default 64, strict 128); choose it with --tolerance-profile"),
        "seed": SEED,
    },
    "perfect": {"domain": Key("domain", bound=("zalcman", "cantor")),
                "eps_list": Key("a non-empty list of numbers", [0.1], "> 0"),
                "family": H_RETIRED, "param": H_RETIRED, "seed": SEED},
    "pommerenke": {"domain": SWEEP["domain"], "a": Key(NUM, 0.0, note="the chain's start point, on the boundary"),
                   "c": Key(NUM, 1.0, "> 0"), "s1": Key(NUM, None, "> 0", "default x1 / 10"),
                   "k": Key(INT, 5, ">= 1", "the depth; k = 0 would certify only the vacuous floor 1"), "seed": SEED},
    "kernel": {**SWEEP, "models": Key(MODEL_LIST, ["K1", "K2"]),
               "fit_column": Key("fit column", "K_low", ("K_low", "witness_bound", "equilibrium_bound")),
               "equilibrium": Key("true or false", False), "seed": SEED},
    "metric": {**SWEEP, "witness": Key("retired", None, note="witness_ratio is the best combination, zero at the "
                                       "point, of the poles at holes k - 1, k and k + 1: at least the two- and the "
                                       "three-pole witness it chose between"),
               "seed": SEED},
    "distance": {**SWEEP, "models": Key(MODEL_LIST, ["D1", "D2"]), "seed": SEED},
    "fit": {"samples": Key("a list of [x, value] pairs of numbers", None, note="one of samples and samples_csv"),
            "samples_csv": Key("a string", None, note="a CSV file, read for its columns x and value"),
            "models": Key(MODEL_LIST, ["K1", "K2"]), "seed": SEED},
}
DOMAINS = {
    "zalcman": {"family": Key("scale family", bound=("h1", "h2")), "alpha": Key(NUM, None, "> 1", "h1 reads it"),
                "beta": Key(NUM, None, "> 0", "h2 reads it"), "x1": Key(NUM, bound="> 0, < 1"),
                "K": Key(INT, bound=">= 1"),
                "variant": Key("retired", None, note="every zalcman domain is the superset truncation; the "
                               "sandwich was a subdomain, whose kernel bounds the untruncated domain's in neither "
                               "direction")},
    "cantor": {"l0": Key(NUM, bound="> 0, < 0.5"), "alpha": Key(NUM, bound=">= 1"), "J": Key(INT, bound=">= 0")},
}
GRID = Key(INT, 512, ">= 1")
SETS = {
    "circle": {"center": Key(NUM, 0.0), "r": Key(NUM, bound="> 0"), "grid": GRID},
    "segment": {"a": Key(NUM, -1.0), "b": Key(NUM, 1.0), "grid": GRID},
    "two_disks": {"r": Key(NUM, 0.1, "> 0"), "d": Key(NUM, 0.5), "grid": GRID},
    "cantor": {**DOMAINS["cantor"], "grid": GRID},
}
NESTED = {"domain": DOMAINS, "set": SETS}


def check(spec, tables: dict, what: str, where: str, allowed: tuple = (), selector: str = "type") -> tuple:
    """(t, each key of table t with its value in ``spec``, a number as a
    float, or its default), t = ``spec[selector]`` being one of ``allowed``
    (default: every table of ``tables``).  Raises ConfigInvalidError naming
    each unknown key, missing required key, value of the wrong kind and value
    out of bound, with the keys that table t allows."""
    t = spec.get(selector) if type(spec) is dict else None
    allowed = allowed or tuple(tables)
    if t not in allowed:  # a tuple: t may be unhashable JSON
        raise ConfigInvalidError(f"{where} needs a {' or '.join(allowed)} {what}, got {spec!r}")
    table, where = tables[t], f"the {t} {what}"
    found = [f"unknown key {key!r}" for key in spec if key not in table and key != selector]
    for key, k in table.items():
        v = spec.get(key)
        conditions = [c.split() for c in k.bound.split(",")] if type(k.bound) is str else []
        if key not in spec:
            if k.default == "required":
                found.append(f"{key} is required")
        elif k.kind == "retired":
            found.append(f"{key!r} is no longer read: {k.note}")
        elif k.kind in NESTED:
            check(v, NESTED[k.kind], k.kind, where, k.bound)
        elif type(k.bound) is tuple:
            if v not in k.bound:
                found.append(f"unknown {k.kind} {v!r}: {key} is one of {', '.join(k.bound)}")
        elif not KINDS[k.kind](v):
            found.append(f"{key} must be {k.kind}, got {v!r}")
        elif not all(OPS[op](x, float(b)) for op, b in conditions for x in (v if type(v) is list else [v])):
            bound = " and ".join(f"{key} {op} {b}" for op, b in conditions)
            found.append(f"{key} must be {k.kind} with {bound}, got {v!r}")
    if found:
        keys = ", ".join(key for key, k in table.items() if k.kind != "retired")
        raise ConfigInvalidError(f"{where}: {'; '.join(found)} (its keys: {keys})")
    return t, {key: float(spec[key]) if key in spec and k.kind == NUM else spec.get(key, k.default)
               for key, k in table.items()}
