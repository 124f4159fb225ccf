"""Scenario files: flat key/value YAML with units spelled out in key names.

Example::

    n_users: 2
    receive_antennas: 2
    delta_db: [20.0, 20.0]          # or channel_csv + sigma2_watts
    w: [0.5, 0.5]                   # scalars broadcast to all users
    p_max_individual_watts: 1.0
    p_circuit_watts: 0.1
    p_sum_max_watts: 1.5
    pd_gain_primal: 0.001
    pd_gain_dual: 0.001

Exactly one of delta_db / channel_csv must be present; channel_csv paths
are resolved relative to the scenario file and require sigma2_watts, and
the CSV must have receive_antennas rows when that key is given.
pd_* keys override primal-dual settings; the solver's tolerances and the
record cadence are fixed and have no keys. Unknown keys are rejected.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import compute_effective_gains, gains_from_db, load_channel_csv
from .primal_dual import PdSettings
from .solver import Scenario

# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# the resolver and the constructor are PyYAML's safe ones in both
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_PD_KEYS = {
    "pd_gain_primal": "k",
    "pd_gain_dual": "g",
    "pd_init_p_watts": "init_p",
    "pd_init_lambda": "init_lambda",
    "pd_max_steps": "max_steps",
}
_KNOWN_KEYS = {
    "n_users",
    "receive_antennas",
    "delta_db",
    "channel_csv",
    "sigma2_watts",
    "w",
    "p_max_individual_watts",
    "p_circuit_watts",
    "p_sum_max_watts",
} | set(_PD_KEYS)


@dataclass
class LoadedScenario:
    """A parsed scenario file: the problem instance plus harness settings."""

    scenario: Scenario
    pd: PdSettings


def _broadcast(doc, key, n, source):
    """A per-user vector from a number or a list of n numbers."""
    value = doc[key]
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != 1:
        raise ValueError(f"{source}: {key} must be a number or a list of {n} numbers, got {value!r}")
    if arr.size == 1:
        return np.full(n, float(arr[0]))
    if arr.size != n:
        raise ValueError(f"{source}: {key} has {arr.size} entries, expected {n} (n_users)")
    return arr.astype(float)


def _integer(doc, key, source):
    """An integral count from the document; 2.7 is an error, not 2."""
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{source}: {key} must be an integer, got {value!r}")
    return value


def _number(doc, key, source):
    """A real number from the document; a list, a mapping or null is an error."""
    value = doc[key]
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{source}: {key} must be a number, got {value!r}") from None


def build_scenario(doc: dict, base_dir: str = ".", source: str = "<dict>") -> LoadedScenario:
    """Validate a scenario mapping and assemble the solver structures."""
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: scenario document must be a mapping")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"{source}: unknown keys {sorted(unknown)}")

    if "n_users" not in doc:
        raise ValueError(f"{source}: n_users is required")
    n = _integer(doc, "n_users", source)
    if n < 1:
        raise ValueError(f"{source}: n_users must be >= 1, got {n}")

    antennas = None
    if doc.get("receive_antennas") is not None:
        antennas = _integer(doc, "receive_antennas", source)
        if antennas < n:
            raise ValueError(
                f"{source}: receive_antennas {antennas} < n_users {n}"
            )

    has_db = "delta_db" in doc
    has_csv = "channel_csv" in doc
    if has_db == has_csv:
        raise ValueError(f"{source}: exactly one of delta_db / channel_csv must be given")
    if has_db:
        delta = gains_from_db(_broadcast(doc, "delta_db", n, source))
    else:
        if "sigma2_watts" not in doc:
            raise ValueError(f"{source}: channel_csv requires sigma2_watts")
        path = os.path.join(base_dir, str(doc["channel_csv"]))
        h = load_channel_csv(path, n)
        if antennas is not None and h.shape[0] != antennas:
            raise ValueError(
                f"{source}: channel CSV has {h.shape[0]} rows, expected receive_antennas {antennas}"
            )
        delta = compute_effective_gains(h, _number(doc, "sigma2_watts", source))

    for key in ("w", "p_max_individual_watts", "p_circuit_watts", "p_sum_max_watts"):
        if key not in doc:
            raise ValueError(f"{source}: {key} is required")

    scenario = Scenario(
        w=_broadcast(doc, "w", n, source),
        p_circuit=_broadcast(doc, "p_circuit_watts", n, source),
        p_max=_broadcast(doc, "p_max_individual_watts", n, source),
        delta=delta,
        p_sum_max=_number(doc, "p_sum_max_watts", source),
    )

    pd_kwargs = {}
    for key, attr in _PD_KEYS.items():
        if key not in doc:
            continue
        if attr in ("k", "init_p"):
            pd_kwargs[attr] = _broadcast(doc, key, n, source)
        elif attr == "max_steps":
            pd_kwargs[attr] = doc[key]  # PdSettings holds the integer rule
        else:
            pd_kwargs[attr] = _number(doc, key, source)
    return LoadedScenario(scenario=scenario, pd=PdSettings(**pd_kwargs))


def load_scenario(path) -> LoadedScenario:
    """Read and validate a scenario YAML file."""
    with open(path) as f:
        try:
            doc = yaml.load(f, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the parser's message spans several lines; the CLI prints one
            raise ValueError(f"{path}: malformed YAML: {' '.join(str(exc).split())}") from exc
    return build_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)), source=str(path))
