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
are resolved relative to the scenario file and require sigma2_watts, which
applies only with channel_csv, and the CSV must have receive_antennas rows
when that key is given. pd_* keys override primal-dual settings; the
solver's tolerances and the record cadence are fixed and have no keys.
Unknown keys are rejected.

Errors name their source, all through channel._naming: every ValueError
raised while reading or building a scenario is re-raised as "<file>:
<message>", one from a channel CSV as "<file>: <csv>: <message>", and a
Scenario or PdSettings message names the YAML key, not the field ("<file>:
pd_gain_dual must be finite and > 0, got -1.0"). A SingularGramError
keeps its class.
"""
from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import _naming, compute_effective_gains, gains_from_db, load_channel_csv
from .primal_dual import PdSettings, integer
from .solver import Scenario

# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# the resolver and the constructor are PyYAML's safe ones in both
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class LoadedScenario:
    """A parsed scenario file: the problem instance plus harness settings."""

    scenario: Scenario
    pd: PdSettings


def _broadcast(key, value, n):
    """A per-user vector from a number or a list of n numbers; a bool is not a number."""
    arr = None
    if not any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        with suppress(TypeError, ValueError, OverflowError):
            arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr is None or arr.ndim != 1:
        raise ValueError(f"{key} must be a number or a list of {n} numbers, got {value!r}")
    if arr.size == 1:
        return np.full(n, float(arr[0]))
    if arr.size != n:
        raise ValueError(f"{key} has {arr.size} entries, expected {n} (n_users)")
    return arr.astype(float)


def _number(key, value, n=None):
    """A real number; a bool, a list, a mapping or null is an error."""
    if not isinstance(value, bool):
        with suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


# YAML key -> (constructor, field, reader). Every Scenario key is required;
# a PdSettings key overrides its default. max_steps is passed as written,
# since PdSettings holds its integer rule.
_FIELDS = {
    "w": (Scenario, "w", _broadcast),
    "p_circuit_watts": (Scenario, "p_circuit", _broadcast),
    "p_max_individual_watts": (Scenario, "p_max", _broadcast),
    "p_sum_max_watts": (Scenario, "p_sum_max", _number),
    "pd_gain_primal": (PdSettings, "k", _broadcast),
    "pd_gain_dual": (PdSettings, "g", _number),
    "pd_init_p_watts": (PdSettings, "init_p", _broadcast),
    "pd_init_lambda": (PdSettings, "init_lambda", _number),
    "pd_max_steps": (PdSettings, "max_steps", lambda key, value, n: value),
}
# field -> YAML key, for the constructors' messages, which start with the field
_KEYS = {field: key for key, (cls, field, read) in _FIELDS.items()}
# the keys that set N and delta, which build_scenario reads itself
_CHANNEL_KEYS = {"n_users", "receive_antennas", "delta_db", "channel_csv", "sigma2_watts"}


def build_scenario(doc: dict, base_dir: str = ".", source: str = "<dict>") -> LoadedScenario:
    """Validate a scenario mapping and assemble the solver structures."""
    with _naming(source, _KEYS):
        if not isinstance(doc, dict):
            raise ValueError("scenario document must be a mapping")
        unknown = set(doc) - set(_FIELDS) - _CHANNEL_KEYS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        if "n_users" not in doc:
            raise ValueError("n_users is required")
        n = integer("n_users", doc["n_users"], 1)
        antennas = doc.get("receive_antennas")
        if antennas is not None:
            antennas = integer("receive_antennas", antennas, n)

        if ("delta_db" in doc) == ("channel_csv" in doc):
            raise ValueError("exactly one of delta_db / channel_csv must be given")
        if "delta_db" in doc:
            if "sigma2_watts" in doc:
                raise ValueError("sigma2_watts applies only with channel_csv, not with delta_db")
            delta = gains_from_db(_broadcast("delta_db", doc["delta_db"], n))
        else:
            if "sigma2_watts" not in doc:
                raise ValueError("channel_csv requires sigma2_watts")
            h = load_channel_csv(os.path.join(base_dir, str(doc["channel_csv"])), n)
            if antennas is not None and h.shape[0] != antennas:
                raise ValueError(f"channel CSV has {h.shape[0]} rows, expected receive_antennas {antennas}")
            delta = compute_effective_gains(h, _number("sigma2_watts", doc["sigma2_watts"]))

        kwargs = {Scenario: {"delta": delta}, PdSettings: {}}
        for key, (cls, field, read) in _FIELDS.items():
            if key in doc:
                kwargs[cls][field] = read(key, doc[key], n)
            elif cls is Scenario:
                raise ValueError(f"{key} is required")
        return LoadedScenario(scenario=Scenario(**kwargs[Scenario]), pd=PdSettings(**kwargs[PdSettings]))


def load_scenario(path) -> LoadedScenario:
    """Read and validate a scenario YAML file."""
    with _naming(path), open(path) as f:
        try:
            doc = yaml.load(f, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the parser's message spans several lines; the CLI prints one
            raise ValueError(f"malformed YAML: {' '.join(str(exc).split())}") from exc
    return build_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)), source=str(path))
