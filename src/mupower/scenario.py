"""The problem's inputs: the instance, the primal-dual settings, the rule of
every number they hold, and the YAML and CSV files they are read from.

A scenario file is flat key/value YAML with units spelled out in key names::

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

A channel CSV's M and d = diag((H^H H)^-1), all of H that delta needs, are
cached in __pycache__/<CSV name>.npy beside it: 8 B a user and a header,
4,272 B for 512 users (H took 8,388,896 B). The key is a format number, to
be bumped with any change to the parse or to channel.py's Gram arithmetic,
numpy's version, the CSV's byte count and CRC-32, and n_users; a cache that
misses is rebuilt, like a stale .pyc. It is skipped silently where it cannot
be read or written, safe to delete, and holds its writer's bits (channel.py).

Errors name their source, all through _naming: every ValueError raised
while reading or building a scenario is re-raised as "<file>: <message>",
one from a channel CSV as "<file>: <csv>: <message>", and a Scenario or
PdSettings message names the YAML key, not the field ("<file>:
pd_gain_dual must be finite and > 0, got -1.0"). A SingularGramError
keeps its class; any other becomes a plain ValueError, as some
(UnicodeDecodeError) take other constructor arguments.
"""
from __future__ import annotations

import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np
import yaml

from .channel import SingularGramError, _gram_diag, _zf_gains, gains_from_db

# Arithmetic floor standing in for p = 0 (W); the lower bound of every power.
P_FLOOR = 1e-9

# Gains (1/W), circuit powers and power limits (W) are held well inside the
# range where the closed-form caps are finite and raise no floating-point
# warning; a limit below the floor would leave the box [P_FLOOR, p_max] empty.
_IN_RANGE = ("be > 0 and in [1e-30, 1e30]", lambda v: (v >= 1e-30) & (v <= 1e30))

# The rule of every number Scenario and PdSettings hold: what it must satisfy,
# and the test, besides being finite; integrate tests init_p <= p_u, under cli.main's _naming.
_RULES = {
    "w": ("lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "p_circuit": _IN_RANGE,
    "p_max": (f"be > 0 and in [P_FLOOR = {P_FLOOR} W, 1e30]", lambda v: (v >= P_FLOOR) & (v <= 1e30)),
    "delta": _IN_RANGE,
    "p_sum_max": ("be > 0", lambda v: v > 0),
    "k": ("be finite and > 0", lambda v: v > 0),
    "g": ("be finite and > 0", lambda v: v > 0),
    "init_p": ("lie in (0, p_u]", lambda v: v > 0),
    "init_lambda": ("be finite and >= 0", lambda v: v >= 0),
}


def _checked(name, value, shape):
    """value after name's rule: a float for shape (), else a read-only float
    array of that shape, to which a scalar or one-entry value broadcasts (the
    last axis holds the users). Every error message starts with name."""
    rule, ok = _RULES[name]
    value = np.asarray(value, dtype=float)
    if value.ndim > len(shape) or (value.size != 1 and value.shape != shape):
        expected = f"a scalar or {shape} ({shape[-1]} effective gains)" if shape else "a scalar"
        raise ValueError(f"{name} has shape {value.shape}, expected {expected}")
    arr = np.broadcast_to(value, shape).copy()
    bad = ~(np.isfinite(arr) & ok(arr))
    if bad.any():
        raise ValueError(f"{name} must {rule}, got {arr[bad][0]}")
    arr.setflags(write=False)
    return arr if shape else float(arr)


def integer(name, value, low) -> int:
    """An integral count >= low: 1e3 is 1000, while 2.5, inf and True are errors."""
    count = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(count)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A problem instance: per-user vectors and the budget (W).

    delta (linear effective gains, 1/W) is a non-empty vector that sets the
    number of users N. w (SE/EE preference weight), p_circuit and p_max (W)
    hold one entry per user, and scalars broadcast to N. Every field is
    checked by _RULES, and the vectors are stored as read-only float arrays, so
    dataclasses.replace(sc, w=...) yields a checked variant. The budget must
    cover every user at the floor. Scenarios compare and hash by identity.
    """

    w: np.ndarray
    p_circuit: np.ndarray
    p_max: np.ndarray
    delta: np.ndarray
    p_sum_max: float

    def __post_init__(self):
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        if delta.ndim != 1 or delta.size == 0:
            raise ValueError(f"delta must be a non-empty vector, got shape {delta.shape}")
        for name in ("delta", "w", "p_circuit", "p_max"):
            object.__setattr__(self, name, _checked(name, getattr(self, name), delta.shape))
        object.__setattr__(self, "p_sum_max", _checked("p_sum_max", self.p_sum_max, ()))
        n = delta.size
        if self.p_sum_max < n * P_FLOOR:
            raise ValueError(
                f"p_sum_max {self.p_sum_max} is below n_users * p_floor = {n * P_FLOOR}"
            )

    @property
    def n_users(self) -> int:
        return self.delta.size


@dataclass(frozen=True, eq=False)
class PdSettings:
    """Gains, start and step budget for the primal-dual integrator.

    k and init_p hold a scalar or one entry per user, and init_p = None starts
    from half the caps. _RULES checks each number; integrate, the shapes.
    Settings compare and hash by identity.
    """

    k: float | np.ndarray = 1e-3
    g: float = 1e-3
    init_p: np.ndarray | None = None
    init_lambda: float = 0.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        shapes = {"k": np.shape(self.k), "g": (), "init_lambda": ()}
        if self.init_p is not None:
            shapes["init_p"] = np.shape(self.init_p)
        for name, shape in shapes.items():
            object.__setattr__(self, name, _checked(name, getattr(self, name), shape))
        object.__setattr__(self, "max_steps", integer("max_steps", self.max_steps, 1))


@contextmanager
def _naming(source, names=None):
    """Re-raise a ValueError as the module docstring says, its first word renamed by names."""
    try:
        yield
    except ValueError as exc:
        first, space, rest = str(exc).partition(" ")
        cls = SingularGramError if isinstance(exc, SingularGramError) else ValueError
        raise cls(f"{source}: {(names or {}).get(first, first)}{space}{rest}") from exc


def load_channel_csv(path, n_users: int, antennas: int | None = None) -> np.ndarray:
    """Read an M x N complex channel matrix from CSV, with antennas rows when that is given.

    One row per receive antenna. Two cell layouts are accepted:
      * N columns of complex literals, e.g. ``0.3+0.5j``;
      * 2N real columns as (re, im) pairs per user.
    The layout is inferred from the column count of the first non-blank
    row; blank lines and a UTF-8 byte-order mark are skipped. Every
    ValueError names the file.
    """
    with _naming(path), open(path, encoding="utf-8-sig") as f:
        # rows are parsed as they are read: a list of every line would put
        # the whole file's text on the heap at once
        rows = (line for line in f if line.strip())
        first = next(rows, None)
        if first is None:
            raise ValueError("empty channel CSV")
        width = first.count(",") + 1
        if width not in (n_users, 2 * n_users):
            raise ValueError(
                f"channel CSV has {width} columns; expected {n_users} complex "
                f"or {2 * n_users} (re, im) columns"
            )
        dtype = complex if width == n_users else float
        h = np.loadtxt(chain([first], rows), delimiter=",", dtype=dtype, comments=None, ndmin=2)
        h = h if dtype is complex else h.view(complex)  # (re, im) pairs: no copy
        if antennas is not None and len(h) != antennas:
            raise ValueError(f"channel CSV has {len(h)} rows, expected receive_antennas {antennas}")
    return h


def _channel_gram_diag(path, n_users, antennas):
    """diag((H^H H)^-1) of the channel CSV at path: from its cache when that matches, else from H."""
    import zlib  # only a channel load needs it: sweep and pd, which read no CSV, never run this
    cache = os.path.join(os.path.dirname(path), "__pycache__", os.path.basename(path) + ".npy")
    # the format, bumped with any change to the parse or to channel._gram_diag; numpy's version;
    # the CSV's byte count and CRC-32, in 64 KiB blocks (1 MiB blocks cost 0.3 MB of RSS); n_users
    key = [2, zlib.crc32(np.__version__.encode()), 0, 0, n_users]
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            key[2:4] = key[2] + len(block), zlib.crc32(block, key[3])
    # the key, M, then d as one .npy array: not np.load, which also opens a zip or a pickle;
    # another M is parsed again, for the parse's own message
    with suppress(OSError, ValueError), open(cache, "rb") as f:
        d = np.lib.format.read_array(f, allow_pickle=False)
        if d.dtype == float and d.shape == (6 + n_users,) and d[:5].tolist() == key and antennas in (None, d[5]):
            return d[6:]
    h = [load_channel_csv(path, n_users, antennas)]  # popped: _gram_diag frees H before the factorisation
    d = np.concatenate([key, [len(h[0])], _gram_diag(h.pop())])
    tmp = f"{cache}.{os.getpid()}.npy"  # written whole, then renamed: no reader sees half a file
    with suppress(OSError):
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        np.save(tmp, d)
        os.replace(tmp, cache)
    with suppress(OSError):
        os.remove(tmp)  # there only if the write failed
    return d[6:]


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
            csv = os.path.join(base_dir, str(doc["channel_csv"]))
            delta = _zf_gains(_channel_gram_diag(csv, n, antennas), _number("sigma2_watts", doc["sigma2_watts"]))

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
