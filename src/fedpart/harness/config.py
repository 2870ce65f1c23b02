"""Experiment configuration: one JSON document, strictly validated.

Every section is optional and falls back to the package defaults; unknown
keys anywhere are rejected outright so a typo cannot silently run the
default experiment.  Devices are either listed explicitly or described by
a generator spec whose draws come from the run's seeded size stream.

Every section is an object read off its dataclass's fields, and each value
must have its field's type: a float takes any finite number (10 and 10.0
echo alike), an int an integral one (2.7 is refused), a list a list of
numbers, an optional field also null, and "mode" and "path" a string.
Booleans and numeric strings are no numbers.  Anything else is a UsageError
(exit 2) naming section and key, e.g. ``game.alpha must be float, got '10'``.

Schema (all keys optional):

    {
      "devices": [{"id": 0, "data_size": 500.0, "beta": 1e-3,
                   "gamma": 1e-5, "channel_cost": 3.5e5}, ...]
                 -- or --
                 {"count": 8, "size_choices": [50, 500],
                  "probabilities": [0.5, 0.5], "seed": 42},
      "game":    {"alpha": 10.0, "err_a": 13.2, "err_b": 0.7, "delta": 1e-3},
      "mech":    {"server": {"a_e": 1.0, "b_e": 1.0, "sigma": 1e5, "rho": 10.0,
                             "s0": 500.0, "r0": 50.0, "horizon": 1.0},
                  "device": {"theta": 0.5, "a_d": 1.0, "b_d": 1.0}
                            -- or a list, one entry per device; a list of
                               one entry is shared by every device --},
      "solver":  {"mode": "direct" | "decomposed", "xi": 2,
                  "feas_tol": 1e-8, "cs_tol": 1e-8, "gap_tol": 1e-7,
                  "enumeration_cap": 20},
      "output":  {"path": "results.csv", "seed": 0}
    }
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Mapping, Sequence, get_args, get_origin, get_type_hints

from ..errors import UsageError
from ..game_model import DEFAULT_ENUMERATION_CAP, DeviceProfile, GameParams, random_devices
from ..lp_core import Tolerances
from ..mechanism import DeviceMechParams, ServerMechParams


@dataclass(frozen=True)
class DeviceGenSpec:
    count: int
    size_choices: tuple[float, ...] = (50.0, 500.0)
    probabilities: tuple[float, ...] | None = None
    seed: int | None = None  # falls back to the run seed

    def __post_init__(self):
        if self.count < 0:
            raise UsageError("device count must be >= 0")
        if not self.size_choices:
            raise UsageError("size_choices must be nonempty")
        if self.probabilities is not None:
            if len(self.probabilities) != len(self.size_choices):
                raise UsageError("probabilities must match size_choices in length")
            if any(p < 0 for p in self.probabilities):
                raise UsageError("probabilities must be nonnegative")
            if abs(sum(self.probabilities) - 1.0) > 1e-9:
                raise UsageError(f"probabilities sum to {sum(self.probabilities)!r}, not 1")


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "direct"
    xi: int = 2
    tolerances: Tolerances = field(default_factory=Tolerances)
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.mode not in ("direct", "decomposed"):
            raise UsageError(f"solver mode must be 'direct' or 'decomposed', got {self.mode!r}")
        if self.xi < 1:
            raise UsageError("xi must be >= 1")


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    devices: tuple[DeviceProfile, ...] | DeviceGenSpec = (
        DeviceProfile(id=0, data_size=500.0), DeviceProfile(id=1, data_size=500.0))
    game: GameParams = field(default_factory=GameParams)
    server: ServerMechParams = field(default_factory=ServerMechParams)
    device_mech: tuple[DeviceMechParams, ...] = (DeviceMechParams(),)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @property
    def is_stochastic(self) -> bool:
        """True when repeated runs with different seeds can differ."""
        return isinstance(self.devices, DeviceGenSpec) or self.solver.mode == "decomposed"

    def realize_devices(self, seed: int) -> list[DeviceProfile]:
        """Materialize the device list, drawing sizes if a generator is configured."""
        if isinstance(self.devices, DeviceGenSpec):
            gen_seed = self.devices.seed if self.devices.seed is not None else seed
            return random_devices(self.devices.count, seed=gen_seed,
                                  size_choices=self.devices.size_choices,
                                  probabilities=self.devices.probabilities)
        return list(self.devices)

    def mech_for(self, position: int) -> DeviceMechParams:
        """Mechanism parameters of the device at a list position.

        A list of one entry is shared by every device: that is how a single
        "mech.device" object is read and how the config echo writes it.
        """
        if len(self.device_mech) == 1:
            return self.device_mech[0]
        if position >= len(self.device_mech):
            raise UsageError(
                f"mech.device list has {len(self.device_mech)} entries; "
                f"device position {position} has none")
        return self.device_mech[position]


def _object(node: Any, ctx: str, allowed: Sequence[str]) -> None:
    """Refuse ``node`` unless it is a JSON object holding only ``allowed`` keys."""
    if not isinstance(node, Mapping):
        raise UsageError(f"{ctx} must be an object, got {node!r}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) in {ctx}: {', '.join(unknown)} "
                         f"(allowed: {', '.join(sorted(allowed))})")


def _typed(value: Any, hint: Any, name: str) -> Any:
    """``value`` read as the type ``hint``, or a UsageError naming ``name``."""
    wanted = hint
    if get_origin(hint) is UnionType:  # X | None
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not NoneType)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if hint is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if hint is str and isinstance(value, str):
        return value
    if get_origin(hint) is tuple and isinstance(value, list):
        return tuple(_typed(v, get_args(hint)[0], f"{name}[{k}]") for k, v in enumerate(value))
    raise UsageError(f"{name} must be {wanted.__name__ if isinstance(wanted, type) else wanted}, "
                     f"got {value!r}")


@cache
def _typed_fields(cls) -> tuple:
    """Each field of ``cls`` with its type.  Resolving the annotations costs
    several times the rest of reading a section, so it is done once per class."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _section(node: Any, cls, ctx: str, **given):
    """One config section as a ``cls``, each value typed by its field.

    ``given`` holds the caller's defaults (a device's position is its id).
    A field whose type is a dataclass reads that class's fields flat from
    the same object, as the tolerances sit in "solver".
    """
    flat = {f.name: hint for f, hint in _typed_fields(cls) if is_dataclass(hint)}
    own = [(f, hint) for f, hint in _typed_fields(cls) if f.name not in flat]
    nested = [g.name for t in flat.values() for g in fields(t)]
    _object(node, ctx, [f.name for f, _ in own] + nested)
    kwargs = {name: _section({g.name: node[g.name] for g in fields(t) if g.name in node}, t, ctx)
              for name, t in flat.items()}
    for f, hint in own:
        if f.name in node:
            kwargs[f.name] = _typed(node[f.name], hint, f"{ctx}.{f.name}")
        elif f.name in given:
            kwargs[f.name] = given[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise UsageError(f"{ctx} is missing {f.name}")
    return cls(**kwargs)


def _parse_devices(node: Any):
    if isinstance(node, list):
        return tuple(_section(entry, DeviceProfile, f"devices[{k}]", id=k)
                     for k, entry in enumerate(node))
    if isinstance(node, Mapping):
        return _section(node, DeviceGenSpec, "devices")
    raise UsageError("devices must be a list of device objects or a generator spec")


def parse_config(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig; an absent
    section reads as an empty one, which is its dataclass's defaults."""
    _object(doc, "config", ["devices", "game", "mech", "solver", "output"])
    mech = doc.get("mech", {})
    _object(mech, "mech", ["server", "device"])
    device = mech.get("device", {})
    if isinstance(device, list):
        device_mech = tuple(_section(d, DeviceMechParams, f"mech.device[{k}]")
                            for k, d in enumerate(device))
    else:
        device_mech = (_section(device, DeviceMechParams, "mech.device"),)
    devices = {"devices": _parse_devices(doc["devices"])} if "devices" in doc else {}
    return ExperimentConfig(
        **devices,
        game=_section(doc.get("game", {}), GameParams, "game"),
        server=_section(mech.get("server", {}), ServerMechParams, "mech.server"),
        device_mech=device_mech,
        solver=_section(doc.get("solver", {}), SolverConfig, "solver"),
        output=_section(doc.get("output", {}), OutputConfig, "output"))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    return parse_config(doc)


def effective_config_json(cfg: ExperimentConfig, seed: int) -> str:
    """Canonical one-line JSON echo of every effective parameter.

    Emitted into each CSV row so any result line is self-describing; key
    order and separators are fixed so equal configs encode identically.
    The document follows the config schema and reads each section off its
    dataclass, with three rules of its own: the tolerances sit flat in
    "solver", "mech.device" is always a list, and the run "seed" takes the
    place of "output".
    """
    devices = (vars(cfg.devices) if isinstance(cfg.devices, DeviceGenSpec)
               else [vars(d) for d in cfg.devices])
    solver = dict(vars(cfg.solver))
    solver.update(vars(solver.pop("tolerances")))
    doc = {
        "devices": devices,
        "game": vars(cfg.game),
        "mech": {"server": vars(cfg.server), "device": [vars(m) for m in cfg.device_mech]},
        "solver": solver,
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
