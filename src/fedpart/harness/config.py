"""Experiment configuration: one JSON document, strictly validated.

Every section is optional and falls back to the package defaults; unknown
keys anywhere are rejected outright so a typo cannot silently run the
default experiment.  Devices are either listed explicitly or described by
a generator spec whose draws come from the run's seeded size stream.

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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

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
    device_mech: DeviceMechParams | tuple[DeviceMechParams, ...] = field(
        default_factory=DeviceMechParams)
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

        A list of one entry is shared by every device, as a single spec is:
        that is how the config echo writes a shared spec.
        """
        if isinstance(self.device_mech, DeviceMechParams):
            return self.device_mech
        if len(self.device_mech) == 1:
            return self.device_mech[0]
        if position >= len(self.device_mech):
            raise UsageError(
                f"mech.device list has {len(self.device_mech)} entries; "
                f"device position {position} has none")
        return self.device_mech[position]


def _reject_unknown(section: Mapping[str, Any], allowed: Sequence[str], ctx: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) in {ctx}: {', '.join(unknown)} "
                         f"(allowed: {', '.join(sorted(allowed))})")


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _dataclass_from(section: Mapping[str, Any], cls, ctx: str):
    _reject_unknown(section, _field_names(cls), ctx)
    return cls(**section)


def _parse_devices(node: Any):
    if isinstance(node, Mapping):
        _reject_unknown(node, _field_names(DeviceGenSpec), "devices")
        kwargs = dict(node)
        if "size_choices" in kwargs:
            kwargs["size_choices"] = tuple(float(x) for x in kwargs["size_choices"])
        if kwargs.get("probabilities") is not None:
            kwargs["probabilities"] = tuple(float(x) for x in kwargs["probabilities"])
        return DeviceGenSpec(**kwargs)
    if isinstance(node, Sequence) and not isinstance(node, (str, bytes)):
        out = []
        for k, entry in enumerate(node):
            if not isinstance(entry, Mapping):
                raise UsageError(f"devices[{k}] must be an object")
            _reject_unknown(entry, _field_names(DeviceProfile), f"devices[{k}]")
            if "data_size" not in entry:
                raise UsageError(f"devices[{k}] is missing data_size")
            out.append(DeviceProfile(id=int(entry.get("id", k)), **{
                key: float(val) for key, val in entry.items() if key != "id"}))
        return tuple(out)
    raise UsageError("devices must be a list of device objects or a generator spec")


def _parse_mech(node: Mapping[str, Any]):
    _reject_unknown(node, ["server", "device"], "mech")
    server = _dataclass_from(node.get("server", {}), ServerMechParams, "mech.server")
    dev_node = node.get("device", {})
    if isinstance(dev_node, Mapping):
        device = _dataclass_from(dev_node, DeviceMechParams, "mech.device")
    elif isinstance(dev_node, Sequence):
        device = tuple(_dataclass_from(d, DeviceMechParams, f"mech.device[{k}]")
                       for k, d in enumerate(dev_node))
    else:
        raise UsageError("mech.device must be an object or a list of objects")
    return server, device


def _given_fields(node: Mapping[str, Any], cls) -> dict[str, Any]:
    """The keys of ``node`` that name fields of ``cls``, each number cast to
    the type of its field's default; absent keys keep the defaults."""
    out = {}
    for f in fields(cls):
        if f.name in node:
            value = node[f.name]
            out[f.name] = type(f.default)(value) if isinstance(f.default, (int, float)) \
                else value
    return out


def _parse_solver(node: Mapping[str, Any]) -> SolverConfig:
    """The tolerances sit flat in "solver", beside the solver's own fields."""
    _reject_unknown(node, [name for name in _field_names(SolverConfig) if name != "tolerances"]
                    + _field_names(Tolerances), "solver")
    return SolverConfig(**_given_fields(node, SolverConfig),
                        tolerances=Tolerances(**_given_fields(node, Tolerances)))


def parse_config(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, Mapping):
        raise UsageError("config root must be a JSON object")
    _reject_unknown(doc, ["devices", "game", "mech", "solver", "output"], "config")
    kwargs: dict[str, Any] = {}
    if "devices" in doc:
        kwargs["devices"] = _parse_devices(doc["devices"])
    if "game" in doc:
        kwargs["game"] = _dataclass_from(doc["game"], GameParams, "game")
    if "mech" in doc:
        kwargs["server"], kwargs["device_mech"] = _parse_mech(doc["mech"])
    if "solver" in doc:
        kwargs["solver"] = _parse_solver(doc["solver"])
    if "output" in doc:
        _reject_unknown(doc["output"], _field_names(OutputConfig), "output")
        kwargs["output"] = OutputConfig(path=doc["output"].get("path"),
                                        seed=int(doc["output"].get("seed", 0)))
    return ExperimentConfig(**kwargs)


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
    mechs = (cfg.device_mech,) if isinstance(cfg.device_mech, DeviceMechParams) \
        else cfg.device_mech
    solver = dict(vars(cfg.solver))
    solver.update(vars(solver.pop("tolerances")))
    doc = {
        "devices": devices,
        "game": vars(cfg.game),
        "mech": {"server": vars(cfg.server), "device": [vars(m) for m in mechs]},
        "solver": solver,
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
