"""The ``simulate`` experiment file: flat ``key = value`` lines.

Blank lines and lines starting with ``#`` are ignored.  The keys are the
fields of :class:`~catemeta.simulate.SimConfig` and of
:class:`SimulateOptions`.  The file is UTF-8, as the CSV files are
(:mod:`catemeta.io`), and a bad line raises one ``ConfigurationError``
naming ``file:line``.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, fields
from io import StringIO

from .bart import BartParams
from .errors import ConfigurationError
from .forest import ForestParams
from .io import _decode, _plain
from .simulate import STAGE1_METHODS, SimConfig


@dataclass(frozen=True)
class SimulateOptions:
    """Experiment-file settings beyond the generative model itself."""

    methods: tuple[str, ...] = ("linear",)
    forest_trees: int = 100  # the harness's own: it grows K forests per replication
    forest_bag_size: int = ForestParams.bag_size
    bart_trees: int = BartParams.n_trees
    bart_burn: int = BartParams.n_burn
    bart_draws: int = BartParams.n_draws
    alpha: float = 0.05


_SIM_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}
_OPTION_KEYS = {f.name for f in fields(SimulateOptions)}
# Annotations are strings: both modules postpone their evaluation.
_INT_KEYS = {f.name for f in fields(SimConfig) + fields(SimulateOptions) if f.type == "int"}


def parse_sim_config(path: str) -> tuple[SimConfig, SimulateOptions]:
    """Parse a flat ``key = value`` experiment file.  A number may not hold
    ``_`` or a non-ASCII character, as in the CSV readers."""
    raw: dict[str, tuple[int, str]] = {}
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    with StringIO(_decode(data, path, ConfigurationError)) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigurationError(
                    f"{path}:{line_no}: expected 'key = value', got {text!r}"
                )
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _SIM_CONFIG_FIELDS and key not in _OPTION_KEYS:
                raise ConfigurationError(f"{path}:{line_no}: unknown key '{key}'")
            if key in raw:
                raise ConfigurationError(f"{path}:{line_no}: duplicate key '{key}'")
            raw[key] = line_no, value.strip()

    def convert(key: str, line_no: int, value: str):
        where = f"{path}:{line_no}: key '{key}'"
        if key in _INT_KEYS or key == "alpha":
            kind = int if key in _INT_KEYS else float
            try:
                if _plain(value):
                    return kind(value)
            except ValueError:
                pass
            raise ConfigurationError(f"{where}: bad value {value!r}")
        if key == "methods":
            methods = tuple(m.strip() for m in value.split(",") if m.strip())
            if not methods:
                raise ConfigurationError(f"{where}: no method given")
            for i, m in enumerate(methods):
                if m not in STAGE1_METHODS:
                    raise ConfigurationError(f"{where}: unknown method '{m}'")
                if m in methods[:i]:
                    raise ConfigurationError(f"{where}: repeated method '{m}'")
            return methods
        return value

    config_kwargs = {}
    option_kwargs = {}
    for key, (line_no, value) in raw.items():
        parsed = convert(key, line_no, value)
        if key in _SIM_CONFIG_FIELDS:
            config_kwargs[key] = parsed
        else:
            option_kwargs[key] = parsed
    return SimConfig(**config_kwargs), SimulateOptions(**option_kwargs)
