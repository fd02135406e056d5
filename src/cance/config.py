"""Run configuration: one declarative INI file plus command-line overrides.

Every run is identified by the hash of its canonical serialized config;
the hash is embedded in all artifacts so mismatched model/config pairs
are refused instead of silently mixed.
"""

import configparser
import hashlib
from dataclasses import dataclass, field, fields

from cance.compress import AeConfig
from cance.data import DatasetConfig
from cance.errors import ConfigError
from cance.nce import NceConfig


@dataclass
class EvalSection:
    repeats: int = 5
    seed: int = 0
    val_fraction: float = 0.2

    def validate(self):
        if self.repeats < 1:
            raise ConfigError("eval.repeats must be >= 1")
        if self.seed < 0:
            raise ConfigError("eval.seed must be >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("eval.val_fraction must be in (0,1)")


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    compress: AeConfig = field(default_factory=AeConfig)
    nce: NceConfig = field(default_factory=NceConfig)
    eval: EvalSection = field(default_factory=EvalSection)

    def validate(self) -> "RunConfig":
        for sec_field in fields(self):
            getattr(self, sec_field.name).validate()
        return self

    def canonical(self) -> str:
        """Stable text form including every effective value."""
        lines = []
        for sec_field in fields(self):
            section = getattr(self, sec_field.name)
            lines.append(f"[{sec_field.name}]")
            for f in sorted(fields(section), key=lambda f: f.name):
                value = getattr(section, f.name)
                if isinstance(value, tuple):
                    value = ", ".join(str(v) for v in value)
                elif isinstance(value, bool):
                    value = "true" if value else "false"
                lines.append(f"{f.name} = {value}")
            lines.append("")
        return "\n".join(lines)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


_SECTIONS = tuple(f.name for f in fields(RunConfig))

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(section_name: str, key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is tuple:
            if not raw:
                return ()
            items = [piece.strip() for piece in raw.split(",")]
            out = []
            for item in items:
                out.append(float(item) if "." in item else int(item))
            return tuple(out)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key}: {exc}") from exc


def _apply(config: RunConfig, section_name: str, key: str, raw: str) -> None:
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown key {section_name}.{key} "
                          f"(unknown config section [{section_name}])")
    section = getattr(config, section_name)
    if key not in {f.name for f in fields(section)}:
        raise ConfigError(f"unknown key {section_name}.{key}")
    target_type = type(getattr(section, key))
    setattr(section, key, _coerce(section_name, key, raw, target_type))


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a validated RunConfig from an INI file and key=value overrides.

    Overrides use dotted paths, e.g. ``nce.epochs=50``.
    """
    config = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section_name in parser.sections():
            if section_name not in _SECTIONS and not parser.items(section_name):
                raise ConfigError(f"{path}: unknown config section [{section_name}]")
            for key, raw in parser.items(section_name):
                _apply(config, section_name, key, raw)
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override {override!r} is not key=value")
        dotted, raw = override.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} needs a section prefix")
        section_name, key = dotted.split(".", 1)
        _apply(config, section_name.strip(), key.strip(), raw)
    return config.validate()
