"""Experiment configuration: flat key=value files plus flag overrides.

Every experiment is described by one flat namespace of typed keys.  A
config file holds `key = value` lines (# comments allowed); command-line
overrides take precedence over file values, which take precedence over
defaults.  Unknown keys are rejected and missing required keys are all
reported at once, so a typo never silently falls back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .multigrid import (SMOOTHERS, Direct, FixedCycles, SolvePolicy,
                        ToTolerance)
from .pfasst import EXECUTORS

EXPERIMENTS = ("damping", "order-study", "vcycle-study", "weak-scaling",
               "strong-3d", "single-run")
VARIANTS = ("SDC", "ISDC", "MLSDC", "IMLSDC", "PFASST", "IPFASST")


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or cross-field violations."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    # problem
    dim: int = 1
    n_x: int = 128
    n_t: int = 128
    k: int = 1
    nu: float = 1.0
    length: float = 1.0
    t_end: float = 1.0
    # method
    variant: str = "IPFASST"
    levels: int = 3
    nodes: tuple[int, ...] = (3, 3, 2)      # stored nodes per level
    orders: tuple[int, ...] = (2, 2, 2)     # stencil order per level
    policy: str = "fixed:2"                 # fixed:V | tolerance:TOL | direct
    smoother: str = "gauss-seidel"
    omega: float = 2.0 / 3.0
    pre_sweeps: int = 2
    post_sweeps: int = 2
    interp_order: int = 4                   # spatial interpolation, 2 or 4
    restrict: str = "full-weighting"        # or "inject"
    tol: float = 1e-9
    max_iter: int = 20
    # parallel
    p: int = 128
    executor: str = "serial"
    # output
    out: str = ""

    def solve_policy(self) -> SolvePolicy:
        """The multigrid policy that the policy string names; fixed takes
        2 V-cycles and tolerance 1e-12 unless given."""
        kind, _, arg = self.policy.partition(":")
        try:
            if kind == "fixed":
                return FixedCycles(int(arg or 2))
            if kind == "tolerance":
                return ToTolerance(float(arg or 1e-12))
        except ValueError:  # unparsable, or out of the policy's range
            pass
        if kind == "direct" and not arg:
            return Direct()
        raise ConfigError(
            f"policy must be 'fixed:V' (V >= 1), 'tolerance:TOL' "
            f"(0 < TOL < inf) or 'direct', got {self.policy!r}")


# reads a config value from text, by its field's annotation
_FROM_TEXT = {"str": str, "int": int, "float": float,
              "tuple[int, ...]": lambda text: tuple(map(int, text.split(",")))}
_FIELDS = {f.name: _FROM_TEXT[f.type] for f in fields(ExperimentConfig)}


def read_key_values(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; later lines win, comments skipped."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Cross-field validation; collects every problem before raising."""
    problems = []
    if cfg.experiment not in EXPERIMENTS:
        problems.append(f"experiment must be one of {EXPERIMENTS}, "
                        f"got {cfg.experiment!r}")
    if cfg.variant not in VARIANTS:
        problems.append(f"variant must be one of {VARIANTS}, "
                        f"got {cfg.variant!r}")
    if cfg.smoother not in SMOOTHERS:
        problems.append(f"smoother must be one of {SMOOTHERS}, "
                        f"got {cfg.smoother!r}")
    if cfg.executor not in EXECUTORS:
        problems.append(f"executor must be one of {EXECUTORS}, "
                        f"got {cfg.executor!r}")
    if cfg.dim not in (1, 2, 3):
        problems.append(f"dim must be 1, 2 or 3, got {cfg.dim}")
    if cfg.interp_order not in (2, 4):
        problems.append(f"interp_order must be 2 or 4, got {cfg.interp_order}")
    if cfg.restrict not in ("full-weighting", "inject"):
        problems.append("restrict must be 'full-weighting' or 'inject', "
                        f"got {cfg.restrict!r}")
    if cfg.levels < 1:
        problems.append(f"levels must be >= 1, got {cfg.levels}")
    if len(cfg.nodes) != cfg.levels:
        problems.append(f"nodes has {len(cfg.nodes)} entries for "
                        f"levels={cfg.levels}")
    if len(cfg.orders) != cfg.levels:
        problems.append(f"orders has {len(cfg.orders)} entries for "
                        f"levels={cfg.levels}")
    if any(m < 2 for m in cfg.nodes):
        problems.append(f"every level needs >= 2 stored nodes, "
                        f"got nodes={cfg.nodes}")
    elif any((f - 1) % (c - 1) for f, c in zip(cfg.nodes, cfg.nodes[1:])):
        problems.append(f"coarse nodes must nest in finer ones: {cfg.nodes}")
    if any(o not in (2, 4) for o in cfg.orders):
        problems.append(f"stencil orders must be 2 or 4, got {cfg.orders}")
    elif any(c > f for f, c in zip(cfg.orders, cfg.orders[1:])):
        problems.append(f"orders may not rise on coarser levels: {cfg.orders}")
    if cfg.n_t < 1 or cfg.p < 1 or cfg.max_iter < 1:
        problems.append(f"n_t={cfg.n_t}, p={cfg.p} and "
                        f"max_iter={cfg.max_iter} must be positive")
    if cfg.n_x < 2 or cfg.n_x & (cfg.n_x - 1):
        problems.append(f"n_x must be a power of two >= 2, got {cfg.n_x}")
    if cfg.pre_sweeps < 0 or cfg.post_sweeps < 0:
        problems.append("pre_sweeps and post_sweeps must be >= 0")
    for key in ("t_end", "nu", "length", "omega"):
        if not 0 < getattr(cfg, key) < math.inf:
            problems.append(f"{key} must be finite and > 0, "
                            f"got {getattr(cfg, key)}")
    if not 0 <= cfg.tol < math.inf:
        problems.append(f"tol must be finite and >= 0, got {cfg.tol}")
    if not 1 <= cfg.k <= cfg.n_x - 1:
        problems.append(f"mode number k={cfg.k} must lie in "
                        f"[1, n_x - 1 = {cfg.n_x - 1}]")

    try:
        policy = cfg.solve_policy()
    except ConfigError as exc:
        problems.append(str(exc))
        policy = None

    multi = cfg.variant in ("MLSDC", "IMLSDC", "PFASST", "IPFASST")
    if multi and cfg.levels < 2:
        problems.append(f"variant={cfg.variant} requires levels >= 2, "
                        f"got {cfg.levels}")
    if not multi and cfg.levels != 1:
        problems.append(f"variant={cfg.variant} is single-level; "
                        f"got levels={cfg.levels}")
    inexact = cfg.variant in ("ISDC", "IMLSDC", "IPFASST")
    if isinstance(policy, Direct) and inexact:
        problems.append(f"variant={cfg.variant} needs an iterative policy, "
                        "not 'direct'")
    if isinstance(policy, (FixedCycles, ToTolerance)) and not inexact:
        problems.append(f"variant={cfg.variant} uses exact solves; "
                        "set policy=direct")
    if (cfg.experiment == "vcycle-study"
            and not isinstance(policy, FixedCycles)):
        problems.append("vcycle-study requires a FixedCycles policy "
                        "(policy=fixed:V)")
    if cfg.experiment == "order-study" and multi:
        problems.append("order-study runs single-level SDC or ISDC, "
                        f"got variant {cfg.variant}")
    pipelined = cfg.variant in ("PFASST", "IPFASST")
    if pipelined and cfg.n_t % cfg.p:
        problems.append(f"n_t={cfg.n_t} must be a multiple of p={cfg.p}")
    if (cfg.experiment in ("vcycle-study", "weak-scaling", "strong-3d")
            and not pipelined):
        problems.append(f"{cfg.experiment} runs over p ranks and needs "
                        f"variant PFASST or IPFASST, got {cfg.variant}")

    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def parse_config(path: str | Path | None,
                 overrides: dict[str, str] | None = None,
                 **preset) -> ExperimentConfig:
    """Build a validated config from file + overrides, over `preset` values.

    `preset` supplies already-typed experiment defaults (e.g. from a CLI
    subcommand); file values and then string overrides are layered on top.
    """
    values = dict(preset)
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(read_key_values(path))
    raw.update(overrides or {})

    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, text in raw.items():
        try:
            values[key] = _FIELDS[key](text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})")

    missing = sorted({"experiment"} - set(values))
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return validate(ExperimentConfig(**values))


def resolved_lines(cfg: ExperimentConfig) -> list[str]:
    """The full config as key=value lines (reproducibility stamp)."""
    out = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        out.append(f"{f.name}={value}")
    return out
