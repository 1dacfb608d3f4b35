"""Experiment configuration: flat key=value files plus flag overrides.

Every experiment is described by one flat namespace of typed keys.  A
config file holds `key = value` lines (# comments allowed); command-line
overrides take precedence over file values, which take precedence over
defaults.  Unknown keys are rejected and missing required keys are all
reported at once, so a typo never silently falls back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

EXPERIMENTS = ("damping", "order-study", "vcycle-study", "weak-scaling",
               "strong-3d", "single-run")
VARIANTS = ("SDC", "ISDC", "MLSDC", "IMLSDC", "PFASST", "IPFASST")
SMOOTHERS = ("jacobi", "gauss-seidel", "jor-rb")
EXECUTORS = ("serial", "threaded")


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or cross-field violations."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


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

    def policy_kind(self) -> tuple[str, float]:
        """Split the policy string into (kind, parameter)."""
        kind, _, arg = self.policy.partition(":")
        try:
            if kind == "fixed" and int(arg or 2) >= 1:
                return "fixed", float(int(arg or 2))
            if kind == "tolerance" and float(arg or 1e-12) > 0:
                return "tolerance", float(arg or 1e-12)
        except ValueError:
            pass
        if kind == "direct" and not arg:
            return "direct", 0.0
        raise ConfigError(
            f"policy must be 'fixed:V' (V >= 1), 'tolerance:TOL' (TOL > 0) "
            f"or 'direct', got {self.policy!r}")


_CONVERTERS = {
    "experiment": str, "dim": int, "n_x": int, "n_t": int, "k": int,
    "nu": float, "length": float, "t_end": float, "variant": str,
    "levels": int, "nodes": _parse_int_list, "orders": _parse_int_list,
    "policy": str, "smoother": str, "omega": float, "pre_sweeps": int,
    "post_sweeps": int, "interp_order": int, "restrict": str, "tol": float,
    "max_iter": int, "p": int, "executor": str, "out": str,
}
assert set(_CONVERTERS) == {f.name for f in fields(ExperimentConfig)}


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
    if cfg.t_end <= 0 or cfg.nu <= 0 or cfg.length <= 0:
        problems.append("t_end, nu, and length must be positive")

    try:
        kind, _ = cfg.policy_kind()
    except ConfigError as exc:
        problems.append(str(exc))
        kind = None

    multi = cfg.variant in ("MLSDC", "IMLSDC", "PFASST", "IPFASST")
    if multi and cfg.levels < 2:
        problems.append(f"variant={cfg.variant} requires levels >= 2, "
                        f"got {cfg.levels}")
    if not multi and cfg.levels != 1:
        problems.append(f"variant={cfg.variant} is single-level; "
                        f"got levels={cfg.levels}")
    inexact = cfg.variant in ("ISDC", "IMLSDC", "IPFASST")
    if kind == "direct" and inexact:
        problems.append(f"variant={cfg.variant} needs an iterative policy, "
                        "not 'direct'")
    if kind and kind != "direct" and not inexact:
        problems.append(f"variant={cfg.variant} uses exact solves; "
                        "set policy=direct")
    if cfg.experiment == "vcycle-study" and kind != "fixed":
        problems.append("vcycle-study requires a FixedCycles policy "
                        "(policy=fixed:V)")
    if cfg.variant in ("PFASST", "IPFASST") and cfg.n_t % cfg.p:
        problems.append(f"n_t={cfg.n_t} must be a multiple of p={cfg.p}")

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

    unknown = sorted(set(raw) - set(_CONVERTERS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, text in raw.items():
        try:
            values[key] = _CONVERTERS[key](text)
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
