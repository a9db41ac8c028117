"""Config-file ingestion: line-oriented "key = value" sections
[grid], [coefficients], [initial], [run], [picard], [kernel], [tolerances].

Coefficient entries are expression strings (D, pi, phi, f0) or snapshot-CSV
tables (D_table, pi_table, phi_table, f0_table; paths relative to the config
file).  The solver keys of [run] and the sections [picard], [kernel] and
[tolerances] are the fields of FVConfig, PicardOptions, KernelOptions and
Tolerances: each field is read from the key of its name, and its default
and range live in its dataclass alone.  See the README for the full key
list.  A section or key the loader never reads is rejected as a typo,
naming the nearest one it does read.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import expressions as ex
from .coeff import ProblemSpec, Tolerances
from .errors import UsageError, check_ranges
from .fvsolver import FVConfig
from .grid import TorusGrid, load_field_csv

__all__ = ["PicardOptions", "KernelOptions", "RunConfig", "load_config"]


@dataclass(frozen=True)
class PicardOptions:
    tol: float = 1e-9
    max_iter: int = 40
    nt: int = 64
    nt_per_window: int = 16
    windows: int = 0  # 0 = automatic from the window horizon
    safety: float = 0.5
    envelope_tol: float = 1e-4
    snapshot_stride: int = 8

    def __post_init__(self):
        check_ranges("picard", vars(self), (
            ("tol", self.tol > 0, "> 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
            ("nt", self.nt >= 1, ">= 1"),
            ("nt_per_window", self.nt_per_window >= 1, ">= 1"),
            ("windows", self.windows >= 0, ">= 0"),
            ("safety", 0 < self.safety <= 1, "in (0, 1]"),
            ("envelope_tol", self.envelope_tol >= 0, ">= 0"),
            ("snapshot_stride", self.snapshot_stride >= 1, ">= 1"),
        ))


@dataclass(frozen=True)
class KernelOptions:
    horizon: float = 2e-3
    substeps: int = 600
    ladder_stride: int = 20
    rel_floor: float = 0.02
    sandwich_horizon: float = 0.1
    sandwich_substeps: int = 100
    integral_times: tuple = (0.0, 0.005, 0.01, 0.02)
    integral_substeps: int = 64

    def __post_init__(self):
        check_ranges("kernel", vars(self), (
            ("horizon", self.horizon > 0, "> 0"),
            ("substeps", self.substeps >= 1, ">= 1"),
            ("ladder_stride", 1 <= self.ladder_stride <= self.substeps,
             f"in [1, substeps] = [1, {self.substeps}]"),
            ("rel_floor", 0 < self.rel_floor < 1, "in (0, 1)"),
            ("sandwich_horizon", self.sandwich_horizon > 0, "> 0"),
            ("sandwich_substeps", self.sandwich_substeps >= 1, ">= 1"),
            ("integral_times", 0 < max(self.integral_times, default=0) <= 1,
             "a list whose largest time is in (0, 1]"),
            ("integral_substeps", self.integral_substeps >= 1, ">= 1"),
        ))


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    fv: FVConfig
    picard: PicardOptions = field(default_factory=PicardOptions)
    kernel: KernelOptions = field(default_factory=KernelOptions)
    seed: int = 0
    snapshot_stride: int = 0
    source_path: Path | None = None
    source_text: str = ""

    def __post_init__(self):
        check_ranges("run", vars(self), (("snapshot_stride", self.snapshot_stride >= 0, ">= 0"),))


class _Sections:
    """The parsed config as plain dicts.  Every lookup is recorded, so that
    the sections and keys the loader never looks up can be rejected as typos."""

    def __init__(self, parser: configparser.ConfigParser):
        self.values = {s: dict(parser.items(s)) for s in parser.sections()}
        self.asked: set[tuple[str, str]] = set()

    def lookup(self, section: str, key: str) -> str | None:
        key = key.lower()  # configparser's key normalisation
        self.asked.add((section, key))
        return self.values.get(section, {}).get(key)

    def reject_unknown(self, path: Path):
        """Raise UsageError for the first section or key never looked up."""
        known_sections = {s for s, _ in self.asked}
        for section in self.values:
            if section not in known_sections:
                raise UsageError(f"config {path}: unknown section [{section}]{_hint(section, known_sections)}")
        unknown = {(s, k) for s, keys in self.values.items() for k in keys} - self.asked
        if unknown:
            section, key = min(unknown)
            known = {k for s, k in self.asked if s == section}
            raise UsageError(f"config {path}: unknown key {key!r} in [{section}]{_hint(key, known)}")


def _hint(name: str, known) -> str:
    close = difflib.get_close_matches(name, sorted(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _get(cp: _Sections, section, key, cast, default):
    raw = cp.lookup(section, key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise UsageError(f"config [{section}] {key} = {raw!r}: {err}") from err


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(","))


def _options(cp: _Sections, section: str, cls):
    """The options dataclass ``cls`` read from [section]: each field from the
    key of its name, with the field's default as the default and the type of
    that default as the cast (a tuple is a comma-separated list of floats)."""
    values = {}
    for f in fields(cls):
        cast = _float_list if isinstance(f.default, tuple) else type(f.default)
        values[f.name] = _get(cp, section, f.name, cast, f.default)
    return cls(**values)


def _coefficient(cp: _Sections, section, name, base: Path, grid: TorusGrid):
    table_key = f"{name}_table"
    table = _get(cp, section, table_key, str, None)
    expr = _get(cp, section, name, str, None)
    if table is not None:
        path = base / table
        if not path.exists():
            raise UsageError(f"table file not found: {path}")
        return load_field_csv(path, grid)
    if expr is not None:
        return ex.parse_expr(expr)
    raise UsageError(f"config section [{section}] must define {name} or {table_key}")


def load_config(path) -> RunConfig:
    """Parse a config file into a RunConfig."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
        cp = _Sections(parser)
    except configparser.Error as err:
        raise UsageError(f"malformed config {path}: {err}") from err
    if parser.defaults():
        # its keys would land in every section and be reported there
        raise UsageError(f"config {path}: unknown section [{parser.default_section}]")

    for section in ("grid", "coefficients", "initial", "run"):
        if section not in cp.values:
            # a present section whose name is close is the likelier mistake
            typo = difflib.get_close_matches(section, list(cp.values), n=1)
            if typo:
                raise UsageError(f"config {path}: unknown section [{typo[0]}]; did you mean {section!r}?")
            raise UsageError(f"config {path} is missing the [{section}] section")

    dim = _get(cp, "grid", "dim", int, 1)
    n = _get(cp, "grid", "n", int, None)
    if n is None:
        raise UsageError("config [grid] must set n")
    check_ranges("grid", {"dim": dim, "n": n}, (
        ("dim", dim in (1, 2), "1 or 2"),
        ("n", n >= 8, ">= 8"),
    ))
    grid = TorusGrid(dim, n)
    base = path.parent

    d_coeff = _coefficient(cp, "coefficients", "D", base, grid)
    pi_coeff = _coefficient(cp, "coefficients", "pi", base, grid)
    phi_coeff = _coefficient(cp, "coefficients", "phi", base, grid)
    f0 = _coefficient(cp, "initial", "f0", base, grid)

    problem = ProblemSpec(
        dim=dim,
        n_per_axis=n,
        d_coeff=d_coeff,
        pi_coeff=pi_coeff,
        phi_coeff=phi_coeff,
        f0=f0,
        T_final=_get(cp, "run", "t_final", float, 1.0),
        mu=_get(cp, "run", "mu", float, None),
        lam=_get(cp, "run", "lambda", float, None),
        beta_declared=_get(cp, "run", "beta", float, ProblemSpec.beta_declared),
        tolerances=_options(cp, "tolerances", Tolerances),
    )
    run = RunConfig(
        problem=problem,
        fv=_options(cp, "run", FVConfig),
        picard=_options(cp, "picard", PicardOptions),
        kernel=_options(cp, "kernel", KernelOptions),
        seed=_get(cp, "run", "seed", int, RunConfig.seed),
        snapshot_stride=_get(cp, "run", "snapshot_stride", int, RunConfig.snapshot_stride),
        source_path=path,
        source_text=text,
    )
    cp.reject_unknown(path)
    return run
