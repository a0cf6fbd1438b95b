"""Configuration, experiment orchestration, and CSV emission.

Config files are INI-style key/value documents with six sections::

    [problem]                      [hyper]
    loss = logistic                alpha = 0.06
    p = 20                         eta_g = 1.0
    samples = 500                  K = 30
    clients = 10                   eta = 0.1
    partition = dirichlet          B = 64        ; integer or "full"
    alpha_d = 0.6                  T = 400

    [algorithm]                    [regularizer]
    name = fedcef                  lambda = 1e-5 ; h = lambda * ||x||_1

    [compressor]                   [run]
    kind = topk                    seed = 0      ; in [0, 2**64)
    retain = 0.1                   lyapunov = false

The fields of `RunConfig` are the one list of keys: each declares its
section, key, reader and echo, and `FIELDS` maps each (section, case-folded
key) to its attribute and field. `parse_config(text, overrides)` reads the
file and the overrides of `fedcef run --seed` and `fedcef sweep --key`
through it; the echo and `sweep`'s file names spell each key as declared.
Every key is optional (defaults below); unknown sections or keys, and any
key under [DEFAULT], are hard errors. Domain rules, inf and NaN floats
included, live in the HyperParams, CompressorSpec, Regularizer and
PartitionSpec constructors, which parse_config builds. `retain` is a ratio
when written with a decimal point or an exponent (`1e-1` is 0.1) and a count
when written as an integer. `lyapunov = true` fills fedcef's Lyapunov column,
as the potential is built from its v_i and c_i; the other algorithms log that
they leave the column empty.

The output CSV carries `#`-prefixed header lines (a config echo sufficient
to re-run the experiment, the estimated smoothness constant, and the
step-condition report), one column-name line, then one row per measurement.
The columns are MetricsRow's fields and the `# conditions:` tokens
StepConditionReport's, in declaration order, each through the codec of its
type, as are the float header values. Floats carry 17 significant digits
so rows round-trip losslessly.
"""

from __future__ import annotations

import configparser
import io
import logging
import math
from dataclasses import dataclass, field, fields
from typing import Callable

from . import compressors
from .algorithms import HyperParams, run_centralized_pgd, run_fedcef, run_prox_fedavg
from .compressors import IDENTITY, TOPK, CompressorSpec
from .core import count
from .metrics import MetricsRow, MetricsSeries, StepConditionReport
from .problems import DIRICHLET, FULL, HETERO_QUADRATIC, LOSS_VARIANTS, PartitionSpec, generate_synthetic
from .regularizers import Regularizer

logger = logging.getLogger(__name__)

SCHEMA_LINE = "# fedcef-metrics schema=1"

ALGORITHMS = ("fedcef", "prox_fedavg", "pgd")

class ConfigError(ValueError):
    """Malformed or out-of-domain run configuration."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# One (write, read) codec per field type, keyed by the annotation as written;
# a MetricsRow field of a type missing here fails at import. A cell or header
# value is read only in its writer's form: written back, its value must give
# the same text, so ' 80 ', '1_7', '+3' and a float's '3.0' are rejected.
_CODECS: dict[str, tuple[Callable[[object], str], Callable[[str], object]]] = {
    "int": (str, int),
    "float": (_fmt, float),
    "float | None": (lambda x: "" if x is None else _fmt(x), lambda cell: None if cell == "" else float(cell)),
    "bool": (lambda b: str(int(b)), lambda cell: cell == "1"),
}
# The CSV columns are MetricsRow's fields, in declaration order.
_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(MetricsRow)]
CSV_COLUMNS = ",".join(name for name, _, _ in _COLUMNS)
# The header values the writer formats, each by the codec of its field's type.
_HEADER_CODECS = {key: _CODECS["float"] for key in ("smoothness", "contraction_q2", "beta")}
_HEADER_CODECS.update((f.name, _CODECS[f.type]) for f in fields(StepConditionReport))


def _read(show: Callable[[object], str], read: Callable[[str], object], text: str) -> object:
    """The value `read` takes from `text`, which `show` must write back as `text`."""
    value = read(text)
    if show(value) != text:
        raise ValueError(f"{text!r} is not a value the writer writes")
    return value


# Text readers: each returns the value or raises ValueError; the caller names
# the section and key.


def _count(raw: str) -> int:
    return count(int(raw), "must be >= 1")


def _seed(raw: str) -> int:
    # derive_stream folds a seed mod 2**64: one outside would replay another
    # seed's run under its own echo
    seed = int(raw)
    if not 0 <= seed < 2**64:
        raise ValueError("must lie in [0, 2**64)")
    return seed


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


def _batch(raw: str) -> int | str:
    return FULL if raw.strip().lower() == FULL else int(raw)


def _retain(raw: str) -> int | float:
    # Checked as a sparse kind would use it, so a bad retain is an error even
    # under identity, which then drops it.
    value = float(raw) if any(ch in raw for ch in ".eE") else int(raw)
    return CompressorSpec(TOPK, value).retain


def _choice(options) -> Callable[[str], str]:
    def read(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return read


@dataclass(frozen=True, eq=False)
class Field:
    """One config key: its section and name, how its text is read and echoed."""

    section: str
    key: str
    read: Callable[[str], object]
    show: Callable[[object], str] = str


def _key(default, section: str, key: str, read: Callable[[str], object], show: Callable[[object], str] = str):
    """A RunConfig field that config key `section.key` sets."""
    return field(default=default, metadata={"cfg": Field(section, key, read, show)})


@dataclass
class RunConfig:
    """A run's configuration. Its fields are the config table: each declares
    the key that sets it, in echo order. retain is echoed last, after the run
    section, as CSVs have always had it."""

    loss: str = _key("logistic", "problem", "loss", _choice(LOSS_VARIANTS))
    p: int = _key(20, "problem", "p", _count)
    samples: int = _key(500, "problem", "samples", _count)
    clients: int = _key(10, "problem", "clients", _count)
    partition: str = _key(DIRICHLET, "problem", "partition", str)
    alpha_d: float = _key(0.6, "problem", "alpha_d", float, _fmt)
    algorithm: str = _key("fedcef", "algorithm", "name", _choice(ALGORITHMS))
    alpha: float = _key(0.06, "hyper", "alpha", float, _fmt)  # the hyper defaults mirror the larger benchmark setting
    eta_g: float = _key(1.0, "hyper", "eta_g", float, _fmt)
    K: int = _key(30, "hyper", "K", int)
    eta: float = _key(0.1, "hyper", "eta", float, _fmt)
    B: int | str = _key(64, "hyper", "B", _batch)
    T: int = _key(400, "hyper", "T", int)
    reg_lambda: float = _key(1e-5, "regularizer", "lambda", float, _fmt)
    comp_kind: str = _key("topk", "compressor", "kind", _choice(compressors.KINDS))
    seed: int = _key(0, "run", "seed", _seed)
    lyapunov: bool = _key(False, "run", "lyapunov", _bool, lambda b: str(b).lower())
    comp_retain: int | float | None = _key(0.1, "compressor", "retain", _retain)

    def hyper(self) -> HyperParams:
        return HyperParams(alpha=self.alpha, eta_g=self.eta_g, K=self.K, eta=self.eta, B=self.B, T=self.T)

    def regularizer(self) -> Regularizer:
        return Regularizer(self.reg_lambda)

    def compressor(self) -> CompressorSpec:
        return CompressorSpec(self.comp_kind, None if self.comp_kind == IDENTITY else self.comp_retain)

    def partition_spec(self) -> PartitionSpec:
        return PartitionSpec(self.partition, self.alpha_d)

    def echo(self) -> dict[str, str]:
        """Flat section.key = value view in field order, sufficient to re-run
        identically. A None value (retain under identity) is left out."""
        return {
            f"{f.section}.{f.key}": f.show(value)
            for name, f in FIELDS.values()
            if (value := getattr(self, name)) is not None
        }


# Every key a config may set, in echo order: (section, key as configparser
# folds it) -> (RunConfig attribute, Field). A lookup is one dict hit.
FIELDS = {(c.section, c.key.lower()): (f.name, c) for f in fields(RunConfig) for c in [f.metadata["cfg"]]}
_SECTIONS = frozenset(section for section, _ in FIELDS)


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read INI text, set each `section.key -> raw` override on top of it as a
    config line would, then read every value through its field over the
    defaults and check domains."""
    # no interpolation: a '%' in a value is the reader's to reject
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_string(text)
        for dotted, raw in (overrides or {}).items():
            section, _, key = dotted.partition(".")
            parser.read_dict({section: {key: raw}})  # keys fold case, so hyper.k replaces a file's K
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    # configparser would merge these into every section
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] keys are not supported: {', '.join(parser.defaults())}")
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:  # checked apart from its keys, so an empty one fails too
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in FIELDS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, f = FIELDS[section, key]
            try:
                values[name] = f.read(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {f.key} = {raw!r}: {exc}") from None
    cfg = RunConfig(**values)
    if cfg.comp_kind == IDENTITY:
        cfg.comp_retain = None
    if cfg.samples < cfg.clients and cfg.loss != HETERO_QUADRATIC:
        raise ConfigError("[problem] samples must be >= clients")
    for section, build in (
        ("problem", cfg.partition_spec),
        ("hyper", cfg.hyper),
        ("regularizer", cfg.regularizer),
        ("compressor", lambda: cfg.compressor().resolve_k(cfg.p)),
    ):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return cfg


def build_problem(cfg: RunConfig):
    return generate_synthetic(cfg.loss, cfg.p, cfg.samples, cfg.clients, cfg.partition_spec(), cfg.seed)


def run_experiment(cfg: RunConfig, out_path: str) -> MetricsSeries:
    """Build the problem, run the configured algorithm, write the CSV."""
    prob = build_problem(cfg)
    reg = cfg.regularizer()
    hp = cfg.hyper()
    if cfg.lyapunov and cfg.algorithm != "fedcef":
        logger.info("run.lyapunov is fedcef's; the lyapunov column of algorithm=%s stays empty", cfg.algorithm)
    if cfg.algorithm == "fedcef":
        series = run_fedcef(prob, reg, hp, cfg.compressor(), cfg.seed, lyapunov=cfg.lyapunov).series
    elif cfg.algorithm == "prox_fedavg":
        series = run_prox_fedavg(prob, reg, hp, cfg.seed).series
    else:  # pgd
        logger.info("algorithm=pgd has no uplink; the compressor section is ignored")
        series = run_centralized_pgd(prob, reg, hp).series
    write_metrics_csv(out_path, series, cfg.echo())
    return series


def write_metrics_csv(path: str, series: MetricsSeries, cfg_echo: dict[str, str]) -> None:
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\n")
    for key, value in cfg_echo.items():
        buf.write(f"# cfg {key} = {value}\n")
    buf.write(f"# smoothness = {_fmt(series.smoothness)}\n")
    buf.write(f"# contraction_q2 = {_fmt(series.contraction)}\n")
    buf.write(f"# beta = {_fmt(series.beta)}\n")
    rep = series.conditions
    tokens = (f"{f.name}={_CODECS[f.type][0](getattr(rep, f.name))}" for f in fields(rep))
    buf.write(f"# conditions: {' '.join(tokens)}\n")
    buf.write(CSV_COLUMNS + "\n")
    for row in series.rows:
        buf.write(",".join([show(getattr(row, name)) for name, show, _ in _COLUMNS]) + "\n")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def read_metrics_csv(path: str) -> tuple[dict[str, str], list[MetricsRow]]:
    """Parse a CSV produced by write_metrics_csv; round-trips losslessly."""
    meta: dict[str, str] = {}
    rows: list[MetricsRow] = []
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != SCHEMA_LINE:
            raise ConfigError(f"{path}: unrecognized schema line {first!r}")
        header_seen = False
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("conditions:"):
                    pairs = [item.partition("=") for item in body[len("conditions:") :].split()]
                else:
                    key, eq, value = body.removeprefix("cfg ").partition(" = ")
                    pairs = [(key.strip(), eq, value.strip())]
                for key, eq, value in pairs:
                    if not eq:
                        raise ConfigError(f"{path}, line {lineno}: {key!r} is not key=value")
                    if key in meta:
                        raise ConfigError(f"{path}, line {lineno}: {key} was already set")
                    if key in _HEADER_CODECS:
                        try:
                            _read(*_HEADER_CODECS[key], value)
                        except ValueError as exc:
                            raise ConfigError(f"{path}, line {lineno}, {key}: {exc}") from None
                    meta[key] = value
                continue
            if not header_seen:
                if line != CSV_COLUMNS:
                    raise ConfigError(f"{path}: unexpected column header {line!r}")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != len(_COLUMNS):
                raise ConfigError(f"{path}, line {lineno}: expected {len(_COLUMNS)} columns, got {len(cells)}")
            values = {}
            for (name, show, read), cell in zip(_COLUMNS, cells):
                try:
                    values[name] = _read(show, read, cell)
                except ValueError as exc:
                    raise ConfigError(f"{path}, line {lineno}, column {name}: {exc}") from None
            row = MetricsRow(**values)
            if row.t != len(rows):
                raise ConfigError(f"{path}, line {lineno}: expected t = {len(rows)}, got {row.t}")
            rows.append(row)
    if not header_seen:
        raise ConfigError(f"{path}: missing column header")
    return meta, rows


@dataclass
class RunSummary:
    path: str
    last: MetricsRow
    bytes_to_threshold: int | None  # None = threshold never reached


def _total_bytes(row: MetricsRow) -> int:
    return row.uplink_bytes_cum + row.downlink_bytes_cum


@dataclass
class ComparisonSummary:
    a: RunSummary
    b: RunSummary
    threshold: float | None

    @property
    def uplink_savings_pct(self) -> float | None:
        """Relative uplink saving of run a against run b at the final round;
        0.0 when neither sent uplink bytes, None (undefined) when only a did."""
        up_a, up_b = self.a.last.uplink_bytes_cum, self.b.last.uplink_bytes_cum
        if up_b == 0:
            return 0.0 if up_a == 0 else None
        return 100.0 * (up_b - up_a) / up_b

    def render(self) -> str:
        pct = self.uplink_savings_pct
        saves = "n/a vs B: B sent none" if pct is None else f"{pct:.1f}% vs B"
        a, b = self.a.last, self.b.last
        lines = [
            f"run A: {self.a.path}",
            f"run B: {self.b.path}",
            f"final objective: A={_fmt(a.F)} B={_fmt(b.F)}",
            f"final ||G||^2:   A={_fmt(a.prox_grad_sq)} B={_fmt(b.prox_grad_sq)}",
            f"total bytes:     A={_total_bytes(a)} B={_total_bytes(b)}",
            f"uplink bytes:    A={a.uplink_bytes_cum} B={b.uplink_bytes_cum}"
            f" (A saves {saves})",
        ]
        if self.threshold is not None:
            for name, s in (("A", self.a), ("B", self.b)):
                reach = "not reached" if s.bytes_to_threshold is None else str(s.bytes_to_threshold)
                lines.append(f"bytes to F <= {_fmt(self.threshold)} ({name}): {reach}")
        return "\n".join(lines)


def _summarize(path: str, rows: list[MetricsRow], threshold: float | None) -> RunSummary:
    reach = None if threshold is None else next((_total_bytes(r) for r in rows if r.F <= threshold), None)
    return RunSummary(path, rows[-1], reach)


def compare_runs(path_a: str, path_b: str, threshold: float | None = None) -> ComparisonSummary:
    if threshold is not None and not math.isfinite(threshold):
        raise ConfigError(f"threshold {threshold!r} must be finite")
    _, rows_a = read_metrics_csv(path_a)
    _, rows_b = read_metrics_csv(path_b)
    for path, rows in ((path_a, rows_a), (path_b, rows_b)):
        if not rows:
            raise ConfigError(f"{path}: no rows")
    if [r.t for r in rows_a] != [r.t for r in rows_b]:
        raise ConfigError(
            f"{path_a} ({len(rows_a)} rows) and {path_b} ({len(rows_b)} rows) measure different rounds t"
        )
    return ComparisonSummary(
        a=_summarize(path_a, rows_a, threshold),
        b=_summarize(path_b, rows_b, threshold),
        threshold=threshold,
    )
