r"""
Experiment harness: reproduction sweeps for the estimate-level checks,
cache management, and deterministic CSV/JSON emission.

Every experiment produces rows with the fixed columns

    experiment, input, exact, numeric, reference, deviation, status, warnings

whose per-experiment meaning is documented in EXPERIMENT_DOCS (surfaced
by ``wplab --help``).  Rows are computed as pure functions of exact
values, buffered, and emitted in canonical input order, so artifacts are
byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import recorded
from .exact import PiScalar, eval_float, eval_numeric
from .brackets import (
    BracketCache,
    _cached_q,
    _slice,
    cache_load,
    cache_save,
    default_cache,
    stable,
)
from .geometry import (
    _phi_grid_min,
    collar_halfwidth,
    neighbor_curve,
    phi_min,
    regime_constants,
    sphere_h_upper,
)
from .random_model import (
    BudgetExceeded,
    CutoffLength,
    cheeger_prob_upper,
    expected_pants_count,
    length_scale,
    pvol2_sum,
    second_moment_bound,
    two_curve_expectation_bound,
)
from .topology import enumerate_splits
from .volumes import (
    cor1_bound_check,
    identity_check,
    lratio_check,
    mz_ratio,
    partitions_upto,
    ratio_R,
    volume,
    volume_float,
)

__all__ = [
    "LabConfig",
    "ExperimentRow",
    "EXPERIMENTS",
    "EXPERIMENT_DOCS",
    "HARD_CHECK_EXPERIMENTS",
    "run_experiment",
    "cache_warm",
    "WarmStats",
    "rows_to_csv",
    "rows_to_json",
    "load_config_file",
    "resolve_config",
]

BUDGET_HARD_WARNING = 22


@dataclass(frozen=True)
class LabConfig:
    budget: int = 18
    digits: int = 30
    cache_dir: Optional[str] = None
    threads: int = 1  # validated but unused: rows are computed in order
    gmin: Optional[int] = None
    gmax: Optional[int] = None
    nmin: Optional[int] = None
    nmax: Optional[int] = None
    a: Fraction = Fraction(4)
    C: Fraction = Fraction(1, 20)
    u: Fraction = Fraction(1, 20)
    L: Optional[CutoffLength] = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.digits < 15:
            raise ValueError("digits must be >= 15")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for name, lo, hi in (("g", self.gmin, self.gmax), ("n", self.nmin, self.nmax)):
            for bound, value in (("min", lo), ("max", hi)):
                if value is not None and value < 0:
                    raise ValueError(f"{name}{bound} must be >= 0, got {value}")
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"empty range: {name}min {lo} > {name}max {hi}")
        if self.a < 0:
            raise ValueError(f"puncture rate a must be >= 0, got {self.a}")


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    input: Tuple
    exact: str = ""
    numeric: str = ""
    reference: str = ""
    deviation: str = ""
    status: str = "-"
    warnings: str = ""

    def as_record(self) -> Dict[str, str]:
        """The row in CSV_COLUMNS order, its input rendered."""
        return {**vars(self), "input": render_input(self.input)}


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))


def render_input(tup: Tuple) -> str:
    return "(" + ",".join(str(x) for x in tup) + ")"


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def _signature_grid(cfg: LabConfig, extra_budget: int = 0) -> List[Tuple[int, int]]:
    """
    Stable (g, n) with 3g-3+n + extra_budget <= budget, within bounds.
    Bounds that admit no stable signature are a usage error, and bounds
    whose every signature is beyond the budget a budget overrun.
    """
    out = []
    gmax = cfg.gmax if cfg.gmax is not None else (cfg.budget + 3) // 3
    for g in range(cfg.gmin or 0, gmax + 1):
        nmax = cfg.budget - extra_budget - (3 * g - 3)
        if cfg.nmax is not None:
            nmax = min(nmax, cfg.nmax)
        for n in range(cfg.nmin or 0, nmax + 1):
            if stable(g, n):
                out.append((g, n))
    if not out:
        # The default gmax drops no signature within the budget, so the
        # least one within bounds is beyond it.  The least stable n,
        # max(0, 3-2g), falls by at most 2 per genus while 3g rises by 3,
        # so the first genus with a stable n in bounds has it.
        gmin, nmin = cfg.gmin or 0, cfg.nmin or 0
        for g in range(gmin, max(gmin, 2) + 1):
            n = max(nmin, 3 - 2 * g)
            if (cfg.gmax is None or g <= cfg.gmax) and (cfg.nmax is None or n <= cfg.nmax):
                raise BudgetExceeded(g, n + extra_budget, cfg.budget)
        # g = max(gmin, 2) admits n = nmin, so only gmax and nmax together get here
        raise ValueError(
            f"no stable signature (g,n) with {gmin} <= g <= {cfg.gmax} and {nmin} <= n <= {cfg.nmax}"
        )
    return out


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _exp_volume_table(cfg: LabConfig) -> List[ExperimentRow]:
    def one(sig):
        g, n = sig
        v = volume(g, n)
        num = volume_float(g, n, cfg.digits)
        ratio = cor1_bound_check(g, n, cfg.digits)
        ref = num / ratio if ratio else math.inf
        ok = ratio <= recorded.COR1_RATIO_CAP * (1 + 1e-9)
        return ExperimentRow(
            "volume-table",
            (g, n),
            exact=v.render(),
            numeric=_fmt(num),
            reference=_fmt(ref),
            deviation=_fmt(ratio),
            status="PASS" if ok else "FAIL",
        )

    return [one(sig) for sig in _signature_grid(cfg)]


def _exp_mz_ratio(cfg: LabConfig) -> List[ExperimentRow]:
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)

    def one(sig):
        g, n = sig
        v = mz_ratio(g, n)
        num = eval_float(v, cfg.digits)
        dev = abs(num - inv4pi2)
        if n >= 1:
            chi = 2 * g - 2 + n
            ok = dev <= recorded.MZ_C2_FITTED * n / chi * (1 + 1e-9)
            status = "PASS" if ok else "FAIL"
        else:
            status = "-"
        return ExperimentRow(
            "mz-ratio",
            (g, n),
            exact=v.render(),
            numeric=_fmt(num),
            reference=_fmt(inv4pi2),
            deviation=_fmt(dev),
            status=status,
        )

    return [one(sig) for sig in _signature_grid(cfg, extra_budget=1)]


def _exp_ratio_R(cfg: LabConfig) -> List[ExperimentRow]:
    lo = 0.5 - math.pi ** 2 / 20.0
    grid = [
        (g, n)
        for (g, n) in _signature_grid(cfg, extra_budget=1)
        if n >= 1 and stable(g, n - 1)
    ]

    def one(sig):
        g, n = sig
        r = ratio_R(g, n)
        num = float(r)
        ok = lo <= num <= 1.0
        return ExperimentRow(
            "ratio-R",
            (g, n),
            exact=PiScalar(r, 0).render(),
            numeric=_fmt(num),
            reference=_fmt(1.0),
            deviation=_fmt(1.0 - num),
            status="PASS" if ok else "FAIL",
        )

    return [one(sig) for sig in grid]


def _exp_identity(cfg: LabConfig) -> List[ExperimentRow]:
    def one(sig):
        g, n = sig
        ok, residual = identity_check(g, n)
        return ExperimentRow(
            "identity",
            (g, n),
            exact=residual.render(),
            numeric=_fmt(0.0 if ok else float(eval_numeric(residual, cfg.digits).mid())),
            reference=_fmt(0.0),
            deviation="0" if ok else residual.render(),
            status="PASS" if ok else "FAIL",
        )

    return [one(sig) for sig in _signature_grid(cfg, extra_budget=1)]


def _poisson_n(a: Fraction, g: int) -> int:
    # floor(a sqrt(g)) exactly: floor(sqrt(a^2 g))
    val = a * a * g
    return math.isqrt(val.numerator * val.denominator) // val.denominator


def _exp_poisson_moments(cfg: LabConfig) -> List[ExperimentRow]:
    L = cfg.L or CutoffLength.pi_multiple(2 * cfg.C)
    gmin = cfg.gmin if cfg.gmin is not None else 1
    gmax = cfg.gmax if cfg.gmax is not None else 4
    jobs = []
    for r in (1, 2, 3):
        for g in range(gmin, gmax + 1):
            n = _poisson_n(cfg.a, g)
            if 3 * g - 3 + n > cfg.budget:
                if cfg.gmin is not None or cfg.gmax is not None:
                    raise BudgetExceeded(g, n, cfg.budget)
                continue
            if n < 2 * r or not (stable(g, n) and stable(g, n - r)):
                continue
            jobs.append((r, g, n))

    rows = []
    last_dev: Dict[int, float] = {}
    for r, g, n in jobs:
        res = expected_pants_count(g, n, r, L, cfg.digits, cfg.budget)
        prev = last_dev.get(r)
        if prev is None:
            status = "-"
        else:
            status = "PASS" if res.rel_deviation < prev else "FAIL"
        last_dev[r] = res.rel_deviation
        rows.append(
            ExperimentRow(
                "poisson-moments",
                (g, n, r, L.kind, L.render()),
                exact=res.exact.render(),
                numeric=_fmt(res.numeric.mid()),
                reference=_fmt(res.main_term),
                deviation=_fmt(res.rel_deviation),
                status=status,
                warnings=";".join(res.warnings),
            )
        )
    return rows


def _exp_second_moment(cfg: LabConfig) -> List[ExperimentRow]:
    grid = [
        (g, n) for (g, n) in _signature_grid(cfg) if n >= 4 and g >= 1
    ]

    def one(sig):
        g, n = sig
        L = length_scale(g, n)
        res = second_moment_bound(g, n, L, cfg.digits, cfg.budget)
        ok = 0.0 <= res.bound <= 1.0
        return ExperimentRow(
            "second-moment",
            (g, n, L.kind, L.render()),
            exact=res.second_moment_exact.render(),
            numeric=_fmt(res.bound),
            reference=_fmt(float(res.target)),
            deviation=_fmt(res.gap),
            status="PASS" if ok else "FAIL",
            warnings=";".join(res.warnings),
        )

    return [one(sig) for sig in grid]


def _exp_cheeger_upper(cfg: LabConfig) -> List[ExperimentRow]:
    grid = [(g, n) for (g, n) in _signature_grid(cfg) if 2 * g - 2 + n >= 2]
    C = float(cfg.C)

    def one(sig):
        g, n = sig
        value, warnings = cheeger_prob_upper(g, n, C, cfg.digits, cfg.budget)
        ok = math.isfinite(value) and value >= 0.0
        return ExperimentRow(
            "cheeger-upper",
            (g, n, str(cfg.C)),
            numeric=_fmt(value),
            reference="",
            deviation="",
            status="PASS" if ok else "FAIL",
            warnings=";".join(warnings),
        )

    return [one(sig) for sig in grid]


def _exp_pvol2(cfg: LabConfig) -> List[ExperimentRow]:
    grid = [(g, n) for (g, n) in _signature_grid(cfg) if 2 * g - 2 + n >= 2 and g >= 1]
    u = float(cfg.u)

    def one(sig):
        g, n = sig
        value = pvol2_sum(g, n, u, cfg.digits, cfg.budget)
        scaled = value * math.sqrt(g)
        ok = scaled <= recorded.PVOL2_SQRTG_CAP * (1 + 1e-9)
        return ExperimentRow(
            "pvol2",
            (g, n, str(cfg.u)),
            numeric=_fmt(value),
            reference=_fmt(scaled),
            deviation="",
            status="PASS" if ok else "FAIL",
        )

    return [one(sig) for sig in grid]


def _exp_two_curve(cfg: LabConfig) -> List[ExperimentRow]:
    grid = [(g, n) for (g, n) in _signature_grid(cfg) if g >= 1 and stable(g - 1, n + 1)]

    def one(sig):
        g, n = sig
        res = two_curve_expectation_bound(g, n, cfg.C, cfg.digits, cfg.budget)
        ok = math.isfinite(res.value) and res.value > 0.0
        return ExperimentRow(
            "two-curve",
            (g, n, str(cfg.C)),
            exact=res.exact.render(),
            numeric=_fmt(res.value),
            reference=_fmt(res.scaled),
            deviation="",
            status="PASS" if ok else "FAIL",
        )

    return [one(sig) for sig in grid]


def _exp_geometry_constants(cfg: LabConfig) -> List[ExperimentRow]:
    rows = []
    rc = regime_constants()
    for name, value, text in (
        ("poisson-regime", rc.poisson_regime, rc.poisson_regime_str),
        ("spectral-gap", rc.spectral_gap, rc.spectral_gap_str),
        ("cheeger-regime", rc.cheeger_regime, rc.cheeger_regime_str),
        ("h-threshold-eps0", rc.h_threshold_at_zero, rc.h_threshold_at_zero_str),
    ):
        rows.append(
            ExperimentRow(
                "geometry-constants",
                ("const", name),
                exact=text,
                numeric=_fmt(value),
                status="PASS",
            )
        )
    for H in (0.05, 0.11, 0.5, 1.0, 2.0):
        grid_min = _phi_grid_min(H, 1e-4, 50001)
        dev = abs(grid_min - phi_min(H))
        rows.append(
            ExperimentRow(
                "geometry-constants",
                ("phi-min", str(H)),
                numeric=_fmt(grid_min),
                reference=_fmt(phi_min(H)),
                deviation=_fmt(dev),
                status="PASS" if dev < 1e-6 else "FAIL",
            )
        )
    fp = abs(collar_halfwidth(2 * math.asinh(1.0)) - math.asinh(1.0))
    rows.append(
        ExperimentRow(
            "geometry-constants",
            ("collar-fixed-point", ""),
            numeric=_fmt(collar_halfwidth(2 * math.asinh(1.0))),
            reference=_fmt(math.asinh(1.0)),
            deviation=_fmt(fp),
            status="PASS" if fp < 1e-12 else "FAIL",
        )
    )
    worst = 0.0
    for i in range(1, 21):
        l, t = 0.3 * i, 0.07 * i
        length, offset, _ = neighbor_curve(l, t)
        worst = max(worst, abs(length ** 2 - offset ** 2 - l * l) / (l * l))
    rows.append(
        ExperimentRow(
            "geometry-constants",
            ("cosh-sinh-invariant", ""),
            deviation=_fmt(worst),
            status="PASS" if worst < 1e-12 else "FAIL",
        )
    )
    ratio = sphere_h_upper(400) / sphere_h_upper(100)
    rows.append(
        ExperimentRow(
            "geometry-constants",
            ("sphere-halving", "100->400"),
            numeric=_fmt(ratio),
            reference=_fmt(0.5),
            deviation=_fmt(abs(ratio - 0.5)),
            status="PASS" if abs(ratio - 0.5) < 0.02 else "FAIL",
        )
    )
    return rows


def _exp_lratio(cfg: LabConfig) -> List[ExperimentRow]:
    jobs = []
    for g, n in _signature_grid(cfg):
        chi = 2 * g - 2 + n
        for m in range(1, chi // 2 + 1):
            jobs.extend((g, n, m, sp) for sp in enumerate_splits(m, g, n))

    def one(job):
        g, n, m, sp = job
        lhs, rhs = lratio_check(m, sp, g, n, cfg.digits)
        ok = lhs / rhs <= recorded.LRATIO_CAP * (1 + 1e-9)
        return ExperimentRow(
            "lratio",
            (g, n, m, sp.render(n)),
            numeric=_fmt(lhs),
            reference=_fmt(rhs),
            deviation=_fmt(lhs / rhs),
            status="PASS" if ok else "FAIL",
        )

    return [one(job) for job in jobs]


@dataclass
class WarmStats:
    entries_total: int
    entries_new: int
    seconds: float
    path: Optional[str]


def cache_warm(
    cfg: LabConfig, budget: Optional[int] = None, cache: BracketCache | None = None
) -> WarmStats:
    """
    Compute (and persist, when a cache dir is configured) every bracket
    with |d| <= 3g-3+n <= budget; idempotent across repeated runs, and a
    file that already holds exactly the table is not written again.

    The warm drives slices, not keys.  Key d is read from the slice
    (g, n, d minus its largest entry), so the closure of a stable (g, n),
    n >= 1, is the union of the slices over the bases B (at most n-1
    nonzero entries) with |B| + B[0] <= 3g-3+n, plus the empty base,
    which holds V_{g,n} and the [tau_k]_{g,n}.  A base is built only when
    the table lacks one of the keys read from it, so a loaded table that
    already covers the budget builds no slice.  For n = 0, V_{g,0} comes
    from `_q_closed`; the (g, 1) empty base after it adds back the V_{g,1}
    that it drops.
    """
    cache = default_cache() if cache is None else cache
    budget = cfg.budget if budget is None else budget
    if budget < 0:
        raise ValueError("budget must be >= 0")
    memo = cache.entries
    before = len(cache)
    t0 = time.perf_counter()
    for g in range(0, budget // 3 + 2):
        nmax = budget - (3 * g - 3)
        for n in range(0, nmax + 1):
            if not stable(g, n):
                continue
            top = 3 * g - 3 + n
            _cached_q(g, n, (), cache)
            # a nonempty base: its largest entry v, then at most n-2 more
            # entries, none above v, with the sum of all plus v at most top
            for v in range(1, top // 2 + 1) if n > 1 else ():
                for rest in partitions_upto(top - 2 * v, n - 2, v):
                    base = (v,) + rest
                    if any((g, n, (k,) + base) not in memo for k in range(v, top - v - sum(rest) + 1)):
                        _slice((g, n, base), cache)
    seconds = time.perf_counter() - t0
    path = None
    if cfg.cache_dir:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        path = os.path.join(cfg.cache_dir, "brackets.txt")
        if not cache.saved_in(path):
            cache_save(path, cache)
    return WarmStats(len(cache), len(cache) - before, seconds, path)


def _exp_cache_warm(cfg: LabConfig) -> List[ExperimentRow]:
    stats = cache_warm(cfg)
    return [
        ExperimentRow(
            "cache-warm",
            (cfg.budget,),
            numeric=str(stats.entries_total),
            reference=str(stats.entries_new),
            status="PASS",
            warnings=f"persisted:{stats.path}" if stats.path else "",
        )
    ]


EXPERIMENTS: Dict[str, Callable[[LabConfig], List[ExperimentRow]]] = {
    "volume-table": _exp_volume_table,
    "mz-ratio": _exp_mz_ratio,
    "ratio-R": _exp_ratio_R,
    "identity": _exp_identity,
    "poisson-moments": _exp_poisson_moments,
    "second-moment": _exp_second_moment,
    "cheeger-upper": _exp_cheeger_upper,
    "pvol2": _exp_pvol2,
    "two-curve": _exp_two_curve,
    "geometry-constants": _exp_geometry_constants,
    "lratio": _exp_lratio,
    "cache-warm": _exp_cache_warm,
}

HARD_CHECK_EXPERIMENTS = {"identity"}
# experiments that read no bracket: `run_experiment` loads no table for them
TABLE_FREE_EXPERIMENTS = {"geometry-constants"}
# the most nonzero exponents in a bracket each experiment reads, fixed by
# its formula: volumes and their ratios and split sums (0), the identity's
# [tau_m]_{g,n+1} (1), the two-curve triangle and second-moment weights (2)
# and the factorial moments' box weights over k <= 3 variables (3).
# `run_experiment` loads only those keys; cache-warm loads the whole table.
EXPERIMENT_RANKS = {
    "volume-table": 0,
    "mz-ratio": 0,
    "ratio-R": 0,
    "lratio": 0,
    "pvol2": 0,
    "cheeger-upper": 0,
    "identity": 1,
    "two-curve": 2,
    "second-moment": 2,
    "poisson-moments": 3,
}

EXPERIMENT_DOCS = {
    "volume-table": "exact V_{g,n}; deviation = ratio to the factorial-growth envelope; PASS iff ratio <= recorded cap",
    "mz-ratio": "exact (2g-2+n)V_{g,n}/V_{g,n+1}; reference 1/(4pi^2); PASS iff |dev| <= fitted_c2*n/(2g-2+n)",
    "ratio-R": "exact V^2/(V V); PASS iff within [1/2 - pi^2/20, 1]",
    "identity": "alternating-sum identity residual; PASS iff exactly 0 (exit 3 otherwise)",
    "poisson-moments": "exact factorial moments at L; reference = product main term; PASS iff rel_dev decreased vs previous g",
    "second-moment": "second-moment lower bound vs volume-ratio target; PASS iff bound in [0,1]",
    "cheeger-upper": "explicit probability upper-bound sum at C; PASS iff finite and >= 0",
    "pvol2": "normalized split-volume sum at u; reference = value*sqrt(g); PASS iff below recorded cap",
    "two-curve": "exact triangle-integral two-curve bound at C; reference = value*(g+n); PASS iff positive",
    "geometry-constants": "threshold constants and closed-form geometry identities",
    "lratio": "split-volume ratio vs m^m(chi-m)^(chi-m)/chi^chi; PASS iff lhs/rhs below recorded cap",
    "cache-warm": "warm all brackets within budget; numeric = total entries, reference = new entries",
}


def run_experiment(name: str, cfg: LabConfig) -> List[ExperimentRow]:
    """
    The rows of experiment `name` under `cfg`, sorted by input.  With a
    cache directory that holds `brackets.txt`, the default table first
    loads the keys of at most `EXPERIMENT_RANKS[name]` nonzero exponents
    from it (none for `TABLE_FREE_EXPERIMENTS`).  It loads the whole file
    for an experiment with no rank, and also when the largest 3g-3+n among
    the volumes the table then holds is below `cfg.budget`, so that the
    kernel builds on every entry the file holds.  Raises KeyError on an
    unknown name.
    """
    if name not in EXPERIMENTS:
        raise KeyError(name)
    if cfg.cache_dir and name not in TABLE_FREE_EXPERIMENTS:
        persisted = Path(cfg.cache_dir) / "brackets.txt"
        if persisted.is_file():
            rank = EXPERIMENT_RANKS.get(name)
            cache_load(persisted, rank=rank)
            if rank is not None and _top_dimension(default_cache()) < cfg.budget:
                cache_load(persisted)
    rows = EXPERIMENTS[name](cfg)
    return sorted(rows, key=lambda r: r.input)


def _top_dimension(cache: BracketCache) -> int:
    """The largest 3g-3+n among the volumes V_{g,n} the table holds; -1 for none."""
    return max((3 * g - 3 + n for g, n, dnz in cache.entries if not dnz), default=-1)


# ---------------------------------------------------------------------------
# Emission and configuration
# ---------------------------------------------------------------------------


def rows_to_csv(rows: Iterable[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    rest = attrgetter(*CSV_COLUMNS[2:])
    writer.writerows((row.experiment, render_input(row.input), *rest(row)) for row in rows)
    return buf.getvalue()


def rows_to_json(rows: Iterable[ExperimentRow]) -> str:
    return json.dumps([row.as_record() for row in rows], indent=2) + "\n"


def load_config_file(path) -> Dict[str, str]:
    """Flat `key = value` text; '#' starts a comment."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_CONFIG_KEYS = {"budget": int, "digits": int, "threads": int, "cache_dir": str}


def resolve_config(
    flags: Dict[str, object], file_values: Dict[str, str] | None
) -> LabConfig:
    """Precedence: flag > config file > environment > default."""
    values: Dict[str, object] = {}
    env_cache = os.environ.get("WPLAB_CACHE")
    if env_cache:
        values["cache_dir"] = env_cache
    if file_values:
        for key, conv in _CONFIG_KEYS.items():
            if key in file_values:
                try:
                    values[key] = conv(file_values[key])
                except ValueError:
                    # str never fails: only an integer key gets here
                    raise ValueError(
                        f"config {key}: expected an integer, got {file_values[key]!r}"
                    ) from None
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, val in flags.items():
        if val is not None:
            values[key] = val
    return LabConfig(**values)
