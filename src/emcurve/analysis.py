"""End-to-end analysis of one parameter and its machine-readable record.

The record is built from plain JSON types so that parse(serialize(x)) == x
holds exactly: arbitrary-precision integers are carried as decimal strings
and floats rely on repr round-tripping.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import ENGINE_VERSION
from .curve import point, torsion_group
from .descent import DescentContext, selmer_group
from .family import CurveParams, build_curve
from .heights import DEFAULT_MAX_BITS, DEFAULT_TOL, PairingMatrix, pairing_matrix
from .numtheory import DEFAULT_RHO_BUDGET


@dataclass(frozen=True)
class EngineConfig:
    seed: int = 0
    rho_budget: int = DEFAULT_RHO_BUDGET
    tol: float = DEFAULT_TOL

    @property
    def record_key(self) -> str:
        """The engine version and the settings that can change a record.

        seed and rho_budget are left out: they change how long a
        factorization takes, or whether it runs out of budget, never its
        result.  The height bit cap is the fixed DEFAULT_MAX_BITS; it stays
        in the key so that records cached under it keep their keys.
        """
        return f"{ENGINE_VERSION}:tol={self.tol!r}:max_bits={DEFAULT_MAX_BITS}"


@dataclass
class AnalysisRecord:
    """Everything one parameter produces, in JSON-plain form."""

    m: int
    engine_version: str
    admissible: bool
    admissibility: dict
    torsion_structure: str
    torsion_points: list
    pairing_entries: list
    pairing_determinant: float
    independence: int
    heights_tol: float
    s2: int
    size_log2: int
    theorem_w: int
    corollary_value: int | None
    members: list
    status_counts: dict
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    def csv_row(self) -> list[str]:
        return [
            str(self.m),
            self.torsion_structure,
            str(self.independence),
            f"{self.pairing_determinant!r}",
            str(self.s2),
            str(self.theorem_w),
            "" if self.corollary_value is None else str(self.corollary_value),
            str(len(self.members)),
        ]

    CSV_HEADER = [
        "m", "torsion", "rank_lower_bound", "pairing_det",
        "s2", "theorem_w", "corollary", "member_cosets",
    ]


def analysis_curve(m: int, config: EngineConfig, cache=None) -> CurveParams:
    """build_curve(m) with config's factorization settings and the cache."""
    return build_curve(m, seed=config.seed, rho_budget=config.rho_budget,
                       cache=cache)


def height_certificate(
    ctx: DescentContext, config: EngineConfig
) -> tuple[PairingMatrix, int]:
    """Height pairing of (0, t), (n1, t) on ctx's curve at config.tol, a
    report (its HeightBudgetExceeded propagates), and the rank lower bound
    that their descent images certify exactly, from ctx."""
    curve = ctx.curve
    gram = pairing_matrix(curve, (point(0, curve.t), point(curve.n1, curve.t)),
                          config.tol)
    return gram, ctx.rank_lower_bound()


def run_analysis(
    m: int,
    config: EngineConfig = EngineConfig(),
    *,
    cache=None,
) -> AnalysisRecord:
    """Admissibility, torsion, height pairing, and the full descent for m.

    Raises InadmissibleParameter for bad m; propagates factorization
    timeouts, height budget errors and local-solver failures (callers map
    those to exit codes).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    curve = analysis_curve(m, config, cache)
    report = curve.admissibility
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tors = torsion_group(curve)
    timings["torsion"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ctx = DescentContext(curve)  # the one context of both certificates
    gram, rank = height_certificate(ctx, config)
    timings["heights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    selmer = selmer_group(ctx)
    timings["selmer"] = time.perf_counter() - t0

    return AnalysisRecord(
        m=m,
        engine_version=ENGINE_VERSION,
        admissible=report.admissible,
        admissibility={
            "is_even": report.is_even,
            "twin_primes": report.twin_primes,
            "squarefree_check": report.squarefree_check,
        },
        torsion_structure=tors.structure,
        torsion_points=[None]
        + [[str(pt.x), str(pt.y)] for pt in tors.generators],
        pairing_entries=[list(row) for row in gram.entries],
        pairing_determinant=gram.determinant,
        independence=rank,
        heights_tol=config.tol,
        s2=selmer.s2,
        size_log2=selmer.size_log2,
        theorem_w=selmer.theorem_w,
        corollary_value=selmer.corollary_value,
        members=[[str(b1), str(b2)] for b1, b2 in selmer.values],
        status_counts=dict(selmer.status_counts),
        timings=timings,
    )
