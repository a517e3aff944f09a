"""End-to-end analysis of one parameter into its machine-readable record.

AnalysisRecord and EngineConfig live in the package's __init__, so that a
cache hit reads them without loading the engine; this module re-exports
them.  The record is built from plain JSON types so that parse(serialize(x)) == x
holds exactly: arbitrary-precision integers are carried as decimal strings
and floats rely on repr round-tripping.
"""

from __future__ import annotations

import time

from . import ENGINE_VERSION, AnalysisRecord, EngineConfig
from .curve import point, torsion_group
from .descent import DescentContext, selmer_group
from .family import CurveParams, build_curve
from .heights import PairingMatrix, pairing_matrix


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
