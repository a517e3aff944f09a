"""Torsion, rank lower bounds and 2-Selmer groups for the curve family E_m.

The package keeps the record side here: the engine version, the defaults
that enter a record's key, the key itself (EngineConfig.record_key) and
the record (AnalysisRecord).  A cache hit needs only these, so importing
them loads no engine module (numtheory, family, curve, heights,
localsolve, descent, analysis) and no dataclasses; analysis, heights and
numtheory re-export them.
"""

import copyreg
import json
from collections import namedtuple
from types import SimpleNamespace

ENGINE_VERSION = "1"
DEFAULT_RHO_BUDGET = 10**8  # numtheory: work per factorization
DEFAULT_TOL = 1e-3  # heights: stopping tolerance of the doubling chain
DEFAULT_MAX_BITS = 10**6  # heights: the chain's coordinate bit-length cap


class EngineConfig(namedtuple("EngineConfig", "seed rho_budget tol",
                              defaults=(0, DEFAULT_RHO_BUDGET, DEFAULT_TOL))):
    """The engine's settings, immutable: seed and rho_budget for factoring,
    tol for the height pairing."""

    __slots__ = ()

    @property
    def record_key(self) -> str:
        """The engine version and the settings that can change a record.

        seed and rho_budget are left out: they change how long a
        factorization takes, or whether it runs out of budget, never its
        result.  The height bit cap is the fixed DEFAULT_MAX_BITS; it stays
        in the key so that records cached under it keep their keys.
        """
        return f"{ENGINE_VERSION}:tol={self.tol!r}:max_bits={DEFAULT_MAX_BITS}"


class AnalysisRecord(SimpleNamespace):
    """Everything one parameter produces, in JSON-plain form.

    Built from keywords, exactly FIELDS (timings may be left out); its
    __dict__, which the cache writes, holds them in FIELDS order.
    """

    FIELDS = (
        "m", "engine_version", "admissible", "admissibility",
        "torsion_structure", "torsion_points", "pairing_entries",
        "pairing_determinant", "independence", "heights_tol", "s2",
        "size_log2", "theorem_w", "corollary_value", "members",
        "status_counts", "timings",
    )

    CSV_HEADER = [
        "m", "torsion", "rank_lower_bound", "pairing_det",
        "s2", "theorem_w", "corollary", "member_cosets",
    ]

    def __init__(self, **fields):
        fields.setdefault("timings", {})
        if fields.keys() != _RECORD_FIELDS:
            raise TypeError(f"AnalysisRecord fields differ from FIELDS in "
                            f"{sorted(fields.keys() ^ _RECORD_FIELDS)}")
        super().__init__(**{name: fields[name] for name in self.FIELDS})

    def __reduce__(self):
        # SimpleNamespace's own reduce calls the class with no arguments,
        # which __init__ refuses; restore __dict__ as for a plain object, so
        # that a --jobs worker's record unpickles.
        return copyreg.__newobj__, (type(self),), self.__dict__

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


_RECORD_FIELDS = frozenset(AnalysisRecord.FIELDS)
