"""Central tolerance configuration.

The settable tolerances live in one Tolerances record, and every field
of it is printed in the certificate's ``tolerances`` block, so a run
reports exactly which of them were in force.  The eigensolver's own
convergence constants are fixed in ``spectral``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances of the certification scan.

    eigen:
        absolute accuracy demanded of eigenvalues returned by the dense
        eigensolver (and of closed-form/eigensolver agreement checks).
    margin:
        equality margin for extremal-uniqueness claims: two spectral radii
        closer than this are treated as a tie and re-verified.
    margin_tight:
        tightened margin used when re-verifying apparent ties.
    """

    eigen: float = 1e-9
    margin: float = 1e-6
    margin_tight: float = 1e-12

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"tolerance {f.name!r} must be positive")


DEFAULT_TOLERANCES = Tolerances()
