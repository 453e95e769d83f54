"""Dataflow naming helpers.

The evaluation names dataflows after the dimensions appearing in the
space-stamp and in the (innermost two) time-stamp dimensions, e.g.
``(IJ-P | J,IJK-T)`` for ``{S[i,j,k] -> PE[i%8, j%8]}``,
``{S[i,j,k] -> T[fl(i/8), fl(j/8), i%8+j%8+k]}`` (Table III).  These helpers
format and parse that shorthand so reports can use the same labels as the
paper.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.errors import ParseError


def dataflow_shorthand(space_groups: Sequence[str], time_groups: Sequence[str]) -> str:
    """Format a Table III style name.

    ``space_groups`` lists the loop dimensions mapped to each PE-array axis;
    ``time_groups`` lists the dimensions of the innermost time-stamp axes
    (outermost first).  Dimension names are upper-cased, and dimensions fused
    by an affine transformation are simply concatenated, as in the paper.
    """
    space_text = "".join(group.upper() for group in space_groups)
    time_text = ",".join(group.upper() for group in time_groups)
    return f"({space_text}-P | {time_text}-T)"


_SHORTHAND_RE = re.compile(
    r"^\(\s*(?P<space>[A-Za-z]+)\s*-\s*P\s*\|\s*(?P<time>[A-Za-z,\s]+?)\s*-\s*T\s*\)$"
)


def parse_shorthand_name(name: str) -> tuple[str, tuple[str, ...]]:
    """Parse ``"(IJ-P | J,IJK-T)"`` into ``("IJ", ("J", "IJK"))``."""
    match = _SHORTHAND_RE.match(name.strip())
    if not match:
        raise ParseError(f"cannot parse dataflow shorthand {name!r}")
    space = match.group("space").strip().upper()
    time_groups = tuple(
        group.strip().upper() for group in match.group("time").split(",") if group.strip()
    )
    return space, time_groups
