"""Resource caps shared by every enumeration and search routine.

All limits live here so a single knob controls the whole package: the
environment variable GHW_MAX_ENUM overrides the built-in default, and an
explicit ``max_enum`` argument (the CLI's --max-enum flag) overrides both.
"""

import os

DEFAULT_MAX_ENUM = 10_000_000

# Largest supported field size. Enumeration of F_q^m is pointless beyond
# desk scale, and element codes are kept in fixed-width integer arrays.
Q_CAP = 2**16


class ResourceCapError(Exception):
    """An enumeration or search would exceed the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "candidates"):
        self.required = required
        self.cap = cap
        super().__init__(
            f"refusing to enumerate {required} {what} (cap {cap}; raise "
            f"GHW_MAX_ENUM or --max-enum to allow)"
        )


def resolve_max_enum(explicit=None) -> int:
    """Effective cap: explicit argument > GHW_MAX_ENUM > default.  A cap
    that is not an integer, or is below 1, raises ``ValueError``."""
    name, cap = "max_enum", explicit
    if explicit is None:  # read only then: a search resolves its cap per check
        name, cap = "GHW_MAX_ENUM", os.environ.get("GHW_MAX_ENUM", DEFAULT_MAX_ENUM)
    try:
        cap = int(cap)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {cap!r}")
    if cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap}")
    return cap


def check_cap(required: int, max_enum=None, what: str = "candidates") -> int:
    cap = resolve_max_enum(max_enum)
    if required > cap:
        raise ResourceCapError(required, cap, what)
    return cap
