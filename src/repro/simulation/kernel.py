"""Kernel tier selection: pure-python vs the optional compiled extension.

The simulation kernel ships in two observably identical implementations:

* **pure** -- :mod:`repro.simulation.events` + the python run loop in
  :mod:`repro.simulation.engine`.  Always available; the default.
* **compiled** -- ``repro._ckernel``, a C extension implementing the event
  heap and the batched run loop (build it with ``make kernel``).  Result
  digests are bit-identical to the pure tier; only wall-clock changes.

Selection is per :class:`~repro.simulation.engine.Simulator` via its
``kernel=`` argument, defaulting to the ``REPRO_KERNEL`` environment
variable:

* ``pure`` (default) -- always use the python kernel;
* ``compiled`` -- use the extension, silently falling back to ``pure``
  when it is not built (use :func:`compiled_available` to detect this).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit ``kernel=`` is given.
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted spellings for the kernel tier.
KERNEL_TIERS = ("pure", "compiled")

_CKERNEL = None
_CKERNEL_CHECKED = False


def load_ckernel():
    """Return the ``repro._ckernel`` module, or ``None`` when not built."""

    global _CKERNEL, _CKERNEL_CHECKED
    if not _CKERNEL_CHECKED:
        try:
            from repro import _ckernel  # type: ignore[attr-defined]
        except ImportError:
            _CKERNEL = None
        else:
            _CKERNEL = _ckernel
        _CKERNEL_CHECKED = True
    return _CKERNEL


def compiled_available() -> bool:
    """True when the compiled kernel extension is importable."""

    return load_ckernel() is not None


def resolve_kernel(spec: Optional[str] = None) -> str:
    """Resolve a tier spec to the tier actually used: ``pure`` or ``compiled``.

    ``spec=None`` consults ``$REPRO_KERNEL`` (unset or empty means
    ``pure``).  Requesting ``compiled`` when the extension is absent falls
    back to ``pure`` -- the tiers are digest-identical, so degrading is
    always safe.
    """

    if spec is None:
        spec = os.environ.get(KERNEL_ENV, "").strip().lower() or "pure"
    else:
        spec = str(spec).strip().lower()
    if spec not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel tier {spec!r}: expected one of "
            f"{', '.join(KERNEL_TIERS)} (via kernel= or ${KERNEL_ENV})"
        )
    if spec == "pure":
        return "pure"
    return "compiled" if compiled_available() else "pure"
