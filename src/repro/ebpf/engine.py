"""The execution-tier enum and its single resolver.

Engine selection grew organically across three surfaces — ``engine=``
on :class:`~repro.ebpf.interpreter.BpfVm` / :class:`~repro.ebpf.\
loader.BpfSubsystem`, per-program pinning via
:meth:`~repro.ebpf.loader.BpfSubsystem.set_engine`, and bpftool's
``--engine`` flag — each validating its own string against its own
copy of the tier list.  This module is the one place that knows what
an engine is: the :class:`Engine` enum enumerates the two tiers (the
reference interpreter, then the compiled product tier) and
:func:`resolve_engine` is the one validator every surface routes
through.

The VM stores the canonical *string* value (``"interp"`` /
``"compiled"``) because that is what the rest of the codebase — the
differential suites, telemetry labels, the compile cache — compares
and prints; :class:`Engine` is the source of truth those strings come
from, and accepts either form on the way in.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, Union


class Engine(enum.Enum):
    """The two execution tiers, reference first.

    ``INTERP`` decodes each instruction as it executes (the
    differential oracle), ``COMPILED`` runs the exec-generated Python
    lowering of the predecoded program.  Both are observationally
    identical by contract.
    """

    INTERP = "interp"
    COMPILED = "compiled"

    def __str__(self) -> str:
        """Print as the canonical string value (log/CLI friendly)."""
        return self.value


#: canonical tier names, reference first — the one list the CLI
#: ``choices=`` and every error message derive from
ENGINE_NAMES: Tuple[str, ...] = tuple(e.value for e in Engine)

#: anything the resolver accepts: an :class:`Engine`, its string
#: value, or None (meaning "use the surrounding default")
EngineLike = Union["Engine", str, None]


def resolve_engine(value: EngineLike,
                   default: EngineLike = None) -> Optional[str]:
    """Validate an engine selection and return its canonical string.

    ``None`` falls back to ``default`` (itself resolved), so callers
    can thread an optional override through unchanged.  Anything that
    is not an :class:`Engine`, one of its string values, or None
    raises ``ValueError`` with the one shared message — the three
    historical validation sites all surface this text now.
    """
    if value is None:
        if default is None:
            return None
        value = default
    if isinstance(value, Engine):
        return value.value
    if isinstance(value, str) and value in ENGINE_NAMES:
        return value
    raise ValueError(f"unknown engine {value!r}; "
                     f"expected one of {ENGINE_NAMES}")
