"""Unified capability registry: one table for every sweepable axis.

Every sweepable axis of the evaluation — benchmarks, obfuscation
stages, pipeline presets, key-management schemes, resource budgets,
campaign configs, simulation engines and attacks — resolves through a
single typed :class:`CapabilityRegistry` keyed by *kind*:

* uniform decorator/direct registration with a per-entry description;
* uniform errors — :class:`DuplicateCapabilityError` on name
  collisions and :class:`UnknownCapabilityError` (a subclass of both
  ``KeyError`` and ``ValueError``) naming the kind and listing the
  valid entries;
* deterministic iteration: entries enumerate in registration order,
  and registration order never enters seeds or cache keys.

Builtin capabilities self-register when their defining module imports.
Queries trigger the defining module's import on demand (the
``_BUILTIN_SOURCES`` table), so ``REGISTRY.get("benchmark", "sobel")``
works from a cold process without import-order ceremony.

:data:`REGISTRY` is the only table: callers enumerate with
:meth:`CapabilityRegistry.names`, resolve with
:meth:`CapabilityRegistry.get`, and tests add or remove ad-hoc entries
with :meth:`CapabilityRegistry.register` /
:meth:`CapabilityRegistry.unregister` (or snapshot and restore the
whole registry).
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from typing import Any, Optional

#: The known capability kinds and their human-readable labels (used in
#: error messages and ``repro list`` output).  Insertion order is the
#: canonical enumeration order.
KIND_LABELS: dict[str, str] = {
    "benchmark": "benchmark",
    "stage": "stage",
    "pipeline-preset": "pipeline preset",
    "config": "campaign config",
    "key-scheme": "key-management scheme",
    "budget": "resource budget",
    "engine": "simulation engine",
    "attack": "attack",
}

#: Modules whose import registers the builtin entries of each kind.
#: ``module:function`` specs additionally invoke the named zero-arg
#: loader (used by the benchmark suite, whose kernels live in five
#: modules loaded in canonical Table-1 order).
_BUILTIN_SOURCES: dict[str, tuple[str, ...]] = {
    "benchmark": ("repro.benchsuite.registry:load_builtin_benchmarks",),
    "stage": ("repro.tao.pipeline",),
    "pipeline-preset": ("repro.tao.pipeline",),
    "config": ("repro.runtime.campaign",),
    "key-scheme": ("repro.tao.keymgmt",),
    "budget": ("repro.runtime.campaign",),
    "engine": ("repro.sim.compiled",),
    "attack": ("repro.attack",),
}

_MISSING = object()


class UnknownCapabilityError(KeyError, ValueError):
    """A name that resolves to no registered capability of its kind.

    Subclasses *both* ``KeyError`` and ``ValueError``, so callers catch
    whichever fits their own contract.  ``str()`` is the plain message —
    not ``KeyError``'s quoting repr — and always names the kind and the
    valid entries.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message

    @classmethod
    def for_kind(
        cls,
        label: str,
        name: object,
        valid: tuple[str, ...],
        context: str = "",
    ) -> "UnknownCapabilityError":
        suffix = f" {context}" if context else ""
        listing = ", ".join(valid) if valid else "(none registered)"
        return cls(
            f"unknown {label} {name!r}{suffix}; "
            f"registered {label}s: {listing}"
        )


class DuplicateCapabilityError(ValueError):
    """Registering a name already taken within its kind."""


@dataclass(frozen=True)
class Capability:
    """One registered capability: its payload plus metadata."""

    kind: str
    name: str
    value: Any
    description: str = ""

    def describe(self) -> str:
        """Best-effort one-liner for listings: explicit description,
        else the first docstring line of the payload."""
        if self.description:
            return self.description
        doc = getattr(self.value, "__doc__", None) or ""
        return doc.strip().splitlines()[0].strip() if doc.strip() else ""


class CapabilityRegistry:
    """Typed, kind-keyed registry with uniform registration semantics."""

    def __init__(
        self,
        kinds: Optional[dict[str, str]] = None,
        builtin_sources: Optional[dict[str, tuple[str, ...]]] = None,
    ) -> None:
        self._labels = dict(KIND_LABELS if kinds is None else kinds)
        self._entries: dict[str, dict[str, Capability]] = {
            kind: {} for kind in self._labels
        }
        self._builtin_sources = dict(
            _BUILTIN_SOURCES if builtin_sources is None else builtin_sources
        )
        self._ensured: set[str] = set()

    # ------------------------------------------------------------------
    # Kinds
    # ------------------------------------------------------------------
    def kinds(self) -> tuple[str, ...]:
        """The known kinds, in canonical order."""
        return tuple(self._labels)

    def label(self, kind: str) -> str:
        """Human-readable label of ``kind`` (raises on unknown kinds)."""
        self._check_kind(kind)
        return self._labels[kind]

    def _check_kind(self, kind: str) -> None:
        if kind not in self._entries:
            raise UnknownCapabilityError.for_kind(
                "capability kind", kind, tuple(self._labels)
            )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str,
        value: Any = _MISSING,
        *,
        description: str = "",
    ) -> Any:
        """Register ``value`` under ``(kind, name)``; returns ``value``.

        With ``value`` omitted, returns a decorator (the decorated
        object keeps its identity).  Registering a taken name raises
        :class:`DuplicateCapabilityError`.
        """
        if value is _MISSING:

            def decorator(obj: Any) -> Any:
                self.register(kind, name, obj, description=description)
                return obj

            return decorator
        self._check_kind(kind)
        bucket = self._entries[kind]
        if name in bucket:
            raise DuplicateCapabilityError(
                f"{self._labels[kind]} {name!r} is already registered"
            )
        bucket[name] = Capability(
            kind=kind, name=name, value=value, description=description
        )
        return value

    def unregister(self, kind: str, name: str) -> None:
        """Remove ``(kind, name)``; raises if it is not registered."""
        self.entry(kind, name)  # uniform unknown-name error
        del self._entries[kind][name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def entry(self, kind: str, name: str, context: str = "") -> Capability:
        """The :class:`Capability` record, with the uniform error."""
        self._check_kind(kind)
        self._ensure_kind(kind)
        bucket = self._entries[kind]
        if name not in bucket:
            raise UnknownCapabilityError.for_kind(
                self._labels[kind], name, tuple(bucket), context
            )
        return bucket[name]

    def get(self, kind: str, name: str, context: str = "") -> Any:
        """The registered payload (see :meth:`entry` for errors)."""
        return self.entry(kind, name, context).value

    def has(self, kind: str, name: str) -> bool:
        self._check_kind(kind)
        self._ensure_kind(kind)
        return name in self._entries[kind]

    def names(self, kind: str) -> tuple[str, ...]:
        """Registered names of ``kind``, in registration order."""
        self._check_kind(kind)
        self._ensure_kind(kind)
        return tuple(self._entries[kind])

    def entries(self, kind: str) -> tuple[Capability, ...]:
        """All :class:`Capability` records of ``kind``, in order."""
        self._check_kind(kind)
        self._ensure_kind(kind)
        return tuple(self._entries[kind].values())

    # ------------------------------------------------------------------
    # Builtin loading
    # ------------------------------------------------------------------
    def _ensure_kind(self, kind: str) -> None:
        """Import the defining module(s) of ``kind`` on first query.

        A module currently mid-import (its name is in ``sys.modules``)
        is left alone: its registrations up to this point are already
        visible, and re-entering it would execute nothing anyway.
        """
        if kind in self._ensured:
            return
        self._ensured.add(kind)
        for spec in self._builtin_sources.get(kind, ()):
            module_name, _, loader = spec.partition(":")
            if loader:
                getattr(importlib.import_module(module_name), loader)()
            elif module_name not in sys.modules:
                importlib.import_module(module_name)

    # ------------------------------------------------------------------
    # Test isolation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Copy of the registry state, for :meth:`restore` in tests.

        Ensures every kind's builtin sources first: their registrations
        happen at module import, which cannot re-run after a restore,
        so a snapshot taken before they load could never get them back.
        """
        for kind in self._labels:
            self._ensure_kind(kind)
        return {
            "entries": {k: dict(v) for k, v in self._entries.items()},
            "ensured": set(self._ensured),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`snapshot` (drops later registrations)."""
        self._entries = {k: dict(v) for k, v in state["entries"].items()}
        self._ensured = set(state["ensured"])


#: The process-wide registry every capability resolves through.
REGISTRY = CapabilityRegistry()


def describe_capabilities(kind: Optional[str] = None) -> dict[str, list[dict[str, str]]]:
    """Listing payload for ``repro list``: per-kind entry names and
    descriptions, in registration order."""
    kinds = (kind,) if kind else REGISTRY.kinds()
    return {
        k: [
            {"name": entry.name, "description": entry.describe()}
            for entry in REGISTRY.entries(k)
        ]
        for k in kinds
    }
