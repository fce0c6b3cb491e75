"""Every perfbench trace site still names a function of the program.

``perfbench/tracing.py`` patches its ``SITES`` by import path.  A function
that moves or is renamed makes ``Tracer.install`` fail, and the benchmark's
per-layer breakdown with it, so each target is resolved here the way the
tracer resolves it.
"""

from __future__ import annotations

from perfbench.tracing import SITES, _resolve


def test_every_site_resolves_to_a_callable():
    unresolved = []
    for site in SITES:
        try:
            owner, attr = _resolve(site.target)
            # The tracer reads a class attribute from the class's own dict.
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            unresolved.append(f"{site.target}: {exc!r}")
            continue
        if not callable(original):
            unresolved.append(f"{site.target}: not callable")
    assert not unresolved, unresolved
