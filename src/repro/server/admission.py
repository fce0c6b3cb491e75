"""The daemon's admission gate, defined in :mod:`repro.jobs.admission`.

``JobRunner`` and ``PolicyServer`` admit through the same
:class:`AdmissionGate`; it lives under ``repro.jobs`` because the registry
(which the daemon imports) already imports the job runner.  This module
keeps the ``repro.server.admission`` import path.
"""

from repro.jobs.admission import AdmissionGate, ShedDecision

__all__ = ["AdmissionGate", "ShedDecision"]
