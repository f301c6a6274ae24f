"""Serialisation of extraction records, KBT reports, and trust artifacts.

* :mod:`repro.io.jsonl` — read/write extraction records as JSON Lines (one
  record per line), the interchange format of the command-line tool;
* :mod:`repro.io.reports` — write KBT scores as CSV;
* :mod:`repro.io.artifact` — versioned on-disk artifacts for fitted
  models (the *persist* stage of the fit -> persist -> query lifecycle);
* :mod:`repro.io.mmap_layout` — the serving layout: an artifact unpacked
  into raw mmappable ``.npy`` columns plus a manifest carrying the
  artifact's sha256 ETag, for the zero-copy serving tier.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FORMAT_VERSION": "repro.io.artifact",
    "ArtifactError": "repro.io.artifact",
    "LayoutError": "repro.io.mmap_layout",
    "ServingLayout": "repro.io.mmap_layout",
    "TrustArtifact": "repro.io.artifact",
    "artifact_etag": "repro.io.mmap_layout",
    "export_layout": "repro.io.mmap_layout",
    "load_artifact": "repro.io.artifact",
    "read_records": "repro.io.jsonl",
    "record_to_dict": "repro.io.jsonl",
    "save_artifact": "repro.io.artifact",
    "write_records": "repro.io.jsonl",
    "write_score_csv": "repro.io.reports",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
