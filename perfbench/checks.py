"""Output checks behind the benchmark's `attempted` / `failed` counts.

Every stage execution is one operation. Its observation carries:

- `invariants`: named booleans that hold on any seed (finite values, right
  shapes and row counts, exit code 0);
- `digest`: bytes of the output; every later execution of the same stage in
  the run must reproduce the first one exactly (a repeated chain is
  byte-identical);
- `values`: numeric fingerprints compared, on the default seed, with those
  recorded at the seed commit in `fingerprints.json`.

Fingerprints are compared with a relative tolerance, never as byte digests:
a correct fused or reordered float reduction changes the last digits (the
roadmap allows ~1e-12), while a wrong result moves them by far more than
RTOL.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry(values, scale: float | None = None) -> dict:
    """A fingerprint entry. With `scale`, every element is compared to
    RTOL * scale (use it for sums, whose error follows the sum of absolute
    values); without, each element is compared to RTOL * |reference|."""
    return {"values": [float(v) for v in np.ravel(values)],
            "scale": None if scale is None else float(scale)}


def array_entries(arr: np.ndarray, sample: int = 32) -> dict:
    """Sums, a position-weighted sum and an evenly spaced sample of `arr`."""
    flat = np.ravel(arr)
    weights = np.arange(flat.size) % 7 - 3.0
    l1 = float(np.abs(flat).sum())
    picks = flat[np.linspace(0, flat.size - 1, min(sample, flat.size)).astype(int)]
    return {"sums": entry([l1, flat.sum(), (flat * weights).sum()], scale=l1),
            "sample": entry(picks, scale=float(np.abs(picks).max()))}


def mismatches(observed: dict, reference: dict) -> list[str]:
    """Names of fingerprint entries where `observed` leaves the tolerance."""
    bad = []
    for key, ref in reference.items():
        obs = observed.get(key)
        if obs is None or len(obs["values"]) != len(ref["values"]):
            bad.append(f"{key}: missing or wrong length")
            continue
        for i, (o, r) in enumerate(zip(obs["values"], ref["values"])):
            tol = RTOL * (ref["scale"] if ref["scale"] is not None else abs(r))
            if not abs(o - r) <= tol:
                bad.append(f"{key}[{i}]: {o!r} vs recorded {r!r}")
                break
    return bad


class Checker:
    """Counts operations and failures for one workload run."""

    def __init__(self, reference: dict | None):
        self.reference = reference      # stage -> entries, or None off the default seed
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, stage: str, reason: str) -> None:
        self.failed += 1
        self.messages.append(f"{stage}: {reason}")

    def check(self, stage: str, obs: dict) -> bool:
        """Count one operation of `stage`; return whether it passed."""
        self.attempted += 1
        broken = [name for name, ok in obs.get("invariants", {}).items() if not ok]
        if broken:
            self.fail(stage, "invariant failed: " + ", ".join(broken))
            return False
        if obs.get("digest") is not None:
            first = self.first_digest.setdefault(stage, obs["digest"])
            if obs["digest"] != first:
                self.fail(stage, "output differs from the first execution in this run")
                return False
        values = obs.get("values")
        if values and self.reference is not None:
            if stage not in self.reference:
                self.fail(stage, "no recorded fingerprint")
                return False
            bad = mismatches(values, self.reference[stage])
            if bad:
                self.fail(stage, "fingerprint mismatch: " + "; ".join(bad))
                return False
        return True

    def raised(self, stage: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(stage, f"raised {type(exc).__name__}: {exc}")


def load_reference(workload: str) -> dict | None:
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload)


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
