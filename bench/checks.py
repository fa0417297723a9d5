"""Output checks. Each operation that fails one of them counts as failed.

The checks read the serialized report, not the in-memory objects, and use
only the standard library and numpy, so a defect in the package cannot hide
itself by agreeing with its own reader:

* one report entry per event of the contaminated log, in log order, with the
  CSV report agreeing with the JSON report;
* every label equal to ``score > tau``;
* ``tau`` within 1e-12 of Q3 + 1.5 IQR recomputed with ``np.quantile``;
* the SHA-256 of the contaminated log and of the truth CSV equal to the
  digests pinned in ``digests.json`` for the workload's generate and inject
  seeds (seed pairs that are not pinned are reported as unpinned);
* byte-identical reports from operations of the same code in one run, and
  from the traced and the untraced operation (checked by the caller).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

K_FACTOR = 1.5
TAU_TOLERANCE = 1e-12
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log_event_ids(log_bytes: bytes) -> list[str]:
    """Event ids of an OCEL JSON document in file order, read with the stdlib parser."""
    return list(json.loads(log_bytes)["ocel:events"])


def check_report(report_json: str, report_csv: str, event_ids: list[str]) -> list[str]:
    """Failures of one serialized report against the log's event ids."""
    doc = json.loads(report_json)
    events = doc["events"]
    failures = []
    if [entry["event_id"] for entry in events] != event_ids:
        failures.append("report events differ from the log's events in log order")
    rows = [line.split(",") for line in report_csv.splitlines()[1:]]
    if [(row[0], float(row[1]), row[2]) for row in rows] != [
        (entry["event_id"], entry["score"], entry["label"]) for entry in events
    ]:
        failures.append("CSV report differs from JSON report")
    scores = np.array([entry["score"] for entry in events], dtype=np.float64)
    labels = np.array([entry["label"] == "anomalous" for entry in events])
    tau = doc["threshold"]["tau"]
    if not np.array_equal(labels, scores > tau):
        failures.append("labels differ from score > tau")
    if scores.size:
        q1, q3 = np.quantile(scores, [0.25, 0.75])
        if abs(tau - (q3 + K_FACTOR * (q3 - q1))) > TAU_TOLERANCE:
            failures.append("tau differs from Q3 + 1.5 IQR")
    return failures


def check_digests(workload: str, seed_key: str, log_bytes: bytes, truth_csv: bytes) -> list[str] | None:
    """Failures against the pinned digests, or None when the seeds are not pinned."""
    pinned = json.loads(DIGESTS_PATH.read_text()).get(workload, {}).get(seed_key)
    if pinned is None:
        return None
    failures = []
    if sha256(log_bytes) != pinned["log"]:
        failures.append("contaminated log differs from the pinned digest")
    if sha256(truth_csv) != pinned["truth"]:
        failures.append("truth CSV differs from the pinned digest")
    return failures


def self_test(report_json: str, report_csv: str, event_ids: list[str]) -> list[str]:
    """Problems with the checker itself: a corrupted report it fails to flag.

    Corrupts a good report twice, once by flipping one label and once by
    dropping one event, in the JSON and the CSV alike, and expects
    ``check_report`` to fail each.
    """
    problems = []
    lines = report_csv.splitlines()

    doc = json.loads(report_json)
    entry = doc["events"][0]
    entry["label"] = "normal" if entry["label"] == "anomalous" else "anomalous"
    fields = lines[1].split(",")
    fields[2] = entry["label"]
    flipped_csv = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    if not check_report(json.dumps(doc, indent=2), flipped_csv, event_ids):
        problems.append("a report with one flipped label passed the checks")

    doc = json.loads(report_json)
    dropped = len(doc["events"]) // 2
    del doc["events"][dropped]
    dropped_csv = "\n".join(lines[: dropped + 1] + lines[dropped + 2 :]) + "\n"
    if not check_report(json.dumps(doc, indent=2), dropped_csv, event_ids):
        problems.append("a report with one dropped event passed the checks")
    return problems


def report_digest(result) -> str:
    """SHA-256 over both serialized reports of one operation."""
    return sha256(result.report_json.encode("utf-8") + b"\0" + result.report_csv.encode("utf-8"))


def check_operation(workload: str, seed_key: str, result, event_ids: list[str]):
    """(failures, pinned) for one operation's report and the log it read."""
    failures = check_report(result.report_json, result.report_csv, event_ids)
    digest_failures = check_digests(workload, seed_key, result.log_bytes, result.truth_csv)
    return failures + (digest_failures or []), digest_failures is not None
