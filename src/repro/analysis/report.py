"""Markdown report generation from engine artifacts.

:func:`render_artifact_report` runs nothing: it summarizes the
``BENCH_*.json`` artifacts previously emitted by the experiment engine
(``python -m repro run <name> --out-dir ...``) as one document — the
artifact a reviewer would diff against the paper.  ``python -m repro
report`` and ``examples/reproduce_paper.py`` are its callers.
"""

from __future__ import annotations

import io
import os
from typing import Dict, List


class MarkdownReport:
    """Incrementally built Markdown document."""

    def __init__(self, title: str):
        self._buffer = io.StringIO()
        self._buffer.write(f"# {title}\n")

    def section(self, heading: str, body: str = "") -> None:
        self._buffer.write(f"\n## {heading}\n\n")
        if body:
            self._buffer.write(body.rstrip() + "\n")

    def paragraph(self, text: str) -> None:
        self._buffer.write("\n" + text.rstrip() + "\n")

    def table(self, headers: List[str], rows: List[List[object]]) -> None:
        self._buffer.write("\n| " + " | ".join(headers) + " |\n")
        self._buffer.write("|" + "|".join("---" for _ in headers) + "|\n")
        for row in rows:
            self._buffer.write(
                "| " + " | ".join(str(cell) for cell in row) + " |\n")

    def render(self) -> str:
        return self._buffer.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.render())


def find_artifacts(directory: str = ".") -> List[str]:
    """Paths of every engine artifact in ``directory``, sorted by name."""
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.startswith("BENCH_") and name.endswith(".json"))


#: How a claim's ``holds`` reads in a table.
HOLDS = {True: "yes", False: "NO", None: "not evaluated"}


def claim_rows(claims: List[Dict]) -> List[List[object]]:
    """The "claim | paper | measured | holds" rows of judged claims."""
    return [[claim["name"], claim["paper"],
             "-" if claim["measured"] is None else claim["measured"],
             HOLDS[claim["holds"]]] for claim in claims]


def render_artifact_report(directory: str = ".") -> str:
    """Markdown summary of the ``BENCH_*.json`` artifacts in a directory.

    Each artifact becomes one section: provenance line (source, schema,
    spec version, seeding policy, run metadata) plus a table of every
    trial's scalar result fields, then its host-clock readings
    (``run_meta["host"]``), each a column marked "(host)".  The paper
    claims and failed checks are sub-tables; nested lists/dicts are
    elided — the JSON itself remains the full record.

    Files that fail to parse or validate against the artifact schema are
    skipped and listed in a trailing "Skipped artifacts" section — one
    corrupt file must not take down the whole report.
    """
    import json

    from repro.engine.artifact import load_artifact
    from repro.engine.runner import failures

    report = MarkdownReport("P4Auth reproduction — benchmark artifacts")
    paths = find_artifacts(directory)
    if not paths:
        report.paragraph(
            f"No `BENCH_*.json` artifacts found in `{directory}`; "
            "run `python -m repro run <name> --out-dir` first.")
        return report.render()

    skipped: List[List[object]] = []
    for path in paths:
        try:
            doc = load_artifact(path)
        except (ValueError, json.JSONDecodeError, OSError) as exc:
            skipped.append([f"`{os.path.basename(path)}`", str(exc)])
            continue
        meta = doc.get("run_meta", {})
        seeding = (f"base seed {doc['base_seed']}"
                   if doc.get("base_seed") is not None
                   else "reference seeds")
        report.section(
            f"{doc['experiment']} — {doc['title']}",
            f"Source: {doc['source']} · schema `{doc['schema']}` · "
            f"spec v{doc['spec_version']} · {seeding} · "
            f"{len(doc['trials'])} trials · "
            f"workers={meta.get('workers', 1)} · "
            f"{meta.get('elapsed_s', 0.0)}s")
        scalar_keys = sorted({
            key for trial in doc["trials"]
            for key, value in trial["result"].items()
            if isinstance(value, (int, float, str, bool))})
        host = meta.get("host", {})
        host_keys = sorted({key for readings in host.values()
                            for key in readings})
        rows = []
        for trial in doc["trials"]:
            row: List[object] = [f"`{trial['id']}`", trial["seed"]]
            values = [trial["result"].get(key, "") for key in scalar_keys]
            values += [host.get(trial["id"], {}).get(key, "")
                       for key in host_keys]
            for value in values:
                row.append(f"{value:.4g}" if isinstance(value, float)
                           else value)
            rows.append(row)
        report.table(["trial", "seed"] + scalar_keys
                     + [f"{key} (host)" for key in host_keys], rows)
        claims = doc.get("claims", [])
        if claims:
            report.paragraph("Paper claims:")
            report.table(["claim", "paper", "measured", "holds"],
                         claim_rows(claims))
        failed = failures(((trial["id"], trial["result"])
                           for trial in doc["trials"]), claims)
        if failed:
            report.paragraph("Failed checks:")
            report.table(["trial", "check", "detail"],
                         [[f"`{trial_id}`", name, detail]
                          for trial_id, name, detail in failed])
    if skipped:
        report.section(
            "Skipped artifacts",
            f"{len(skipped)} file(s) failed schema validation and were "
            "not summarized:")
        report.table(["file", "reason"], skipped)
    return report.render()
