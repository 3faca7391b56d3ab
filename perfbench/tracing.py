"""Spans around the benchmark's own calls into aperiodix, and the per-layer
metrics read off them.

A span holds name, start, end and parent.  Spans are kept in memory and
written out when the run ends.  A composite call (a CLI subcommand,
classify_spectrum, cech_h1, ...) is followed by the public calls it is
made of, on the same inputs; those calls are recorded as its children, and
its self time is its duration minus theirs.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}

    def call(self, name: str, fn, *args, parent: int | None = None, **kwargs):
        """fn(*args, **kwargs) timed as span `name`; returns (result, span id)."""
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(span)
        try:
            return fn(*args, **kwargs), span["id"]
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, names) -> float:
        """Busy time of spans named in `names`, not counting one inside another."""
        names = set(names)
        by_id = {s["id"]: s for s in self.spans}

        def nested(span):
            parent = span["parent"]
            while parent is not None:
                if by_id[parent]["name"] in names:
                    return True
                parent = by_id[parent]["parent"]
            return False

        return sum(self.duration(s) for s in self.spans
                   if s["name"] in names and not nested(s))

    def self_time(self, match) -> float:
        """Sum over spans whose name satisfies `match` of duration minus children."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + self.duration(s)
        return sum(self.duration(s) - children.get(s["id"], 0.0)
                   for s in self.spans if match(s["name"]))

    def write(self, path):
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [{"id": s["id"], "name": s["name"], "parent": s["parent"],
                 "start": s["start"] - origin, "end": s["end"] - origin,
                 "error": s["error"]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh, indent=1)


def _cli(name: str) -> bool:
    # the bloch command's self time is report.self_s (bloch_report is not replayed)
    return name.startswith("cli.") and name != "cli.bloch"


# Per-layer metrics: name -> (unit, how to read it off the trace).
LAYER_METRICS = {
    "report.hull_gaps_s": ("s", lambda t: t.total(["report.hull_averaged_gaps"])),
    "report.self_s": ("s", lambda t: t.self_time(lambda n: n == "cli.bloch")),
    "spectral.eigensolve_s": ("s", lambda t: t.total(["spectral.eigenvalues_tridiag"])),
    "spectral.gaps_s": ("s", lambda t: t.total(["spectral.bulk_gaps"])),
    "groups.label_s": ("s", lambda t: t.total(["groups.nearest_element"])),
    "diffraction.peak_scaling_s": ("s", lambda t: t.total(["diffraction.peak_scaling"])),
    "diffraction.classify_s": ("s", lambda t: t.total(["diffraction.classify_spectrum"])),
    "diffraction.grid_s": ("s", lambda t: t.total(["diffraction.structure_factor_grid",
                                                   "diffraction.contrast_spectrum"])),
    "cohomology.trace_s": ("s", lambda t: t.total(["cohomology.trace_image"])),
    "cohomology.h1_s": ("s", lambda t: t.total(["cohomology.cech_h1"])),
    "cohomology.collar_s": ("s", lambda t: t.total(["cohomology.collar"])),
    "cohomology.direct_limit_s": ("s", lambda t: t.total(["cohomology.direct_limit"])),
    "cli.self_s": ("s", lambda t: t.self_time(_cli)),
    "substitution.expand_s": ("s", lambda t: t.total(["substitution.expand_word"])),
    "substitution.perron_s": ("s", lambda t: t.total(["substitution.perron_data"])),
    "geometry.chain_s": ("s", lambda t: t.total(["geometry.chain_from_rule",
                                                 "geometry.positions_from_word"])),
    "cutproject.word_s": ("s", lambda t: t.total(["cutproject.cp_word"])),
    "cohomology.collared_letters": ("count", lambda t: t.counts.get("collared_letters", 0)),
    "cohomology.unrecognized": ("count", lambda t: t.counts.get("unrecognized", 0)),
}
