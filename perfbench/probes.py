"""Two probes that a traced replay calls the program through.

`SpanProbe` times each call as a span; `CountProbe` makes the same calls
untimed and counts the work they did. Keeping the counting in its own pass
means no counter inflates a layer's time.
"""
from __future__ import annotations

import json
import math
import time
from collections import defaultdict

ROOT_SPAN = 0

# span name -> per-layer time metric
SPAN_METRICS = {
    "heisenberg.build": "heisenberg.build_s",
    "heisenberg.clifford": "heisenberg.clifford_s",
    "heisenberg.rotation": "heisenberg.rotation_s",
    "measures.ose": "measures.ose_s",
    "paulis.truncate": "paulis.truncate_s",
    "paulis.serialize": "paulis.serialize_s",
    "paulis.deserialize": "paulis.deserialize_s",
    "haar.sample": "haar.sample_s",
    "dense.coeff": "dense.coeff_s",
    "measures.renyi": "measures.renyi_s",
}


class SpanProbe:
    """Records (id, name, start, end, parent, op) for every call, in memory.

    Span 0 is the root: the whole replay, from `begin` to `end`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._root = (0.0, 0.0)

    def begin(self) -> None:
        self._root = (time.perf_counter(), 0.0)

    def end(self) -> None:
        self._root = (self._root[0], time.perf_counter())

    def call(self, name: str, op: int, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.spans.append((len(self.spans) + 1, name, t0, t1, ROOT_SPAN, op))
        return out

    @property
    def wall_s(self) -> float:
        return self._root[1] - self._root[0]

    def all_spans(self) -> list[tuple]:
        return [(ROOT_SPAN, "root", *self._root, None, None)] + self.spans

    def self_times(self) -> dict[str, float]:
        """Self time per span name: each span's duration minus its children's."""
        spans = self.all_spans()
        child = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return dict(out)

    def write(self, path) -> None:
        """JSONL: a header line naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for span in self.all_spans():
                fh.write(json.dumps(span) + "\n")


class CountProbe:
    """Makes the same calls untimed and counts their work from outside.

    A term-gate update (tgu) is one input term fed to one gate. A term is
    changed when its (string, coefficient) entry is not in the output. A
    rotation splits the terms that anticommute with its Z-string
    generator; split products that do not show up as new terms were
    merged or pruned (`lost`). Per op it keeps the log2(rank) steps of the
    rotations and the index-0 OSE of the evolved operator, which must agree.
    """

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        self.rank_steps: dict[int, float] = defaultdict(float)
        self.ose0: dict[int, float] = {}

    def call(self, name: str, op: int, fn, *args):
        out = fn(*args)
        c = self.counts
        if name == "heisenberg.build":
            c["heisenberg.build_gates"] += len(out)
        elif name in ("heisenberg.clifford", "heisenberg.rotation"):
            operator, gate = args
            layer = name.split(".")[1]
            before, after = operator.terms, out.terms
            c[f"heisenberg.{layer}_tgu"] += len(before)
            c[f"heisenberg.{layer}_changed"] += sum(
                1 for p, a in before.items() if after.get(p) != a
            )
            c["heisenberg.peak_rank"] = max(c["heisenberg.peak_rank"], len(before), len(after))
            if layer == "rotation":
                zmask = sum(1 << s for s in gate.sites)
                split = sum(1 for p in before if (p.x_mask & zmask).bit_count() & 1)
                c["heisenberg.rotation_split_terms"] += split
                c["heisenberg.rotation_lost_terms"] += len(before) + split - len(after)
                self.rank_steps[op] += math.log2(len(after)) - math.log2(len(before))
        elif name == "measures.ose":
            c["measures.ose_terms"] += len(args[0])
            if op not in self.ose0:
                self.ose0[op] = fn(args[0], args[1], 0).ose
        elif name == "paulis.truncate":
            c["paulis.truncate_terms"] += len(args[0])
        elif name == "paulis.serialize":
            c["paulis.json_bytes"] += len(out.encode("utf-8"))
        elif name == "haar.sample":
            c["haar.samples"] += 1
        return out

    def metrics(self) -> dict[str, float]:
        c = dict(self.counts)
        for layer in ("clifford", "rotation"):
            tgu = c.get(f"heisenberg.{layer}_tgu", 0)
            changed = c.pop(f"heisenberg.{layer}_changed", 0)
            c[f"heisenberg.{layer}_useful_frac"] = changed / tgu if tgu else 0.0
        return c
