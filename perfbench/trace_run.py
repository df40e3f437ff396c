"""Traced in-process run of one workload cycle, in a fresh process.

    python3 perfbench/trace_run.py --workload probe --seed 1 --work DIR --out trace.json

run.py starts this once per traced workload, with the same environment as
the CLI children.  It imports pathcert.cli cold, then performs each
operation of the cycle as the CLI command does, through the layers'
public functions, with a span around every layer call.  Spans (name,
start, end, parent span, operation id) and counts are kept in memory and
written to the trace JSON at the end, together with the per-layer
metrics derived from them.

Each operation has two parts.  ``op.<kind>`` mirrors the CLI command and
writes the same files, which run.py compares byte for byte with the CLI's.
``extra.<kind>`` measures what the command does not expose: the pipeline
stages replayed on the same input (which must reproduce build_path's cone
axis and anchors), dense-grid evaluation rates, the suites a workload's
check leaves out, and field evaluation rates.  Only ``op.*`` time enters
the tracing overhead.  The lru caches of cover, kernel and quadrature nodes
are never cleared: the first call is timed cold, as the CLI pays it.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    """Spans and counts kept in memory; times are seconds since process start."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.op: str | None = None
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self.stack[-1] if self.stack else None,
                  "start": time.perf_counter() - T0, "end": None}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - T0
            self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    with tracer.span("cli.import"):
        import pathcert.cli  # noqa: F401  the cold import every command pays

    import layers
    from workloads import OutputError, cycle, unique, verify

    work = Path(args.work)
    ops = unique(cycle(args.workload, args.seed, work / "inputs", work / "traced"))
    op_seconds, digests, failures = {}, {}, []
    for op in ops:
        tracer.op = op.label
        try:
            with tracer.span("op." + op.kind) as record:
                state = layers.run_op(tracer, op)
            op_seconds[op.label] = layers.duration(record)
            with tracer.span("extra." + op.kind):
                layers.run_extra(tracer, op, state)
            digests[op.label] = verify(op, layers.load_build)
        except OutputError as exc:
            failures.append(str(exc))
        except Exception as exc:  # record the failed operation and go on with the next
            traceback.print_exc()
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    tracer.op = None

    metrics, units = layers.per_layer_metrics(tracer)
    document = {
        "workload": args.workload, "seed": args.seed, "metrics": metrics, "units": units,
        "counts": tracer.counts, "op_seconds": op_seconds, "digests": digests,
        "failures": failures, "spans": tracer.spans,
        "self_seconds": layers.self_seconds(tracer.spans),
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
