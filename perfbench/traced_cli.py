"""One traced ``fusion-frames`` command, for the benchmark's traced run.

    python3 traced_cli.py SPANS_OUT OP_ID ALLOC <fusion-frames arguments...>
    python3 traced_cli.py SPANS_OUT OP_ID ALLOC --each-theorem TRIALS SEED LO..HI,LO..HI

The first form runs ``fusionframes.cli.main`` under a ``cli.<command>``
span.  The second runs the campaign as one ``run_checks`` call per theorem
and prints the concatenated check records as JSON.  Spans are written to
SPANS_OUT when the command ends.  ALLOC 1 also runs tracemalloc inside
tensor spans.
"""

import json
import sys

import fusionframes
import fusionframes.cli
from tracing import Tracer, install


def each_theorem(tracer, trials, seed, dims):
    verify = fusionframes.verify
    ranges = tuple(tuple(int(x) for x in part.split("..")) for part in dims.split(","))
    records = []
    for theorem in verify.THEOREM_IDS:
        spec = verify.CheckSpec(theorems=(theorem,), trials=trials, seed=seed, dims=ranges)
        report = tracer.call(f"verify.theorem.{theorem}", verify.run_checks, (spec,), {})
        records.extend(report.checks)
    print(json.dumps(records))
    return 0


def main(argv):
    spans_out, op, alloc, *args = argv
    tracer = Tracer(int(op), alloc=alloc == "1")
    install(tracer)
    try:
        if args[0] == "--each-theorem":
            return each_theorem(tracer, int(args[1]), int(args[2]), args[3])
        return tracer.call(f"cli.{args[0]}", fusionframes.cli.main, (args,), {})
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
