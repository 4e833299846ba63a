"""One benchmark process: import kmsylow from the checkout's src/, then
either stop (a set-up probe) or run one ``kmsylow verify`` campaign.

Prints one JSON object as its last line of output:
- ``ready``: ``time.monotonic()`` at the end of ``import kmsylow.cli``;
- ``campaign_s``, ``exit_code`` and ``peak_rss_mib`` after a campaign;
- ``layers`` after a traced campaign, whose spans go to ``--spans``.

bench/run.py starts it; by hand:
    python3 bench/child.py --campaign bench/campaigns/default.json \\
        --seed 1 --out bench/out/report.json [--trace-workload default --spans FILE]
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import kmsylow.cli  # noqa: E402

READY = time.monotonic()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--campaign")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace-workload", help="trace the run under this workload name")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()
    result = {"ready": READY}
    if not args.setup_only:
        argv = ["verify", args.campaign, "--seed", str(args.seed), "--out", args.out]
        tracer = None
        if args.trace_workload:
            from tracer import Tracer

            # cli runs instance i with the seed it was given plus i
            tracer = Tracer(args.trace_workload, args.seed)
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = kmsylow.cli.main(argv)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        result["campaign_s"] = t1 - t0
        result["exit_code"] = code
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
