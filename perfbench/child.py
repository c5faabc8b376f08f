"""One fresh-process qcollide run, timed from outside the package.

Does what ``qcollide run --config CONFIG --out OUT`` does: import the
package, ``cli.load_config``, then ``cli.run_scenario``.  ``setup_s`` runs from
just before ``import qcollide`` until ``load_config`` returns; ``wall_s`` is
the time spent in ``run_scenario``.  The CHECK lines go to stdout as with the
CLI, and the timings go to the JSON file named by ``--result``.

    python3 perfbench/child.py --src SRC --config CONFIG --out OUT --result RESULT
        [--setup-only] [--spans SPANS.npz]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the qcollide package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop after load_config")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import qcollide.cli as cli
    from qcollide.errors import QCollideError

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"package": str(Path(cli.__file__).resolve().parent)}
    code = 0
    try:
        cfg = cli.load_config(args.config)
        result["setup_s"] = time.perf_counter() - t0
        if not args.setup_only:
            t1, c1 = time.perf_counter(), time.process_time()
            code = cli.run_scenario(cfg, out_dir=args.out)
            result["wall_s"] = time.perf_counter() - t1
            result["cpu_s"] = time.process_time() - c1
    except (cli.ConfigError, QCollideError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
