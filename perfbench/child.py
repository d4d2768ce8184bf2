"""Run one tensorcat CLI command the way the `cli` workload measures it.

    python3 child.py --out FILE [--trace INPUT_ID] -- <tensorcat arguments>

The command runs as `python -m tensorcat.cli <arguments>` would, with the
host-speed sampler on from the start and, with --trace, the span recorder
installed around `main`.  The samples (and spans) go to FILE as JSON; the
exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from hostspeed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    if "--" not in args:
        sys.stderr.write(__doc__)
        return 2
    sep = args.index("--")
    opts = dict(zip(args[:sep:2], args[1:sep:2]))
    sampler = Sampler().start()
    tracer = None
    try:
        import tensorcat.cli
        if "--trace" in opts:
            tracer = Tracer().install()
            tracer.input_id = opts["--trace"]
        return tensorcat.cli.main(args[sep + 1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
        sampler.stop()
        with open(opts["--out"], "w", encoding="utf-8") as fh:
            json.dump({"samples": sampler.samples,
                       "trace": tracer.dump() if tracer else None}, fh)


if __name__ == "__main__":
    sys.exit(main())
