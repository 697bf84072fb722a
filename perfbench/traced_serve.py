"""Registry server with the benchmark's span wrappers installed.

Same behaviour and listening line as `python -m loramem serve --port 0`;
on SIGINT it stops serving and writes its spans to --spans.

    python perfbench/traced_serve.py --adapters DIR --spans OUT.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--adapters", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    common.require_source()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from loramem import servebench

    server = servebench.RegistryServer(
        servebench.ServeConfig(port=0, adapter_dir=Path(args.adapters)))
    print(f"loramem registry listening on 127.0.0.1:{server.port}",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
