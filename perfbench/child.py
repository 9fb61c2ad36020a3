"""One `crease-lab` job in a fresh interpreter: `python3 child.py <spec.json>`.

Times `import creaselab.cli`, then calls `cli.main(argv)` as the console
script would, optionally under the tracer, and writes its measurements to
the spec's `result` path.  Only the standard library is imported before
`creaselab.cli`, so the import time is what a user pays.
"""

import json
import os
import resource
import sys
import time

START = time.monotonic()


def _vacuum_probe(config_path: str) -> dict:
    """Largest |mu| and |J| at the LSW volume nodes `identities` integrates over."""
    from creaselab.config import build_catalog_entry, load_config
    from creaselab.geometry import constraint_fields
    from creaselab.integrals import volume_quadrature

    config = load_config(config_path)
    data = build_catalog_entry(config)
    a = max(3.0, data.chart.r_min + 0.5)  # the region cmd_identities uses
    pts, _ = volume_quadrature(("annulus", a, a + 3.0), max(24, config.sphere_order), config.sphere_order)
    cons = constraint_fields(data, pts)
    return {
        "mu_max": float(abs(cons.mu).max()),
        "J_max": float(cons.momentum_norm(data, pts).max()),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import creaselab.cli as cli

    ready = time.monotonic()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"creaselab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 97
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        command_s = time.perf_counter() - t0
        command_cpu_s = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    result = {
        "exit": code,
        "ready": ready,
        "import_s": ready - START,
        "command_s": command_s,
        "command_cpu_s": command_cpu_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["restored"] = tracer.restored()
        result["layers"] = tracer.summary()
    if spec.get("vacuum_probe"):
        result["vacuum_probe"] = _vacuum_probe(spec["argv"][2])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
