"""Worker interpreter: runs one job from ``run.py`` and reports on stdout.

Started as ``python3 qbench/worker.py`` with littleq's ``src`` on
PYTHONPATH; reads one JSON job on stdin and writes one JSON result.  Jobs:

- ``setup``: time from before ``import littleq`` until every command line of
  the workload is parsed and its ``Params``/``IndexSet`` validated;
- ``calls``: ``littleq.cli.main`` on each command line in turn, optionally
  traced; each group of command lines is bracketed by reference kernel
  windows;
- ``suites``: ``run_suite(..., suites=(name,))`` at each point, untraced.

Only stdlib modules are imported at the top, so that ``setup`` times every
import littleq makes.
"""
import json
import sys
import time


def _setup(job: dict) -> dict:
    start = time.perf_counter()
    import littleq  # noqa: F401  (the import is what is timed)
    import littleq.cli as cli

    parser = cli.build_parser()
    for argv in job["lines"]:
        cfg = cli.config_from_args(parser.parse_args(argv))
        cfg.params()
        cfg.index_set()
    wall = time.perf_counter() - start
    # the kernel can only run after the timed import, as it imports fractions,
    # so set-up is corrected by one window after it
    from refkernel import ref_kernel, timed_ref

    ref_kernel()  # warm-up: the first run in a fresh interpreter is slower
    window = timed_ref()
    return {"samples": [{"wall": wall, "ref": [window]}], "windows": [window]}


def _error(exc: BaseException) -> dict:
    import traceback

    frames = traceback.extract_tb(exc.__traceback__)
    where = ["%s:%d %s" % (f.filename.rsplit("/", 1)[-1], f.lineno, f.name) for f in frames[-3:]]
    return {"error": "%s: %s" % (type(exc).__name__, exc), "where": where}


def _timed_groups(groups, run_one) -> dict:
    """Run ``run_one`` on each item; each group of items is bracketed by a
    reference kernel window before and after it."""
    from refkernel import ref_kernel, timed_ref

    ref_kernel()  # warm-up: the first run in a fresh interpreter is slower
    windows = [timed_ref()]
    samples = []
    for group in groups:
        batch = []
        for item in group:
            sample = {}
            start = time.perf_counter()
            try:
                sample.update(run_one(item))
            except Exception as exc:  # an operation failure, reported to the parent
                sample.update(_error(exc))
            sample["wall"] = time.perf_counter() - start
            batch.append(sample)
        windows.append(timed_ref())
        for sample in batch:
            sample["ref"] = windows[-2:]
        samples.extend(batch)
    return {"samples": samples, "windows": windows}


def _cache_stats() -> dict:
    """Summed ``cache_info`` of every lru_cache in littleq."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name != "littleq" and not name.startswith("littleq."):
            continue
        for value in vars(module).values():
            while value is not None and not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                caches[id(value)] = value.cache_info()
    return {
        "hits": sum(c.hits for c in caches.values()),
        "misses": sum(c.misses for c in caches.values()),
        "entries": sum(c.currsize for c in caches.values()),
    }


def _calls(job: dict) -> dict:
    import contextlib
    import io

    import littleq.cli as cli

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + argv[0]):
                    code = cli.main(argv)
        return {"code": code, "stdout": out.getvalue()}

    try:
        result = _timed_groups(job["groups"], call)
    finally:
        if tracer is not None:
            tracer.uninstall()
    import mpmath

    result["caches"] = _cache_stats()
    result["mpmath"] = {"version": mpmath.__version__, "backend": mpmath.libmp.BACKEND}
    if tracer is not None:
        result["groups"] = {
            g: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s, **s.counters}
            for g, s in tracer.groups.items()
        }
        result["groups"]["verify.zeros"]["distinct_levels"] = len(tracer.root_levels)
        result["spans"] = tracer.spans
    return result


def _suites(job: dict) -> dict:
    import littleq.cli as cli
    from littleq.verify import run_suite

    parser = cli.build_parser()
    configs = [cli.config_from_args(parser.parse_args(["verify", *argv]))
               for argv in job["points"]]
    # one bracket around the whole suite: its total is what is reported

    def one(cfg):
        run_suite(cfg.index_set(), cfg.params(), nmax=cfg.nmax, eps=cfg.eps,
                  xmax=cfg.xmax, prec_bits=cfg.prec_bits, suites=(job["suite"],),
                  seed=cfg.seed)
        return {}

    return _timed_groups([configs], one)


def main() -> int:
    job = json.load(sys.stdin)
    result = {"setup": _setup, "calls": _calls, "suites": _suites}[job["kind"]](job)
    import resource

    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
