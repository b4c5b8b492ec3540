"""The ``python -m repro`` command-line interface.

Subcommands:

* ``run <scenario>``    -- execute a named preset (or a fully custom
  spec via flags / ``--spec file.json`` / ``--spec-json '{...}'``)
  through the engine facade and print the unified result; ``--json``
  emits the RunResult as JSON; ``--workers N`` shards the batch across
  N processes and ``--cache DIR`` replays content-addressed cached
  results.  Spec v2 axes ride on ``--device-param r_on=2e3`` (device
  window overrides) and ``--fault-rate 0.01`` (stuck-at faults); runs
  with injected nonidealities report a fidelity summary and exit 0 --
  device-induced golden mismatches are the measurement, not a failure.
* ``sweep``             -- expand ``--vary FIELD=V1,V2,...`` axes over a
  base spec into a grid (spec fields, nonideality knobs such as
  ``fault_rate`` / ``variability_sigma``, ``device.PARAM`` overrides,
  or workload params), fan the grid across workers, print one row per
  cell -- with per-cell fidelity columns when nonidealities are active
  and accuracy columns for ``analog_mvm`` runs; ``--csv PATH``
  additionally writes the table to a CSV file.
* ``figures``           -- regenerate paper figures (all, or
  ``--only fig3 --only fig4``); exit status reflects the claim checks.
* ``list [what]``       -- show registered engines, devices, workloads,
  scenarios and figures, each with a one-line description.
* ``serve``             -- drive a burst of concurrent requests (seed
  variants of a base spec, or a JSON list of specs) through the
  serving subsystem: in-flight dedup, result-cache tier,
  bounded-queue backpressure and the warm worker pool; prints the
  ServiceStats snapshot and ``--stats-json PATH`` persists it.
* ``cache prune``       -- evict least-recently-used result-cache
  entries down to ``--max-entries`` / ``--max-bytes`` caps;
  ``--verbose`` additionally prints the cache's lifetime counters.
* ``bench``             -- engine execution throughput, batched vs
  single-item MVP (generation excluded), optionally persisted as JSON;
  ``--workers N`` additionally measures sharded vs single-process
  execution of the same batched scenario.

The CLI is a thin shell over :mod:`repro.api` and :mod:`repro.parallel`:
everything it can do is equally reachable programmatically via
``Engine.from_spec(...).run()`` / ``ParallelRunner`` / ``SweepRunner``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.api.engines import Engine
from repro.api.figures import run_figures
from repro.api.registry import (
    DEVICES,
    ENGINES,
    FIGURES,
    SCENARIOS,
    WORKLOADS,
)
from repro.api.scenarios import scenario
from repro.api.spec import DeviceSpec, ScenarioSpec, SpecError
from repro.analysis.lint import (
    RULES,
    lint_paths,
    render_json,
    render_stats,
    render_text,
)
from repro.analysis.tables import write_csv
from repro.bench import measure_throughput, speedup, write_bench_json
from repro.parallel import (
    ParallelRunner,
    ResultCache,
    SweepRunner,
    expand_grid,
)
from repro.parallel.pool import POOL_MODES
from repro.parallel.sweep import (
    NONIDEALITY_FIELDS,
    SPEC_FIELDS,
    axis_value,
)

__all__ = ["build_parser", "main"]

_LISTABLE = {
    "engines": ENGINES,
    "devices": DEVICES,
    "workloads": WORKLOADS,
    "scenarios": SCENARIOS,
    "figures": FIGURES,
    "rules": RULES,
}


def _coerce_param(raw: str) -> Any:
    """CLI param values: int if possible, then float, bool, else str."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_params(pairs: Sequence[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError(f"--param expects key=value, got {pair!r}")
        params[key] = _coerce_param(value)
    return params


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified front-end for the 'Memristive devices for "
                    "computation-in-memory' reproduction.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_spec_source(p: argparse.ArgumentParser) -> None:
        """The spec-building flags ``run`` and ``sweep`` share."""
        p.add_argument(
            "scenario", nargs="?", default=None,
            help=f"named preset ({', '.join(SCENARIOS.names())}); "
                 "omit to build a spec purely from flags")
        p.add_argument("--spec", type=Path, default=None,
                       help="JSON file holding a ScenarioSpec dict "
                            "(v1 flat or v2 nested)")
        p.add_argument("--spec-json", default=None, metavar="JSON",
                       help="inline JSON ScenarioSpec dict -- the "
                            "command-line spelling of nested v2 specs")
        for field, kind in [("engine", str), ("workload", str),
                            ("device", str), ("size", int),
                            ("items", int), ("batch", int),
                            ("seed", int)]:
            p.add_argument(f"--{field}", type=kind, default=None,
                           help=f"override spec.{field}")
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="extra spec.params entry (repeatable)")
        p.add_argument("--device-param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="device parameter override (r_on, r_off, "
                            "v_set, v_reset; repeatable)")
        p.add_argument("--fault-rate", type=float, default=None,
                       metavar="RATE",
                       help="stuck-at fault rate in [0, 1] "
                            "(spec.nonideality.fault_rate)")

    def add_parallel(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1: in-process)")
        p.add_argument("--cache", type=Path, default=None, metavar="DIR",
                       help="content-addressed result cache directory")

    run_p = sub.add_parser(
        "run", help="run a scenario through the engine facade")
    add_spec_source(run_p)
    add_parallel(run_p)
    run_p.add_argument("--json", action="store_true",
                       help="print the RunResult as JSON")
    run_p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                       help="record a span trace of the run; a .jsonl "
                            "path writes one span per line, anything "
                            "else a Chrome trace_event file (loadable "
                            "in Perfetto / chrome://tracing)")

    sweep_p = sub.add_parser(
        "sweep", help="run a grid of scenarios (base spec x --vary axes) "
                      "across workers")
    add_spec_source(sweep_p)
    add_parallel(sweep_p)
    sweep_p.add_argument(
        "--vary", action="append", default=[],
        metavar="FIELD=V1,V2,...",
        help=f"sweep axis: a spec field ({', '.join(SPEC_FIELDS)}), a "
             f"nonideality field ({', '.join(NONIDEALITY_FIELDS)}), a "
             "device.PARAM override, or a params key, with "
             "comma-separated values (repeatable; axes expand "
             "combinatorially)")
    sweep_p.add_argument("--json", type=Path, default=None, metavar="PATH",
                         help="persist every RunResult as a JSON list")
    sweep_p.add_argument("--csv", type=Path, default=None, metavar="PATH",
                         help="write the sweep table (axes, ok, cost, "
                              "fidelity and accuracy columns) to a CSV "
                              "file")

    serve_p = sub.add_parser(
        "serve", help="drive concurrent requests through the serving "
                      "subsystem (dedup + cache tier + warm pool)")
    add_spec_source(serve_p)
    serve_p.add_argument("--requests", type=int, default=8, metavar="N",
                         help="concurrent submissions: seed variants "
                              "seed..seed+N-1 of the base spec "
                              "(default 8)")
    serve_p.add_argument("--specs", type=Path, default=None,
                         metavar="FILE",
                         help="JSON file holding a list of spec dicts "
                              "to submit instead of seed variants")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="warm worker processes (default 2)")
    serve_p.add_argument("--pool-mode", default="auto",
                         choices=POOL_MODES,
                         help="worker start method; 'inline' serves "
                              "synchronously in-process (default auto)")
    serve_p.add_argument("--cache", type=Path, default=None,
                         metavar="DIR",
                         help="result-cache directory for the cache "
                              "tier (hits answered without a worker)")
    serve_p.add_argument("--max-queue", type=int, default=64,
                         help="admitted-request bound; beyond it "
                              "submissions are rejected with a "
                              "retry-after (default 64)")
    serve_p.add_argument("--stats-json", type=Path, default=None,
                         metavar="PATH",
                         help="persist the final ServiceStats snapshot "
                              "as JSON (also flushed on SIGINT/SIGTERM)")
    serve_p.add_argument("--metrics-json", type=Path, default=None,
                         metavar="PATH",
                         help="persist the unified metrics-registry "
                              "snapshot (service_*, pool_*, "
                              "result_cache_* series) as JSON (also "
                              "flushed on SIGINT/SIGTERM)")

    trace_p = sub.add_parser(
        "trace", help="inspect recorded span traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command")
    summarize_p = trace_sub.add_parser(
        "summarize", help="per-stage timing table (count, total, mean, "
                          "share of root span time) from a trace file")
    summarize_p.add_argument("trace_file", type=Path,
                             help="a Chrome trace_event or span JSONL "
                                  "file written by --trace")
    summarize_p.add_argument("--csv", type=Path, default=None,
                             metavar="PATH",
                             help="additionally write the stage table "
                                  "to a CSV file")

    fig_p = sub.add_parser("figures", help="regenerate paper figures")
    fig_p.add_argument("--only", action="append", default=None,
                       metavar="NAME", choices=list(FIGURES.names()),
                       help="run only the named figure (repeatable)")

    list_p = sub.add_parser("list", help="show registered components")
    list_p.add_argument("what", nargs="?", default=None,
                        choices=sorted(_LISTABLE),
                        help="one registry (default: all)")

    cache_p = sub.add_parser(
        "cache", help="result-cache maintenance")
    cache_sub = cache_p.add_subparsers(dest="cache_command")
    prune_p = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries down to the "
                      "given caps")
    prune_p.add_argument("cache_dir", type=Path,
                         help="the cache directory to prune")
    prune_p.add_argument("--max-entries", type=int, default=None,
                         metavar="N",
                         help="keep at most N entries")
    prune_p.add_argument("--max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="keep at most BYTES of entry payload")
    prune_p.add_argument("--verbose", action="store_true",
                         help="also print the cache's lifetime "
                              "hit/miss/store/evict counters")

    lint_p = sub.add_parser(
        "lint", help="reprolint: AST contract checks (determinism, "
                     "merge policies, unit suffixes, registry "
                     "contracts, spec keys, shard hazards)")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        metavar="PATH",
                        help="files/directories to lint (default: src)")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="report format (default: text)")
    lint_p.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="run only this rule id or slug "
                             "(repeatable; default: all)")
    lint_p.add_argument("--stats", action="store_true",
                        help="also print per-rule finding counts and "
                             "descriptions")
    lint_p.add_argument("--baseline", type=Path, default=None,
                        metavar="FILE",
                        help="baseline file (default: "
                             ".reprolint-baseline.json at the project "
                             "root)")
    lint_p.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report every "
                             "finding")
    lint_p.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to cover the "
                             "current findings (keeps existing "
                             "reasons)")

    bench_p = sub.add_parser(
        "bench", help="engine execution throughput: batched vs "
                      "single-item MVP")
    bench_p.add_argument("--batch", type=int, default=16)
    bench_p.add_argument("--size", type=int, default=1024,
                         help="table rows per item")
    bench_p.add_argument("--repeats", type=int, default=3)
    bench_p.add_argument("--workers", type=int, default=1,
                         help="additionally bench the sharded executor "
                              "at this worker count vs workers=1")
    bench_p.add_argument("--json", type=Path, default=None,
                         help="persist the measurements as bench JSON")
    return parser


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    sources = [s for s in (args.scenario, args.spec, args.spec_json)
               if s is not None]
    if len(sources) > 1:
        raise SpecError(
            "give one spec source: a named scenario, --spec FILE or "
            "--spec-json JSON"
        )
    if args.spec is not None or args.spec_json is not None:
        text = args.spec_json
        if args.spec is not None:
            try:
                text = args.spec.read_text()
            except OSError as exc:
                raise SpecError(f"cannot read spec file: {exc}") from None
        try:
            spec = ScenarioSpec.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            source = args.spec if args.spec is not None else "--spec-json"
            raise SpecError(
                f"spec {source} is not valid JSON: {exc}"
            ) from None
    elif args.scenario is not None:
        spec = scenario(args.scenario)
    else:
        spec = ScenarioSpec()
    overrides: dict[str, Any] = {}
    for field in ("engine", "workload", "size", "items",
                  "batch", "seed"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    device = spec.device
    if args.device is not None and args.device != device.name:
        # A *new* device name drops the old device's overrides: they
        # described the previous entry's window.  Repeating the current
        # name is a no-op and keeps them.
        device = DeviceSpec(name=args.device)
    if args.device_param:
        device = device.replaced(overrides={
            **device.overrides,
            **_parse_params(args.device_param),
        })
    if device != spec.device:
        overrides["device"] = device
    if args.fault_rate is not None:
        try:
            overrides["nonideality"] = spec.nonideality.replaced(
                fault_rate=args.fault_rate)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    if args.param:
        overrides["params"] = {**spec.params, **_parse_params(args.param)}
    return spec.replaced(**overrides) if overrides else spec


def _render_result(result) -> str:
    lines = [
        f"engine={result.provenance['engine']}  "
        f"workload={result.provenance['workload']}  "
        f"device={result.provenance['device']}  "
        f"seed={result.provenance['seed']}",
    ]
    if result.provenance.get("cache", {}).get("hit"):
        lines.append("[cache hit: result replayed from "
                     f"{result.provenance['cache']['key'][:12]}...]")
    parallel = result.provenance.get("parallel")
    if parallel:
        lines.append(f"[sharded: {len(parallel['shards'])} shards over "
                     f"{parallel['workers']} workers "
                     f"({parallel['pool']} pool)]")
    lines += [
        f"checks passed: {result.ok}",
        f"energy:  {result.cost.energy_joules:.4g} J",
        f"latency: {result.cost.latency_seconds:.4g} s",
    ]
    if result.fidelity is not None:
        f = result.fidelity
        margin = "n/a" if f.worst_sense_margin is None \
            else f"{f.worst_sense_margin:.4g} A"
        lines.append(
            f"fidelity: BER {f.bit_error_rate:.4g} "
            f"({f.bit_errors}/{f.cells} cells), worst margin {margin}, "
            f"{f.verify_retries} verify retries, "
            f"{f.stuck_faults} stuck faults"
        )
    if result.accuracy is not None:
        a = result.accuracy
        lines.append(
            f"accuracy: task {a.task_accuracy:.4g} "
            f"({a.correct}/{a.total}), float-ref agreement "
            f"{a.reference_agreement:.4g}, max |err| "
            f"{a.max_abs_error:.4g}, ADC saturation "
            f"{a.saturation_rate:.4g} "
            f"({a.adc_saturations}/{a.adc_conversions})"
        )
    if result.cost.area_mm2:
        lines.append(f"area:    {result.cost.area_mm2:.4g} mm^2")
    counters = "  ".join(
        f"{k}={v}" for k, v in sorted(result.cost.counters.items())
    )
    if counters:
        lines.append(f"counters: {counters}")
    if result.item_costs and len(result.item_costs) > 1:
        lines.append(f"items:    {len(result.item_costs)} "
                     "per-item cost records")
    for key, value in result.outputs.items():
        if key == "checks_passed":
            continue
        rendered = repr(value)
        if len(rendered) > 68:
            rendered = rendered[:65] + "..."
        lines.append(f"  {key}: {rendered}")
    return "\n".join(lines)


def _healthy(result) -> bool:
    """Exit-code health of one run.

    Ideal runs must pass their golden checks.  Runs with injected
    nonidealities are *measurements* of device-induced degradation --
    a golden mismatch there is the datum (quantified in the fidelity
    summary and ``checks_passed``), not a simulator failure -- so they
    are healthy once they complete.
    """
    return result.ok or result.fidelity is not None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import (
        activate_tracer,
        deactivate_tracer,
        write_chrome_trace,
        write_spans_jsonl,
    )

    if args.workers < 1:
        raise SpecError("--workers must be a positive integer")
    spec = _build_spec(args)
    tracer = activate_tracer() if args.trace is not None else None
    try:
        if args.workers > 1 or args.cache is not None:
            result = ParallelRunner(workers=args.workers,
                                    cache=args.cache).run(spec)
        else:
            result = Engine.from_spec(spec).run()
    finally:
        if tracer is not None:
            deactivate_tracer()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_result(result))
    if tracer is not None:
        records = tracer.records()
        if args.trace.suffix == ".jsonl":
            write_spans_jsonl(args.trace, records)
        else:
            write_chrome_trace(args.trace, records,
                               metadata={"trace_id": tracer.trace_id})
        print(f"[trace saved to {args.trace}: {len(records)} spans, "
              f"trace_id {tracer.trace_id}]")
    return 0 if _healthy(result) else 1


def _parse_vary(pairs: Sequence[str]) -> dict[str, list[Any]]:
    """``--vary`` axes, in flag order, values coerced per field type."""
    int_fields = {"size", "items", "batch", "seed",
                  "fault_count", "verify_iterations"}
    float_fields = {"fault_rate", "stuck_at_one_fraction",
                    "variability_sigma", "wire_resistance"}
    axes: dict[str, list[Any]] = {}
    for pair in pairs:
        field, sep, raw = pair.partition("=")
        if not sep or not field or not raw:
            raise SpecError(
                f"--vary expects FIELD=V1,V2,..., got {pair!r}")
        if field in axes:
            raise SpecError(f"--vary axis {field!r} given twice")
        values: list[Any] = []
        for token in raw.split(","):
            if field in int_fields:
                try:
                    values.append(int(token))
                except ValueError:
                    raise SpecError(
                        f"--vary {field} expects integers, got {token!r}"
                    ) from None
            elif field in float_fields or field.startswith("device."):
                try:
                    values.append(float(token))
                except ValueError:
                    raise SpecError(
                        f"--vary {field} expects numbers, got {token!r}"
                    ) from None
            elif field in SPEC_FIELDS or field in NONIDEALITY_FIELDS:
                values.append(token)
            else:
                values.append(_coerce_param(token))
        axes[field] = values
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.vary:
        raise SpecError("sweep needs at least one --vary FIELD=V1,V2,...")
    base = _build_spec(args)
    axes = _parse_vary(args.vary)
    runner = SweepRunner(workers=args.workers, cache=args.cache)
    specs = expand_grid(base, axes)
    results = runner.run(specs)

    varied = list(axes)
    with_fidelity = any(r.fidelity is not None for r in results)
    with_accuracy = any(r.accuracy is not None for r in results)
    header = [*varied, "ok", "energy_J", "latency_s"]
    if with_fidelity:
        header += ["ber", "margin_A"]
    if with_accuracy:
        header += ["accuracy", "agreement", "max_err"]
    header.append("source")
    rows = []
    for spec, result in zip(specs, results):
        hit = result.provenance.get("cache", {}).get("hit", False)
        row = [
            *(str(axis_value(spec, name)) for name in varied),
            "yes" if result.ok else "NO",
            f"{result.cost.energy_joules:.4g}",
            f"{result.cost.latency_seconds:.4g}",
        ]
        if with_fidelity:
            f = result.fidelity
            row.append("-" if f is None else f"{f.bit_error_rate:.4g}")
            row.append("-" if f is None or f.worst_sense_margin is None
                       else f"{f.worst_sense_margin:.4g}")
        if with_accuracy:
            a = result.accuracy
            row.append("-" if a is None else f"{a.task_accuracy:.4g}")
            row.append("-" if a is None
                       else f"{a.reference_agreement:.4g}")
            row.append("-" if a is None else f"{a.max_abs_error:.4g}")
        row.append("cache" if hit else "run")
        rows.append(row)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    print(f"[{len(results)} runs, "
          f"{sum(1 for r in rows if r[-1] == 'cache')} cache hits, "
          f"workers={args.workers}]")
    if args.csv is not None:
        write_csv(args.csv, header, rows)
        print(f"[csv saved to {args.csv}]")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            [r.to_dict() for r in results], indent=2, sort_keys=True
        ) + "\n")
        print(f"[saved to {args.json}]")
    return 0 if all(_healthy(r) for r in results) else 1


def _cmd_list(args: argparse.Namespace) -> int:
    selected = [args.what] if args.what else sorted(_LISTABLE)
    for what in selected:
        registry = _LISTABLE[what]
        print(f"{what}:")
        for name, value in registry.items():
            detail = ""
            if what == "devices":
                detail = (f" -- {value.description}; "
                          f"{value.window_summary()}")
            elif what == "figures":
                detail = f" -- {value.title}"
            elif what == "scenarios":
                detail = (f" -- engine={value.engine} "
                          f"workload={value.workload} size={value.size} "
                          f"batch={value.batch}")
            elif what == "engines":
                if value.description:
                    detail = f" -- {value.description}"
            elif what == "workloads":
                engines = ", ".join(sorted(value.engines))
                summary = f"{value.description}; " \
                    if value.description else ""
                detail = f" -- {summary}engines: {engines}"
            elif what == "rules":
                detail = f" -- {value.rule_id}: {value.description}"
            print(f"  {name}{detail}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import DEFAULT_BASELINE_NAME, Baseline
    from repro.analysis.lint.walker import find_project_root

    if args.no_baseline and (args.baseline or args.update_baseline):
        raise SpecError(
            "--no-baseline conflicts with --baseline/--update-baseline")
    try:
        report = lint_paths(
            args.paths,
            select=args.select,
            baseline_path=args.baseline,
            use_baseline=not args.no_baseline,
        )
    except FileNotFoundError as exc:
        raise SpecError(str(exc)) from None
    if args.update_baseline:
        root = find_project_root(Path(args.paths[0]))
        path = args.baseline or root / DEFAULT_BASELINE_NAME
        baseline = Baseline.load(path)
        updated = baseline.updated(report.findings + report.grandfathered)
        updated.write(path)
        print(f"baseline updated: {len(updated)} entr"
              f"{'y' if len(updated) == 1 else 'ies'} -> {path}")
        return 0
    if args.fmt == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    if args.stats:
        print()
        print(render_stats(report))
    return report.exit_code


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command != "prune":
        raise SpecError("cache needs a subcommand: prune")
    if args.max_entries is None and args.max_bytes is None:
        raise SpecError(
            "cache prune needs --max-entries and/or --max-bytes")
    if not args.cache_dir.is_dir():
        raise SpecError(
            f"cache directory {args.cache_dir} does not exist")
    cache = ResultCache(args.cache_dir)
    stats = cache.prune(
        max_entries=args.max_entries, max_bytes=args.max_bytes)
    print(f"pruned {stats.removed} of {stats.scanned} entries "
          f"({stats.removed_bytes} bytes freed); "
          f"{stats.kept} entries / {stats.kept_bytes} bytes kept")
    if args.verbose:
        counters = cache.stats()
        print("counters: " + "  ".join(
            f"{key}={value}"
            for key, value in sorted(counters.as_dict().items())))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serving import Service, serve_all

    if args.requests < 1:
        raise SpecError("--requests must be a positive integer")
    if args.specs is not None:
        try:
            entries = json.loads(args.specs.read_text())
        except OSError as exc:
            raise SpecError(f"cannot read specs file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"specs file {args.specs} is not valid JSON: {exc}"
            ) from None
        if not isinstance(entries, list) or not entries:
            raise SpecError(
                "--specs file must hold a non-empty JSON list of spec "
                "dicts")
        specs = [ScenarioSpec.from_dict(entry) for entry in entries]
    else:
        base = _build_spec(args)
        specs = [base.replaced(seed=base.seed + offset)
                 for offset in range(args.requests)]

    async def drive():
        async with Service(
            workers=args.workers,
            pool_mode=args.pool_mode,
            cache=args.cache,
            max_queue=args.max_queue,
        ) as service:
            # SIGINT/SIGTERM interrupt the burst but never skip the
            # stats/metrics flush: the snapshot of whatever completed
            # still lands in --stats-json / --metrics-json.
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            installed = []
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread / unsupported platform
            serve_task = asyncio.ensure_future(serve_all(service, specs))
            stop_task = asyncio.ensure_future(stop.wait())
            try:
                await asyncio.wait({serve_task, stop_task},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                for signum in installed:
                    loop.remove_signal_handler(signum)
            stop_task.cancel()
            interrupted = stop.is_set() and not serve_task.done()
            if interrupted:
                serve_task.cancel()
                try:
                    await serve_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                results = []
            else:
                results = serve_task.result()
            metrics = service.metrics() \
                if args.metrics_json is not None else None
            return results, interrupted, service.stats(), metrics

    results, interrupted, stats, metrics = asyncio.run(drive())
    if interrupted:
        print("interrupted: flushing stats before exit",
              file=sys.stderr)
    else:
        print(f"served {len(results)} requests "
              f"({args.workers} workers, {args.pool_mode} pool)")
    print(stats.render())
    if args.stats_json is not None:
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(
            json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"[stats saved to {args.stats_json}]")
    if args.metrics_json is not None:
        args.metrics_json.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_json.write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        print(f"[metrics saved to {args.metrics_json}]")
    if interrupted:
        return 130
    return 0 if all(_healthy(result) for result in results) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_spans, render_summary, summarize_spans

    if args.trace_command != "summarize":
        raise SpecError("trace needs a subcommand: summarize")
    try:
        records = read_spans(args.trace_file)
    except OSError as exc:
        raise SpecError(f"cannot read trace file: {exc}") from None
    print(render_summary(records))
    if args.csv is not None:
        rows = summarize_spans(records)
        write_csv(args.csv,
                  ["stage", "count", "total_seconds", "mean_seconds",
                   "share_pct"],
                  [[r["stage"], r["count"], r["total_seconds"],
                    r["mean_seconds"], r["share_pct"]] for r in rows])
        print(f"[csv saved to {args.csv}]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Workload generation and golden verification happen once, outside
    # the timed region (as benchmarks/test_batch_throughput.py does):
    # the measurement is engine execution throughput, where batching
    # pays off -- not numpy table generation, where it cannot.
    from repro.api.workloads import adapter_for
    from repro.crossbar import Crossbar, CrossbarStack
    from repro.mvp.batch import BatchedMVPProcessor
    from repro.mvp.processor import MVPProcessor

    base = ScenarioSpec(engine="mvp", workload="database",
                        size=args.size, items=4)
    batched_spec = base.replaced(engine="mvp_batched", batch=args.batch)
    single_adapter = adapter_for(base, "mvp")
    rows_s, cols_s = single_adapter.mvp_geometry()
    programs_s = single_adapter.mvp_programs()
    batched_adapter = adapter_for(batched_spec, "mvp_batched")
    rows_b, cols_b = batched_adapter.mvp_geometry()
    programs_b = batched_adapter.mvp_programs()

    def run_single() -> MVPProcessor:
        processor = MVPProcessor(Crossbar(rows_s, cols_s))
        for program in programs_s:
            processor.execute(program)
        return processor

    def run_batched() -> BatchedMVPProcessor:
        processor = BatchedMVPProcessor(
            CrossbarStack(args.batch, rows_b, cols_b))
        for program in programs_b:
            processor.execute(program)
        return processor

    ops_single = run_single().stats.bit_operations
    ops_batched = run_batched().total_stats().bit_operations
    looped = measure_throughput(
        "engine_mvp_single", run_single,
        ops=ops_single, repeats=args.repeats,
    )
    stacked = measure_throughput(
        f"engine_mvp_batched_b{args.batch}", run_batched,
        ops=ops_batched, repeats=args.repeats,
    )
    results = [looped, stacked]
    ratio = speedup(stacked, looped)
    speedups = {"engine_batched_vs_single": ratio}
    print(f"{looped.name}: {looped.ops_per_second:.3e} bit-ops/s")
    print(f"{stacked.name}: {stacked.ops_per_second:.3e} bit-ops/s")
    print(f"batched engine throughput: {ratio:.1f}x the single-item "
          "path (execution only; workload generation excluded)")

    if args.workers > 1:
        # Whole facade runs (generation + execution + merge): the unit
        # of work the sharded executor actually distributes.
        serial = measure_throughput(
            "parallel_workers1",
            lambda: ParallelRunner(workers=1).run(batched_spec),
            ops=ops_batched, repeats=args.repeats,
        )
        runner = ParallelRunner(workers=args.workers)
        sharded = measure_throughput(
            f"parallel_workers{args.workers}",
            lambda: runner.run(batched_spec),
            ops=ops_batched, repeats=args.repeats,
        )
        results += [serial, sharded]
        parallel_ratio = speedup(sharded, serial)
        speedups[f"parallel_{args.workers}workers_vs_1"] = parallel_ratio
        print(f"sharded executor ({args.workers} workers): "
              f"{parallel_ratio:.2f}x the workers=1 facade run")

    if args.json is not None:
        write_bench_json(args.json, results, speedups=speedups)
        print(f"[saved to {args.json}]")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entrypoint; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figures":
            return run_figures(args.only)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except ValueError as exc:
        # Covers RegistryError/SpecError/ScenarioError plus the model
        # layers' own ValueErrors (bad workload parameters, sizes a
        # generator cannot satisfy, ...) -- all user-input failures.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # No subcommand: keep the historical `python -m repro` behaviour of
    # regenerating every figure.
    return run_figures()
