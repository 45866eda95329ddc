"""Command-line interface: ``python -m repro <command>``.

Gives the library a bench-top feel without writing code:

* ``measure`` — one compass measurement at a chosen heading/field,
* ``sweep`` — full-circle accuracy sweep with statistics,
* ``power`` — the power budget at a given update rate,
* ``area`` — the Sea-of-Gates floorplan report,
* ``scan`` — boundary-scan test of the MCM, with optional fault injection,
* ``faults`` — the fault-injection campaign (``repro.faults``),
* ``trace`` — run a measurement with tracing on and print the span tree,
* ``metrics`` — exercise both measurement paths and dump the metrics,
* ``serve-sim`` — drive the replicated heading service, optionally with
  a fault armed on one replica, and watch verdicts/breakers live,
* ``soak`` — the seeded chaos soak against the service
  (``repro.faults.chaos``), exiting nonzero if an invariant breaks,
* ``fleet-sim`` — drive the sharded heading fleet with open-loop
  Poisson load on the virtual-time kernel and report shedding,
  cache/coalesce rates and tail latency (``repro.fleet``),
* ``factory`` — mint a seeded lot of device instances with defects
  drawn over the fault registry, run the staged production test
  program (boundary scan → BIST → calibration → environment screen)
  and print the lot report; exits 18 (``EscapeError``) on any test
  escape,
* ``scenario`` — fly a named (or JSON-defined) environment/mission
  scenario through the guarded compensation chain, optionally record a
  replay log, or run the per-scenario fault campaign; ``--strict``
  turns guard degradations into typed raises (exit 19,
  ``ScenarioError``/``EnvelopeError``),
* ``fleet-soak`` — the deterministic fleet storm (chaos + RPS ramp past
  saturation); exits 17 (``SLOViolationError``) when an SLO gate
  breaks,
* ``array`` — one fused measurement through the N-element gradiometer
  array (``repro.array``): per-element screening/voting provenance,
  the weighted-least-squares fusion and the gradiometer residual,
  optionally against a near-field ambush; ``--strict`` turns a
  gradient trip into a typed raise (exit 20, ``ArrayFusionError``),
* ``record`` — run a seeded heading sweep with the replay recorder armed
  and write a self-checking ``.rplog`` capture (``repro.replay``),
* ``replay`` — re-execute a recorded log bit-exactly (digital back-end
  or full chain), failing loudly on any divergence,
* ``diff`` — replay one log through several execution paths (scalar,
  batch, service replica, instrumented…) and report the first divergent
  stage of every mismatching record,
* ``watch`` — advance the watch and render the LCD.

Failures exit with a *typed* code: every :class:`~repro.errors.ReproError`
subclass maps to its own nonzero exit status (see ``EXIT_CODES``) and
prints a one-line message instead of a traceback, so shell scripts and CI
can branch on the failure class.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .btest.interconnect import FaultKind, InterconnectFault, SubstrateHarness
from .core.accuracy import ErrorStats
from .core.compass import IntegratedCompass
from .core.power import PowerModel
from .digital.display import DisplayMode
from .errors import (
    ArrayFusionError,
    CalibrationError,
    CircuitOpenError,
    ComplianceError,
    ConfigurationError,
    DegradedOperationError,
    DivergenceError,
    EscapeError,
    FaultError,
    OverloadError,
    ProtocolError,
    QuorumError,
    ReplayError,
    ReproError,
    ResourceError,
    ScenarioError,
    ServiceError,
    SLOViolationError,
)
from .faults.campaign import DEFAULT_HEADINGS as DEFAULT_CAMPAIGN_HEADINGS
from .report import report_json, write_report
from .soc.mcm import build_compass_mcm
from .soc.netlist import CompassNetlist
from .soc.sea_of_gates import PAIRS_PER_QUARTER

#: Exit code per failure class.  Most-derived first: the mapping is
#: resolved by MRO walk, so a DegradedOperationError exits 9 even though
#: it is also a FaultError, a ProtocolError and a ReproError.
EXIT_CODES = {
    DegradedOperationError: 9,
    FaultError: 8,
    CalibrationError: 7,
    ResourceError: 6,
    ProtocolError: 5,
    ComplianceError: 4,
    ConfigurationError: 3,
    ReproError: 10,
    CircuitOpenError: 12,
    QuorumError: 13,
    ServiceError: 11,
    DivergenceError: 15,
    ReplayError: 14,
    OverloadError: 16,
    SLOViolationError: 17,
    EscapeError: 18,
    # EnvelopeError subclasses ScenarioError, so both exit 19.
    ScenarioError: 19,
    ArrayFusionError: 20,
}


def exit_code_for(error: ReproError) -> int:
    """The exit status for a typed failure (most-derived class wins)."""
    for klass in type(error).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1


def _write_json(path: str, payload) -> None:
    write_report(path, payload)
    print(f"wrote {path}")


def _verdict(ok: bool) -> int:
    """Print a gate verb's ``RESULT:`` line and return its exit status."""
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _report_cells(result) -> bool:
    """Print a campaign's outcome tally and its contract-breaking cells.

    Silent-wrong and nonconforming cells go to stderr, with ``heading=``
    only for cells that have one; returns true when there are none.
    """
    summary = result.summary()
    print(
        f"{summary['cells']} cells: "
        + ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items())
    )

    def where(cell) -> str:
        heading = (
            "" if cell.heading_deg is None else f" heading={cell.heading_deg}"
        )
        return f"{cell.fault} sev={cell.severity}{heading} path={cell.path}"

    for cell in result.silent_wrong():
        print(f"SILENT-WRONG: {where(cell)} ({cell.detail})", file=sys.stderr)
    for cell in result.nonconforming():
        print(
            f"NONCONFORMING: {where(cell)} -> {cell.outcome.value} "
            f"({cell.detail})",
            file=sys.stderr,
        )
    return not summary["silent_wrong"] and not summary["nonconforming"]


def _cmd_measure(args: argparse.Namespace) -> int:
    compass = IntegratedCompass()
    m = compass.measure_heading(args.heading, args.field * 1e-6)
    print(f"true heading : {args.heading:.2f} deg")
    print(f"measured     : {m.heading_deg:.3f} deg ({m.cardinal})")
    print(f"error        : {m.error_against(args.heading):.3f} deg")
    print(f"counts       : x={m.x_count} y={m.y_count}")
    print(f"duty cycles  : x={m.duty_x:.4f} y={m.duty_y:.4f}")
    print(f"LCD          : {compass.read_display().text}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .batch import BatchCompass
    from .core.heading import headings_evenly_spaced
    from .units import angular_difference_deg

    compass = IntegratedCompass()
    headings = headings_evenly_spaced(args.points, 0.5)
    measurements = BatchCompass(compass).sweep_headings(headings, args.field * 1e-6)
    stats = ErrorStats.from_sweep(headings, measurements)
    for h, m in zip(headings, measurements):
        print(
            f"{h:8.2f} -> {m.heading_deg:8.3f} "
            f"({angular_difference_deg(m.heading_deg, h):+.3f})"
        )
    print(f"max |error| {stats.max_error:.3f} deg, rms {stats.rms_error:.3f} deg "
          f"over {stats.n_samples} headings")
    fp = compass.front_end.fastpath_stats
    print(f"fastpath: used {fp.used}/{fp.attempted}, "
          f"resolved {fp.resolved} edges, fallbacks {fp.fallbacks or '{}'}")
    return 0 if stats.in_spec else 1


def _cmd_power(args: argparse.Namespace) -> int:
    model = PowerModel()
    print(model.gated(repetition_period=1.0 / args.rate).as_table())
    print()
    print(model.always_on().as_table())
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    netlist = CompassNetlist()
    array = netlist.place()
    print("raw pairs per block:")
    for name, raw in sorted(netlist.raw_pair_summary().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<18} {raw:6d}")
    print()
    for index, (supply, utilisation) in array.utilisation_report().items():
        print(f"quarter {index}: {supply:<8} {utilisation:6.1%}")
    print(f"digital: {netlist.digital_pairs() / PAIRS_PER_QUARTER:.2f} quarters; "
          f"analog: {netlist.analog_pairs() / PAIRS_PER_QUARTER:.1%} of a quarter")
    return 0


_FAULT_KINDS = {
    "open": FaultKind.OPEN,
    "stuck0": FaultKind.STUCK_0,
    "stuck1": FaultKind.STUCK_1,
}


def _cmd_scan(args: argparse.Namespace) -> int:
    harness = SubstrateHarness(build_compass_mcm())
    if args.fault:
        kind_name, _, net = args.fault.partition(":")
        if kind_name not in _FAULT_KINDS:
            print(f"unknown fault kind {kind_name!r}; "
                  f"use one of {sorted(_FAULT_KINDS)}", file=sys.stderr)
            return 2
        harness.inject(InterconnectFault(_FAULT_KINDS[kind_name], net))
    verdicts = (
        harness.diagnose_with_complement()
        if args.complement
        else harness.diagnose()
    )
    for net, verdict in sorted(verdicts.items()):
        print(f"  {net:<12} {verdict}")
    return _verdict(all(v == "good" for v in verdicts.values()))


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultCampaign

    campaign = FaultCampaign(
        headings_deg=args.headings,
        paths=args.paths,
        faults=args.fault or None,
    )
    result = campaign.run()
    for name in result.summary()["faults"]:
        cells = [c for c in result.cells if c.fault == name]
        outcomes = sorted({c.outcome.value for c in cells})
        print(f"  {name:<32} {len(cells):3d} cells  {', '.join(outcomes)}")
    ok = _report_cells(result)
    if args.json:
        _write_json(args.json, result.to_dict())
    return _verdict(ok)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .batch import BatchCompass
    from .core.compass import CompassConfig
    from .observe import Observability, render_span_tree

    observe = Observability.on(
        jsonl_path=args.jsonl,
        vcd_path=args.vcd,
    )
    compass = IntegratedCompass(CompassConfig(observe=observe))
    if args.batch:
        BatchCompass(compass).sweep_headings(
            [args.heading], args.field * 1e-6
        )
    else:
        compass.measure_heading(args.heading, args.field * 1e-6)
    ring = compass.observer.ring()
    for root in ring.roots:
        print(render_span_tree(root))
    compass.observer.close()
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    if args.vcd:
        print(f"wrote {args.vcd}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .batch import BatchCompass
    from .core.compass import CompassConfig
    from .core.heading import headings_evenly_spaced
    from .observe import Observability, render_metrics

    compass = IntegratedCompass(
        CompassConfig(observe=Observability.on(tracing=False))
    )
    headings = headings_evenly_spaced(args.points)
    field_t = args.field * 1e-6
    for heading in headings:
        compass.measure_heading(heading, field_t)
    BatchCompass(compass).sweep_headings(headings, field_t)
    if args.campaign:
        from .faults import FaultCampaign

        FaultCampaign(
            headings_deg=(headings[0],),
            faults=args.campaign,
            metrics=compass.observer.metrics,
        ).run()
    print(render_metrics(compass.observer.metrics.snapshot()))
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from .faults import REGISTRY
    from .observe import Observability
    from .service import HeadingService, ServiceConfig

    config = ServiceConfig(
        replicas=args.replicas,
        quorum=args.quorum,
        seed=args.seed,
        observe=Observability.on(tracing=False),
    )
    service = HeadingService(config)
    headings = [
        (args.heading + i * 360.0 / args.requests) % 360.0
        for i in range(args.requests)
    ]
    guard = None
    if args.fault:
        if args.on_replica >= config.replicas:
            print(
                f"--on-replica {args.on_replica} out of range for "
                f"{config.replicas} replicas",
                file=sys.stderr,
            )
            return 2
        target = service.replicas[args.on_replica].compass
        guard = REGISTRY.inject(args.fault, target, args.severity)
        guard.__enter__()
        print(
            f"armed {args.fault} (severity {args.severity}) on "
            f"replica-{args.on_replica}"
        )
    try:
        for truth in headings:
            try:
                r = service.measure_heading(truth, args.field * 1e-6)
            except ServiceError as error:
                print(
                    f"{truth:8.2f} -> FAILED "
                    f"({type(error).__name__}: {error})"
                )
                continue
            real = sum(1 for a in r.attempts if a.outcome != "breaker-open")
            print(
                f"{truth:8.2f} -> {r.heading_deg:8.3f}  "
                f"{r.verdict.value:<15} {real} attempts, "
                f"dissent {r.vote.dissent_deg:.3f} deg"
                + (
                    f"  [{'; '.join(dict.fromkeys(r.flags))}]"
                    if r.flags
                    else ""
                )
            )
    finally:
        if guard is not None:
            guard.__exit__(None, None, None)
    print("breakers:", ", ".join(
        f"{name}={state}"
        for name, state in service.breaker_states().items()
    ))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .faults import ChaosSoak, SoakConfig
    from .observe import Observability
    from .service import ServiceConfig

    config = SoakConfig(
        requests=args.requests,
        seed=args.seed,
        service=ServiceConfig(
            replicas=args.replicas,
            quorum=args.quorum,
            observe=Observability.on(tracing=False),
        ),
        availability_floor=args.floor,
    )
    report = ChaosSoak(config).run()
    print(report.summary())
    if args.json:
        _write_json(args.json, report.to_dict())
    return _verdict(report.invariants_ok(config.availability_floor))


def _cmd_fleet_sim(args: argparse.Namespace) -> int:
    from .fleet import (
        FleetConfig,
        HeadingFleet,
        Kernel,
        LoadPhase,
        OpenLoopGenerator,
    )

    config = FleetConfig(shards=args.shards, seed=args.seed)
    kernel = Kernel()
    fleet = HeadingFleet(config, scheduler=kernel)
    generator = OpenLoopGenerator(
        fleet,
        [LoadPhase(rps=args.rps, duration_s=args.duration, label="drive")],
        seed=args.seed,
        hot_fraction=args.hot,
    )

    async def drive():
        fleet.start()
        records = await generator.run()
        await fleet.stop()
        return records

    [record] = kernel.run(drive())
    stats = fleet.stats()
    print(
        f"offered {record.offered} at {args.rps:g} rps over "
        f"{args.duration:g}s simulated ({args.shards} shards, "
        f"seed {args.seed})"
    )
    print(
        f"served {record.served} (availability {record.availability:.4f}), "
        f"shed {record.shed_total}, failed {record.failed_total}"
    )
    if record.shed:
        print("  shed by reason:", ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(record.shed.items())
        ))
    print("  sources:", ", ".join(
        f"{source}={count}"
        for source, count in sorted(record.sources.items())
    ) or "none")
    print("  verdicts:", ", ".join(
        f"{verdict}={count}"
        for verdict, count in sorted(record.verdicts.items())
    ) or "none")
    print(
        f"  latency p50/p99/p999: "
        f"{record.latency_percentile(50) * 1e3:.2f} / "
        f"{record.latency_percentile(99) * 1e3:.2f} / "
        f"{record.latency_percentile(99.9) * 1e3:.2f} ms"
    )
    cache = stats["cache"]
    if cache is not None:
        print(
            f"  cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {cache['hit_rate']:.3f})"
        )
    print(f"  brownout level {stats['brownout_level']}, "
          f"{len(stats['brownout_transitions'])} transitions")
    for shard in stats["shards"]:
        print(
            f"  {shard['name']}: served {shard['served']}, "
            f"peak queue {shard['queue_peak_depth']}, "
            f"est service {shard['est_service_ms']:.2f} ms"
        )
    return 0


def _cmd_fleet_soak(args: argparse.Namespace) -> int:
    from .fleet import FleetConfig, FleetSoak, FleetSoakConfig
    from .observe import Observability

    fleet_config = FleetConfig(
        shards=args.shards,
        seed=args.seed,
        observe=Observability.on(tracing=False),
    )
    overrides = {}
    if args.phase:
        phases = []
        for spec in args.phase:
            multiplier, _, duration = spec.partition(":")
            phases.append((float(multiplier), float(duration)))
        overrides["phases"] = tuple(phases)
    config = FleetSoakConfig(
        fleet=fleet_config,
        rated_rps=args.rated,
        seed=args.seed,
        chaos=not args.no_chaos,
        **overrides,
    )
    report = FleetSoak(config).run()
    print(report.summary())
    if args.json:
        _write_json(args.json, report.to_dict())
    if args.metrics and report.metrics_snapshot is not None:
        _write_json(args.metrics, report.metrics_snapshot)
    report.raise_for_slo()  # SLOViolationError -> exit 17
    return _verdict(True)


def _cmd_factory(args: argparse.Namespace) -> int:
    from .factory import (
        DefectDistribution,
        FactoryLine,
        LotConfig,
        defect,
        mint_units,
    )
    from .observe.metrics import MetricsRegistry

    config = LotConfig(
        size=args.units,
        seed=args.seed,
        defects=DefectDistribution(
            rate=args.defect_rate,
            multi_fault_rate=args.multi,
            severity_law=args.severity_law,
        ),
        stages=tuple(args.stages.split(",")),
    )
    units = None
    if args.coupon:
        # Seeded-defect coupons: known-bad units appended to the minted
        # lot, the classic way to audit a test program's catch claim.
        units = mint_units(config)
        for spec in args.coupon:
            name, _, severity = spec.partition(":")
            units.append(
                (defect(name, float(severity) if severity else None),)
            )
    metrics = MetricsRegistry() if args.metrics else None
    line = FactoryLine(config, metrics=metrics)
    report = line.run(units=units)
    print(report.summary())
    print(f"wall clock: {report.wall_s:.2f} s for {report.size} units")
    if args.json:
        _write_json(args.json, report.to_dict(include_units=not args.no_units))
    if args.metrics:
        _write_json(args.metrics, metrics.snapshot())
    report.raise_for_escapes()  # EscapeError -> exit 18
    return _verdict(True)


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json as _json

    from .scenario import (
        SCENARIOS,
        Scenario,
        ScenarioCampaign,
        ScenarioRunner,
        get_scenario,
    )

    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            armed = "guarded" if scenario.compensation.any_armed else "raw"
            print(f"  {name:<18} {scenario.steps:3d} steps  {armed:<7} "
                  f"{scenario.description}")
        return 0

    if args.campaign:
        campaign = ScenarioCampaign(
            scenarios=(
                [get_scenario(args.scenario)] if args.scenario else None
            ),
        )
        result = campaign.run()
        for name in result.summary()["scenarios"]:
            clean = result.clean_runs[name]
            print(f"  {name:<18} clean: max |error| "
                  f"{clean['max_abs_error_deg']:6.3f} deg, "
                  f"{clean['degraded_steps']}/{clean['steps']} "
                  "steps degraded")
        ok = _report_cells(result)
        if args.json:
            _write_json(args.json, result.to_dict())
        for name in result.clean_failures:
            print(f"CLEAN-FAILURE: {name} broke its no-fault contract",
                  file=sys.stderr)
        return _verdict(ok and not result.clean_failures)

    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            scenario = Scenario.from_dict(_json.load(handle))
    else:
        scenario = get_scenario(args.scenario or "env-screen")
    runner = ScenarioRunner(
        scenario, strict=args.strict, record_path=args.record
    )
    result = runner.run()  # strict guard trips raise -> exit 19
    for s in result.steps:
        flags = ",".join(s.flags) if s.flags else "-"
        print(f"  step {s.step:3d}  cmd {s.commanded_heading_deg:7.2f}  "
              f"served {s.served_heading_deg:7.2f}  "
              f"err {s.error_deg:+7.3f}  "
              f"{s.true_temperature_c:6.1f} C  {flags}")
    print(f"{scenario.name}: {len(result.steps)} steps, "
          f"max |error| {result.max_abs_error_deg:.3f} deg "
          f"(unflagged steps {result.max_clean_error_deg:.3f}), "
          f"{result.degraded_steps} degraded, "
          f"{result.silent_wrong_steps} silent-wrong")
    if result.drift_m is not None:
        print(f"dead-reckoned closure error {result.drift_m:.1f} m "
              f"over {result.distance_m:.0f} m travelled")
    if args.record:
        print(f"recorded replay log -> {args.record}")
    if args.json:
        _write_json(args.json, result.to_dict())
    return _verdict(result.honest)


def _geometry_for(args: argparse.Namespace):
    from .array import ArrayGeometry

    if args.geometry:
        import json as _json

        with open(args.geometry, encoding="utf-8") as handle:
            return ArrayGeometry.from_dict(_json.load(handle))
    if args.elements == 1:
        return ArrayGeometry.single()
    if args.elements == 4:
        return ArrayGeometry.square()
    return ArrayGeometry.linear(args.elements)


def _cmd_array(args: argparse.Namespace) -> int:
    from .array import ArrayCompass, ArrayConfig, NearFieldSource

    geometry = _geometry_for(args)
    array = ArrayCompass(ArrayConfig(geometry=geometry, strict=args.strict))
    source = None
    if args.ambush:
        bearing = args.ambush_bearing
        import math as _math

        source = NearFieldSource(
            delta_north_ut=args.ambush * _math.cos(_math.radians(bearing)),
            delta_east_ut=args.ambush * _math.sin(_math.radians(bearing)),
            distance_m=args.ambush_distance,
            bearing_deg=bearing,
        )
    # A strict gradiometer trip raises ArrayFusionError -> exit 20.
    fused = array.measure_world(args.heading, args.field, source=source)

    # With ``--json -`` stdout carries the JSON report alone.
    out = sys.stderr if args.json == "-" else sys.stdout
    print(f"geometry     : {array.n_elements} elements, "
          f"aperture {geometry.aperture_m:.3f} m", file=out)
    if source is not None:
        print(f"ambush       : {source.magnitude_ut:.2f} uT at "
              f"{source.distance_m:.2f} m, bearing {source.bearing_deg:.0f}",
              file=out)
    for report in fused.elements:
        heading = (f"{report.heading_deg:8.3f}"
                   if report.heading_deg is not None else "       -")
        residual = (f"{report.residual_fraction:.5f}"
                    if report.residual_fraction is not None else "-")
        detail = f"  {report.detail}" if report.detail else ""
        print(f"  element {report.index}  {report.status:<8} "
              f"heading {heading}  weight {report.weight:.3f}  "
              f"residual {residual}{detail}", file=out)
    flags = ",".join(fused.flags) if fused.flags else "-"
    print(f"fused        : {fused.heading_deg:.3f} deg "
          f"({fused.n_used}/{array.n_elements} elements)", file=out)
    print(f"error        : {fused.error_against(args.heading):.3f} deg",
          file=out)
    print(f"field        : {fused.field_a_per_m:.3f} A/m", file=out)
    print(f"residual max : {fused.residual_max_fraction:.5f} "
          f"(threshold {array.config.gradient_threshold})", file=out)
    print(f"flags        : {flags}", file=out)
    if args.json:
        payload = {
            "true_heading_deg": args.heading,
            "field_ut": args.field,
            "geometry": geometry.to_dict(),
            "ambush_ut": source.magnitude_ut if source is not None else 0.0,
            "fused": {
                "heading_deg": fused.heading_deg,
                "field_a_per_m": fused.field_a_per_m,
                "error_deg": fused.error_against(args.heading),
                "flags": list(fused.flags),
                "n_used": fused.n_used,
                "residual_max_fraction": fused.residual_max_fraction,
            },
            "elements": [
                {
                    "index": r.index,
                    "status": r.status,
                    "heading_deg": r.heading_deg,
                    "field_a_per_m": r.field_a_per_m,
                    "residual_fraction": r.residual_fraction,
                    "weight": r.weight,
                    "detail": r.detail,
                }
                for r in fused.elements
            ],
        }
        if args.json == "-":
            sys.stdout.write(report_json(payload))
        else:
            _write_json(args.json, payload)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .core.compass import CompassConfig
    from .core.heading import headings_evenly_spaced
    from .observe import Observability
    from .replay import read_log

    config = CompassConfig(
        observe=Observability.on(
            tracing=False, metrics=False, replay_path=args.out
        )
    )
    compass = IntegratedCompass(config)
    headings = headings_evenly_spaced(args.points, args.start)
    if args.batch:
        from .batch import BatchCompass

        BatchCompass(compass).sweep_headings(headings, args.field * 1e-6)
    else:
        for truth in headings:
            compass.measure_heading(truth, args.field * 1e-6)
    compass.observer.close()
    reader = read_log(args.out)  # round-trip sanity: reject what we wrote
    print(
        f"recorded {len(reader)} measurements "
        f"({'batch' if args.batch else 'scalar'} path, "
        f"{args.field:.1f} uT) -> {args.out}"
    )
    print(f"fingerprint {reader.header.fingerprint}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .replay import ReplayPlayer, read_log, verify_full

    reader = read_log(args.log)
    print(
        f"{args.log}: {len(reader)} records, "
        f"fingerprint {reader.header.fingerprint}"
    )
    if args.full:
        verified = verify_full(reader, tolerance_deg=args.tolerance)
        print(f"full-chain replay: {verified} records bit-exact")
    else:
        verified = ReplayPlayer(reader.header).verify(
            reader, tolerance_deg=args.tolerance
        )
        print(f"back-end replay: {verified} records bit-exact")
    return _verdict(True)


def _cmd_diff(args: argparse.Namespace) -> int:
    from .replay import read_log, require_conformance, run_conformance

    reader = read_log(args.log)
    results = run_conformance(
        reader, paths=args.paths, tolerance_deg=args.tolerance
    )
    for result in results:
        verdict = "clean" if result.clean else (
            f"{len(result.divergences)} divergences "
            f"({len(result.silent_wrong)} silent-wrong)"
        )
        print(
            f"  {result.path_a:<12} vs {result.path_b:<12} "
            f"{result.n_records:4d} records  {verdict}"
        )
        for divergence in result.divergences:
            print(f"    {divergence.describe()}", file=sys.stderr)
    if args.json:
        _write_json(args.json, {
            "log": args.log,
            "n_records": len(reader),
            "paths": list(args.paths),
            "tolerance_deg": args.tolerance,
            "results": [result.to_dict() for result in results],
        })
    if args.strict and any(not result.clean for result in results):
        raise DivergenceError(
            "strict conformance: divergences found (see report above)"
        )
    compared = require_conformance(results)  # raises on silent-wrong (exit 15)
    print(f"RESULT: PASS ({compared} record comparisons)")
    return 0


def _cmd_datasheet(args: argparse.Namespace) -> int:
    from .core.datasheet import generate_datasheet

    sheet = generate_datasheet(quick=args.quick)
    print(sheet.render())
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from .soc.floorplan import plan_compass

    print(plan_compass().render())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    compass = IntegratedCompass()
    hours, _, minutes = args.set.partition(":")
    compass.set_time(int(hours), int(minutes))
    compass.back_end.watch.advance_seconds(args.advance)
    compass.select_display(DisplayMode.TIME)
    frame = compass.read_display()
    print(f"LCD: {frame.text[:2]}{':' if frame.colon else ' '}{frame.text[2:]}")
    print(f"internal time: {compass.back_end.watch.time}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE'97 integrated fluxgate compass — simulation CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one compass measurement")
    p.add_argument("--heading", type=float, default=123.0,
                   help="true heading in degrees (default 123)")
    p.add_argument("--field", type=float, default=50.0,
                   help="horizontal field in microtesla (default 50)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("sweep", help="full-circle accuracy sweep")
    p.add_argument("--points", type=int, default=24)
    p.add_argument("--field", type=float, default=50.0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("power", help="power budget report")
    p.add_argument("--rate", type=float, default=1.0,
                   help="heading updates per second (default 1)")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("area", help="Sea-of-Gates floorplan report")
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("scan", help="boundary-scan test of the MCM")
    p.add_argument("--fault", default=None, metavar="KIND:NET",
                   help="inject a fault, e.g. open:x_pick_p")
    p.add_argument("--complement", action="store_true",
                   help="use the complement-pass counting sequence")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("faults", help="run the fault-injection campaign")
    p.add_argument("--headings", type=float, nargs="+",
                   default=list(DEFAULT_CAMPAIGN_HEADINGS),
                   help="true headings to sweep per fault cell")
    p.add_argument("--paths", nargs="+", default=["scalar", "batch"],
                   choices=["scalar", "batch"],
                   help="measurement paths to exercise")
    p.add_argument("--fault", action="append", metavar="NAME",
                   help="restrict to one registered fault (repeatable)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full campaign record as JSON")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("trace", help="print the span tree of one measurement")
    p.add_argument("--heading", type=float, default=123.0,
                   help="true heading in degrees (default 123)")
    p.add_argument("--field", type=float, default=50.0,
                   help="horizontal field in microtesla (default 50)")
    p.add_argument("--batch", action="store_true",
                   help="trace the vectorized batch path instead of scalar")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="also stream finished spans to a JSONL file")
    p.add_argument("--vcd", default=None, metavar="PATH",
                   help="also render span activity as a VCD waveform")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("metrics",
                       help="exercise both paths and dump the metrics")
    p.add_argument("--points", type=int, default=4,
                   help="headings per path (default 4)")
    p.add_argument("--field", type=float, default=50.0,
                   help="horizontal field in microtesla (default 50)")
    p.add_argument("--campaign", action="append", metavar="FAULT",
                   help="also run a one-heading fault campaign for this "
                        "registered fault (repeatable)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "serve-sim",
        help="drive the replicated heading service, watching verdicts",
    )
    p.add_argument("--requests", type=int, default=8,
                   help="heading requests to serve (default 8)")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--quorum", type=int, default=2)
    p.add_argument("--heading", type=float, default=0.0,
                   help="first true heading; the rest spread over the "
                        "circle (default 0)")
    p.add_argument("--field", type=float, default=50.0,
                   help="horizontal field in microtesla (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", default=None, metavar="NAME",
                   help="arm this registered fault for the whole run")
    p.add_argument("--severity", type=float, default=3.0,
                   help="severity for --fault (default 3.0)")
    p.add_argument("--on-replica", type=int, default=0,
                   help="replica index the fault is armed on (default 0)")
    p.set_defaults(func=_cmd_serve_sim)

    p = sub.add_parser(
        "soak",
        help="seeded chaos soak against the replicated service",
    )
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--quorum", type=int, default=2)
    p.add_argument("--floor", type=float, default=0.99,
                   help="availability floor asserted (default 0.99)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the soak report as JSON")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "fleet-sim",
        help="drive the sharded heading fleet with open-loop load",
    )
    p.add_argument("--rps", type=float, default=300.0,
                   help="offered load in requests/s (default 300)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="simulated drive duration in seconds (default 2)")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hot", type=float, default=0.5,
                   help="fraction of requests revisiting hot scenes "
                        "(default 0.5)")
    p.set_defaults(func=_cmd_fleet_sim)

    p = sub.add_parser(
        "fleet-soak",
        help="deterministic fleet storm: chaos + RPS ramp past saturation",
    )
    p.add_argument("--rated", type=float, default=300.0,
                   help="rated load in requests/s (default 300)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--phase", action="append", metavar="MULT:SECONDS",
                   help="override the load schedule, e.g. --phase 1:4 "
                        "--phase 4:2 (repeatable; multiples of --rated)")
    p.add_argument("--no-chaos", action="store_true",
                   help="disable the fault/latency storm")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the soak report as JSON")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write the fleet metrics snapshot as JSON")
    p.set_defaults(func=_cmd_fleet_soak)

    p = sub.add_parser(
        "factory",
        help="run a seeded production lot through the staged test program",
    )
    p.add_argument("--units", type=int, default=1024,
                   help="lot size (default 1024)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--defect-rate", type=float, default=0.06,
                   help="fraction of defective units minted (default 0.06)")
    p.add_argument("--multi", type=float, default=0.10,
                   help="multi-fault tail probability (default 0.10)")
    p.add_argument("--severity-law", default="uniform",
                   choices=["uniform", "worst", "mild"],
                   help="severity draw over each fault's grid")
    p.add_argument("--stages", default="btest,bist,calibration,env",
                   help="comma-separated test program "
                        "(default btest,bist,calibration,env)")
    p.add_argument("--coupon", action="append", metavar="FAULT[:SEV]",
                   help="append a seeded-defect coupon unit with this "
                        "registered fault (repeatable; severity defaults "
                        "to the fault's detector severity)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the lot report as JSON")
    p.add_argument("--no-units", action="store_true",
                   help="omit per-unit records from --json output")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write the factory metrics snapshot as JSON")
    p.set_defaults(func=_cmd_factory)

    p = sub.add_parser(
        "scenario",
        help="fly an environment/mission scenario through the guarded "
             "compensation chain",
    )
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="corpus scenario name (default env-screen; "
                        "see --list)")
    p.add_argument("--file", default=None, metavar="PATH",
                   help="load the scenario from a JSON declaration "
                        "instead of the corpus")
    p.add_argument("--list", action="store_true",
                   help="list the scenario corpus and exit")
    p.add_argument("--campaign", action="store_true",
                   help="run the per-scenario fault campaign (every "
                        "environment fault x severity x scenario); exits "
                        "1 on any silent-wrong or nonconforming cell")
    p.add_argument("--strict", action="store_true",
                   help="tripped compensation guards raise typed errors "
                        "(exit 19) instead of degrading loudly")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="capture every raw measurement of the run into a "
                        "self-checking .rplog")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the mission (or campaign) result as JSON")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "array",
        help="one fused measurement through the gradiometer array",
    )
    p.add_argument("--heading", type=float, default=123.0,
                   help="true body heading in degrees (default 123)")
    p.add_argument("--field", type=float, default=50.0,
                   help="Earth field magnitude in microtesla (default 50)")
    p.add_argument("--elements", type=int, default=4,
                   help="element count: 1 = the degenerate single-compass "
                        "array, 4 = the reference square, otherwise a "
                        "linear baseline (default 4)")
    p.add_argument("--geometry", default=None, metavar="PATH",
                   help="load an ArrayGeometry JSON declaration instead "
                        "of --elements")
    p.add_argument("--ambush", type=float, default=0.0, metavar="UT",
                   help="park a near-field source of this magnitude [uT "
                        "at the array origin] (default none)")
    p.add_argument("--ambush-distance", type=float, default=1.0,
                   help="source distance in metres (default 1.0)")
    p.add_argument("--ambush-bearing", type=float, default=30.0,
                   help="source bearing in body-frame degrees (default 30)")
    p.add_argument("--strict", action="store_true",
                   help="a gradiometer trip raises ArrayFusionError "
                        "(exit 20) instead of flagging")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the fused report as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_array)

    p = sub.add_parser(
        "record",
        help="record a heading sweep into a self-checking replay log",
    )
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output .rplog path")
    p.add_argument("--points", type=int, default=8,
                   help="evenly spaced headings to record (default 8)")
    p.add_argument("--start", type=float, default=0.5,
                   help="first heading in degrees (default 0.5)")
    p.add_argument("--field", type=float, default=50.0,
                   help="horizontal field in microtesla (default 50)")
    p.add_argument("--batch", action="store_true",
                   help="record through the vectorized batch path")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser(
        "replay",
        help="re-execute a recorded log bit-exactly",
    )
    p.add_argument("log", metavar="LOG", help="the .rplog to replay")
    p.add_argument("--full", action="store_true",
                   help="replay the full chain from recorded inputs "
                        "(default: digital back-end from recorded pulses)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="heading tolerance in degrees (default 0: bit-exact)")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "diff",
        help="replay one log through several paths and diff every stage",
    )
    p.add_argument("log", metavar="LOG", help="the .rplog to diff")
    p.add_argument("--paths", nargs="+", default=["recorded", "scalar"],
                   choices=["recorded", "backend", "scalar", "batch",
                            "instrumented", "service"],
                   help="execution paths to diff pairwise "
                        "(default: recorded scalar)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="heading tolerance in degrees (default 0: bit-exact)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the divergence report as JSON")
    p.add_argument("--strict", action="store_true",
                   help="fail on any divergence, not just silent-wrong")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("datasheet", help="generate the measured datasheet")
    p.add_argument("--quick", action="store_true", help="smaller sweeps")
    p.set_defaults(func=_cmd_datasheet)

    p = sub.add_parser("floorplan", help="ASCII die floorplan (Figure 2)")
    p.set_defaults(func=_cmd_floorplan)

    p = sub.add_parser("watch", help="watch/LCD demo")
    p.add_argument("--set", default="12:00", metavar="HH:MM")
    p.add_argument("--advance", type=int, default=0, metavar="SECONDS")
    p.set_defaults(func=_cmd_watch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error ({type(error).__name__}): {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
