import ast
import importlib
import importlib.util
import re
from pathlib import Path

import isoplab
import isoplab.cli      # the tracer binds the CLI's commands by module name
from isoplab import defaults

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
README = TRACING.parents[1] / "README.md"


def _tracing():
    """The benchmark's tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    # the benchmark tracer binds isoplab functions by name: a rename in the
    # package must fail here rather than in a benchmark run
    tracing = _tracing()
    missing = [f"{mod}.{name}" for mod, name, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module("isoplab." + mod),
                                       name, None))]
    assert len(tracing.TARGETS) > 0
    assert missing == []


def test_traced_cylinder_counts_its_gap_evaluations():
    # the tracer wraps the gap that ``volume_match`` is handed by keyword;
    # handed positionally, it would wrap |B|_g in the gap's place.  The
    # traced cylinder route must run and count one match and its gap
    # evaluations
    d = isoplab.density_from_config({"family": "radial_exp", "dim": 2, "a": 1.0})
    cert = isoplab.select_direction(d, isoplab.find_far_radius(
        isoplab.deficit_profile(d), d.dim, 0.05, 10.0, 200.0))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        isoplab.cylinder_extension(cert, d, 0.05)
    finally:
        tracer.uninstall()
    assert tracer.counters["competitor.volume_match_calls"] == 1
    assert tracer.counters["competitor.gap_evals"] > 0


def test_traced_radial_build_times_its_closed_form():
    # a radial build runs through ``rotation_extension``, which the tracer
    # binds, so ``competitor.rotation_s`` times it: one span, no advance-map
    # angle, and one layer integral beyond the far ball's, the two moment
    # integrals as the rows of one call
    tracing = _tracing()
    d = isoplab.density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0})
    tracers = []
    for run in (lambda: isoplab.find_far_radius(isoplab.deficit_profile(d), 3,
                                                0.05, 10.0, 200.0),
                lambda: isoplab.build_competitor(d, eps=0.05, R_min=10.0,
                                                 R_max=200.0, mc_samples=20_000)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    far, build = tracers
    spans = build.by_name()
    assert spans["competitor.rotation_extension"]["calls"] == 1
    assert spans["competitor.sweep_advance_map"]["calls"] == 0
    assert build.metrics()["competitor.rotation_s"] > 0.0
    assert build.counters["competitor.advance_angles"] == 0
    assert (build.counters["layers.layer_integral_calls"]
            == far.counters["layers.layer_integral_calls"] + 1)


def test_traced_patch_points_count_what_is_integrated(monkeypatch):
    # every patch the cylinder integrates comes from a builder the tracer
    # binds, so ``measures.patch_points`` counts the points that
    # ``patch_integrals`` sums, block by block
    d = isoplab.density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0})
    cert = isoplab.select_direction(d, isoplab.find_far_radius(
        isoplab.deficit_profile(d), d.dim, 0.05, 10.0, 200.0))
    summed, block_sums = [], isoplab.measures._block_sums

    def counted(block, *fns_and_segments):
        summed.append(len(block[1]))
        return block_sums(block, *fns_and_segments)
    monkeypatch.setattr(isoplab.measures, "_block_sums", counted)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        isoplab.cylinder_extension(cert, d, 0.05)
    finally:
        tracer.uninstall()
    assert tracer.counters["measures.patch_points"] == sum(summed) > 0


def test_traced_build_repeats_its_counters():
    # ``run.py --trace 1`` reports a run correct only when two traced passes
    # count alike: the angular_descent build, twice under fresh tracers
    tracing = _tracing()
    d = isoplab.density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                                     "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            isoplab.build_competitor(tracer.instrument(d), eps=0.05, R_min=10.0,
                                     R_max=200.0, nodes=16, circle_grid=16)
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
    first, second = runs
    assert first["density.deficit_calls"] > 0
    assert [name for name in tracing.COUNTERS if first[name] != second[name]] == []


def _isoplab_names(path: Path) -> set[str]:
    """Every dotted name a source file reads from the package: ``isoplab.a.b``
    and ``from isoplab import a`` with its uses ``a.b``, as "a.b"."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "isoplab"
                for alias in node.names}
    names = set(imported.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and (node.id == "isoplab"
                                                    or node.id in imported):
            head = [] if node.id == "isoplab" else [imported[node.id]]
            names.add(".".join(head + chain))
    return names


def test_benchmark_names_exist():
    # the benchmark workloads call the package by name: a rename must fail
    # here rather than crash a benchmark case
    names = _isoplab_names(WORKLOADS)
    missing = []
    for name in sorted(names):
        obj = isoplab
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert {"build_competitor", "cli.run", "cylinder_extension"} <= names
    assert missing == []


def _table_values(rows, pattern: str) -> dict[str, float]:
    """name -> value of the table rows matching ``pattern`` (groups name,
    value), with digit separators ``_`` and ``,`` dropped."""
    found = {}
    for row in rows:
        match = re.match(pattern, row)
        if match:
            name, value = match.groups()
            found[name] = float(value.replace("_", "").replace(",", ""))
    return found


def test_every_default_is_in_both_tables():
    # a constant of isoplab.defaults, with its value, in the docstring table
    # of defaults.py and in the README's defaults table
    constants = {name: value for name, value in vars(defaults).items()
                 if name.isupper() and name != "SCHEMA_VERSION"}
    docstring = _table_values(defaults.__doc__.splitlines(),
                              r"([A-Z][A-Z_]+)\s+([-+0-9.e_,]+)\s")
    readme = _table_values(README.read_text().splitlines(),
                           r"\|\s*([A-Z][A-Z_]+)\s*\|\s*([-+0-9.e_,]+)\s*\|")
    assert len(constants) > 10
    for table in (docstring, readme):
        assert {name: table.get(name) for name in constants} == constants
