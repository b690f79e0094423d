"""Exchange formats, golden files, and the command-line interface."""

import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from basepack.cli import EXIT_INTERNAL, main
from basepack.formats import (
    INSTANCES,
    FormatError,
    dump_instance,
    load_instance,
    parse_arc_list,
    parse_bipartite,
    parse_dimacs,
)
from basepack.core import Matroid
from basepack.gadget import BlockLabeling
from basepack.constructions import PartitionOfGroundSet, transversal_matroid
from basepack.graphs import BipartiteGraph
from basepack.instances import CommonBasesInstance, ModularInstance, ParityInstance
from basepack.reductions import (
    even_factor_to_mod4_factor,
    mod4_factor_to_parity_bases,
    modular_to_common_bases,
    naesat_to_modular_trees,
    to_partition_matroid_form,
)
from basepack.solvers import (
    REGISTRY,
    Problem,
    load_certificate,
    solve_modular_bases,
    solve_naesat,
    verify_certificate,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def _json_text(instance) -> str:
    return json.dumps(dump_instance(instance))


MODULAR_JSON = (GOLDEN / "modular_u42.json").read_text()
GOLDEN_LABELING = json.loads((GOLDEN / "gadget_labeling.json").read_text())
TREES_JSON = _json_text(naesat_to_modular_trees(parse_dimacs("p cnf 2 1\n1 2 0\n")).instance)
DIGRAPH_JSON = _json_text(parse_arc_list((GOLDEN / "two_cycle.digraph").read_text()))
BIPARTITE_JSON = _json_text(parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text()))

UNIFORM_PAIR_JSON = json.dumps({
    "schema": "common-bases-instance/1",
    "m1": {"kind": "uniform", "size": 4, "r": 2},
    "m2": {"kind": "uniform", "size": 4, "r": 2},
    "k": 2,
})


# Each problem and rule fed a well-formed instance of another schema.
WRONG_SCHEMA = {
    "solve common-bases": (["solve", "--problem", "common-bases"], TREES_JSON),
    "solve modular-bases": (["solve", "--problem", "modular-bases"], DIGRAPH_JSON),
    "solve parity-bases": (["solve", "--problem", "parity-bases"], MODULAR_JSON),
    "solve modular-trees": (["solve", "--problem", "modular-trees"], DIGRAPH_JSON),
    "solve naesat": (["solve", "--problem", "naesat"], MODULAR_JSON),
    "solve even-factor": (["solve", "--problem", "even-factor"], BIPARTITE_JSON),
    "solve mod4-2factor": (["solve", "--problem", "mod4-2factor"], DIGRAPH_JSON),
    "reduce r1": (["reduce", "--rule", "r1"], DIGRAPH_JSON),
    "reduce r2": (["reduce", "--rule", "r2"], TREES_JSON),
    "reduce r3": (["reduce", "--rule", "r3"], MODULAR_JSON),
    "reduce r4": (["reduce", "--rule", "r4"], MODULAR_JSON),
    "reduce r5": (["reduce", "--rule", "r5"], TREES_JSON),
}


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDimacs:
    def test_golden_three_clause(self):
        formula = parse_dimacs((GOLDEN / "three_clause.cnf").read_text())
        assert formula.num_vars == 4
        assert len(formula.clauses) == 3
        assert formula.dropped_tautologies == 0

    def test_tautological_clause_dropped_with_warning(self):
        formula = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
        assert len(formula.clauses) == 1
        assert formula.dropped_tautologies == 1

    def test_dropped_clause_warning_reaches_stderr(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["solve", "--problem", "naesat", "-"], stdin_text="p cnf 2 2\n1 -1 0\n1 2 0\n",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0 and json.loads(out)["schema"] == "certificate/naesat/1"
        assert err == (
            "warning: dropped 1 clause(s) containing a variable and its negation\n"
        )

    def test_unit_clause_rejected(self):
        with pytest.raises(FormatError, match="unit"):
            parse_dimacs("p cnf 2 1\n1 0\n")

    def test_empty_clause_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            parse_dimacs("p cnf 2 1\n0\n")

    def test_out_of_range_variable(self):
        with pytest.raises(FormatError, match="range"):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormatError, match="promises"):
            parse_dimacs("p cnf 2 5\n1 2 0\n")

    def test_empty_formula_is_parsable(self):
        formula = parse_dimacs("p cnf 3 0\n")
        assert formula.num_vars == 3 and formula.clauses == ()

    def test_negative_variable_count_rejected(self):
        with pytest.raises(FormatError, match="variable count must be non-negative"):
            parse_dimacs("p cnf -1 0\n")

    @pytest.mark.parametrize("line", ["p cnf x 0", "p cnf 2 1.5"])
    def test_malformed_problem_line(self, line):
        with pytest.raises(FormatError, match=f"line 1: malformed problem line '{line}'"):
            parse_dimacs(line + "\n1 2 0\n")

    @pytest.mark.parametrize("argv", [["solve", "--problem", "naesat"], ["reduce", "--rule", "r2"]],
                             ids=["solve", "reduce-r2"])
    def test_negative_variable_count_is_exit_two(self, argv, monkeypatch, capsys):
        code, out, err = run_cli([*argv, "-"], stdin_text="p cnf -1 0\n",
                                 monkeypatch=monkeypatch, capsys=capsys)
        assert code == 2 and out == ""
        assert err == "error: variable count must be non-negative\n"


class TestGraphFormats:
    def test_golden_digraph(self):
        d = parse_arc_list((GOLDEN / "two_cycle.digraph").read_text())
        assert d.vertex_count == 2 and sorted(d.arcs) == [(0, 1), (1, 0)]

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError, match="self-loop"):
            parse_arc_list("2\n0 0\n")

    def test_golden_bipartite(self):
        g = parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text())
        assert g.left.size == 4 and len(g.edges) == 8

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            parse_bipartite("2 2\n0\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_arc_list, "2\n0 1 5\n", "line 2: expected 'u v', got '0 1 5'"),
        (parse_arc_list, "# two vertices\n2 2\n0 1\n", "line 2: expected 'n', got '2 2'"),
        (parse_arc_list, "2\n\n0 x\n", "line 3: expected 'u v', got '0 x'"),
        (parse_bipartite, "2 2\n0 1 5\n", "line 2: expected 's t', got '0 1 5'"),
        (parse_bipartite, "2\n0 1\n", "line 1: expected 'nS nT', got '2'"),
        (parse_bipartite, "2 2\n# edges\n0 1.5\n", "line 3: expected 's t', got '0 1.5'"),
    ], ids=["arc-three-values", "arc-two-value-header", "arc-non-integer",
            "bipartite-three-values", "bipartite-one-value-header", "bipartite-non-integer"])
    def test_malformed_row_names_its_line(self, parse, text, message):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == message


def _golden_chain():
    """The r2, r1 and r5 outputs on the golden formula, in chain order."""
    trees = naesat_to_modular_trees(parse_dimacs((GOLDEN / "three_clause.cnf").read_text()))
    common = modular_to_common_bases(trees.instance.to_modular_instance()).instance
    return trees.instance, common, to_partition_matroid_form(common).instance


GOLDEN_DIGRAPH = (GOLDEN / "two_cycle.digraph").read_text()
GOLDEN_BIPARTITE = (GOLDEN / "eight_cycle.bipartite").read_text()

# Every instance class, from the golden files and from each reduction's output.
ROUND_TRIPS = {
    "golden-modular": lambda: load_instance(json.loads(MODULAR_JSON)),
    "golden-digraph": lambda: parse_arc_list(GOLDEN_DIGRAPH),
    "golden-bipartite": lambda: parse_bipartite(GOLDEN_BIPARTITE),
    "r1": lambda: _golden_chain()[1],
    "r2": lambda: _golden_chain()[0],
    "r3": lambda: even_factor_to_mod4_factor(parse_arc_list(GOLDEN_DIGRAPH)).graph,
    "r4": lambda: mod4_factor_to_parity_bases(parse_bipartite(GOLDEN_BIPARTITE)).instance,
    "r5": lambda: _golden_chain()[2],
}


def _field_values(instance) -> list:
    """The instance's field values, each matroid (equal only to itself) as
    its ground set and descriptor."""
    values = [getattr(instance, name) for name in instance._fields]
    return [(v.ground, v.descriptor) if isinstance(v, Matroid) else v for v in values]


class TestInstanceJson:
    def test_golden_modular_instance(self):
        data = json.loads((GOLDEN / "modular_u42.json").read_text())
        inst = load_instance(data)
        assert isinstance(inst, ModularInstance)
        assert solve_modular_bases(inst) is not None

    def test_round_trip_every_reduction_output(self):
        formula = parse_dimacs((GOLDEN / "three_clause.cnf").read_text())
        trees = naesat_to_modular_trees(formula).instance
        modular = trees.to_modular_instance()
        common = modular_to_common_bases(modular).instance
        partition_form = to_partition_matroid_form(common).instance
        digraph = parse_arc_list((GOLDEN / "two_cycle.digraph").read_text())
        bip = even_factor_to_mod4_factor(digraph).graph
        parity = mod4_factor_to_parity_bases(
            parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text())
        ).instance
        for instance in (trees, modular, common, partition_form, bip, parity):
            dumped = dump_instance(instance)
            reloaded = load_instance(json.loads(json.dumps(dumped)))
            assert dump_instance(reloaded) == dumped

    def test_reparsed_matroids_answer_identically(self):
        data = json.loads((GOLDEN / "modular_u42.json").read_text())
        inst = load_instance(data)
        common = modular_to_common_bases(inst).instance
        reloaded = load_instance(json.loads(json.dumps(dump_instance(common))))
        assert isinstance(reloaded, CommonBasesInstance)
        # Oracle-level agreement on a sample of subsets.
        import random

        rng = random.Random(5)
        for _ in range(2000):
            mask = rng.randrange(1 << common.ground.size)
            assert common.m1.indep_mask(mask) == reloaded.m1.indep_mask(mask)
            assert common.m2.indep_mask(mask) == reloaded.m2.indep_mask(mask)

    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_dump_and_load_round_trip(self, name):
        instance = ROUND_TRIPS[name]()
        text = json.dumps(dump_instance(instance))
        reloaded = load_instance(json.loads(text))
        assert type(reloaded) is type(instance)
        assert _field_values(reloaded) == _field_values(instance)
        assert json.dumps(dump_instance(reloaded)) == text

    def test_round_trips_cover_every_instance_class(self):
        assert {type(make()) for make in ROUND_TRIPS.values()} == set(INSTANCES)

    def test_every_schema_is_distinct(self):
        certificates = {row.certificate for row in REGISTRY.values()}
        schemas = [cls.SCHEMA for cls in (*INSTANCES, *certificates, BlockLabeling)]
        assert len(schemas) == 12 and len(set(schemas)) == 12

    def test_unknown_schema(self):
        with pytest.raises(FormatError, match="schema"):
            load_instance({"schema": "nonsense/9"})

    def test_missing_schema(self):
        with pytest.raises(FormatError):
            load_instance({"matroid": {"kind": "free", "size": 2}})


class TestParserRobustness:
    JUNK = [
        "",
        "\x00\x01\x02",
        "p cnf\n",
        "p cnf 2 1\nnot a clause\n",
        "garbage header\n1 2\n",
        "-3\n0 1\n",
        "{]",
    ]

    @pytest.mark.parametrize("text", JUNK)
    def test_dimacs_never_crashes(self, text):
        with pytest.raises(FormatError):
            parse_dimacs(text)

    @pytest.mark.parametrize("text", ["", "x\n", "2\n0 1 2\n", "2\n5 0\n", "-1\n"])
    def test_arc_list_never_crashes(self, text):
        with pytest.raises(FormatError):
            parse_arc_list(text)

    @pytest.mark.parametrize("text", ["", "1\n", "2 2\n0 0 0\n", "2 2\n9 0\n"])
    def test_bipartite_never_crashes(self, text):
        with pytest.raises(FormatError):
            parse_bipartite(text)

    def test_instance_loader_rejects_non_dict(self):
        with pytest.raises(FormatError):
            load_instance(["not", "a", "dict"])

    @pytest.mark.parametrize("data", [
        {"schema": "digraph/1", "vertices": 2.5, "arcs": [[0, 1], [1, 0]]},
        {"schema": "modular-trees-instance/1", "modules": [[0], [1]],
         "graph": {"vertices": 2.0, "edges": [[0, 1, "a"], [0, 1, "b"]]}},
    ], ids=["digraph", "modular-trees"])
    def test_instance_loader_rejects_float_counts(self, data):
        with pytest.raises(FormatError, match="non-integer"):
            load_instance(data)

    # JSON booleans are Python ints, so each of these used to be read as
    # 0 or 1: an arc (1, 0), a uniform U(1, 1), a common-bases k of 1.
    @pytest.mark.parametrize("argv, text", [
        (["solve", "--problem", "even-factor", "-"],
         {"schema": "digraph/1", "vertices": 2, "arcs": [[0, 1], [1, False]]}),
        (["axioms", "-"], {"kind": "uniform", "size": True, "r": True}),
        (["solve", "--problem", "common-bases", "-"],
         {**json.loads(UNIFORM_PAIR_JSON), "k": True}),
    ], ids=["digraph-arc", "axioms-uniform", "common-bases-k"])
    def test_booleans_are_not_integers(self, argv, text, monkeypatch, capsys):
        code, out, err = run_cli(
            argv, stdin_text=json.dumps(text), monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 2 and out == ""
        assert "non-integer value true" in err or "non-integer value false" in err

    @pytest.mark.parametrize("labels", ["abcd", ["a", "b", "c", 4], {"a": 0}],
                             ids=["string", "non-string-item", "object"])
    def test_labels_must_be_a_list_of_strings(self, labels, monkeypatch, capsys):
        text = json.dumps({"schema": "modular-instance/1",
                           "matroid": {"kind": "uniform", "size": 4, "r": 2},
                           "modules": [[0, 1], [2, 3]], "labels": labels})
        code, out, err = run_cli(
            ["solve", "--problem", "modular-bases", "-"], stdin_text=text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "labels must be a list of strings" in err

    @pytest.mark.parametrize("labels", ["abcd", ["a", "b", "c", 4], {"a": 0}],
                             ids=["string", "non-string-item", "object"])
    def test_bipartite_vertex_labels_must_be_a_list_of_strings(self, labels, monkeypatch,
                                                               capsys):
        text = json.dumps({"schema": "bipartite-graph/1", "left": 4, "right": 4,
                           "left_labels": labels, "right_labels": list("wxyz"),
                           "edges": [[s, t] for s in range(4) for t in range(4)]})
        code, out, err = run_cli(
            ["solve", "--problem", "mod4-2factor", "-"], stdin_text=text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "vertex labels must be a list of strings" in err


class TestCertificateJson:
    def test_modular_round_trip(self):
        data = json.loads((GOLDEN / "modular_u42.json").read_text())
        inst = load_instance(data)
        cert = solve_modular_bases(inst)
        reloaded = load_certificate(
            "modular-bases", json.loads(json.dumps(cert.to_json())), inst
        )
        assert verify_certificate("modular-bases", inst, reloaded).ok

    def test_lifted_certificate_checks_against_reloaded_instance(self):
        # Full decoupling: the instance travels through JSON, the
        # certificate travels through JSON, and verification still holds.
        inst = load_instance(json.loads((GOLDEN / "modular_u42.json").read_text()))
        red = modular_to_common_bases(inst)
        from basepack.reductions import lift_modular_to_common

        lifted = lift_modular_to_common(red, solve_modular_bases(inst))
        fresh_instance = load_instance(json.loads(json.dumps(dump_instance(red.instance))))
        fresh_cert = load_certificate(
            "common-bases", json.loads(json.dumps(lifted.to_json())), fresh_instance
        )
        assert verify_certificate("common-bases", fresh_instance, fresh_cert).ok


def _assignment(values) -> dict:
    return {"schema": "certificate/naesat/1", "assignment": values}


def _modular_cert(first_modules) -> dict:
    return {"schema": "certificate/modular-bases/1", "first_modules": first_modules,
            "classes": [{"indices": [0, 1]}, {"indices": [2, 3]}]}


def _partition_cert(first_class) -> dict:
    return {"schema": "certificate/common-bases/1",
            "classes": [{"indices": first_class}, {"indices": [2, 3]}]}


BAD_CERTIFICATES = {
    "assignment-gap": ("naesat", GOLDEN / "three_clause.cnf",
                       _assignment({"x1": True, "x5": False})),
    "assignment-x0": ("naesat", GOLDEN / "three_clause.cnf",
                      _assignment({"x0": True, "x1": False, "x2": True, "x3": False})),
    "assignment-string-value": ("naesat", GOLDEN / "three_clause.cnf",
                                _assignment({"x1": "no", "x2": True, "x3": False, "x4": True})),
    "assignment-list": ("naesat", GOLDEN / "three_clause.cnf",
                        _assignment([True, False, True, False])),
    "module-index-string": ("modular-bases", GOLDEN / "modular_u42.json", _modular_cert(["0"])),
    "module-index-float": ("modular-bases", GOLDEN / "modular_u42.json", _modular_cert([0.0])),
    "class-index-string": ("common-bases", None, _partition_cert([0, "1"])),
    "class-index-float": ("common-bases", None, _partition_cert([0, 1.0])),
    "schema-retagged": ("modular-bases", GOLDEN / "modular_u42.json",
                        {**_modular_cert([0]), "schema": "certificate/naesat/1"}),
    "schema-of-another-problem": ("common-bases", None, _modular_cert([0])),
    "schema-missing": ("common-bases", None,
                       {"classes": _partition_cert([0, 1])["classes"]}),
    "not-an-object": ("common-bases", None, [_partition_cert([0, 1])]),
}


MISSING_KEYS = {
    "instance": (["build", "-"],
                 json.dumps({"schema": "modular-instance/1",
                             "matroid": {"kind": "uniform", "size": 4, "r": 2}}),
                 "bad modular-instance/1 payload: missing key 'modules'"),
    "certificate": (["verify", "--problem", "naesat", "--instance",
                     str(GOLDEN / "three_clause.cnf"), "--certificate", "-"],
                    json.dumps({"schema": "certificate/naesat/1"}),
                    "bad certificate payload: missing key 'assignment'"),
    "labeling": (["gadget", "verify", "--labeling", "-"],
                 json.dumps({"schema": "gadget-labeling/1"}),
                 "bad gadget labeling: missing key 'first_path'"),
}


@pytest.mark.parametrize("case", MISSING_KEYS.values(), ids=MISSING_KEYS.keys())
def test_loaders_name_the_missing_key(case, monkeypatch, capsys):
    argv, text, message = case
    code, out, err = run_cli(argv, stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


INSTANCE_SCHEMAS = ("'modular-instance/1' or 'common-bases-instance/1' or 'parity-instance/1' or "
                    "'modular-trees-instance/1' or 'bipartite-graph/1' or 'digraph/1'")

# The instance and certificate readers fed a non-object and a payload of an
# unknown schema; test_malformed_gadget_labeling_is_exit_two has the labeling's.
NOT_THE_SCHEMA = {
    "instance-non-object": (MISSING_KEYS["instance"][0], "[1]",
                            "bad instance payload: expected a JSON object"),
    "instance-unknown-schema": (MISSING_KEYS["instance"][0],
                                json.dumps({"schema": "modular-instance/2"}),
                                f"bad instance payload: schema must be {INSTANCE_SCHEMAS}"),
    "certificate-non-object": (MISSING_KEYS["certificate"][0], '"x1"',
                               "bad certificate payload: expected a JSON object"),
    "certificate-unknown-schema": (MISSING_KEYS["certificate"][0],
                                   json.dumps({"schema": "certificate/modular-bases/1"}),
                                   "bad certificate payload: schema must be "
                                   "'certificate/naesat/1'"),
}


@pytest.mark.parametrize("case", NOT_THE_SCHEMA.values(), ids=NOT_THE_SCHEMA.keys())
def test_readers_name_the_schema_they_expect(case, monkeypatch, capsys):
    argv, text, message = case
    code, out, err = run_cli(argv, stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


ZERO_DENOMINATOR = {"kind": "linear",
                    "matrix": {"field": "q", "rows": 1, "cols": 1, "entries": [["1/0"]]}}


@pytest.mark.parametrize("argv, data, what", [
    (["axioms", "-"], ZERO_DENOMINATOR, "matroid descriptor"),
    (["build", "-"], {"schema": "modular-instance/1", "matroid": ZERO_DENOMINATOR,
                      "modules": [[0]]}, "modular-instance/1 payload"),
], ids=["axioms", "build"])
def test_zero_denominator_is_exit_two(argv, data, what, monkeypatch, capsys):
    code, out, err = run_cli(argv, stdin_text=json.dumps(data), monkeypatch=monkeypatch,
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad {what}: rational entry with a zero denominator\n"


def test_huge_rational_exponent_is_exit_two_at_once():
    # Fraction("1e999999999") would build a billion-digit number; the
    # timeout makes a regression fail instead of hang.
    descriptor = {"kind": "linear", "matrix": {"field": "q", "rows": 1, "cols": 2,
                                               "entries": [["1e999999999", "1"]]}}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "basepack.cli", "axioms", "-"], input=json.dumps(descriptor),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=20,
    )
    assert time.perf_counter() - started < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: bad matroid descriptor: "
                           "rational entry exponent exceeds 4300 in magnitude\n")


def test_thirty_digit_modulus_is_exit_two_at_once(monkeypatch, capsys):
    p = 10**30 + 57  # a prime; trial division would take about 10^15 steps
    descriptor = {"kind": "linear",
                  "matrix": {"field": f"gf:{p}", "rows": 1, "cols": 1, "entries": [[1]]}}
    started = time.perf_counter()
    code, out, err = run_cli(["axioms", "-"], stdin_text=json.dumps(descriptor),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err == f"error: bad matroid descriptor: GF({p}): modulus must be below 2^64\n"


# A list where a string or an object belongs used to raise AttributeError
# and exit 4, as an internal error.
@pytest.mark.parametrize("descriptor, message", [
    ({"kind": "linear", "matrix": {"field": ["gf:2"], "rows": 1, "cols": 1, "entries": [[1]]}},
     "field descriptor must be a string, not ['gf:2']"),
    ({"kind": "transversal", "graph": [2, 1, [[0, 0]]]},
     "bipartite graph must be a JSON object"),
], ids=["field", "bipartite-graph"])
def test_mistyped_descriptor_part_is_exit_two(descriptor, message, monkeypatch, capsys):
    code, out, err = run_cli(["axioms", "-"], stdin_text=json.dumps(descriptor),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad matroid descriptor: {message}\n"


def _linear(field, rows, cols, entries) -> dict:
    return {"kind": "linear",
            "matrix": {"field": field, "rows": rows, "cols": cols, "entries": entries}}


# Each of these used to load and exit 0: int() took a string entry and a
# modulus with a sign, a space, an underscore or a leading zero, and a
# string row, or an object's key, was read one digit per entry.
@pytest.mark.parametrize("descriptor, message", [
    (_linear("gf:3", 1, 1, [["3"]]), "GF(3) matrix entries must be integers, not ['3']"),
    (_linear("gf:3", 1, 1, [["1_0"]]), "GF(3) matrix entries must be integers, not ['1_0']"),
    (_linear("gf:3", 1, 2, ["21"]), "matrix row must be a list, not '21'"),
    (_linear("gf:3", 1, 2, {"11": 0}), "matrix row must be a list, not '11'"),
    (_linear("q", 2, 2, ["12", "34"]), "matrix row must be a list, not '12'"),
    *[(_linear(field, 1, 1, [[1]]), f"unknown field descriptor {field!r}")
      for field in ("gf:07", "gf: 7", "gf:+7", "gf:1_009", "gf:7 ")],
], ids=["string-entry", "underscore-entry", "string-row", "object-rows", "rational-string-rows",
        "leading-zero", "space", "sign", "underscore", "trailing-space"])
def test_malformed_matrix_is_exit_two(descriptor, message, monkeypatch, capsys):
    code, out, err = run_cli(["axioms", "-"], stdin_text=json.dumps(descriptor),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad matroid descriptor: {message}\n"


# Each of these used to exit 0, the endpoints read from strings digit by digit.
@pytest.mark.parametrize("argv, data, message", [
    (["axioms", "-"],
     {"kind": "graphic", "graph": {"vertices": 3, "edges": ["01", "12", ["2", "0", "z"]]}},
     "bad matroid descriptor: edges"),
    (["solve", "--problem", "even-factor", "-"],
     {"schema": "digraph/1", "vertices": 2, "arcs": ["01", "10"]},
     "bad digraph/1 payload: arcs"),
    (["build", "-"],
     {"schema": "bipartite-graph/1", "left": 1, "right": 1, "edges": ["00"]},
     "bad bipartite-graph/1 payload: edges"),
], ids=["graphic", "digraph", "bipartite"])
def test_graph_endpoints_must_be_integer_arrays(argv, data, message, monkeypatch, capsys):
    code, out, err = run_cli(argv, stdin_text=json.dumps(data),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message} must be a list of arrays with two integer endpoints\n"


class TestCertificatePayloads:
    @pytest.mark.parametrize("case", BAD_CERTIFICATES.values(), ids=BAD_CERTIFICATES.keys())
    def test_bad_payload_is_exit_two(self, case, monkeypatch, capsys, tmp_path):
        problem, instance_path, payload = case
        if instance_path is None:
            instance_path = tmp_path / "instance.json"
            instance_path.write_text(UNIFORM_PAIR_JSON)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            ["verify", "--problem", problem, "--instance", str(instance_path),
             "--certificate", str(cert_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "bad certificate payload" in err

    def test_well_formed_payloads_still_load(self, monkeypatch, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(_modular_cert([0])))
        code, out, _ = run_cli(
            ["verify", "--problem", "modular-bases", "--instance",
             str(GOLDEN / "modular_u42.json"), "--certificate", str(cert_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0 and json.loads(out)["answer"] == "VALID"


class TestCliExitCodes:
    def test_solve_yes(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["solve", "--problem", "naesat", str(GOLDEN / "three_clause.cnf")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["schema"] == "certificate/naesat/1"

    def test_solve_no(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["solve", "--problem", "even-factor", "-"],
            stdin_text="3\n0 1\n1 2\n2 0\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1
        assert json.loads(out)["answer"] == "NO"

    def test_format_error_is_exit_two(self, monkeypatch, capsys):
        code, _, err = run_cli(
            ["solve", "--problem", "naesat", "-"],
            stdin_text="p cnf 1 1\n1 0\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2
        assert "unit" in err

    def test_cap_is_exit_three(self, monkeypatch, capsys):
        big = "p cnf 30 0\n"
        code, _, err = run_cli(
            ["solve", "--problem", "naesat", "-"],
            stdin_text=big,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 3

    def test_cap_override_flag(self, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["solve", "--problem", "naesat", "--cap", "2", "-"],
            stdin_text="p cnf 4 1\n1 2 0\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "naesat", str(GOLDEN / "three_clause.cnf")],
        ["axioms", str(GOLDEN / "modular_u42.json")],
    ], ids=["solve", "axioms"])
    def test_negative_cap_is_usage_error(self, argv, monkeypatch, capsys):
        code, out, err = run_cli(
            argv[:1] + ["--cap", "-1"] + argv[1:], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 2 and out == ""
        assert "--cap" in err and "non-negative" in err
        code, out, err = run_cli(
            argv[:1] + ["--cap", "0"] + argv[1:], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 3 and out == ""
        assert "exceeds cap 0" in err

    @pytest.mark.parametrize("argv, text", WRONG_SCHEMA.values(), ids=WRONG_SCHEMA.keys())
    def test_wrong_schema_is_exit_two(self, argv, text, monkeypatch, capsys):
        code, out, err = run_cli(
            argv + ["-"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 2 and out == ""
        assert "expects" in err

    @pytest.mark.parametrize("problem", ["modular-bases", "parity-bases", "modular-trees"])
    def test_cap_refused_where_solver_has_none(self, problem, monkeypatch, capsys):
        code, out, err = run_cli(
            ["solve", "--problem", problem, "--cap", "30", str(GOLDEN / "modular_u42.json")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "--cap" in err

    def test_verify_refuses_two_stdin_reads(self, monkeypatch, capsys):
        class Unreadable:
            def read(self):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", Unreadable())
        code = main(["verify", "--problem", "naesat", "--instance", "-", "--certificate", "-"])
        assert code == 2
        assert "stdin" in capsys.readouterr().err

    def test_internal_error_is_exit_four(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        old = REGISTRY["naesat"]
        row = Problem(old.instance, old.parse, broken, old.takes_cap, old.certificate, old.verify)
        monkeypatch.setitem(REGISTRY, "naesat", row)
        code, out, err = run_cli(
            ["solve", "--problem", "naesat", str(GOLDEN / "three_clause.cnf")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_INTERNAL == 4 and out == ""
        assert "Traceback" in err and "RuntimeError: solver bug" in err

    def test_usage_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["solve", "--problem", "sudoku", "-"],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 2

    def test_deeply_nested_json_is_exit_two(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["build", "-"], stdin_text="[" * 100_000 + "]" * 100_000,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "nested too deeply" in err

    def test_descriptor_too_deep_for_oracles_is_exit_three(self, monkeypatch, capsys):
        descriptor = {"kind": "uniform", "size": 2, "r": 1}
        for _ in range(600):
            descriptor = {"kind": "dual", "inner": descriptor}
        text = json.dumps({"schema": "modular-instance/1", "matroid": descriptor,
                           "modules": [[0], [1]]})
        code, out, err = run_cli(
            ["solve", "--problem", "modular-bases", "-"], stdin_text=text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "nested too deeply" in err

    def test_build_normalizes(self, monkeypatch, capsys):
        text = (GOLDEN / "modular_u42.json").read_text()
        code, out, _ = run_cli(
            ["build", "-"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["schema"] == "modular-instance/1"


class TestCliPipelines:
    def test_reduce_then_solve(self, monkeypatch, capsys):
        code, reduced, _ = run_cli(
            ["reduce", "--rule", "r2", str(GOLDEN / "three_clause.cnf")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["solve", "--problem", "modular-trees", "-"],
            stdin_text=reduced,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["schema"] == "certificate/modular-bases/1"

    def test_full_chain_r2_r1_r5(self, monkeypatch, capsys):
        code, reduced, _ = run_cli(
            ["reduce", "--rule", "r2", str(GOLDEN / "three_clause.cnf")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        code, common, _ = run_cli(
            ["reduce", "--rule", "r1", "-"],
            stdin_text=reduced,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        code, final, _ = run_cli(
            ["reduce", "--rule", "r5", "-"],
            stdin_text=common,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(final)
        assert data["m2"]["kind"] == "partition"
        assert len(data["labels"]) == 800

    def test_r3_pipe(self, monkeypatch, capsys):
        code, reduced, _ = run_cli(
            ["reduce", "--rule", "r3", str(GOLDEN / "two_cycle.digraph")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["solve", "--problem", "mod4-2factor", "-"],
            stdin_text=reduced,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0

    def test_r4_unequal_sides_verdict(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["reduce", "--rule", "r4", "-"],
            stdin_text="2 3\n0 0\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1
        assert json.loads(out)["answer"] == "NO"

    def test_verify_round_trip(self, monkeypatch, capsys, tmp_path):
        instance_path = GOLDEN / "modular_u42.json"
        inst = load_instance(json.loads(instance_path.read_text()))
        cert = solve_modular_bases(inst)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert.to_json()))
        code, out, _ = run_cli(
            [
                "verify",
                "--problem",
                "modular-bases",
                "--instance",
                str(instance_path),
                "--certificate",
                str(cert_path),
            ],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["answer"] == "VALID"

    def test_verify_rejects_tampered_certificate(self, monkeypatch, capsys, tmp_path):
        instance_path = GOLDEN / "modular_u42.json"
        inst = load_instance(json.loads(instance_path.read_text()))
        cert = solve_modular_bases(inst)
        data = cert.to_json()
        data["classes"][0], data["classes"][1] = (
            {"indices": [0], "labels": ["0"]},
            {"indices": [1, 2, 3], "labels": ["1", "2", "3"]},
        )
        cert_path = tmp_path / "tampered.json"
        cert_path.write_text(json.dumps(data))
        code, out, _ = run_cli(
            [
                "verify",
                "--problem",
                "modular-bases",
                "--instance",
                str(instance_path),
                "--certificate",
                str(cert_path),
            ],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1
        assert json.loads(out)["answer"] == "INVALID"

    def test_gadget_verify_cli(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gadget", "verify", "--ell", "1"],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["condition_b"]["holds"]

    def test_gadget_verify_cli_with_golden_labeling(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gadget", "verify", "--ell", "2", "--labeling", str(GOLDEN / "gadget_labeling.json")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["feasible_bipartitions"] == 4**2

    @pytest.mark.parametrize("labeling, message", [
        ({}, "schema must be 'gadget-labeling/1'"),
        ({**GOLDEN_LABELING, "first_path": 5}, "each label order must be a list of strings"),
        ([1], "expected a JSON object"),
        ({**GOLDEN_LABELING, "schema": "not-a-labeling"}, "schema must be 'gadget-labeling/1'"),
        ({**GOLDEN_LABELING, "first_path": "abc"}, "each label order must be a list of strings"),
    ], ids=["empty-object", "int-path", "not-an-object", "other-schema", "string-path"])
    def test_malformed_gadget_labeling_is_exit_two(self, labeling, message, monkeypatch,
                                                   capsys):
        code, out, err = run_cli(
            ["gadget", "verify", "--ell", "1", "--labeling", "-"], stdin_text=json.dumps(labeling),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: bad gadget labeling: {message}\n"

    def test_gadget_verify_cli_four_blocks(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gadget", "verify", "--ell", "4"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["feasible_bipartitions"] == 4**4

    def test_solve_thousands_of_modules(self, monkeypatch, capsys, tmp_path):
        # One search level per module: deeper than the recursion limit.
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(json.dumps({
            "schema": "modular-instance/1",
            "matroid": {"kind": "uniform", "size": 2400, "r": 1200},
            "modules": [[i] for i in range(2400)],
        }))
        code, out, _ = run_cli(
            ["solve", "--problem", "modular-bases", str(instance_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run_cli(
            ["verify", "--problem", "modular-bases", "--instance", str(instance_path),
             "--certificate", str(cert_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0 and json.loads(out)["answer"] == "VALID"

    def test_wide_direct_sum_instance(self, monkeypatch, capsys, tmp_path):
        # A one-level 1,500-part sum: its oracle and descriptor stay flat.
        parts = [{"kind": "uniform", "size": 2, "r": 1}] * 1500
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(json.dumps({
            "schema": "modular-instance/1",
            "matroid": {"kind": "direct-sum", "parts": parts},
            "modules": [[i] for i in range(3000)],
        }))
        code, out, _ = run_cli(["build", str(instance_path)],
                               monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0 and json.loads(out)["matroid"]["parts"] == parts
        code, out, _ = run_cli(
            ["solve", "--problem", "modular-bases", str(instance_path)],
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        instance = load_instance(json.loads(instance_path.read_text()))
        cert = load_certificate("modular-bases", json.loads(out), instance)
        assert verify_certificate("modular-bases", instance, cert).ok

    def test_reduce_r1_with_a_thousand_modules(self, monkeypatch, capsys, tmp_path):
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(json.dumps({
            "schema": "modular-instance/1",
            "matroid": {"kind": "uniform", "size": 1100, "r": 550},
            "modules": [[i] for i in range(1100)],
        }))
        code, out, _ = run_cli(["reduce", "--rule", "r1", str(instance_path)],
                               monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        loaded = load_instance(json.loads(out))
        source = load_instance(json.loads(instance_path.read_text()))
        expected = modular_to_common_bases(source).instance
        assert loaded.ground == expected.ground
        rng = random.Random(71)
        n = expected.ground.size
        masks = [rng.getrandbits(n) for _ in range(60)]
        # Sparse masks too, so the answers are not all "dependent".
        masks += [sum(1 << rng.randrange(n) for _ in range(rng.randint(0, 2000))) for _ in range(60)]
        for mask in masks:
            assert loaded.m1.indep_mask(mask) == expected.m1.indep_mask(mask)
            assert loaded.m2.indep_mask(mask) == expected.m2.indep_mask(mask)

    def test_parity_with_a_long_augmenting_path_is_no(self, monkeypatch, capsys):
        # Left i sees rights i and i+1, the last left sees right 0: the
        # greedy rank meets a 1,500-step augmenting path.  1,502 elements
        # of rank 1,502 cannot split into two bases.
        n = 1501
        edges = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n)] + [(n, 0)]
        matroid = transversal_matroid(BipartiteGraph.build(n + 1, n + 1, edges))
        pairs = PartitionOfGroundSet.build(
            matroid.ground, [[2 * i, 2 * i + 1] for i in range((n + 1) // 2)]
        )
        code, out, _ = run_cli(
            ["solve", "--problem", "parity-bases", "-"],
            stdin_text=_json_text(ParityInstance(matroid, pairs)),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 1 and json.loads(out)["answer"] == "NO"

    def test_reduction_and_gadget_bytes_are_pinned(self, monkeypatch, capsys):
        # sha256 of the exact stdout, recorded at commit ef158af, before the
        # r1/r2 builders and the gadget edge tables were rewritten.
        def digest(argv, stdin_text=""):
            code, out, _ = run_cli(argv, stdin_text, monkeypatch=monkeypatch, capsys=capsys)
            assert code == 0
            return out, hashlib.sha256(out.encode()).hexdigest()

        r2, r2_digest = digest(["reduce", "--rule", "r2", str(GOLDEN / "three_clause.cnf")])
        assert r2_digest == "8bfcb891782706ff369fa3bf23c63b45160d2771944958be208726c856706f57"
        assert digest(["reduce", "--rule", "r1", "-"], r2)[1] == (
            "068c7ae60b71ef91e055c49796f82bbc5f47ecfa0da03fac6e892ef1a5a493d7"
        )
        # r3 re-recorded when bipartite JSON began to carry vertex labels.
        assert digest(["reduce", "--rule", "r3", str(GOLDEN / "two_cycle.digraph")])[1] == (
            "0919eee523e8248e0f23eaec90b532ada032cf4a1c22f08183242cf4b8ff2d80"
        )
        assert digest(["emit-dot", "--gadget-ell", "3"])[1] == (
            "5407cb525f3ae8c86a31fd562d746f9dc725657bc2ded1a91d492fd7d403c218"
        )

    def test_gadget_search_cli(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["gadget", "search"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == json.loads((GOLDEN / "gadget_labeling.json").read_text())

    def test_adversary_cli(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["adversary", "--t", "1"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["distinguishing_query_index"] is not None
        assert data["candidate_hidden_sets"] == 2

    def test_adversary_cli_t_above_cap_is_exit_three(self, monkeypatch, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(
            ["adversary", "--t", "9"], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 3 and out == ""
        assert "exceeds cap 8" in err
        assert time.perf_counter() - started < 2

    @pytest.mark.parametrize("solver", ["size-order", "pair-avoider"])
    def test_adversary_sweep_solver_above_cap_is_exit_three(self, solver, monkeypatch, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(
            ["adversary", "--t", "6", "--solver", solver], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 3 and out == ""
        assert "exceeds cap 5" in err
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("solver, t, queries, index", [
        ("size-order", 3, 4096, "1586"),
        ("size-order", 4, 65536, "26333"),
        ("pair-avoider", 3, 3172, "null"),
        ("pair-avoider", 4, 52666, "null"),
    ])
    def test_adversary_sweep_reports_are_pinned(self, solver, t, queries, index,
                                                monkeypatch, capsys):
        # The distinguishing index pins the query order, size class by size class.
        code, out, _ = run_cli(
            ["adversary", "--t", str(t), "--solver", solver], monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert out.strip() == (
            f'{{"schema": "adversary-report/1", "t": {t}, "hidden": "relaxed", '
            f'"total_queries": {queries}, "distinguishing_query_index": {index}, '
            f'"agreement_verified": true, "candidate_hidden_sets": {math.comb(2 * t, t)}}}'
        )

    @pytest.mark.parametrize("descriptor", [
        {"kind": "free", "size": 2.5},
        {"kind": "graphic", "graph": {"vertices": 2.0, "edges": [[0, 1, "a"]]}},
        {"kind": "truncation", "k": 1, "inner": []},
        [1, 2],
    ])
    def test_axioms_malformed_descriptor_is_exit_two(self, descriptor, monkeypatch, capsys):
        code, out, err = run_cli(
            ["axioms", "-"], stdin_text=json.dumps(descriptor),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert "error:" in err

    def test_axioms_names_the_missing_descriptor_key(self, monkeypatch, capsys):
        # A modular-trees instance has no "matroid" key, so the whole
        # document is read as the descriptor, and it has no "kind".
        code, out, err = run_cli(
            ["axioms", "-"], stdin_text=TREES_JSON, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 2 and out == ""
        assert err.strip() == "error: bad matroid descriptor: missing key 'kind'"

    def test_axioms_cli(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["axioms", "-"],
            stdin_text=json.dumps({"kind": "uniform", "size": 4, "r": 2}),
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["ok"]

    def test_emit_dot(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["emit-dot", "--gadget-ell", "1", "-"],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert "graph first" in out and "graph second" in out

    def test_emit_dot_for_instances(self, monkeypatch, capsys):
        code, reduced, _ = run_cli(
            ["reduce", "--rule", "r2", str(GOLDEN / "three_clause.cnf")],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        code, out, _ = run_cli(
            ["emit-dot", "-"], stdin_text=reduced, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0 and "x1+path0" in out
        digraph_json = json.dumps(
            {"schema": "digraph/1", "vertices": 2, "arcs": [[0, 1]]}
        )
        code, out, _ = run_cli(
            ["emit-dot", "-"], stdin_text=digraph_json, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0 and "0 -> 1" in out

    def test_emit_dot_on_reloaded_r3_output_keeps_vertex_labels(self, monkeypatch, capsys):
        code, reduced, _ = run_cli(
            ["reduce", "--rule", "r3", str(GOLDEN / "two_cycle.digraph")],
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["emit-dot", "-"], stdin_text=reduced, monkeypatch=monkeypatch, capsys=capsys
        )
        graph = even_factor_to_mod4_factor(parse_arc_list(GOLDEN_DIGRAPH)).graph
        assert code == 0 and out == graph.to_dot() + "\n"
        assert '  s0 [label="v0\'", shape=box];' in out.splitlines()

    def test_unlabeled_bipartite_json_still_loads(self):
        graph = load_instance({"schema": "bipartite-graph/1", "left": 2, "right": 2,
                               "edges": [[0, 0], [1, 1]]})
        assert graph.left.labels is None and graph.right.labels is None
        assert "left_labels" not in graph.to_json()

    def test_emit_dot_for_bipartite_instance(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["emit-dot", "-"], stdin_text=BIPARTITE_JSON, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["graph G {", "  rankdir=LR;"] and lines[-1] == "}"
        graph = parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text())
        assert sum("shape=box" in line for line in lines) == graph.left.size
        assert {line for line in lines if " -- " in line} == {
            f"  s{s} -- t{t};" for s, t in graph.edges
        }


# ---------------------------------------------------------------------------
# What a command-line stage imports.  Each stage is a fresh interpreter, so
# its wall time is mostly start-up and imports; the package loads its
# submodules on first use and a subcommand imports only what it runs.

ROOT = GOLDEN.parent
# ``from basepack import *`` as it has always been.
STAR_EXPORTS = [
    "AdversaryPair", "AxiomCheck", "AxiomReport", "BipartiteGraph", "BlockLabeling",
    "CnfFormula", "CommonBasesInstance", "DEFAULT_LABELING", "Digraph", "ElementSet",
    "GadgetPair", "GroundSet", "HyperplaneFamily", "Matroid", "ModularInstance",
    "ModularTreesInstance", "MultiGraph", "ParityInstance", "PartitionOfGroundSet", "QueryLog",
    "ResourceCapExceeded", "UniverseMismatch", "adversary", "build_adversary", "build_gadget",
    "certificates", "check_basis_axioms", "check_independence_axioms",
    "common_bases_necessary_check", "constructions", "core", "count_parity_hiding_sets",
    "default_gadget", "direct_sum", "direct_sum_all", "dual", "enumerate_bases", "fields",
    "formats", "free_matroid", "gadget", "graphic_matroid", "graphs", "instances",
    "intersection", "is_basis", "is_independent", "linear_matroid", "matroid_from_descriptor",
    "max_common_independent", "parallel_copies", "partition_into_independent",
    "partition_matroid", "paving_matroid", "rank", "relabel", "run_indistinguishability",
    "search_block_labeling", "solve_common_bases", "solve_mod4_two_factor",
    "solve_modular_bases", "solve_modular_trees", "solve_naesat", "solve_parity_bases",
    "solve_perfect_even_factor", "solvers", "transversal_linear_representation",
    "transversal_matroid", "truncate", "uniform_matroid", "verify_certificate", "verify_gadget",
    "with_query_log",
]


def _imports(*args) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime *args`` from the repository root; return the
    process and the names of the modules it imported."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], cwd=ROOT, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120, check=False,
    )
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:") and "|" in line}
    return proc, names


class TestStartupImports:
    def test_cli_import_leaves_out_what_no_pipeline_stage_uses(self):
        _, bare = _imports("-c", "pass")
        proc, names = _imports("-c", "import basepack.cli")
        assert proc.returncode == 0 and "basepack.cli" in names
        assert not names & {"basepack.adversary", "basepack.intersection", "basepack.gadget",
                            "basepack.reductions"}
        assert not {"dataclasses", "traceback", "fractions", "decimal"} & (names - bare)

    def test_pipeline_stages_load_no_gadget(self, tmp_path):
        proc, names = _imports("-m", "basepack.cli", "reduce", "--rule", "r2",
                               "golden/three_clause.cnf")
        assert proc.returncode == 0 and "basepack.reductions" in names
        assert "basepack.gadget" not in names
        trees = tmp_path / "trees.json"
        trees.write_text(proc.stdout)
        proc, names = _imports("-m", "basepack.cli", "solve", "--problem", "modular-trees",
                               str(trees))
        assert proc.returncode == 0 and json.loads(proc.stdout)["schema"].startswith("cert")
        assert "basepack.solvers" in names and "basepack.gadget" not in names
        proc, names = _imports("-m", "basepack.cli", "reduce", "--rule", "r1", str(trees))
        assert proc.returncode == 0 and "basepack.gadget" in names

    def test_solve_and_verify_stages_load_no_reductions(self, tmp_path):
        trees = tmp_path / "trees.json"
        trees.write_text(TREES_JSON)
        proc, names = _imports("-m", "basepack.cli", "solve", "--problem", "modular-trees",
                               str(trees))
        assert proc.returncode == 0 and "basepack.solvers" in names
        assert "basepack.reductions" not in names
        cert = tmp_path / "cert.json"
        cert.write_text(proc.stdout)
        proc, names = _imports("-m", "basepack.cli", "verify", "--problem", "modular-trees",
                               "--instance", str(trees), "--certificate", str(cert))
        assert proc.returncode == 0 and json.loads(proc.stdout)["answer"] == "VALID"
        assert "basepack.solvers" in names and "basepack.reductions" not in names

    def test_star_import_exports_the_same_names(self):
        import basepack

        namespace: dict = {}
        exec("from basepack import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(basepack.__all__) == STAR_EXPORTS
        assert namespace["solve_naesat"] is solve_naesat
        with pytest.raises(AttributeError):
            basepack.no_such_name
