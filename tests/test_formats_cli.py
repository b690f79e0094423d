"""Exchange formats, golden files, and the command-line interface."""

import dataclasses
import io
import json
import pathlib

import pytest

from basepack.cli import EXIT_INTERNAL, main
from basepack.formats import (
    FormatError,
    dump_instance,
    load_instance,
    parse_arc_list,
    parse_bipartite,
    parse_dimacs,
)
from basepack.instances import CommonBasesInstance, ModularInstance
from basepack.reductions import (
    even_factor_to_mod4_factor,
    mod4_factor_to_parity_bases,
    modular_to_common_bases,
    naesat_to_modular_trees,
    to_partition_matroid_form,
)
from basepack.solvers import REGISTRY, load_certificate, solve_modular_bases, verify_certificate

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def _json_text(instance) -> str:
    return json.dumps(dump_instance(instance))


MODULAR_JSON = (GOLDEN / "modular_u42.json").read_text()
TREES_JSON = _json_text(naesat_to_modular_trees(parse_dimacs("p cnf 2 1\n1 2 0\n")[0]).instance)
DIGRAPH_JSON = _json_text(parse_arc_list((GOLDEN / "two_cycle.digraph").read_text()))
BIPARTITE_JSON = _json_text(parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text()))

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
        formula, warnings = parse_dimacs((GOLDEN / "three_clause.cnf").read_text())
        assert formula.num_vars == 4
        assert len(formula.clauses) == 3
        assert not warnings

    def test_tautological_clause_dropped_with_warning(self):
        formula, warnings = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
        assert len(formula.clauses) == 1
        assert warnings and "dropped 1" in warnings[0]

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
        formula, _ = parse_dimacs("p cnf 3 0\n")
        assert formula.num_vars == 3 and formula.clauses == ()


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


class TestInstanceJson:
    def test_golden_modular_instance(self):
        data = json.loads((GOLDEN / "modular_u42.json").read_text())
        inst = load_instance(data)
        assert isinstance(inst, ModularInstance)
        assert solve_modular_bases(inst) is not None

    def test_round_trip_every_reduction_output(self):
        formula, _ = parse_dimacs((GOLDEN / "three_clause.cnf").read_text())
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


UNIFORM_PAIR_JSON = json.dumps({
    "schema": "common-bases-instance/1",
    "m1": {"kind": "uniform", "size": 4, "r": 2},
    "m2": {"kind": "uniform", "size": 4, "r": 2},
    "k": 2,
})


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
}


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

        row = dataclasses.replace(REGISTRY["naesat"], solve=broken)
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
            ["gadget", "verify", "--ell", "1", "--threads", "1"],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["condition_b"]["holds"]

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
