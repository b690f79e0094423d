"""Property-based fuzzing: the CLI on mutated instances and certificates,
and the r2 certificate maps on random not-all-equal satisfiable formulas.

Every command must answer with exit code 0 to 3; exit 4 would mean an
exception escaped to main's internal-error handler."""

import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from basepack.certificates import AssignmentCertificate
from basepack.cli import RULES, main
from basepack.formats import dump_instance, parse_arc_list, parse_bipartite, parse_dimacs
from basepack.instances import CnfFormula
from basepack.reductions import (
    lift_assignment_to_trees,
    mod4_factor_to_parity_bases,
    naesat_to_modular_trees,
    pull_assignment_from_trees,
)
from basepack.solvers import PROBLEMS, lookup

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"

THREE_CLAUSE = (GOLDEN / "three_clause.cnf").read_text()
DIGRAPH = parse_arc_list((GOLDEN / "two_cycle.digraph").read_text())
BIPARTITE = parse_bipartite((GOLDEN / "eight_cycle.bipartite").read_text())

# (problem, instance as JSON or text) for every problem; each is small
# enough that a solver on a mutated copy answers or hits its cap at once.
SEEDS = [
    ("common-bases", {
        "schema": "common-bases-instance/1",
        "m1": {"kind": "uniform", "size": 4, "r": 2},
        "m2": {"kind": "graphic", "graph": {"vertices": 3, "edges": [
            [0, 1, "a"], [1, 2, "b"], [0, 1, "c"], [1, 2, "d"]]}},
        "k": 2,
    }),
    ("modular-bases", json.loads((GOLDEN / "modular_u42.json").read_text())),
    ("parity-bases", dump_instance(mod4_factor_to_parity_bases(BIPARTITE).instance)),
    ("modular-trees", dump_instance(
        naesat_to_modular_trees(parse_dimacs("p cnf 2 1\n1 2 0\n")[0]).instance)),
    ("naesat", THREE_CLAUSE),
    ("even-factor", dump_instance(DIGRAPH)),
    ("mod4-2factor", dump_instance(BIPARTITE)),
]

SCHEMAS = [
    "modular-instance/1", "common-bases-instance/1", "parity-instance/1",
    "modular-trees-instance/1", "digraph/1", "bipartite-graph/1",
    "certificate/common-bases/1", "certificate/modular-bases/1", "certificate/naesat/1",
]

REPLACEMENTS = st.one_of(
    st.sampled_from([None, True, "x", 1.5, 3.0, -1, [], {}, [[0, 1]], {"x1": True}]),
    st.integers(-3, 40),
    st.sampled_from(SCHEMAS),
)


def run_main(argv, stdin_text):
    """main() in-process with the given stdin; returns the exit code and stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return main(argv), out.getvalue()
    finally:
        sys.stdin = saved


def _text(instance) -> str:
    return instance if isinstance(instance, str) else json.dumps(instance)


def _solved(problem, instance):
    code, out = run_main(["solve", "--problem", problem, "-"], _text(instance))
    assert code == 0
    return json.loads(out)


CERTIFICATES = {problem: _solved(problem, instance) for problem, instance in SEEDS}


def _retyped(value) -> list:
    """The same datum under other JSON types, or moved out of range."""
    if isinstance(value, bool):
        return [int(value), str(value)]
    if isinstance(value, int):
        return [float(value), str(value), -1 - value, value + 1]
    if isinstance(value, str):
        return [[value], value + "'"]
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}, value[1:], value + value[:1]]
    if isinstance(value, dict):
        return [list(value.values()), list(value)]
    return [0, "null"]


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three drops, replacements or retypings in its tree."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        # A random walk from the root, stopping at each node with
        # probability 1/3, so that counts and keys near the top (sizes,
        # schemas, module lists) are hit as often as deep indices.
        path = ()
        parent = None
        value = doc
        while isinstance(value, (dict, list)) and value and draw(st.integers(0, 2)):
            key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
            path += (key,)
            parent, value = value, value[key]
        op = draw(st.sampled_from(["retype", "replace"] + (["drop"] if path else [])))
        if op == "drop":
            del parent[path[-1]]
            continue
        # Copies, so that no drawn value is shared or ends up inside itself.
        pool = st.sampled_from(_retyped(value)) if op == "retype" else REPLACEMENTS
        new = copy.deepcopy(draw(pool))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_survives_mutated_inputs(data):
    seed_problem, instance = data.draw(st.sampled_from(SEEDS))
    problem = data.draw(st.one_of(st.just(seed_problem), st.sampled_from(PROBLEMS)))
    certificate = CERTIFICATES[seed_problem]
    target = data.draw(st.sampled_from(["instance", "certificate", "both"]))
    if target != "certificate" and not isinstance(instance, str):
        instance = data.draw(mutated(instance))
    if target != "instance":
        certificate = data.draw(mutated(certificate))
    text = _text(instance)
    commands = [["solve", "--problem", problem, "-"]]
    if lookup(problem).takes_cap:
        commands.append(["solve", "--problem", problem, "--cap", "6", "-"])
    commands.append(["reduce", "--rule", data.draw(st.sampled_from(list(RULES))), "-"])
    with tempfile.TemporaryDirectory() as tmp:
        cert_path = pathlib.Path(tmp) / "cert.json"
        cert_path.write_text(json.dumps(certificate))
        commands.append(["verify", "--problem", problem, "--instance", "-",
                         "--certificate", str(cert_path)])
        for argv in commands:
            code, _ = run_main(argv, text)
            assert code in (0, 1, 2, 3), argv


@st.composite
def satisfied_formulas(draw):
    """A formula on at most four variables with an assignment that NAE-satisfies it."""
    n = draw(st.integers(2, 4))
    values = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True))
        clause = [(v, draw(st.booleans())) for v in variables]
        if len({values[v] == positive for v, positive in clause}) == 1:
            v, positive = clause[0]
            clause[0] = (v, not positive)
        clauses.append(clause)
    return CnfFormula.normalize(n, clauses), values


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=satisfied_formulas())
def test_pull_inverts_lift(case):
    formula, values = case
    assignment = AssignmentCertificate(values)
    red = naesat_to_modular_trees(formula)
    assert pull_assignment_from_trees(red, lift_assignment_to_trees(red, assignment)) == assignment
