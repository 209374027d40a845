"""Source-level rules that hold across the package's modules."""

import argparse
import ast
import importlib
import inspect
import types
from pathlib import Path

import staralg
from staralg.cli import _build_parser, main

SRC = Path(staralg.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """``_``-prefixed names a module imports from another staralg module.

    Dunder names such as ``__version__`` are public by convention and allowed.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "staralg":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module or '.'}")
    return found


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "\n".join(found)


def _trees(directory: Path) -> dict[str, ast.AST]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(directory.glob("*.py"))}


def test_every_public_function_and_class_is_reached():
    """Each public function and class is used by the package itself or by its
    benchmark harness, which calls the package as ``staralg.<name>``; a name
    only the tests call is certified by no suite and should go."""
    used = set()
    for tree in _trees(SRC).values():
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for tree in _trees(SRC.parents[1] / "perfbench").values():
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "staralg"}
    public = [name for name in staralg.__all__
              if isinstance(getattr(staralg, name), (type, types.FunctionType))]
    assert len(public) >= 40
    assert sorted(set(public) - used) == []


# numpy routines that run an SVD of their own
_SVD_ROUTINES = {"svd", "cond", "matrix_rank", "pinv", "lstsq"}


def test_one_rank_decision():
    """An SVD is taken (``np.linalg.svd``, or ``cond``/``matrix_rank``/``pinv``/
    ``lstsq``, which hide one), and ``rank_rtol`` enters arithmetic, only in
    matcore; the one exception is the ``lstsq`` of the oracle's dense path,
    which shares no code with the solvers on purpose."""
    found = []
    for name, tree in _trees(SRC).items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in _SVD_ROUTINES
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append(f"{name} np.linalg.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found.append(f"{name} imports from {node.module}")
            if isinstance(node, ast.BinOp):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Attribute) and side.attr == "rank_rtol":
                        found.append(f"{name} rank_rtol arithmetic")
    assert sorted(found) == [
        "matcore.py np.linalg.svd", "matcore.py rank_rtol arithmetic", "verify.py np.linalg.lstsq",
    ], found


def test_only_factor_takes_a_rank_hint():
    """The rank hint describes an operand, so it is given once, to ``factor``,
    and travels on the Factor; no other public function takes one."""
    takes_scale = sorted(
        name for name in staralg.__all__
        if isinstance(getattr(staralg, name), types.FunctionType)
        and "scale" in inspect.signature(getattr(staralg, name)).parameters
    )
    assert takes_scale == ["factor"]


def _is_square_test(node: ast.AST) -> bool:
    """``<x>.shape[0] != <y>.shape[1]`` in either order."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.NotEq)):
        return False
    indices = []
    for side in (node.left, node.comparators[0]):
        if not (isinstance(side, ast.Subscript) and isinstance(side.value, ast.Attribute)
                and side.value.attr == "shape" and isinstance(side.slice, ast.Constant)):
            return False
        indices.append(side.slice.value)
    return sorted(indices) == [0, 1]


def test_square_rule_lives_in_matcore():
    """Only matcore compares ``shape[0]`` with ``shape[1]``: every other
    module states a square operand through ``square``/``square_pair``."""
    found = [f"{name}:{node.lineno}" for name, tree in _trees(SRC).items()
             for node in ast.walk(tree) if _is_square_test(node)]
    assert found and all(hit.startswith("matcore.py:") for hit in found), found


# the package's public names, by the module that defines them
PUBLIC_NAMES = {
    "errors": (
        "StaralgError", "PreconditionError", "NotComparableError", "UnsolvableError",
        "NumericError", "MatrixFormatError",
    ),
    "matcore": (
        "DEFAULT_TOL", "Factor", "adj", "as_cmat", "factor", "pinv", "projectors",
        "meet_projector", "rel_residual", "hermitian_defect", "idempotent_defect",
    ),
    "starorder": ("star_residuals", "star_leq", "range_inclusion_residual"),
    "solvers": (
        "SolutionFamily", "douglas_solve", "sandwich_solve",
        "system_criterion_residual", "system_solvable", "system_family", "system_general",
        "solves_system", "reduce_system", "hermitian_system_solve", "system_hermitian",
        "prop_main_check",
    ),
    "chars": (
        "projector_char", "pbq_char", "deng_decompose", "gp_check",
        "gp_decompose", "meet_split", "idempotent_split", "common_lower_bound",
    ),
    "genlab": (
        "PRNG_NAME", "Seed", "SplitMix64", "gen_rank_r", "gen_star_pair",
        "gen_gp", "gen_idempotent", "gen_thm23_instance",
    ),
    "report": ("Check", "Report", "to_line"),
    "verify": ("NEG_FLOOR", "SUITE_NAMES", "SUITE_DESCRIPTIONS", "lsq_oracle", "run_suite"),
}


def test_public_surface_is_pinned():
    exported = staralg.__all__
    assert len(exported) == len(set(exported)), "duplicate names in staralg.__all__"
    assert set(exported) == {"__version__", *(n for names in PUBLIC_NAMES.values() for n in names)}
    for module, names in PUBLIC_NAMES.items():
        home = importlib.import_module(f"staralg.{module}")
        for name in names:
            obj = getattr(staralg, name)
            assert obj is getattr(home, name), f"staralg.{name} is not {home.__name__}.{name}"
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == home.__name__, f"{name} is defined in {obj.__module__}"


def _callee(node: ast.Call) -> str:
    return getattr(node.func, "id", None) or getattr(node.func, "attr", "")


def test_no_operation_factors_an_adjoint_it_could_read_off():
    """range(b*) and (b*)+ come from b's own SVD, so outside the suites that
    check adjoint identities on purpose (verify), nothing factors ``adj(...)``."""
    factoring = {"factor", "pinv", "range_inclusion_residual", "_require_range_in"}
    found = [
        f"{name}:{node.lineno} {_callee(node)}(adj(...))"
        for name, tree in _trees(SRC).items() if name != "verify.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) in factoring
        and any(isinstance(arg, ast.Call) and _callee(arg) == "adj"
                for arg in [*node.args, *(k.value for k in node.keywords)])
    ]
    assert found == [], found


def _restated_references(tree: ast.AST) -> list[ast.Call]:
    """``rel_residual(x - y, ref)`` calls whose ``ref`` repeats x or y: an
    equation x = y that ``eq_residual`` states once."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _callee(node) == "rel_residual"
                and len(node.args) == 2 and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Sub)):
            continue
        diff, ref = node.args
        if ast.dump(ref) in (ast.dump(diff.left), ast.dump(diff.right)):
            found.append(node)
    return found


def test_residuals_state_their_equation():
    """Outside matcore, a residual of an equation x = y is ``eq_residual``,
    never a difference whose reference is written a second time."""
    found = [f"{name}:{node.lineno}" for name, tree in _trees(SRC).items() if name != "matcore.py"
             for node in _restated_references(tree)]
    assert found == [], found


def _is_complement(node: ast.AST) -> bool:
    """``eye - ...`` or ``np.eye(...) - ...``: a projector's complement written out."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    left = node.left
    return (isinstance(left, ast.Name) and left.id == "eye") or (
        isinstance(left, ast.Call) and _callee(left) == "eye")


def _leftmost_term(node: ast.AST) -> ast.AST:
    """The first term of a difference chain ``t0 - t1 - ...``."""
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        node = node.left
    return node


def _unstated_equations(tree: ast.AST) -> list[ast.Call]:
    """``rel_residual(x, ref)`` calls that hide an equation with right side
    ``ref``: ``ref @ (eye - p)`` or ``(eye - p) @ ref`` (the equation
    ``ref @ p = ref``), or a difference chain ``ref - t1 - ...`` (the equation
    ``t1 + ... = ref``)."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _callee(node) == "rel_residual"
                and len(node.args) == 2):
            continue
        x, ref = node.args
        ref = ast.dump(ref)
        if isinstance(x, ast.BinOp) and isinstance(x.op, ast.MatMult):
            hit = (ast.dump(x.left) == ref and _is_complement(x.right)) or (
                _is_complement(x.left) and ast.dump(x.right) == ref)
        else:
            hit = (isinstance(x, ast.BinOp) and isinstance(x.op, ast.Sub)
                   and ast.dump(_leftmost_term(x)) == ref)
        if hit:
            found.append(node)
    return found


def test_residuals_state_their_right_side():
    """Outside matcore, a residual whose reference is the equation's right
    side, as in ``(I - P) x = 0`` for ``P x = x``, is ``eq_residual`` of that
    equation, not ``rel_residual`` of the rearranged difference."""
    found = [f"{name}:{node.lineno}" for name, tree in _trees(SRC).items() if name != "matcore.py"
             for node in _unstated_equations(tree)]
    assert found == [], found


def _clamps_and_errstates(tree: ast.AST) -> list[ast.Call]:
    """``errstate(...)`` calls, and ``max(1, ...)`` or ``max(..., 1.0)``: a
    unit clamp, the absolute constant a scale-free residual does without."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        clamp = _callee(node) == "max" and any(
            isinstance(arg, ast.Constant) and arg.value == 1 for arg in node.args)
        if clamp or _callee(node) == "errstate":
            found.append(node)
    return found


def test_no_unit_clamp_and_no_errstate():
    """Residuals are backward errors, which need no ``max(1, |ref|)`` clamp,
    and norms are taken so that an overflow raises no floating-point warning,
    so no module silences one with ``np.errstate``."""
    found = [f"{name}:{node.lineno}" for name, tree in _trees(SRC).items()
             for node in _clamps_and_errstates(tree)]
    assert found == [], found
    assert _clamps_and_errstates(ast.parse("max(1.0, n)\nnp.errstate(over='ignore')"))


_CONCURRENCY_MODULES = {"threading", "multiprocessing", "concurrent"}


def _concurrency(tree: ast.AST) -> list[int]:
    """Lines that import a thread or process module, or reach ``os.fork``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(n.split(".")[0] in _CONCURRENCY_MODULES or n == "os.fork" for n in names):
            found.append(node.lineno)
    return found


def test_only_the_cli_starts_threads_or_processes():
    """The library modules stay pure functions of their inputs: only cli.py,
    which overlaps a factorization with a file read and forks verify's
    workers and the codec's helpers, imports threading, multiprocessing or
    concurrent, or forks."""
    found = [f"{name}:{line}" for name, tree in _trees(SRC).items() if name != "cli.py"
             for line in _concurrency(tree)]
    assert found == [], found
    assert _concurrency(_trees(SRC)["cli.py"])
    for snippet in ("import threading", "import multiprocessing.pool", "from concurrent import futures",
                    "from os import fork", "os.fork()", "pid = os.fork"):
        assert _concurrency(ast.parse(snippet)), snippet


def _fork_calls(tree: ast.AST) -> list[int]:
    """Lines that call ``os.fork``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) == ("os", "fork")]


def test_one_fork_call_site():
    """``verify``'s suite workers and the matrix codec's row ranges fork, collect,
    kill and reap through one helper, so cli.py calls ``os.fork`` once."""
    assert len(_fork_calls(_trees(SRC)["cli.py"])) == 1
    assert _fork_calls(ast.parse("os.fork()\nif os.fork() == 0: pass\nos.forkpty()")) == [1, 2]


def test_one_acceptance_test():
    """``res_rtol`` is compared only in matcore (``Tol.holds``), as
    ``rank_rtol`` enters arithmetic only there."""
    found = [
        f"{name}:{node.lineno}" for name, tree in _trees(SRC).items() if name != "matcore.py"
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "res_rtol"
                for side in (node.left, *node.comparators))
    ]
    assert found == [], found


def test_one_negative_threshold():
    """In the suites, ``NEG_FLOOR`` reaches ``check_ge`` only through ``_refuted``."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_refuted":
            inside |= {id(node) for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) == "check_ge"
             and any(isinstance(arg, ast.Name) and arg.id == "NEG_FLOOR" for arg in node.args)]
    assert [node.lineno for node in calls if id(node) not in inside] == []
    assert len(calls) == 1


def _help_texts(parser: argparse.ArgumentParser):
    """The ``--help`` text of the parser and of every command below it."""
    yield parser.format_help()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _help_texts(sub)


def test_one_tolerance_policy():
    """``DEFAULT_TOL`` is the only tolerance policy: no function takes a
    ``tol`` parameter, no class has a ``tol`` field, and no command takes a
    threshold flag."""
    found = [
        f"{name}:{node.lineno}" for name, tree in _trees(SRC).items() for node in ast.walk(tree)
        if (isinstance(node, ast.arg) and node.arg == "tol")
        or (isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "tol")
    ]
    assert found == [], found
    texts = list(_help_texts(_build_parser()))
    assert len(texts) >= 13
    assert not [t for t in texts if "--rank-rtol" in t or "--res-rtol" in t]
    assert main(["verify", "--suite", "penrose", "--res-rtol", "1e-8"]) == 2
