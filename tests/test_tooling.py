"""Source-level rules that hold across the package's modules."""

import ast
import importlib
import types
from pathlib import Path

import staralg

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



# the package's public names, by the module that defines them
PUBLIC_NAMES = {
    "errors": (
        "StaralgError", "PreconditionError", "NotComparableError", "UnsolvableError",
        "NumericError", "MatrixFormatError",
    ),
    "matcore": (
        "Tol", "DEFAULT_TOL", "Svd", "adj", "as_cmat", "svd", "rank_of", "pinv", "projectors",
        "meet_projector", "rel_residual", "hermitian_defect", "idempotent_defect", "is_projector",
    ),
    "starorder": (
        "StarWitness", "star_residuals", "star_leq", "star_leq_witness", "range_included",
        "range_inclusion_residual",
    ),
    "solvers": (
        "SolutionFamily", "SystemFamily", "douglas_solve", "sandwich_solve",
        "system_criterion_residual", "system_solvable", "system_family", "system_general",
        "solves_system", "reduce_system", "hermitian_system_solve", "system_hermitian",
        "prop_main_check",
    ),
    "chars": (
        "projector_char", "pbq_char", "deng_decompose", "gp_check", "is_generalized_projection",
        "gp_decompose", "meet_split", "idempotent_split", "common_lower_bound",
    ),
    "genlab": (
        "PRNG_NAME", "Seed", "SplitMix64", "gen_unitary", "gen_rank_r", "gen_star_pair",
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
