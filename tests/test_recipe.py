"""The recipe path on signed permutations, and the names it keeps in
``spinrep.modules``."""

import ast
from pathlib import Path
from unittest import mock

from spinrep import modules, recipe
from spinrep.files import module_to_payload
from spinrep.linalg import QMat, SignedPerm

INPROC = Path(__file__).resolve().parents[1] / "perfbench" / "inproc.py"


def _cached(namespace: dict) -> list:
    return [f for f in namespace.values() if hasattr(f, "cache_info") and hasattr(f, "cache_clear")]


def test_recipe_builds_no_qmat():
    # assembly, the audit and the gamma-file payload of every recipe module
    # with r + s <= 10, and of the octonion modules, run on signed
    # permutations alone
    built = []
    real_init = QMat.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:2])
        real_init(self, *args, **kwargs)

    for f in _cached(vars(recipe)) + [modules.octonion_module]:
        f.cache_clear()
    with mock.patch.object(QMat, "__init__", counting_init):
        inputs = [(recipe.assemble_signature(r, n - r, variant), (r, n - r, variant))
                  for n in range(1, 11) for r in range(n + 1)
                  for variant in (("plus", "minus") if (n - 2 * r) % 4 == 3 else ("plus",))]
        inputs += [(modules.octonion_module(k), ("octonion", k)) for k in range(4, 9)]
        for module, name in inputs:
            assert all(isinstance(g, SignedPerm) for g in module.gens + module.units + (module.metric,)), name
            report = recipe.verify_module(module)
            assert report.ok, name
            module_to_payload(module, report.volume_sign)
    assert built == []
    # the QMat views are built on first access, once
    module = recipe.assemble_signature(2, 3)
    assert module.generators is module.generators
    assert module.generators[0] == QMat.from_entries(
        module.real_dim, module.real_dim, {(i, j): s for i, j, s in module.gens[0].entries()})


def _modules_names_in_inproc() -> set[str]:
    """The names the benchmark wraps in ``spinrep.modules``: literal
    arguments of ``w(tracer, "spinrep.modules", name, ...)``, and the tuples
    a loop feeds such a call."""
    tree = ast.parse(INPROC.read_text(encoding="utf-8"))
    loops = {node.target.id: [c.value for c in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple)}
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and len(node.args) > 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "spinrep.modules"):
            arg = node.args[2]
            names.update([arg.value] if isinstance(arg, ast.Constant) else loops[arg.id])
    return names


def test_modules_keeps_what_the_benchmark_reaches():
    names = _modules_names_in_inproc()
    assert {"assemble_signature", "sqrt_space_module", "verify_module", "intertwiners"} <= names
    assert all(hasattr(modules, name) for name in names), names - set(vars(modules))
    # module_caches() in inproc.py clears the lru_caches it finds in spinrep.modules
    found = _cached(vars(modules))
    assert all(f in found for f in _cached(vars(recipe)))
    assert {modules.sqrt_space_module, modules.octonion_module} <= set(found)
