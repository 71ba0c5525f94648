"""Every public top-level name of the package has a caller or a reason.

A name defined at the top level of a module under src/adskg, not starting
with an underscore, must be read somewhere in src/adskg outside its own
definition (a docstring or comment that names it does not count), be
exported by `adskg.__all__`, be read by the benchmark's jobs
(bench/jobs.py), or stand in KEPT below with the reason it stays.  A new
helper that nothing calls fails here instead of waiting for a clean-up.
"""

import ast
from pathlib import Path

import adskg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "adskg"

KEPT = {
    "isometry.act_boost": "the finite boost on momentum reps; ROADMAP item 4 (finite boosts "
                          "on slice reps) builds on it",
    "minkowski.ncheck": "the Minkowski tube radial function paired with jcheck; mpmath tests pin it",
    "minkowski.jcheck_dr": "d/dr of jcheck, the public face of `_check(..., dr=True)` that the "
                           "tube synthesis uses; mpmath tests pin it",
    "minkowski.ncheck_dr": "d/dr of ncheck, as jcheck_dr",
    "minkowski.mink_synth_tube": "the Minkowski tube field at a point, the flat-limit "
                                 "counterpart of `synth`",
    "minkowski.mink_synth_tube_dr": "its d/dr, as mink_synth_tube",
    "symplectic.symplectic_potential": "the paper's symplectic potential theta",
    "expansions.slice_to_tube": "the paper's slice-to-tube map: Jacobi modes are S^a modes at "
                                "the magic frequencies",
}


def _reads(tree, skip=None) -> set:
    """Names and attribute names read in tree, outside the node skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public_definitions(tree):
    """(name, node) of each public name the module's top level binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def _uncalled() -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    bench = _reads(ast.parse((ROOT / "bench" / "jobs.py").read_text()))
    return {f"{module}.{name}" for module, tree in trees.items()
            for name, node in _public_definitions(tree)
            if name not in adskg.__all__ and name not in bench
            and not any(name in _reads(other, node if other is tree else None)
                        for other in trees.values())}


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = _uncalled()
    assert sorted(uncalled - KEPT.keys()) == [], "no caller and no reason to stay"
    # an entry whose name gained a caller, or is gone, leaves the table
    assert sorted(KEPT.keys() - uncalled) == [], "listed in KEPT, but called or gone"
