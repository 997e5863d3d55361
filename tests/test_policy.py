"""The tolerance policy, checked on the source of qka.

Every threshold is a module constant (or a literal) read where its decision
is made: no function, lambda or dataclass field takes a tolerance.  No
module but the package's ``__init__`` imports a name it never uses, and
every module-level private name is read somewhere in the package.  Blocks
are placed only behind the builders' door, `construct`.  README's
Tolerances list names every tolerance constant with its value.  The moduli
layer imports only the standard library.  The library doors refuse bad input
with a ValueError that names the argument.  The block type reads no squared
cosine of the frame.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qka.classify import representative
from qka.families import (
    FamilySpec,
    admissible,
    construct,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
    gram_matrix,
    min_quaternionic_dim,
)
from qka.moduli import AngleTriple, moduli_describe, moduli_membership, strata_for
from qka.quaternion import (STANDARD_BASIS, CanonicalBasis, GroupElement, random_group_element,
                            random_unitary, right_mult)
from qka.serialize import load_subspace
from qka.subspace import (Subspace, constancy_check, distribution_rank, from_spanning,
                          joint_canonical_basis, pbar_operator)

SRC = Path(__file__).resolve().parent.parent / "src" / "qka"
TOLERANCE_NAME = re.compile(r"(tol|rtol|svtol|tolerance|.*_tol|max_sweeps)")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _tolerance_knobs(tree: ast.Module, path: Path) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and TOLERANCE_NAME.fullmatch(arg.arg):
                    owner = getattr(node, "name", "lambda")
                    found.append(f"{path.name}:{node.lineno} {owner}({arg.arg})")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and TOLERANCE_NAME.fullmatch(stmt.target.id)):
                    found.append(f"{path.name}:{stmt.lineno} {node.name}.{stmt.target.id}")
    return found


def _unused_imports(tree: ast.Module, path: Path) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def _callers(tree: ast.Module, path: Path, callee: str) -> list[str]:
    """``module.function`` of every function (outermost) that calls ``callee``."""
    found = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found += [f"{path.stem}.{top.name}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee]
    return found


def test_blocks_are_placed_only_behind_the_door():
    # `construct` checks every field a family reads; a builder that placed
    # blocks itself would skip it.  Only the door, the fitting class of
    # `representative` (whose triple, counts and branch the moduli layer has
    # checked) and selftest C6's hand-built minus block at phi3 = pi/2 place
    # blocks.
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers.update(_callers(ast.parse(path.read_text(encoding="utf-8")), path, "_place"))
    assert sorted(callers) == ["classify._fitting_class", "families.construct",
                               "selftest.crit_inequivalence"]


def test_the_block_type_reads_no_squared_cosine():
    # `_Analysis.signs` normalizes M_0 = W'_3 X_12 by its own scale: it reads
    # no squared cosine c_i of the frame and passes no Pbar gate, which
    # divides by c_i.  Its gates and its phi3 = pi/2 merge read the record's
    # error scale.
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    analysis = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "_Analysis")
    signs = next(node for node in analysis.body
                 if isinstance(node, ast.FunctionDef) and node.name == "signs")
    read = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(signs)}
    assert {"w_canonical", "cross12", "error"} <= read
    assert sorted(read & {"cos2", "_gated_cos", "pbar"}) == []


def test_no_tolerance_parameters_and_no_unused_imports():
    knobs, unused = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        knobs += _tolerance_knobs(tree, path)
        if path.name != "__init__.py":
            unused += _unused_imports(tree, path)
    assert knobs == [], f"tolerance parameters: {knobs}"
    assert unused == [], f"unused imports: {unused}"


def _module_private_names(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-level ``_private`` (not dunder) names a module defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def test_every_private_name_is_referenced():
    # A private helper that nothing in the package reads, outside its own
    # definition, is dead code; an import alone is not a reference.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    references: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, set()).add(id(node))
    orphans = []
    for module, tree in trees.items():
        for name, definition in _module_private_names(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not references.get(name, set()) - own:
                orphans.append(f"{module}:{definition.lineno} {name}")
    assert orphans == [], f"unreferenced private names: {orphans}"


README = SRC.parent.parent / "README.md"
TOLERANCE_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*_R?TOL")


def test_readme_lists_every_tolerance_constant():
    # README's Tolerances list names each module-level *_TOL / *_RTOL constant
    # as `module.NAME` = value, and no constant the source lacks.
    source = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and TOLERANCE_CONSTANT.fullmatch(target.id):
                        source[f"{path.stem}.{target.id}"] = ast.literal_eval(node.value)
    text = " ".join(README.read_text(encoding="utf-8").split())
    section = text.split("## Tolerances ", 1)[1].split(" ## ", 1)[0]
    listed = {name: float(value) for name, value in
              re.findall(r"`(\w+\.[A-Z][A-Z0-9_]*_R?TOL)` = ([0-9.e+-]*[0-9])", section)}
    assert source, "no tolerance constant found in the source"
    assert {k: v for k, v in source.items() if listed.get(k) != v} == {}, "not in README"
    assert sorted(listed.keys() - source.keys()) == [], "in README but not in the source"


ANGLE_READS = {"phi1", "phi2", "phi3", "as_tuple"}


def _trig_of_stored_angles(tree: ast.Module, path: Path) -> list[str]:
    """Calls math.cos / math.sin (or np.cos / np.sin) whose argument reads a
    triple's angles: its ``phi1``, ``phi2``, ``phi3`` or ``as_tuple()``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("cos", "sin")
                and getattr(node.func.value, "id", None) in ("math", "np")):
            continue
        for arg in node.args:
            found += [f"{path.name}:{node.lineno} {node.func.attr}(... .{sub.attr})"
                      for sub in ast.walk(arg)
                      if isinstance(sub, ast.Attribute) and sub.attr in ANGLE_READS]
    return found


def _defined_or_imported(retired: set[str], paths) -> list[str]:
    """Each place a module of ``paths`` defines or imports a name of ``retired``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in retired]
    return found


def test_one_end_band():
    # A computed cosine is read on its own scale, so every end test reads
    # `moduli.REGION_TOL`: no module defines or imports a snap of end
    # cosines or a second end band, and classify compares no cosine (a
    # subscript, or a name holding "cos") against a bare 0.0 or 1.0.
    found = _defined_or_imported({"SNAP_TOL", "snapped", "_snap_into_strata", "BOUNDARY_TOL"},
                                 sorted(SRC.glob("*.py")))
    assert found == [], f"a snap of end cosines or a second end band: {found}"
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    bare = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Constant) and type(o.value) is float and o.value in (0.0, 1.0)
                    for o in operands)
                    and any(isinstance(o, ast.Subscript) or "cos" in ast.unparse(o)
                            for o in operands)):
                bare.append(f"classify.py:{node.lineno} {ast.unparse(node)}")
    assert bare == [], f"a cosine compared against a bare end value: {bare}"


def test_one_error_scale_for_the_discrete_gates():
    # The sign, Pbar and branch gates read C e / cos(phi) from the record's
    # error scale (`classify._Analysis.error`): no module defines or imports
    # a free tolerance for them, and classify imports no complex-structure
    # tolerance, which only the direct reference `pbar_operator` reads.
    found = _defined_or_imported({"SIGN_SYMMETRY_TOL", "SIGN_INVOLUTION_TOL", "BRANCH_TOL"},
                                 sorted(SRC.glob("*.py")))
    found += _defined_or_imported({"COMPLEX_STRUCTURE_TOL"}, [SRC / "classify.py"])
    assert found == [], f"a free tolerance on a discrete gate: {found}"


def test_no_cosine_of_a_triples_angle_outside_moduli():
    # A triple stores its cosines (`AngleTriple.cos_tuple`), and its angles are
    # their acos: the cosine of an angle read back from a triple is a round
    # trip that need not return the stored value.  Only `moduli`, where
    # the triple is defined, may make one.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "moduli.py":
            found += _trig_of_stored_angles(
                ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path)
    assert found == [], f"cos/sin of a triple's angle: {found}"


def test_no_acos_where_the_builders_read_cosines():
    # Every builder reads cosines, `representative` hands the cosines it is
    # given to them, and the CLI passes a single --cos value as given, so
    # no module takes an acos but `moduli`, in its angle view of a triple:
    # an angle anywhere else would only be turned back into its cosine.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "moduli.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "acos"]
    assert found == [], f"acos calls: {found}"


def test_moduli_imports_only_the_standard_library():
    # The triple, the existence rules and the strata run on Python
    # floats, so `moduli` loads with neither numpy nor another qka module.
    tree = ast.parse((SRC / "moduli.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "math" in imported
    assert [m for m in imported if m.split(".")[0] not in sys.stdlib_module_names] == []


T03 = AngleTriple.from_cosines([0.3, 0.3, 0.3])
EYE = np.eye(8, 4)
# (door, arguments, the argument its refusal names)
BAD_INPUTS = [
    *[(AngleTriple.from_cosines, (bad,), "cosines") for bad in (
        [0.5, 0.3], [0.5, 0.3, 0.1, 0.1], np.array([0.5, 0.3]), 0.5, "abc", b"abc",
        ["0.5", "0.3", "0.1"], [b"0.5", 0.3, 0.1], [True, 0.3, 0.1], [0.5j, 0.3, 0.1],
        [np.complex128(0.5), 0.3, 0.1])],
    *[(AngleTriple.from_cos2_eigenvalues, (bad,), "lams") for bad in ([0.25], [0.25] * 4)],
    *[(strata_for, args, name) for args, name in (
        ((True, 2), "k"), ((8.0, 8), "k"), (("8", 8), "k"), ((8, 2.5), "n"),
        ((8, False), "n"), ((8, np.float64(8)), "n"))],
    *[(moduli_membership, args, name) for args, name in (
        ((True, 8, T03), "k"), ((8, 8.0, T03), "n"), ((8, 8, (0.3,) * 3), "triple"),
        ((8, 8, None), "triple"))],
    *[(moduli_describe, args, name) for args, name in (
        ((3, 2.5), "n"), ((3.0, 4), "k"), ((np.True_, 4), "k"))],
    *[(representative, args, name) for args, name in (
        ((8.0, 8, T03, 1), "k"), ((8, "8", T03), "n"), ((8, 8, [0.3] * 3), "triple"))],
    *[(Subspace, (bad,), "basis") for bad in (
        EYE * (1 + 1j), EYE.astype(bool), EYE.astype(object), EYE.astype(str))],
    # The builders enter through `construct`, which checks each field a
    # family reads, and n; `gram_matrix` and `admissible` check the sign.
    *[(door, args, "sign") for door, args in (
        (construct_v3, (1.0, True, 3)), (construct_v3, (1.0, 1.0, 3)),
        (construct_v4, (T03, True, 4)), (construct_v4, (T03, -1.0, 4)),
        (gram_matrix, (T03, True)), (gram_matrix, (T03, 1.0)),
        (admissible, (T03, False)), (admissible, (T03, 1.0)))],
    *[(door, args, name) for door, args, name in (
        (construct_classical, ("totally_real", 3.0, 3), "k"),
        (construct_classical, ("quaternionic", True, 3), "k"),
        (construct_classical, ("im_h_line", 3.0, 3), "k"),
        (construct_classical, ("totally_real", 3, 3.0), "n"),
        (construct_v3, (1.0, 1, True), "n"), (construct_v4, (T03, 1, 4.0), "n"),
        (construct_sum, (T03, 1.0, 0, 4), "l_plus"), (construct_sum, (T03, 1, False, 4), "l_minus"),
        (construct_sum, (T03, 1, 0, 4.0), "n"))],
    *[(construct, (spec,), name) for spec, name in (
        (FamilySpec("totally_real", 3, k=3.0), "k"), (FamilySpec("totally_real", 3.0, k=3), "n"),
        (FamilySpec("sum_type", 4, angles=T03, l_plus=True), "l_plus"),
        (FamilySpec("sum_type", 4, angles=T03, l_plus=1, l_minus=0.0), "l_minus"),
        (FamilySpec("v3", 3, cos=0.5, sign=True), "sign"),
        (FamilySpec("v3", 3, cos="0.5", sign=1), "cos"),
        (FamilySpec("cka_plane_sum", 4, k=4, cos=True), "cos"),
        (FamilySpec("v4", 4, angles=(0.3,) * 3, sign=1), "angles"),
        (FamilySpec("exotic", 4), "family"))],
    (from_spanning, ([np.ones(8) * (1 + 1j), np.eye(8)[0]],), "vectors"),
    (from_spanning, ([np.eye(8)[0].astype(bool)],), "vectors"),
    (from_spanning, ([np.array(["1"] * 8)],), "vectors"),
    (from_spanning, ([np.eye(8)[0].astype(object)],), "vectors"),
    (Subspace(EYE).contains, (np.ones(8) * 1j,), "v"),
    # An angle is checked to be a real number before it is compared.
    (construct_v3, ("1.0", 1, 3), "phi"),
    (construct_classical, ("cka_plane_sum", 4, 4, "0.8"), "phi"),
    (AngleTriple, ("0.1", "0.2", "0.3"), "phi1"),
    (AngleTriple, (0.1, 0.2, b"0.3"), "phi3"),
    (gram_matrix, ((0.3,) * 3, 1), "angles"),
    (admissible, ((0.3,) * 3, 1), "angles"),
    (min_quaternionic_dim, ("x",), "spec"),
    (construct, ({"family": "v3", "n": 3},), "spec"),
    (random_group_element, (2.0, 0), "n"),
    (random_group_element, (2, 0.5), "seed"),
    (random_unitary, (True, 0), "n"),
    (random_unitary, (2, "0"), "seed"),
    (GroupElement, (np.array([1 + 1j, 0, 0, 0]), np.array([[[1.0, 0, 0, 0]]])), "q"),
    (GroupElement, (np.array([1.0, 0, 0, 0]), np.array([[[1 + 1j, 0, 0, 0]]])), "matrix"),
    (right_mult, (np.array([0, 1 + 1j, 0, 0]), np.eye(4)[0]), "j"),
    (load_subspace, (2**20,), "path"),  # open() would take it as a descriptor
    (random_group_element, (2, -1), "seed"),
    (random_unitary, (2, -1), "seed"),
    (right_mult, (True, np.eye(4)[0]), "j"),  # a bool is no basis index
    # The reference samplers check their sample count and seed.
    (joint_canonical_basis, (Subspace(EYE), 0), "samples"),
    (joint_canonical_basis, (Subspace(EYE), 10, -1), "seed"),
    (distribution_rank, (Subspace(EYE), 0), "samples"),
    (distribution_rank, (Subspace(EYE), 1.5), "samples"),
    (distribution_rank, (Subspace(EYE), 24, "0"), "seed"),
    (constancy_check, (Subspace(EYE), "x"), "samples"),
    (constancy_check, (Subspace(EYE), 2.5), "samples"),
    (constancy_check, (Subspace(EYE), 1), "samples"),
    (constancy_check, (Subspace(EYE), 500, 1.5), "seed"),
    (pbar_operator, (Subspace(EYE), STANDARD_BASIS, 1, "0.5"), "c"),
    (CanonicalBasis, (np.eye(3) * (1 + 0j),), "rotation"),
    (CanonicalBasis, (np.eye(3).astype(str),), "rotation"),
    (GroupElement.identity, (1.5,), "n"),
    (GroupElement.identity, (True,), "n"),
    (GroupElement.identity, (0,), "n"),
]


@pytest.mark.parametrize("door,args,name", BAD_INPUTS,
                         ids=[f"{d.__qualname__}-{i}" for i, (d, _, _) in enumerate(BAD_INPUTS)])
def test_bad_input_refused_by_name(door, args, name):
    # A ValueError naming the argument; a TypeError or an AttributeError fails.
    with pytest.raises(ValueError, match=rf"^{name} "):
        door(*args)


def test_numpy_values_pass_the_doors():
    assert AngleTriple.from_cosines(np.array([0.3, 0.3, 0.3])) == T03
    assert type(moduli_describe(np.int64(3), np.int64(4))["n"]) is int
    assert moduli_membership(np.int64(8), np.int32(8), T03) == moduli_membership(8, 8, T03)
    assert Subspace(EYE).basis is EYE  # a float array is not copied
    # A numpy int sign, k, n or block count builds what the Python int does.
    i64, i32 = np.int64, np.int32
    for numpy_built, built in (
            (construct_v3(1.2, i64(-1), i32(3)), construct_v3(1.2, -1, 3)),
            (construct_v4(T03, i32(-1), i64(4)), construct_v4(T03, -1, 4)),
            (construct_classical("quaternionic", i64(8), i32(2)),
             construct_classical("quaternionic", 8, 2)),
            (construct_classical("im_h_line", i64(3), i64(1)),
             construct_classical("im_h_line", 3, 1)),
            (construct_sum(T03, i64(1), i32(1), i64(8)), construct_sum(T03, 1, 1, 8)),
            (construct(FamilySpec("cka_plane_sum", i32(4), k=i64(4), cos=np.float64(0.5))),
             construct(FamilySpec("cka_plane_sum", 4, k=4, cos=0.5)))):
        assert numpy_built.basis.tobytes() == built.basis.tobytes()
    assert gram_matrix(T03, i64(-1)).tobytes() == gram_matrix(T03, -1).tobytes()
    assert admissible(T03, i32(-1)) == admissible(T03, -1)
    v3 = AngleTriple(1.2, 1.2, np.pi / 2)
    assert (representative(3, 3, v3, i64(-1)).basis.tobytes()
            == representative(3, 3, v3, -1).basis.tobytes())
    # The dtype rule that `Subspace` states refuses no float vector.
    vector = np.eye(8)[0]
    assert Subspace(np.eye(8, 1)).contains(vector)
    assert from_spanning([vector, np.eye(8)[1]]).k == 2
