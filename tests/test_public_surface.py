"""Every public name in `src/opmagic` has a caller outside the tests, or a reason on the allowlist.

A public function, class, method or property passes when the code of
`src/opmagic` (outside its own definition), `perfbench/` or `scripts/`
uses it, as `ast` reads that code. A function or class is used by a loaded
name, unless the function that loads it binds that name itself (an
argument or an assignment), by an import, and by an attribute load on an
imported name (`cli.main`); a method or property by any attribute load.
So an attribute of an object that shares a function's name (`rep.purity`
for a function `purity`) calls only a method. Keyword argument names,
assignment targets, strings and comments do not count, and neither does
the package's `__init__.py`, whose imports only re-export. A name with no
such caller must be on ALLOWLIST with the reason it stays. The list may
only shrink: an allowlisted name that gains a caller, or that no longer
exists, fails the test too.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opmagic"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")

_DENSE_ORACLE = "the dense oracle the engine is tested against"
_XXZ_REFERENCE = "a reference that test_xxz.py and test_dense.py compare the XXZ brickwork against"
_PAPER_QUANTITY = "a paper quantity; ROADMAP items 4, 10 and 11 give it a caller"
_OPERATOR_ALGEBRA = "operator algebra of the acceptance criteria and of ROADMAP item 3's hand-back"

ALLOWLIST = {
    "dense.pauli_spectrum": _DENSE_ORACLE,
    "dense.state_sre": _DENSE_ORACLE,
    "xxz.commuted_operator": _XXZ_REFERENCE,
    "xxz.two_site_unitary": _XXZ_REFERENCE,
    "xxz.saturation_value": _PAPER_QUANTITY,
    "measures.t_count_lower_bound": _PAPER_QUANTITY,
    "haar.relative_fluctuation": _PAPER_QUANTITY,
    "haar.asymptotic_ose": _PAPER_QUANTITY,
    "haar.mc_average_ose": _PAPER_QUANTITY,
    "paulis.SparseOperator.tensor": _OPERATOR_ALGEBRA,
    "paulis.SparseOperator.relabel_sites": _OPERATOR_ALGEBRA,
    "paulis.SparseOperator.coefficient": _OPERATOR_ALGEBRA,
    "paulis.TruncationResult.choi_normalized": _OPERATOR_ALGEBRA,
}


def _public(name):
    return not name.startswith("_")


def public_definitions(package=PACKAGE):
    """(qualified name, bare name, path, first line, last line) of every public
    top-level function and class of the package, and of every public method
    and property of a public class."""
    found = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.append((f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        qualified = f"{module}.{node.name}.{item.name}"
                        found.append((qualified, item.name, path, item.lineno, item.end_lineno))
    return found


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module or a function, but for those inside the
    functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def uses(directories):
    """{path: [(kind, name, line)]} of the directories' modules, but for
    those named `__init__.py`. The kind is "name" for a loaded name that its
    function does not bind and for an imported one, "module attribute" for
    an attribute load whose chain starts at an imported name, and
    "attribute" for any other attribute load."""
    found = {}
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
            found[path] = []
            for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]:
                nodes = list(_own_nodes(scope))
                bound = set()
                if isinstance(scope, _FUNCTIONS):
                    bound = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
                    bound |= {node.id for node in nodes if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
                for node in nodes:
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
                        found[path].append(("name", node.id, node.lineno))
                    elif isinstance(node, ast.alias):
                        found[path].append(("name", node.name, node.lineno))
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        root = node.value
                        while isinstance(root, ast.Attribute):
                            root = root.value
                        of_module = isinstance(root, ast.Name) and root.id in imported
                        found[path].append(("module attribute" if of_module else "attribute", node.attr, node.lineno))
    return found


def uncalled(package=PACKAGE, directories=CALLER_DIRS):
    """The qualified names of the package's public definitions without a caller."""
    found = uses(directories)
    missing = []
    for qualified, name, path, first, last in public_definitions(package):
        method = qualified.count(".") == 2
        kinds = ("module attribute", "attribute") if method else ("module attribute", "name")
        if not any(kind in kinds and used == name and not (where == path and first <= line <= last)
                   for where, used_here in found.items() for kind, used, line in used_here):
            missing.append(qualified)
    return missing


def test_every_public_name_has_a_caller_or_a_reason():
    assert sorted(set(uncalled()) - set(ALLOWLIST)) == []


def test_the_allowlist_holds_only_names_without_a_caller():
    defined = {qualified for qualified, *_ in public_definitions()}
    assert sorted(set(ALLOWLIST) - defined) == [], "allowlisted names that no longer exist"
    assert sorted(set(ALLOWLIST) - set(uncalled())) == [], "allowlisted names that gained a caller"


def test_only_a_name_outside_the_definition_is_a_caller(tmp_path):
    package, scripts = tmp_path / "package", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "m.py").write_text(
        "class Box:\n    def size(self):\n        return 1\n\n    def _inner(self):\n        return 0\n\n\n"
        "def recursive():\n    return recursive()  # named, Box\n\n\n"
        "def named():\n    return 'named'\n\n\n"
        "def called():\n    return 2\n"
    )
    (package / "__init__.py").write_text("from .m import named\n")
    (scripts / "s.py").write_text("from package.m import Box, called\n\nprint(Box().size(), called())\n")
    assert uncalled(package, [package, scripts]) == ["m.recursive", "m.named"]
    # a caller inside the package counts as one from scripts does; a re-export does not
    assert uncalled(package, [package]) == ["m.Box", "m.Box.size", "m.recursive", "m.named", "m.called"]


def test_a_keyword_or_a_variable_of_the_same_name_is_no_caller(tmp_path):
    package, scripts = tmp_path / "package", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "m.py").write_text(
        "class Report:\n    def purity(self):\n        return 1.0\n\n    def size(self):\n        return 0\n\n\n"
        "def weight():\n    return 2\n\n\n"
        "def scale():\n    return 3\n\n\n"
        "def level():\n    return 4\n\n\n"
        "def mean():\n    return 5\n"
    )
    (scripts / "s.py").write_text(
        "import package.m\nfrom package.m import Report\n\n"
        "purity = level = 0.5\nprint(purity, level)\n\n\n"
        "def score(report, weight):\n    size = report.size()\n    return Report(purity=purity), weight, size, report.mean\n\n\n"
        "def total():\n    weight = 1\n    return weight + package.m.scale()\n"
    )
    # a keyword, an argument and a local variable call nothing; a loaded
    # name calls a function but not a method, which only an attribute calls;
    # an attribute calls a function only on an imported name
    assert uncalled(package, [scripts]) == ["m.Report.purity", "m.weight", "m.mean"]
