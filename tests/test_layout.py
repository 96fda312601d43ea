"""Every public function, class and method under src/gibbsgap has a caller
outside the tests.

A top-level function or class has a caller when code that runs uses it: a
bare-name use in its own module, a use of its imported name or a
``module.name`` reference in another module of the package, or an entry in
the benchmark tracer's ``LAYERS`` (perfbench/tracing.py).  Module-level code
and the ``LAYERS`` entries run; a use inside a function or class counts only
when that function or class has a caller itself, so a helper that only dead
code uses is dead too.  A public method has a caller when any ``.name``
attribute reference to it appears under src/.

Every function, class and method defined under src/gibbsgap, private ones
too and dunders aside, is named somewhere under src/ (as a bare name or an
attribute) or in ``LAYERS``.

Every module under src/gibbsgap and tests/ also uses each name it imports.
``from __future__`` imports are exempt, and so is a name that ``LAYERS``
lists for the importing module: the tracer looks it up there.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gibbsgap"
TESTS = ROOT / "tests"
TRACING = ROOT / "perfbench" / "tracing.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _layers():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS in %s" % TRACING)


class _Module:
    def __init__(self, tree, packages):
        self.tree = tree
        self.defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
        self.imported = {}  # local name -> (module, name) it was imported from
        self.aliases = {}  # local name -> package module it names
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and not (node.module or "").startswith("gibbsgap"):
                continue
            source = (node.module or "").removeprefix("gibbsgap").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "" and alias.name in packages:
                    self.aliases[local] = alias.name
                elif source in packages:
                    self.imported[local] = (source, alias.name)
        self.toplevel = [node for node in tree.body
                         if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom))]


def _unreached():
    packages = {p.stem for p in SRC.glob("*.py")}
    modules = {name: _Module(ast.parse((SRC / (name + ".py")).read_text()), packages)
               for name in packages}

    def resolve(module, name):
        while name in modules[module].imported:
            module, name = modules[module].imported[name]
        return (module, name) if name in modules[module].defs else None

    def uses(module, nodes):
        found = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                found.add(resolve(module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules[module].aliases):
                found.add(resolve(modules[module].aliases[node.value.id], node.attr))
        found.discard(None)
        return found

    todo = {resolve(module, name) for module, names in _layers().items() for name in names}
    for name, module in modules.items():
        todo |= uses(name, module.toplevel)
    todo.discard(None)
    reached = set()
    while todo:
        key = todo.pop()
        reached.add(key)
        todo |= uses(key[0], [modules[key[0]].defs[key[1]]]) - reached

    attributes = {node.attr for module in modules.values() for node in ast.walk(module.tree)
                  if isinstance(node, ast.Attribute)}
    unreached = []
    for name, module in sorted(modules.items()):
        for fname, node in module.defs.items():
            if fname.startswith("_"):
                continue
            if (name, fname) not in reached:
                unreached.append("%s.%s" % (name, fname))
            if isinstance(node, ast.ClassDef):
                unreached += ["%s.%s.%s" % (name, fname, m.name) for m in node.body
                              if isinstance(m, DEFS) and not m.name.startswith("_")
                              and m.name not in attributes]
    return unreached


def test_every_public_name_in_src_has_a_caller():
    unreached = _unreached()
    assert not unreached, "only tests reach: " + ", ".join(unreached)


def test_every_definition_in_src_is_named_in_src():
    # private helpers and methods too: only a dunder is called without its name in
    # the source, and the tracer looks up the names in LAYERS
    named = {name for names in _layers().values() for name in names}
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, DEFS) and not node.name.startswith("__"):
                defined.append("%s.%s" % (path.stem, node.name))
    unnamed = [key for key in defined if key.partition(".")[2] not in named]
    assert not unnamed, "nothing under src/ names: " + ", ".join(unnamed)


def _unused_imports(tree, exempt):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if local not in used and local not in exempt:
                    yield local


def test_every_import_is_used():
    layers = _layers()
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        exempt = layers.get(path.stem, ()) if path.parent == SRC else ()
        unused += ["%s imports %s" % (path.relative_to(ROOT), name)
                   for name in _unused_imports(ast.parse(path.read_text()), exempt)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_state_cap_checked_only_where_targets_are_loaded():
    # the commands decide which target is too big; what computes on a target takes it as given
    callers = sorted(path.stem for path in SRC.glob("*.py")
                     if any(isinstance(node, ast.Call) and getattr(node.func, "id", None)
                            == "check_state_cap" for node in ast.walk(ast.parse(path.read_text()))))
    assert callers == ["cli", "measure"]
    assert "state_cap" not in (SRC / "operators.py").read_text()


def test_geometry_draws_no_random_numbers():
    # the open-bracket restarts start from the dual's eigenvectors, so the
    # inclination depends on no seed
    tree = ast.parse((SRC / "geometry.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"random", "default_rng", "Generator", "RandomState"}
