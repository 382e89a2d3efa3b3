"""marlkit's modules import each other at module level only, without a cycle.

An import inside a function hides a dependency from the module's header, and
it is the usual way to dodge an import cycle. Eight more structural rules:
only the Actors plan tells a WrappedAgent from a one-slot agent, no function
rebinds a module-level name through a global statement, every private
module-level function or class is used somewhere in the package, only a
node whose output spans slots writes its own _obs (the others write _view, or
_group_view and _group_act, and the base classes own the slot loops), every
Kept an interface node builds is a self attribute, which Interface.reset
clears (so no _reset clears one itself), no module reaches object.__new__,
so every value is built by its constructor, which checks it and which
perfbench counts, only Interface.setup writes the seven slot layout
attributes of an interface, and only Env.__init__ writes the four of an
environment, which no class defines as a property or method. A ninth rule
keeps one check and one index of a mapping's keys: only values.key_layout
builds a KeyLayout, and no class keeps an index beside its layout. A tenth
keeps values write-once: object.__setattr__ appears only inside a
__post_init__, so nothing (a cache, say) is written into a frozen object
after it is built. An eleventh finds no import that its module never
reads (a name listed in __all__ is read), but for one named exception.
A twelfth keeps observations out of the transition: only Env.observe reads
the _observe hook, but for BomberEnv.legal_actions, so no _do_step or
_do_reset builds an observation. A thirteenth finds no assert statement,
as python -O strips them: every check in src raises a toolkit error. The
checks read each module's AST, so nothing is imported and no subprocess is
started.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _modules() -> dict[str, ast.Module]:
    """Dotted module name -> parsed source, for every module of the package."""
    out = {}
    for path in sorted((SRC / "marlkit").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return out


def _local_imports(tree: ast.Module) -> list[str]:
    """Each import statement nested in a function or class, as source text."""
    found = []

    def visit(node: ast.AST, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and nested:
                found.append(f"line {child.lineno}: {ast.unparse(child)}")
            visit(child, nested or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)))

    visit(tree, False)
    return found


def _imported(name: str, tree: ast.Module, modules: dict[str, ast.Module]) -> set[str]:
    """The package modules that module `name` imports at module level."""
    is_package = any(other.startswith(name + ".") for other in modules)
    package = name if is_package else name.rpartition(".")[0]
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            for alias in node.names:
                # `from package import module` imports the module, not the package.
                sub = f"{target}.{alias.name}"
                if sub in modules:
                    out.add(sub)
                elif target in modules:
                    out.add(target)
    out.discard(name)
    return out


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that starts and ends at the same module, or None."""
    state: dict[str, int] = {}  # 1 while on the DFS stack, 2 once finished
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state and (found := visit(nxt)):
                return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state and (found := visit(node)):
            return found
    return None


def _wrapped_agent_checks(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing class, line) of each isinstance(..., WrappedAgent) call."""
    found = []

    def names(node: ast.AST) -> set[str]:
        return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and "WrappedAgent" in names(child.args[1])):
                found.append((owner, child.lineno))
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def _referenced(node: ast.AST) -> set[str]:
    """The names node reads, the attributes it reads and the names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _unused_private(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each private module-level function or class that no
    other top-level statement of the package refers to."""
    statements = [(name, stmt) for name, tree in modules.items() for stmt in tree.body]
    used: dict[int, set[str]] = {id(stmt): _referenced(stmt) for _, stmt in statements}
    found = []
    for name, stmt in statements:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_") and not stmt.name.endswith("__")
                and not any(stmt.name in used[id(other)]
                            for _, other in statements if other is not stmt)):
            found.append(f"{name}.{stmt.name}")
    return found


def _definers(modules: dict[str, ast.Module], attr: str) -> list[str]:
    """module.Class of each class whose body defines or assigns attr."""
    found = []
    for name, tree in modules.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and stmt.name == attr)
                    or (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == attr for t in stmt.targets))
                    for stmt in cls.body):
                found.append(f"{name}.{cls.name}")
    return sorted(found)


def _interface_classes(modules: dict[str, ast.Module]) -> set[str]:
    """The names of Interface and of every class that derives from it, by base name."""
    classes = [cls for tree in modules.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)]
    names = {"Interface"}
    while True:
        more = {cls.name for cls in classes if cls.name not in names and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) in names
            for base in cls.bases)}
        if not more:
            return names
        names |= more


def _is_kept_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "Kept")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "Kept"))


def _on_self(stmt: ast.AST) -> bool:
    """Whether stmt assigns its value straight to one self.<name> attribute."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return False
    return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self")


def _memo_faults(modules: dict[str, ast.Module]) -> list[str]:
    """Each Kept(...) built in a method of an Interface subclass other than
    straight into a self attribute, and each .clear() call in a _reset."""
    interfaces = _interface_classes(modules)
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in interfaces:
                methods = [f for f in node.body
                           if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
                on_self = {id(stmt.value) for f in methods for stmt in ast.walk(f)
                           if _on_self(stmt)}
                found += [f"{name}.{node.name} line {call.lineno}: Kept off self"
                          for f in methods for call in ast.walk(f)
                          if _is_kept_call(call) and id(call) not in on_self]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_reset":
                found += [f"{name} line {call.lineno}: clear in _reset"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                          and call.func.attr == "clear"]
    return sorted(found)


# The slot layouts, which Interface.setup and Env.__init__ write once (see
# the docstrings of Interface and Env).
LAYOUT = frozenset(("raw_obs_specs", "raw_act_specs", "outer_obs_specs", "outer_act_specs",
                    "raw_slot_count", "outer_slot_count", "slot_groups"))
ENV_LAYOUT = frozenset(("observation_specs", "action_specs", "parties", "num_slots"))


def _layout_writes(modules: dict[str, ast.Module], layout: frozenset[str] = LAYOUT,
                   owner: tuple[str, str] = ("Interface", "setup")) -> list[str]:
    """Each write of a layout attribute outside the owner's method (class name,
    method name; an attribute store or delete, or a setattr call naming one),
    and each class whose body defines or binds a layout name."""
    found = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(name: str, node: ast.AST, cls: str | None, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for stmt in child.body:
                    bound = ({stmt.name} if isinstance(stmt, defs)
                             else {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                                   and isinstance(n.ctx, ast.Store)})
                    found.extend(f"{name}.{child.name} defines {attr}"
                                 for attr in sorted(bound & layout))
            attr = None
            if isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
                attr = child.attr
            elif (isinstance(child, ast.Call) and len(child.args) > 1
                  and getattr(child.func, "id", getattr(child.func, "attr", None))
                  in ("setattr", "__setattr__")
                  and isinstance(child.args[1], ast.Constant)):
                attr = child.args[1].value
            if attr in layout and (cls, func) != owner:
                found.append(f"{name} line {child.lineno}: {attr}")
            if isinstance(child, ast.ClassDef):
                visit(name, child, child.name, None)
            else:
                visit(name, child, cls, child.name if isinstance(child, defs) else func)

    for name, tree in modules.items():
        visit(name, tree, None, None)
    return sorted(found)


def _object_new_uses(tree: ast.Module) -> list[int]:
    """The line of each reference to object.__new__, called or not."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def _late_writes(tree: ast.Module) -> list[int]:
    """The line of each reference to object.__setattr__, called or not, whose
    innermost enclosing function (a def or lambda) is not a __post_init__."""
    found = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"
                    and func != "__post_init__"):
                found.append(child.lineno)
            visit(child, getattr(child, "name", "<lambda>") if isinstance(child, defs) else func)

    visit(tree, None)
    return sorted(found)


def _layout_builds(modules: dict[str, ast.Module]) -> list[str]:
    """module.owner of each reference to KeyLayout that may build one: a call,
    or the class handed on as a value (to a wrapper such as lru_cache, or
    bound to another name). The owner is the enclosing function (as
    Class.method in a class) or else the module-level name assigned. An
    annotation, an is/is not operand and isinstance's class argument only
    read the class."""
    found = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for name, tree in modules.items():
        reads = set()
        for node in ast.walk(tree):
            if isinstance(node, defs):
                args = node.args
                every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                notes = [a.annotation for a in every if a is not None] + [node.returns]
                reads.update(id(n) for note in notes if note is not None for n in ast.walk(note))
            elif isinstance(node, ast.AnnAssign):
                reads.update(id(n) for n in ast.walk(node.annotation))
            elif isinstance(node, ast.Compare) and all(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                reads.update(id(n) for n in (node.left, *node.comparators))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  in ("isinstance", "issubclass") and len(node.args) == 2):
                reads.update(id(n) for n in ast.walk(node.args[1]))

        def visit(node: ast.AST, owner: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if (getattr(child, "id", getattr(child, "attr", None)) == "KeyLayout"
                        and isinstance(child.ctx, ast.Load) and id(child) not in reads):
                    found.add(f"{name}.{owner}")
                if isinstance(child, (*defs, ast.ClassDef)):
                    inner = child.name if owner is None else f"{owner}.{child.name}"
                elif node is tree and isinstance(child, (ast.Assign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    inner = ", ".join(ast.unparse(t) for t in targets)
                else:
                    inner = owner
                visit(child, inner)

        visit(tree, None)
    return sorted(found)


def _index_beside_layout(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class: name for each class that binds a layout attribute and also
    a name ending in "index" (in its body or __slots__, as a self attribute,
    or through a setattr call on self naming it)."""
    found = []
    for name, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bound = set()
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    bound.update(t.id for t in targets if isinstance(t, ast.Name))
                    if any(getattr(t, "id", None) == "__slots__" for t in targets):
                        bound.update(n.value for n in ast.walk(stmt.value)
                                     if isinstance(n, ast.Constant) and isinstance(n.value, str))
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and getattr(node.value, "id", None) == "self"):
                    bound.add(node.attr)
                elif (isinstance(node, ast.Call) and len(node.args) > 1
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in ("setattr", "__setattr__")
                      and getattr(node.args[0], "id", None) == "self"
                      and isinstance(node.args[1], ast.Constant)):
                    bound.add(node.args[1].value)
            if "layout" in bound:
                found.extend(f"{name}.{cls.name}: {attr}" for attr in sorted(bound)
                             if isinstance(attr, str) and attr.endswith("index"))
    return sorted(found)


# Imported names that their module never reads, each with its reason.
UNUSED_IMPORTS = [
    # perfbench wraps replay.value_hash_hex, so it stays importable there
    # until ROADMAP item 1 PR A deletes it.
    "marlkit.replay.value_hash_hex",
]


def _unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each name a module binds by import and never reads; a
    name listed in the module's __all__ counts as read."""
    found = []
    for name, tree in modules.items():
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names if a.name != "*")
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for stmt in tree.body:  # each statement that names __all__ lists exports
            nodes = list(ast.walk(stmt))
            if any(isinstance(n, ast.Name) and n.id == "__all__" for n in nodes):
                read.update(n.value for n in nodes if isinstance(n, ast.Constant))
        found.extend(f"{name}.{b}" for b in sorted(bound - read))
    return found


def _observe_readers(modules: dict[str, ast.Module]) -> list[str]:
    """Where each read of an _observe attribute (a call, an alias or a getattr
    naming it) sits: module.Class.method, by the outermost function around it,
    or the module and line outside any function. A def of _observe is no read."""
    found = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(name: str, node: ast.AST, cls: str | None, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            read = isinstance(child, ast.Attribute) and child.attr == "_observe" and isinstance(
                child.ctx, ast.Load)
            read = read or (isinstance(child, ast.Call) and getattr(child.func, "id", None)
                            in ("getattr", "hasattr") and len(child.args) > 1
                            and isinstance(child.args[1], ast.Constant)
                            and child.args[1].value == "_observe")
            if read:
                found.append(".".join(filter(None, (name, cls, func))) if func
                             else f"{name} line {child.lineno}")
            if isinstance(child, ast.ClassDef):
                visit(name, child, child.name, None)
            else:
                visit(name, child, cls, func or (child.name if isinstance(child, defs) else None))

    for name, tree in modules.items():
        visit(name, tree, None, None)
    return sorted(found)


def _asserts(tree: ast.Module) -> list[int]:
    """The line of each assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_imports_inside_a_function():
    local = {name: found for name, tree in _modules().items()
             if (found := _local_imports(tree))}
    assert local == {}


def test_module_level_imports_have_no_cycle():
    modules = _modules()
    graph = {name: _imported(name, tree, modules) for name, tree in modules.items()}
    # The graph is read correctly: these edges are known to exist.
    assert {"marlkit.registry", "marlkit.replay"} <= graph["marlkit.harness"]
    assert "marlkit.envs.pong" in graph["marlkit.envs"]
    assert "marlkit.agents" in graph["marlkit.envs.pong"]
    assert _cycle(graph) is None


def test_cycle_finder_reports_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_no_global_statement():
    found = [f"{name} line {node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_only_the_actor_plan_dispatches_on_wrapped_agents():
    checks = [(name, owner) for name, tree in _modules().items()
              for owner, _ in _wrapped_agent_checks(tree)]
    assert checks == [("marlkit.wrappers", "Actors")]


def test_wrapped_agent_check_finder_sees_every_spelling():
    tree = ast.parse("class A:\n"
                     "    def f(self, x):\n"
                     "        return isinstance(x, (int, WrappedAgent))\n"
                     "isinstance(y, wrappers.WrappedAgent)\n"
                     "isinstance(z, WrappedEnv)\n")
    assert _wrapped_agent_checks(tree) == [("A", 3), (None, 4)]


def test_every_private_function_and_class_is_used():
    assert _unused_private(_modules()) == []


def test_unused_private_finder_sees_every_use():
    modules = {
        "a": ast.parse("def _dead(): return _dead()\n"
                       "def _called(): pass\n"
                       "class _Imported: pass\n"
                       "def _by_attribute(): pass\n"
                       "def __getattr__(name): pass\n"
                       "x = _called()\n"),
        "b": ast.parse("from a import _Imported\n"
                       "import a\n"
                       "y = a._by_attribute\n"),
    }
    assert _unused_private(modules) == ["a._dead"]


def test_only_nodes_whose_output_spans_slots_write_obs():
    modules = _modules()
    assert _definers(modules, "_obs") == [
        "marlkit.interfaces.Combine",
        "marlkit.interfaces.Interface",
        "marlkit.interfaces._Partitioned",
        "marlkit.wrappers.LiftedWrapper",
    ]
    # The partition nodes write only their group rules.
    act = _definers(modules, "_act")
    assert "marlkit.interfaces.MakeTeam" not in act
    assert "marlkit.interfaces.ConcatObsAct" not in act
    assert "marlkit.interfaces.MakeTeam" in _definers(modules, "_group_view")


def test_definer_finder_sees_methods_and_assignments_in_classes_only():
    modules = {"m": ast.parse("class A:\n"
                              "    def _obs(self): pass\n"
                              "class B:\n"
                              "    _obs = print\n"
                              "class C:\n"
                              "    def _view(self): pass\n"
                              "    def f(self):\n"
                              "        def _obs(): pass\n"
                              "def _obs(): pass\n")}
    assert _definers(modules, "_obs") == ["m.A", "m.B"]


def test_interface_memos_are_self_attributes_that_reset_clears():
    modules = _modules()
    assert {"BoardMapObs", "RotateView", "Img5IObs", "DeadPadding",
            "LiftedWrapper"} <= _interface_classes(modules)
    assert _memo_faults(modules) == []


def test_memo_fault_finder_sees_every_spelling():
    modules = {
        "a": ast.parse("class Node(Interface):\n"
                       "    def _setup(self, n):\n"
                       "        self._a = Kept()\n"
                       "        self._b: Kept = values.Kept(n)\n"
                       "        self._c = [Kept() for _ in range(n)]\n"
                       "        kept = Kept()\n"
                       "        self.x.y = Kept()\n"
                       "        self._d = other = Kept()\n"
                       "    def _reset(self, obs):\n"
                       "        self._a.clear()\n"),
        "b": ast.parse("from a import Node\n"
                       "class Leaf(a.Node):\n"
                       "    def _view(self, view, slot):\n"
                       "        return Kept().get(slot, len, view)\n"
                       "class Agent:\n"
                       "    def setup(self):\n"
                       "        self._parts = [Kept()]\n"
                       "    def _reset(self):\n"
                       "        self._memo.clear()\n"
                       "def _reset(x):\n"
                       "    x.clear()\n"),
    }
    assert _interface_classes(modules) == {"Interface", "Node", "Leaf"}
    assert _memo_faults(modules) == [
        "a line 10: clear in _reset",
        "a.Node line 5: Kept off self",
        "a.Node line 6: Kept off self",
        "a.Node line 7: Kept off self",
        "a.Node line 8: Kept off self",
        "b line 11: clear in _reset",
        "b line 9: clear in _reset",
        "b.Leaf line 4: Kept off self",
    ]


def test_only_interface_setup_writes_the_slot_layout():
    modules = _modules()
    assert _layout_writes(modules) == []
    # Interface.setup writes all seven, so the finder reads the real tree.
    stores = {n.attr for n in ast.walk(modules["marlkit.interfaces"])
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
    assert LAYOUT <= stores


def test_layout_write_finder_sees_every_spelling():
    modules = {
        "a": ast.parse("class Interface:\n"
                       "    def setup(self):\n"
                       "        self.slot_groups = ()\n"
                       "        self.raw_obs_specs, self.raw_act_specs = (), ()\n"
                       "    def _setup(self):\n"
                       "        self.outer_obs_specs = ()\n"
                       "        (self.raw_slot_count, x) = 1, 2\n"
                       "        self.outer_slot_count += 1\n"
                       "        del self.slot_groups\n"
                       "        setattr(self, 'outer_act_specs', ())\n"
                       "        object.__setattr__(self, 'slot_groups', ())\n"
                       "        return self.outer_obs_specs\n"),
        "b": ast.parse("class Node(Interface):\n"
                       "    outer_act_specs: tuple = ()\n"
                       "    @property\n"
                       "    def slot_groups(self): pass\n"
                       "    def raw_slot_count(self): pass\n"
                       "    def setup(self):\n"
                       "        self.raw_obs_specs = ()\n"
                       "def setup(itf):\n"
                       "    itf.slot_groups = ()\n"
                       "    for itf.outer_obs_specs in []: pass\n"
                       "class Interface:\n"
                       "    class Inner:\n"
                       "        def f(self): self.slot_groups = ()\n"
                       "    def setup(self):\n"
                       "        def later(): self.slot_groups = ()\n"),
    }
    assert _layout_writes(modules) == [
        "a line 10: outer_act_specs",
        "a line 11: slot_groups",
        "a line 6: outer_obs_specs",
        "a line 7: raw_slot_count",
        "a line 8: outer_slot_count",
        "a line 9: slot_groups",
        "b line 10: outer_obs_specs",
        "b line 13: slot_groups",
        "b line 15: slot_groups",
        "b line 7: raw_obs_specs",
        "b line 9: slot_groups",
        "b.Node defines outer_act_specs",
        "b.Node defines raw_slot_count",
        "b.Node defines slot_groups",
    ]


def test_only_env_init_writes_the_env_slot_layout():
    modules = _modules()
    assert _layout_writes(modules, ENV_LAYOUT, ("Env", "__init__")) == []
    # Env.__init__ writes all four, so the finder reads the real tree.
    stores = {n.attr for n in ast.walk(modules["marlkit.env"])
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
    assert ENV_LAYOUT <= stores


def test_env_layout_write_finder_sees_every_spelling():
    modules = {"a": ast.parse("class Env:\n"
                              "    def __init__(self):\n"
                              "        self.parties = ()\n"
                              "    def reset(self):\n"
                              "        self.num_slots = 1\n"
                              "class PongEnv(Env):\n"
                              "    @property\n"
                              "    def observation_specs(self): pass\n"
                              "    action_specs = ()\n"
                              "    def __init__(self):\n"
                              "        self.parties = ()\n"
                              "        setattr(self, 'num_slots', 2)\n"
                              "def wrap(env):\n"
                              "    env.action_specs += ()\n")}
    assert _layout_writes(modules, ENV_LAYOUT, ("Env", "__init__")) == [
        "a line 11: parties",
        "a line 12: num_slots",
        "a line 14: action_specs",
        "a line 5: num_slots",
        "a.PongEnv defines action_specs",
        "a.PongEnv defines observation_specs",
    ]


def test_no_value_skips_its_constructor():
    found = {name: lines for name, tree in _modules().items()
             if (lines := _object_new_uses(tree))}
    assert found == {}


def test_object_new_finder_sees_calls_and_aliases():
    tree = ast.parse("v = object.__new__(VectorV)\n"
                     "class A:\n"
                     "    new = object.__new__\n"
                     "    def __new__(cls):\n"
                     "        return super().__new__(cls)\n"
                     "object.__setattr__(v, 'x', 1)\n"
                     "tuple.__new__(tuple)\n")
    assert _object_new_uses(tree) == [1, 3]


def test_no_object_is_written_after_its_post_init():
    modules = _modules()
    found = {name: lines for name, tree in modules.items() if (lines := _late_writes(tree))}
    assert found == {}
    # The finder reads the real tree: every value conversion writes this way.
    assert any(isinstance(node, ast.Attribute) and node.attr == "__setattr__"
               for node in ast.walk(modules["marlkit.values"]))


def test_late_write_finder_sees_calls_aliases_and_nested_functions():
    tree = ast.parse("class V:\n"
                     "    def __post_init__(self):\n"
                     "        object.__setattr__(self, 'x', 1)\n"
                     "        def later(v):\n"
                     "            object.__setattr__(v, 'y', 2)\n"
                     "        self.f = lambda: object.__setattr__(self, 'z', 3)\n"
                     "    def canonical_bytes(self):\n"
                     "        object.__setattr__(self, '_cb', b'')\n"
                     "write = object.__setattr__\n"
                     "super().__setattr__('x', 1)\n"
                     "setattr(v, 'x', 1)\n"
                     "object.__new__(V)\n")
    assert _late_writes(tree) == [5, 6, 8, 9]


def test_only_key_layout_builds_a_key_layout_and_no_class_keeps_an_index_beside_it():
    modules = _modules()
    # key_layout builds one, directly or through its lru_cache of the class.
    assert _layout_builds(modules) == ["marlkit.values._shared_layout", "marlkit.values.key_layout"]
    assert _index_beside_layout(modules) == []
    # The finder reads the real tree: MappingV and MappingSpec hold a layout.
    holders = {cls.name for cls in ast.walk(modules["marlkit.values"])
               if isinstance(cls, ast.ClassDef) and any(
                   isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "layout"
                   for stmt in cls.body)}
    assert holders == {"MappingV", "MappingSpec"}


def test_key_layout_finders_see_every_spelling():
    modules = {
        "values": ast.parse("class KeyLayout:\n"
                            "    def __init__(self, keys): pass\n"
                            "shared = lru_cache(KeyLayout)\n"
                            "def key_layout(keys) -> KeyLayout:\n"
                            "    return KeyLayout(keys)\n"
                            "def check(layout: KeyLayout, x: values.KeyLayout | None = None):\n"
                            "    y: KeyLayout = layout\n"
                            "    return type(layout) is KeyLayout or isinstance(x, (KeyLayout, int))\n"),
        "env": ast.parse("class Env:\n"
                         "    def setup(self):\n"
                         "        self.layout = values.KeyLayout(('a',))\n"
                         "        make = KeyLayout\n"
                         "def build(keys):\n"
                         "    return list(map(KeyLayout, keys))\n"
                         "LAYOUTS = {'a': KeyLayout(('a',))}\n"),
        "spec": ast.parse("class A:\n"
                          "    layout: KeyLayout = None\n"
                          "    _index: dict = None\n"
                          "class B:\n"
                          "    __slots__ = ('layout', 'key_index')\n"
                          "class C:\n"
                          "    def __init__(self):\n"
                          "        self.layout = None\n"
                          "        object.__setattr__(self, '_index', {})\n"
                          "class D:\n"
                          "    @property\n"
                          "    def layout(self): pass\n"
                          "    def __post_init__(self):\n"
                          "        setattr(self, 'by_index', {})\n"
                          "class KeyLayout:\n"
                          "    __slots__ = ('keys', 'index')\n"
                          "class E:\n"
                          "    layout = None\n"
                          "    def f(self, other):\n"
                          "        other._index = {}\n"),
    }
    assert _layout_builds(modules) == ["env.Env.setup", "env.LAYOUTS", "env.build",
                                       "values.key_layout", "values.shared"]
    assert _index_beside_layout(modules) == ["spec.A: _index", "spec.B: key_index",
                                             "spec.C: _index", "spec.D: by_index"]


def test_src_holds_no_unused_import():
    assert _unused_imports(_modules()) == UNUSED_IMPORTS


def test_unused_import_finder_sees_aliases_dotted_imports_and_all():
    modules = {
        "a": ast.parse("from __future__ import annotations\n"
                       "import os.path\n"
                       "import json as js\n"
                       "import re\n"
                       "from math import pi, tau as turn, e, inf\n"
                       "from .b import *\n"
                       "__all__ = ['e']\n"
                       "__all__ += ['inf']\n"
                       "def f(x: re.Pattern):\n"
                       "    pi = 3\n"
                       "    return os.path.join(x)\n"),
        "b": ast.parse("from a import js, pi\n"
                       "js.dumps(pi)\n"),
    }
    assert _unused_imports(modules) == ["a.js", "a.pi", "a.turn"]


def test_only_env_observe_builds_observations():
    # No _do_step or _do_reset builds an observation: a caller that needs
    # only the transition (replay_verify, render) never pays for one.
    # BomberEnv.legal_actions reads its own view of the current state.
    assert _observe_readers(_modules()) == ["marlkit.env.Env.observe",
                                            "marlkit.envs.bomber.BomberEnv.legal_actions"]


def test_observe_reader_finder_sees_every_spelling():
    modules = {"a": ast.parse("class Env:\n"
                              "    def observe(self):\n"
                              "        return self._observe()\n"
                              "    def _observe(self): pass\n"
                              "class PongEnv(Env):\n"
                              "    def _do_step(self, actions):\n"
                              "        return StepResult(obs=self._observe())\n"
                              "    def _do_reset(self, seed):\n"
                              "        build = self._observe\n"
                              "        later = lambda: getattr(self, '_observe')()\n"
                              "        def inner():\n"
                              "            return super()._observe()\n"
                              "    def _observe(self):\n"
                              "        self._observe = None\n"
                              "        return hasattr(self, '_observe')\n"
                              "env._observe()\n")}
    assert _observe_readers(modules) == [
        "a line 16",
        "a.Env.observe",
        "a.PongEnv._do_reset",
        "a.PongEnv._do_reset",
        "a.PongEnv._do_reset",
        "a.PongEnv._do_step",
        "a.PongEnv._observe",
    ]


def test_src_holds_no_assert_statement():
    found = {name: lines for name, tree in _modules().items() if (lines := _asserts(tree))}
    assert found == {}


def test_assert_finder_sees_assert_statements_at_any_depth():
    tree = ast.parse("assert x\n"
                     "class A:\n"
                     "    def f(self):\n"
                     "        if self.y:\n"
                     "            assert self.y, 'y'\n"
                     "        lambda: assertions\n"
                     "        self.assertEqual(1, 1)\n"
                     "        raise AssertionError('z')\n")
    assert _asserts(tree) == [1, 5]
