"""The package ships only what the system runs.

Every top-level function, class and method under src/affectseq must be
referenced, as a name or an attribute, somewhere in src/ or perfbench/
outside its own definition. Code reached only from tests belongs in
tests/. Dunder methods are exempt: the language calls them. Likewise
every attribute a method stores on `self` must be read, as an
attribute, somewhere in src/ or perfbench/.

The graph engine's rule tables are subscripted at one place each,
broadcast gradients are summed down at one place, stored arrays are
read in one module, `codec`, with no text encoding, each loader reads
its file's arrays with one call, the video generator's per-frame loop
makes no numpy call, and neither do the head's loss graph builders.
Each video invariant's message is written once.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affectseq"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _referenced_names(tree):
    """Counter of every Name id and Attribute attr under `tree`."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_src_definition_is_used_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _referenced_names(node)[name]:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined in src/ but used only by tests: " + ", ".join(unused)


def _stored_self_attributes(tree):
    """(line, name) of every `self.<name>` an assignment stores to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name) and t.value.id == "self"):
                    yield t.lineno, t.attr


def test_every_stored_self_attribute_is_read():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{line} self.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, name in _stored_self_attributes(trees[path]) if name not in read]
    assert not unread, "stored on self in src/ but never read: " + ", ".join(unread)


def test_rule_tables_have_one_dispatch_point():
    # the graph engine looks each rule up in one place, when it compiles
    # its plan, so a per-op profile has one call site to time
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    subscripted = Counter(node.value.id for node in ast.walk(tree)
                          if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name))
    assert subscripted["_FORWARD"] == 1
    assert subscripted["_BACKWARD"] == 1


def test_broadcast_gradients_are_summed_at_one_place():
    # the elementwise rules return gradients of the output's shape and
    # backward sums one down only where its parent's shape differs
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_unbroadcast"]
    assert len(calls) == 1, f"_unbroadcast called at lines {calls}"


def test_stored_arrays_have_one_reader():
    # every stored array is read through codec.Reader, one path of byte
    # count and finite checks; text encodings of arrays are gone
    importers, readers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "base64" for m in modules):
                importers.append(path.name)
        if "readinto" in _referenced_names(tree):
            readers.append(path.name)
    assert importers == [], importers
    assert readers == ["codec.py"], readers


def test_each_loader_reads_its_arrays_in_one_call():
    # codec.Reader has one read method, and each loader calls it once,
    # outside any loop, for every array of its file
    codec = ast.parse((PACKAGE / "codec.py").read_text())
    reader = next(node for node in codec.body
                  if isinstance(node, ast.ClassDef) and node.name == "Reader")
    assert [m.name for m in reader.body if isinstance(m, ast.FunctionDef)
            and m.name.startswith("read")] == ["read_arrays"]
    loaders = {"checkpoint.py": ["load_checkpoint"], "data.py": ["_load_frames", "_load_videos"]}
    for module, names in loaders.items():
        tree = ast.parse((PACKAGE / module).read_text())
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        calling = sorted(name for name, func in funcs.items()
                         if "read_arrays" in _referenced_names(func))
        assert calling == names, (module, calling)
        for name in names:
            calls = [node for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute) and node.func.attr == "read_arrays"]
            assert len(calls) == 1, name
            loops = [node for node in ast.walk(funcs[name])
                     if isinstance(node, (ast.For, ast.While, ast.comprehension))]
            assert not any(call in ast.walk(loop) for loop in loops for call in calls), name


def test_trajectory_loop_makes_no_numpy_call():
    # the valence-arousal recurrence draws its noise in one call before
    # the loop; a numpy call per frame costs most of gen at the paper shape
    tree = ast.parse((PACKAGE / "data.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_affect_trajectory")
    loops = [node for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]
    assert loops, "_affect_trajectory has no per-frame loop to check"
    calls = [f"line {call.lineno}: {ast.unparse(call.func)}"
             for loop in loops for stmt in loop.body for call in ast.walk(stmt)
             if isinstance(call, ast.Call)
             and {"np", "rng"} & {n.id for n in ast.walk(call.func) if isinstance(n, ast.Name)}]
    assert not calls, "numpy call inside the per-frame loop: " + ", ".join(calls)


def test_head_loss_builders_make_no_numpy_call():
    # the head's loss graphs are cached per (batch size, present terms) and
    # the batch is bound through placeholders; a numpy call while building
    # would bake one batch's data into a graph that serves many
    tree = ast.parse((PACKAGE / "affect_head.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = ("weighted_va_ccc_loss_node", "cross_entropy_node", "binary_cross_entropy_node",
                "head_loss_graph")
    calls = [f"{name} line {call.lineno}: {ast.unparse(call.func)}"
             for name in builders for call in ast.walk(funcs[name])
             if isinstance(call, ast.Call)
             and "np" in {n.id for n in ast.walk(call.func) if isinstance(n, ast.Name)}]
    assert not calls, "numpy call in a head loss builder: " + ", ".join(calls)


def test_each_video_invariant_is_written_once():
    # one pass judges every video against each invariant; a second copy
    # of an invariant could disagree with the first on a damaged file
    sources = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    messages = ("bad intensity label", "padded rows are not zero", "va block outside [-1, 1]",
                "expr block has negative mass", "expr block does not sum to 1",
                "au block outside [0, 1]")
    counts = {message: sources.count(message) for message in messages}
    assert all(count == 1 for count in counts.values()), counts
