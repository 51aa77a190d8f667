"""Static checks on the package source that no installed linter makes."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "langtail"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    A name counts as read if it appears as an identifier anywhere in the
    module (an attribute chain's root is one). `from __future__` imports
    bind no name.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f(x: np.ndarray):\n    return os.path.join(field(), x)\n")
    assert unused_imports(source) == ["dataclass"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """"function:parameter" for each parameter of a function or lambda that
    its body never reads. A read inside a nested function or lambda counts;
    names that start with `_` are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{p}" for p in params if not p.startswith("_") and p not in read]
    return unread


def test_unread_parameters_finds_a_leftover():
    source = ("def f(cfg, counts, _unused, *args, key=None, **kw):\n"
              "    g = lambda x, y: x\n"
              "    return counts, args, kw, g(key, 0)\n")
    assert unread_parameters(source) == ["f:cfg", "lambda:y"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def row_block_reads(source: str) -> list[str]:
    """The function (or "<module>") of each read of ROW_BLOCK, by name,
    attribute or import, outside row_blocks: every row-blocked pass takes its
    blocks from evaluation.row_blocks. A nested function counts as its own."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        names = ([node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else
                 [node.attr] if isinstance(node, ast.Attribute) else
                 [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
        if "ROW_BLOCK" in names and where != "row_blocks":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_row_block_reads_finds_a_leftover():
    source = ("from .evaluation import ROW_BLOCK\n"
              "from . import evaluation as ev\n"
              "ROW_BLOCK = 512\n"
              "def row_blocks(n):\n    return range(0, n, ROW_BLOCK)\n"
              "def scan(x):\n    def inner():\n        return ev.ROW_BLOCK\n"
              "    return x[:ROW_BLOCK], inner\n")
    assert row_block_reads(source) == ["<module>", "inner", "scan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_row_blocks_reads_row_block(path):
    assert row_block_reads(path.read_text()) == []


def mask_reads(source: str) -> list[str]:
    """The function (or "<module>") of each read of a `.masks` attribute
    outside mask_incidence: the bank and the training anchors pool masks
    through its incidence matrices. A nested function counts as its own."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == "masks" and where != "mask_incidence":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_mask_reads_finds_a_leftover():
    source = ("FIRST = ENTITIES[0].masks\n"
              "def mask_incidence(scenes, entities):\n"
              "    return [e.masks for e in entities]\n"
              "def pool(e):\n    def inner():\n        return len(e.masks)\n"
              "    return [idx for _, idx in e.masks], inner\n")
    assert mask_reads(source) == ["<module>", "inner", "pool"]


@pytest.mark.parametrize("name", ["bank.py", "train.py"])
def test_only_mask_incidence_reads_masks(name):
    assert mask_reads((SRC / name).read_text()) == []


def incidence_builds(source: str) -> list[str]:
    """The function (or "<module>") of each call of mask_incidence, by name or
    attribute, or of a .tocsr() conversion, outside Trainer.__init__: a run
    builds each scene's incidence matrix and its transpose's row blocks once,
    and the bank pass and training steps read them. A method is
    "Class.method"; a nested function counts as its own."""
    found = []

    def visit(node, where, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, cls = f"{cls}.{node.name}" if cls else node.name, None
        called = ({getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                  if isinstance(node, ast.Call) else set())
        if where != "Trainer.__init__" and called & {"mask_incidence", "tocsr"}:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, cls)

    visit(ast.parse(source), "<module>", None)
    return found


def test_incidence_builds_finds_a_leftover():
    source = ("M = mask_incidence([], [])\n"
              "class Trainer:\n"
              "    def __init__(self, scenes, entities):\n"
              "        self.incidence = mask_incidence(scenes, entities)\n"
              "    def warmup(self):\n"
              "        return bank.mask_incidence(self.scenes, self.entities)\n"
              "    def train_epoch(self):\n        return self.incidence[0].T.tocsr()\n"
              "def build_bank(trainer):\n"
              "    def inner():\n        return mask_incidence(trainer.scenes, [])\n"
              "    return mask_incidence, inner\n")
    assert incidence_builds(source) == ["<module>", "Trainer.warmup", "Trainer.train_epoch",
                                        "inner"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_trainer_builds_incidence(path):
    assert incidence_builds(path.read_text()) == []


def trainer_state_writes(source: str) -> list[str]:
    """"Trainer.method" for each assignment (=, += or annotated, also inside a
    tuple target or a nested function) to an attribute of self in a Trainer
    method other than __init__: the Trainer is a run's whole carried state,
    and a round changes it only through the objects __init__ set."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Trainer"):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
                found += [f"Trainer.{fn.name}" for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return found


def test_trainer_state_writes_finds_a_leftover():
    source = ("class Trainer:\n"
              "    def __init__(self, cfg):\n        self.cfg, self.step = cfg, 0\n"
              "    def train_epoch(self, batches):\n"
              "        for _ in batches:\n            self.step += 1\n"
              "        self.opt.t = self.cfg.x[0] = 0\n"
              "    def recluster(self):\n"
              "        def inner():\n            self.heads: list = []\n"
              "        feats, self.feats = inner(), None\n"
              "        return feats\n"
              "class Other:\n    def reset(self):\n        self.step = 0\n")
    assert trainer_state_writes(source) == ["Trainer.train_epoch", "Trainer.recluster",
                                            "Trainer.recluster"]


def test_trainer_methods_do_not_assign_its_attributes():
    assert trainer_state_writes((SRC / "train.py").read_text()) == []


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """"module.function:parameter" for each defaulted parameter of a function
    that no call in sources passes, by keyword or by position. Calls match
    functions by name alone; a method's position skips `self`, and a call
    with *args or **kwargs passes every parameter of that kind."""
    defaults, passed = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                pos = a.posonlyargs + a.args
                skip = int(id(node) in methods)
                defaults += [(module, node.name, p.arg, i - skip) for i, p in enumerate(pos)
                             if i >= len(pos) - len(a.defaults)]
                defaults += [(module, node.name, p.arg, None)
                             for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed |= {(name, i) for i in range(len(node.args))}
                passed |= {(name, "*") for x in node.args if isinstance(x, ast.Starred)}
                passed |= {(name, k.arg or "**") for k in node.keywords}
    return sorted(f"{m}.{fn}:{p}" for m, fn, p, i in defaults
                  if not {(fn, p), (fn, "**")} & passed
                  and (i is None or not {(fn, i), (fn, "*")} & passed))


def test_unpassed_defaults_finds_a_leftover():
    sources = {
        "a": ("def f(x, y=1, z=2, *, key=3, other=4):\n    return x\n"
              "def h(v=0):\n    return v\n"
              "class K:\n    def g(self, u=0, w=1):\n        return u\n"),
        "b": "f(0, 1, other=5)\nK().g(2)\nh(**{'v': 1})\n",
    }
    assert unpassed_defaults(sources) == ["a.f:key", "a.f:z", "a.g:w"]


# the console entry point, and the gt class count that perfbench's score and
# criterion 7 pass
CALLED_FROM_OUTSIDE = {"cli.main:argv", "evaluation.confusion:n_gt"}


def test_every_default_is_passed_somewhere():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed_defaults(sources) == sorted(CALLED_FROM_OUTSIDE)


def ufunc_at_calls(source: str) -> list[str]:
    """The function (or "<module>") of each `.at(...)` call, a ufunc's
    unbuffered scatter such as np.add.at: every float group mean is
    data_model.pool_masks. A nested function counts as its own."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "at":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_ufunc_at_calls_finds_a_leftover():
    source = ("np.add.at(sums, [0], 1.0)\n"
              "def pool(x, a):\n"
              "    def inner():\n        np.maximum.at(x, a, 0.0)\n"
              "    at(x)\n    return x.at, np.add.at(x, a, 1.0), inner\n")
    assert ufunc_at_calls(source) == ["<module>", "inner", "pool"]


# match_and_score merges int64 counts, which sum exactly in any order
UFUNC_AT_ALLOWED = {"evaluation.py": ["match_and_score"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_ufunc_at_outside_the_label_merge(path):
    assert ufunc_at_calls(path.read_text()) == UFUNC_AT_ALLOWED.get(path.name, [])


def atomic_open_calls(source: str) -> list[str]:
    """The function (or "<module>") of each call of atomic_open, by name or
    attribute: binary files go through data_model.writing, and text files,
    config.resolved among them, through data_model.write_tsv. A nested
    function counts as its own."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and "atomic_open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_atomic_open_calls_finds_a_leftover():
    source = ("with atomic_open('a.tsv') as f:\n    f.write('x')\n"
              "def save(path, rows):\n"
              "    def inner():\n        return dm.atomic_open(path, 'wb')\n"
              "    with dm.atomic_open(path) as f:\n        f.write(rows)\n"
              "    return atomic_open, inner\n")
    assert atomic_open_calls(source) == ["<module>", "inner", "save"]


ATOMIC_OPEN_ALLOWED = {"data_model.py": ["writing", "write_tsv"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_writers_call_atomic_open(path):
    assert atomic_open_calls(path.read_text()) == ATOMIC_OPEN_ALLOWED.get(path.name, [])


def file_writes(source: str) -> list[str]:
    """The function (or "<module>") of each call that writes or removes a
    file: open (by name or attribute) with a mode, positional or keyword,
    that holds w, a, x or + or is not a constant, and os.remove, os.unlink,
    os.replace and os.rename. A nested function counts as its own."""
    found = []

    def writes(call):
        func = call.func
        if "open" in (getattr(func, "id", None), getattr(func, "attr", None)):
            modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
            return any(not isinstance(m, ast.Constant) or set("wax+") & set(str(m.value))
                       for m in modes)
        return (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
                and func.attr in ("remove", "unlink", "replace", "rename"))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and writes(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_file_writes_finds_a_leftover():
    source = ("open('a.tsv', 'w').write('x')\n"
              "def save(path, mode):\n"
              "    with open(path) as f, open(path, 'rb') as g, io.open(path, 'r+'):\n"
              "        f.read(g.read())\n"
              "    with open(path, mode) as f, open(path, mode='ab') as g:\n"
              "        pass\n"
              "    def inner():\n        os.replace(path, path + '.bak')\n"
              "    os.unlink(path.replace('a', 'b')), os.path.exists(path)\n"
              "    return inner, os.rename\n")
    assert file_writes(source) == ["<module>", "save", "save", "save", "inner", "save"]


# atomic_open writes every file and remove deletes one, each an OSError as an IoError
FILE_WRITERS = {("data_model.py", "atomic_open"), ("data_model.py", "remove")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_atomic_open_and_remove_write_files(path):
    assert [where for where in file_writes(path.read_text())
            if (path.name, where) not in FILE_WRITERS] == []


def repeated_stream_tokens(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each string literal passed as a stream token (an argument after the
    seed) to make_rng or stream_key, by name or attribute, at more than one
    call, with the "module.function" (or "module.<module>") of each call: a
    stream is drawn in one place, so a rule such as a round's one sample
    cannot keep a second copy. A nested function counts as its own."""
    sites = {}

    def visit(module, node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        called = ({getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                  if isinstance(node, ast.Call) else set())
        if called & {"make_rng", "stream_key"}:
            for arg in node.args[1:]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    sites.setdefault(arg.value, []).append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(module, child, where)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return {token: where for token, where in sites.items() if len(where) > 1}


def test_repeated_stream_tokens_finds_a_leftover():
    sources = {
        "a": ("KEY = stream_key(0, 'entity', 1)\n"
              "def draw(seed, n):\n    return make_rng(seed, 'ward-subsample').choice(n)\n"),
        "b": ("def again(seed, stream):\n"
              "    def inner():\n        return rng.make_rng(seed, 'ward-subsample')\n"
              "    return make_rng(seed, stream, 'scene'), stream_key(seed, 'scene', 0), inner\n"
              "def other(seed):\n    return make_rng(seed, 'kmeans-init'), make_rng('entity')\n"),
    }
    assert repeated_stream_tokens(sources) == {"ward-subsample": ["a.draw", "b.inner"],
                                               "scene": ["b.again", "b.again"]}


def test_every_stream_is_drawn_at_one_call():
    assert repeated_stream_tokens({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == {}
