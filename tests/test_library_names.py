"""Every public top-level def or class of the library and the benchmark, and
every public method or property of such a class, has a reader: a name,
attribute, import or string constant in their program code (not their
tests) outside its own definition, or an entry in ALLOWED with the reason
it stays. Strings count because some names are read only through getattr,
as the station columns of CascadeReport are."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in [*ROOT.glob("src/fallcascade/*.py"),
                                    *ROOT.glob("perfbench/*.py")]
                 if not path.name.startswith("test_"))

# names that no program code reads, kept for the tests
ALLOWED = {
    "flops_conv": "criterion 1's golden of the convolution FLOP count",
    "kl_soft": "criterion 3's KL properties",
    "cross_entropy": "the scalar cross-entropy oracle of the loss tests",
    "loss_dual": "the scalar dual KD loss oracle of the loss tests",
    "loss_tri": "the scalar triple KD loss oracle of the loss tests",
    "model_flops": "each station's FLOP count, planned for the report's stations",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(node) -> Counter:
    """How often each name is read in node: as a name, an attribute, an
    imported name or a string constant."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def _definitions(tree):
    """(label, name, node) of each public top-level def or class, and of each
    public method or property of a public class, labelled `Class.method`."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{method.name}", method.name, method)
                            for method in node.body
                            if isinstance(method, FUNCTIONS) and not method.name.startswith("_"))


def test_every_public_name_has_a_reader():
    read, definitions = Counter(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read += _reads(tree)
        definitions += _definitions(tree)
    # a name its own definition reads, as a recursion does, has no reader
    unread = [label for label, name, node in definitions if read[name] <= _reads(node)[name]]
    assert sorted(unread) == sorted(ALLOWED)
